import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qalpha import (
    ConfigError,
    Cube,
    TreeSets,
    kernel_decay_check,
    ring_counts,
    sample_pairs,
    tree_sets,
)
from qalpha import cubes as cubes_module
from qalpha.grid import dilate

import oracles

UNIT1 = Cube((0.0,), 1.0)
UNIT2 = Cube((0.0, 0.0), 1.0)


def pair_list(root, count, seed) -> list:
    """The `sample_pairs` arrays as a list of (x, y) pairs of float tuples."""
    x, y = sample_pairs(root, count, seed)
    return list(zip(map(tuple, x.tolist()), map(tuple, y.tolist())))


def one(root, x, y, m) -> TreeSets:
    """The tree set of one pair: a batch of one."""
    return tree_sets(root, [x], [y], m)


def batch_keys(sets, p=0) -> set:
    """(level, index) of every member of pair p's tree set in a TreeSets batch."""
    out = set()
    for k in range(sets.depth[p]):
        box = zip(sets.first[p, k].tolist(), sets.last[p, k].tolist())
        out |= {(k, i) for i in itertools.product(*(range(f, l + 1) for f, l in box))}
    return out


def minimal_keys(sets, p=0) -> set:
    """(level, index) of pair p's minimal cubes, from the `_minimal_cubes` rows."""
    owner, level, index = cubes_module._minimal_cubes(sets)
    rows = zip(owner.tolist(), level.tolist(), index.tolist())
    return {(k, tuple(i)) for o, k, i in rows if o == p}


def all_ring_classes(sets) -> list[dict]:
    """Per pair of the batch, {(level, index): (ring, kind)} of its minimal
    cubes, from one `_classified` call, which gives each minimal cube exactly
    one class."""
    owner, level, index, ring, kind = cubes_module._classified(sets)
    rows = zip(owner.tolist(), level.tolist(), index.tolist(), ring.tolist(), kind.tolist())
    out = [[] for _ in range(len(sets))]
    for o, k, i, r, c in rows:
        out[o].append(((k, tuple(i)), (r, c)))
    owner, level, index = cubes_module._minimal_cubes(sets)
    keys = [set() for _ in range(len(sets))]
    for o, k, i in zip(owner.tolist(), level.tolist(), index.tolist()):
        keys[o].add((k, tuple(i)))
    assert all(len(dict(rows)) == len(rows) and set(dict(rows)) == k for rows, k in zip(out, keys))
    return [dict(rows) for rows in out]


def ring_classes(sets, p=0) -> dict:
    """{(level, index): (ring, kind)} of pair p's minimal cubes."""
    return all_ring_classes(sets)[p]


def shell0(x, y) -> tuple[np.ndarray, float]:
    """Center and edge of one pair's I_0, through the array form."""
    center, edge0 = cubes_module._shell0(np.array([x], dtype=float), np.array([y], dtype=float))
    return center[0], float(edge0[0])


def geometry(root, key) -> tuple[tuple[float, ...], float]:
    """Corner and edge of the level-k cube `index` of the root, key = (k, index)."""
    k, index = key
    edge = root.edge * 2.0**-k
    return tuple(c + i * edge for c, i in zip(root.corner, index)), edge


def exact_geometry(root, key) -> tuple[tuple[Fraction, ...], Fraction]:
    """Corner and edge of the level-k cube `index` of the root, as Fractions."""
    k, index = key
    edge = Fraction(root.edge) / 2**k
    return tuple(Fraction(c) + i * edge for c, i in zip(root.corner, index)), edge


def exact_classes_match(sets) -> int:
    """Assert that every minimal cube of the batch has the exact oracle's ring
    class around its own pair, on its exact geometry; return the cube count."""
    count = 0
    for p, classes in enumerate(all_ring_classes(sets)):
        x, y = sets.x[p].tolist(), sets.y[p].tolist()
        for key, ring_class in classes.items():
            assert oracles.exact_ring_class(*exact_geometry(sets.root, key), x, y) == ring_class
        count += len(classes)
    return count


def kernels(sets, counts, alpha: float) -> list[float]:
    """Per row of counts (pair, level), the exact kernel sum of the counted cubes."""
    edges = [sets.root.edge * 2.0**-k for k in range(sets.first.shape[1])]
    return cubes_module._kernel_sums(edges, counts, alpha, sets.root.n)


def dilated(cube, m):
    """The cube dilated by m about its centre, through the array form."""
    corner, edge = dilate(np.array([cube.corner]), cube.edge, m)
    return Cube(tuple(corner[0].tolist()), edge)


def test_dilate_examples():
    assert dilated(UNIT1, 2.0) == Cube((-0.5,), 2.0)
    J = Cube(*geometry(UNIT1, (2, (1,))))  # [1/4, 1/2]
    assert dilated(J, 2.0) == Cube((0.125,), 0.5)
    # composition
    K = Cube((0.25, 0.5), 0.125)
    assert dilated(dilated(K, 2.0), 3.0) == dilated(K, 6.0)
    # a stack of corners dilates row by row
    corner, edge = dilate(np.array([[0.0], [0.25]]), 0.25, 2.0)
    assert corner.tolist() == [[-0.125], [0.125]] and edge == 0.5


def test_dyadic_cube_geometry():
    # the ring classifier reads the level-2 cube (1, 3) of the unit square as
    # [0.25, 0.5] x [0.75, 1] and its children 2i + bits as the quarters that
    # tile it: with x, y on its faces, every class matches the predicate
    # oracle on those literal corners and edges
    J = ((0.25, 0.75), 0.25)
    kids = [((0.25 + a / 8, 0.75 + b / 8), 0.125) for a in (0, 1) for b in (0, 1)]
    assert all(
        J[0][d] <= k[0][d] and k[0][d] + k[1] <= J[0][d] + J[1] for k in kids for d in range(2)
    )
    assert sum(k[1] ** 2 for k in kids) == J[1] ** 2
    level = np.array([2, 3, 3, 3, 3])
    index = np.array([[1, 3], [2, 6], [2, 7], [3, 6], [3, 7]])
    faces = [((0.25, 0.75), (0.5, 1.0)), ((0.25, 0.875), (0.375, 0.875)), ((0.5, 0.75), (0.75, 0.5))]
    for x, y in faces:
        ring, kind = cubes_module._ring_classes(
            UNIT2.corner, UNIT2.edge, level, index, np.array([x]), np.array([y]), np.zeros(5, int)
        )
        want = [oracles.brute_force_ring_class(c, e, x, y) for c, e in [J, *kids]]
        assert list(zip(ring.tolist(), kind.tolist())) == want
    # every box index lies in [0, 2^k): no level-1 cube 2 of the unit interval,
    # even for a pair at its upper end
    sets = tree_sets(UNIT1, [(1.0,), (0.999,)], [(0.99,), (1.0,)], 3.0)
    for p in range(2):
        assert all(0 <= i[0] < 2**k for k, i in batch_keys(sets, p))


def test_gamma_hand_example():
    # 2I contains 0.1 and 0.9 but neither level-1 half does
    g = one(UNIT1, (0.1,), (0.9,), 2.0)
    assert batch_keys(g) == {(0, (0,))}
    assert kernels(g, g.counts(), 0.5)[0] == pytest.approx(1.0)


def test_gamma_empty_when_point_outside_dilated_root():
    g = one(UNIT1, (0.1,), (2.9,), 2.0)
    assert g.counts().sum() == 0
    assert minimal_keys(g) == set()


def test_gamma_close_pair_matches_exhaustive():
    g = one(UNIT1, (0.30,), (0.35,), 2.0)
    oracle = oracles.exhaustive_gamma((0.0,), 1.0, (0.30,), (0.35,), 2.0, 8)
    assert batch_keys(g) == oracle


def test_gamma_boundary_ties_are_members():
    # x = 0.75 sits exactly on the closed boundary of 2*[0, 1/2]; both
    # level-1 cubes qualify only through such ties
    g = one(UNIT1, (0.75,), (0.25,), 2.0)
    assert batch_keys(g) == {(0, (0,)), (1, (0,)), (1, (1,))}
    assert batch_keys(g) == oracles.exhaustive_gamma(
        (0.0,), 1.0, (0.75,), (0.25,), 2.0, 4
    )


@pytest.mark.parametrize(
    "n,m,count,max_level",
    [
        (1, 2.0, 25, 10),
        (1, 4.0, 15, 10),
        (2, 2.0, 6, 7),
        (2, 4.0, 4, 7),
        # m = 5/2 and m = 3: odd numerator, and a denominator above 1 for 5/2
        (1, 2.5, 15, 10),
        (1, 3.0, 15, 10),
        (2, 2.5, 6, 7),
        (2, 3.0, 6, 7),
    ],
)
def test_gamma_matches_exhaustive_random(n, m, count, max_level):
    root = UNIT1 if n == 1 else UNIT2
    for x, y in pair_list(root, count, seed=13):
        if quotient_depth(root, x, y, m) > max_level:
            continue
        g = one(root, x, y, m)
        oracle = oracles.exhaustive_gamma(root.corner, root.edge, x, y, m, max_level)
        assert batch_keys(g) == oracle


def record_exact_bounds(monkeypatch, key) -> set:
    """Patch the exact-path bound so that each call adds key(its arguments)
    to the returned set."""
    seen, exact_bound = set(), cubes_module._exact_bound

    def recording(*args):
        seen.add(key(*args))
        return exact_bound(*args)

    monkeypatch.setattr(cubes_module, "_exact_bound", recording)
    return seen


def in_dilated(p, a, e, m, k, i) -> bool:
    """Exact test of p in mJ for J the level-k cube i of the root [a, a + e]:
    |p - center(J)| <= m*l(J)/2, in Fractions."""
    edge = Fraction(e) / 2**k
    center = Fraction(a) + (i + Fraction(1, 2)) * edge
    return abs(Fraction(p) - center) <= Fraction(m) * edge / 2


@pytest.mark.parametrize("m", [2.0, 2.1, 7.3, 16.0])
@pytest.mark.parametrize("a,e", [(-0.25, 1.0), (0.0, 0.3)])
def test_exact_bound_is_first_and_last_dilated_member(a, e, m):
    # random points, ties of either bound and their float neighbours, and
    # subnormals: the first index has p in mJ_i but not in mJ_(i-1), the
    # last has p in mJ_i but not in mJ_(i+1)
    rnd = random.Random(11)
    points = [(5e-324, 0), (5e-324, 90), (-2.0**-1070, 40)]
    for _ in range(60):
        k = rnd.randint(0, 90)
        points.append((a + e * rnd.random(), k))
        shift = (m - 1) / 2 if rnd.random() < 0.5 else -(m + 1) / 2
        tie = a + e * (rnd.randint(0, 2 ** min(k, 50)) - shift) / 2**k
        for t in (tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf)):
            points.append((t, k))
    for p, k in points:
        first = cubes_module._exact_bound(p, a, e, m, k, 0)
        assert in_dilated(p, a, e, m, k, first) and not in_dilated(p, a, e, m, k, first - 1)
        last = cubes_module._exact_bound(p, a, e, m, k, 1)
        assert in_dilated(p, a, e, m, k, last) and not in_dilated(p, a, e, m, k, last + 1)


def tie_pairs(root, m, level):
    """Pairs with a level-`level` index bound on axis 0 that is an integer up
    to rounding: x is the upper point of its pair with q*2^level - (m+1)/2
    an integer, or the lower one with q*2^level + (m-1)/2 an integer, where
    q = (x[0] - a)/E.  Each tie comes as is and one float step either way."""
    a, E = root.corner, root.edge
    sep = E * max(1 / 8, m / 32)
    for q0, upper in ((0.3, True), (0.6, True), (0.4, False), (0.7, False)):
        shift = -(m + 1) / 2 if upper else (m - 1) / 2
        tie = a[0] + E * (round(q0 * 2**level + shift) - shift) / 2**level
        for x0 in (tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf)):
            x = (x0, *(c + E * 0.3 for c in a[1:]))
            yield x, tuple(c + (-sep if upper else sep) for c in x)


@pytest.mark.parametrize("m", [2.0, 2.1, 2.5, 3.0, 16.0])
@pytest.mark.parametrize(
    "root,cap",
    [(UNIT1, 10), (Cube((0.3,), 0.7), 10), (UNIT2, 6), (Cube((-0.25, 0.1), 3.0), 6)],
    ids=["unit1", "root1", "unit2", "root2"],
)
def test_tree_sets_batch_matches_exhaustive(root, cap, m, monkeypatch):
    # one batch of random pairs and of pairs with a bound on or next to an
    # integer; those take the exact path, and every box matches the oracle
    rechecked = record_exact_bounds(monkeypatch, lambda p, a, e, m, k, upper: float(p))
    ties = [pair for level in (1, 2, 3) for pair in tie_pairs(root, m, level)]
    pairs = [
        (x, y)
        for x, y in pair_list(root, 8, seed=17) + ties
        if quotient_depth(root, x, y, m) <= cap
    ]
    assert sum(pair in pairs for pair in ties) >= 6
    sets = tree_sets(root, [x for x, _ in pairs], [y for _, y in pairs], m)
    for p, (x, y) in enumerate(pairs):
        level = quotient_depth(root, x, y, m)
        oracle = oracles.exhaustive_gamma(root.corner, root.edge, x, y, m, level)
        assert batch_keys(sets, p) == oracle
        assert batch_keys(one(root, x, y, m)) == oracle
        if (x, y) in ties:
            assert x[0] in rechecked


def test_gamma_upward_closure_and_finiteness():
    for x, y in pair_list(UNIT2, 20, seed=21):
        members = batch_keys(one(UNIT2, x, y, 2.0))
        d_inf = max(abs(a - b) for a, b in zip(x, y))
        for k, index in members:
            assert geometry(UNIT2, (k, index))[1] >= d_inf / 2.0
            if k > 0:
                assert (k - 1, tuple(i // 2 for i in index)) in members


def test_gamma_errors():
    with pytest.raises(ConfigError, match="diagonal"):
        one(UNIT1, (0.5,), (0.5,), 2.0)
    x, y = [(0.1, 0.2), (0.5, 0.5), (0.3, 0.7)], [(0.3, 0.2), (0.5, 0.5), (0.3, 0.6)]
    with pytest.raises(ConfigError, match="diagonal"):  # one diagonal pair among several
        tree_sets(UNIT2, x, y, 2.0)
    with pytest.raises(ConfigError, match=">= 2"):
        one(UNIT1, (0.1,), (0.9,), 1.5)
    for m in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            one(UNIT1, (0.1,), (0.9,), m)
    with pytest.raises(ConfigError, match="point dimension does not match root cube"):
        tree_sets(UNIT2, [(0.1,)], [(0.3,)], 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tree_sets_reject_non_finite_points(bad):
    for x, y in (((bad,), (0.5,)), ((0.5,), (bad,))):
        with pytest.raises(ConfigError, match="points must be finite"):
            one(UNIT1, x, y, 2.0)
    with pytest.raises(ConfigError, match="points must be finite"):  # one pair among several
        tree_sets(UNIT2, [(0.1, 0.2), (0.3, bad)], [(0.3, 0.2), (0.5, 0.5)], 2.0)


@pytest.mark.parametrize("far", [1e20, -1e300])
def test_tree_sets_far_point_has_depth_zero(far):
    # a point whose exact level-0 bound does not fit an int64 index has an
    # empty level-0 box, as x = 1e18 has, and the other pair of its batch
    # keeps the boxes of its own one-pair tree set
    assert one(UNIT1, (far,), (0.5,), 2.0).depth.tolist() == [0]
    assert one(UNIT1, (1e18,), (0.5,), 2.0).depth.tolist() == [0]
    near = (0.1, 0.2), (0.3, 0.2)
    both = tree_sets(UNIT2, [(far, 0.3), near[0]], [(0.5, 0.5), near[1]], 2.0)
    alone = one(UNIT2, *near, 2.0)
    width = alone.first.shape[1]
    assert both.depth.tolist() == [0, int(alone.depth[0])]
    assert both.first[1, :width].tolist() == alone.first[0].tolist()
    assert both.last[1, :width].tolist() == alone.last[0].tolist()
    assert batch_keys(both, 1) == batch_keys(alone)


def quotient_depth(root, x, y, m) -> int:
    """A bound on the pair's tree-set depth from the quotient m * edge / |x - y|_inf
    and math.log2: a level-k box needs |x - y|_inf <= m * edge * 2^-k."""
    d_inf = max(abs(a - b) for a, b in zip(x, y))
    return max(0, math.ceil(math.log2(m * root.edge / d_inf))) + 1


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("e", [1020, 1030, 1070])
def test_tree_sets_below_the_quotient_range(n, e):
    # below about m * 2^-1024, m * edge / |x - y|_inf overflows; the walk needs no
    # such quotient, stops one level past the set, and builds the set and its rings
    root = Cube((0.0,) * n, 1.0)
    x, y = close_pair(n, e)
    if e > 1024:
        with pytest.raises(OverflowError):
            quotient_depth(root, x, y, 3.0)
    sets = one(root, x, y, 3.0)
    assert e < sets.depth[0] == sets.first.shape[1] - 1
    minimal, maxima = ring_counts(sets)
    assert minimal.sum() >= 1 and maxima.sum() >= 1


@pytest.mark.parametrize("n", [1, 2])
def test_tree_sets_walk_ends_one_level_past_the_deepest_set(n):
    # a batch is as wide as its deepest set plus the empty level that ends the
    # walk, and the shallow pairs beside a deep one keep their own boxes
    root = Cube((0.0,) * n, 1.0)
    pairs = [close_pair(n, 1000)] + pair_list(root, 200, seed=5)
    sets = tree_sets(root, *zip(*pairs), 3.0)
    assert sets.first.shape[1] == sets.depth.max() + 1 and sets.depth[0] > 1000
    for p, (x, y) in enumerate(pairs):
        alone, d = one(root, x, y, 3.0), sets.depth[p]
        assert alone.depth[0] == d and alone.first.shape[1] == d + 1
        assert sets.first[p, :d].tolist() == alone.first[0, :d].tolist()
        assert sets.last[p, :d].tolist() == alone.last[0, :d].tolist()


@pytest.mark.parametrize("n", [1, 2])
def test_tree_sets_of_no_pair(n):
    sets = tree_sets(Cube((0.0,) * n, 1.0), np.empty((0, n)), np.empty((0, n)), 2.0)
    assert sets.first.shape == sets.last.shape == (0, 1, n) and sets.depth.shape == (0,)
    minimal, maxima = ring_counts(sets)
    assert minimal.shape == (0, 1) and maxima.shape == (0, 2)


def test_allowed_single_and_chain():
    g = one(UNIT1, (0.1,), (0.9,), 2.0)
    assert minimal_keys(g) == {(0, (0,))}
    # a literal chain I > J1 > J2 has the deepest member as its only minimum
    chain = np.array([[[0], [0], [1]]])  # (pairs, levels, n): first = last
    g2 = TreeSets(UNIT1, np.array([[0.3]]), np.array([[0.4]]), chain, chain, np.array([3]))
    assert batch_keys(g2) == {(0, (0,)), (1, (0,)), (2, (1,))}
    assert minimal_keys(g2) == {(2, (1,))}
    # and on a real branched instance, minimality matches the brute force
    g3 = one(UNIT1, (0.26,), (0.27,), 2.0)
    assert minimal_keys(g3) == oracles.brute_force_minimal(batch_keys(g3))


@pytest.mark.parametrize("n,m", [(1, 2.0), (1, 4.0), (2, 2.0), (1, 2.5), (1, 3.0), (2, 2.5), (2, 3.0)])
def test_allowed_matches_brute_force_and_disjoint(n, m):
    root = UNIT1 if n == 1 else UNIT2
    sets = tree_sets(root, *sample_pairs(root, 15, seed=5), m)
    for p in range(len(sets)):
        al = minimal_keys(sets, p)
        assert al == oracles.brute_force_minimal(batch_keys(sets, p))
        cubes = [Cube(*geometry(root, key)) for key in al]
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                a, b = cubes[i], cubes[j]
                overlap = all(
                    max(ca, cb) < min(ca + a.edge, cb + b.edge)
                    for ca, cb in zip(a.corner, b.corner)
                )
                assert not overlap


def test_deep_tree_set_indices_past_int64(monkeypatch):
    # x near 0 in the root [-1, 1] with |x - y| = 2^-66: the minimal cubes sit
    # at levels 59..67 with indices above 2^63
    root = Cube((-1.0,), 2.0)
    x, y = (2.0**-60,), (2.0**-60 + 2.0**-66,)
    rechecked = record_exact_bounds(monkeypatch, lambda p, a, e, m, k, upper: (k, upper))
    g = one(root, x, y, 2.0)
    # from 2^k q = 2^49 (q = 1/2 here) on, both bounds of every level are exact
    depth = int(g.depth[0])
    assert rechecked >= {(k, upper) for k in range(50, depth + 1) for upper in (0, 1)}
    al = minimal_keys(g)
    assert al == oracles.brute_force_minimal(batch_keys(g))
    assert max(index[0] for _, index in al) > 2**63
    # one class per minimal cube; past 2^53 the float corners round, so the
    # classes are checked on the exact geometry
    assert exact_classes_match(g) == len(al)


def test_box_arithmetic_matches_members():
    # counts, boxes and the level-by-level kernel sum agree with the built cubes
    for n in (1, 2):
        root = UNIT1 if n == 1 else UNIT2
        for x, y in pair_list(root, 20, seed=41):
            g = one(root, x, y, 3.0)
            depth = int(g.depth[0])
            # the expansion every minimal-cube row comes from, over the live boxes
            box, index = cubes_module._expand(g.first[0, :depth], g.last[0, :depth])
            members = {(k, tuple(i)) for k, i in zip(box.tolist(), index.tolist())}
            assert g.counts().sum() == len(box) == len(members)
            assert all(
                k < depth and all(g.first[0, k] <= i) and all(i <= g.last[0, k])
                for k, i in members
            )
            assert members == batch_keys(g)
            by_level = kernels(g, g.counts(), 0.5)
            expo = -(2.0 * 0.5 + n)
            assert by_level == [math.fsum(geometry(root, key)[1] ** expo for key in members)]
            # a cube below the last level is not a member
            assert (depth, (0,) * n) not in members


def test_kernel_sum_values():
    # one level-0 cube, then one level-1 cube, of the unit interval
    assert cubes_module._kernel_sums([1.0, 0.5], [[1, 0]], 0.5, 1) == [1.0]
    assert cubes_module._kernel_sums([1.0, 0.5], [[0, 1]], 0.5, 1) == [4.0]
    with pytest.raises(ConfigError, match="divergent"):
        cubes_module._kernel_sums([], [[]], -0.5, 1)


def test_kernel_sums_match_expanded_fsum():
    # the counted sum is bit for bit math.fsum over every copy of every term
    rng = random.Random(11)
    cases = [
        ([], 0.5, 1),
        ([(1.0, 3), (0.5, 0)], 0.5, 1),
        ([(3.0, 1), (3.0, 1), (1.0, 1)], 0.5, 1),  # two equal terms
        ([(1.0, 1), (2.0**53, 1)], 0.0, 1),  # 1 + 2^-53: a tie, rounded down to even
        ([(1.0, 1), (2.0**52, 1), (2.0**53, 1)], 0.0, 1),  # a tie rounded up to even
        ([(2.0**530, 5), (2.0**700, 7), (2.0**500, 1)], 0.5, 1),  # subnormal terms and 0
    ]
    for _ in range(300):
        n = rng.choice((1, 2))
        edges = (2.0**-rng.randint(0, 40), rng.uniform(1e-3, 1.0), 2.0**rng.uniform(0, 700))
        terms = [(rng.choice(edges), rng.randint(0, 200)) for _ in range(rng.randint(1, 8))]
        cases.append((terms, rng.uniform(-n / 2 + 1e-3, 2.0), n))
    for terms, alpha, n in cases:
        expo = -(2.0 * alpha + n)
        want = math.fsum(t for e, c in terms for t in itertools.repeat(e**expo, c))
        edges, counts = [e for e, _ in terms], [[c for _, c in terms]]
        assert cubes_module._kernel_sums(edges, counts, alpha, n) == [want]


def test_kernel_sums_rows_match_expanded_fsum():
    # every row of a count matrix is its own fsum, bit for bit; an all-zero
    # row sums to 0.0, and the weight of a level no row counts is never
    # formed: 2^-600 would give 2^1200 at alpha = 0.5, n = 1
    rng = random.Random(12)
    edges = [2.0**-k for k in range(12)] + [0.3, 2.0**-600]
    counts = [[rng.randint(0, 50) for _ in edges[:-1]] + [0] for _ in range(40)]
    counts[7] = [0] * len(edges)
    counts[19][:-1] = [1, 0, 0, 1] * 3 + [0]
    for alpha, n in ((0.5, 1), (0.3, 2), (-0.2, 1)):
        expo = -(2.0 * alpha + n)
        want = [
            math.fsum(e**expo for e, c in zip(edges, row) if c for _ in range(c))
            for row in counts
        ]
        got = cubes_module._kernel_sums(edges, np.array(counts), alpha, n)
        assert got == want
        assert got[7] == 0.0
    with pytest.raises(ConfigError, match="overflow"):
        cubes_module._kernel_sums(edges, [[0] * (len(edges) - 1) + [1]], 0.5, 1)


def test_tree_sets_members_union_of_pairs():
    # a two-pair batch holds the members of both one-pair tree sets
    for n in (1, 2):
        root = UNIT1 if n == 1 else UNIT2
        (x1, y1), (x2, y2) = pair_list(root, 2, seed=43)
        both = tree_sets(root, [x1, x2], [y1, y2], 2.5)
        first, second = batch_keys(one(root, x1, y1, 2.5)), batch_keys(one(root, x2, y2, 2.5))
        assert batch_keys(both, 0) | batch_keys(both, 1) == first | second
        assert batch_keys(both[:1]) == first and batch_keys(both[1:]) == second


def test_kernel_subset_monotone_exact():
    sets = tree_sets(UNIT1, *sample_pairs(UNIT1, 50, seed=9), 2.0)
    minimal, _ = ring_counts(sets)
    for full, allowed in zip(kernels(sets, sets.counts(), 0.5), kernels(sets, minimal, 0.5)):
        assert full >= allowed


def test_kernel_equivalence_constant_stable_under_deeper_trees():
    # the tree set is complete: its last nonempty level lies above the
    # quotient depth
    for x, y in pair_list(UNIT1, 25, seed=10):
        g1 = one(UNIT1, x, y, 2.0)
        assert g1.depth[0] <= quotient_depth(UNIT1, x, y, 2.0)
        minimal, _ = ring_counts(g1)
        c = kernels(g1, g1.counts(), 0.5)[0] / kernels(g1, minimal, 0.5)[0]
        assert math.isfinite(c) and c >= 1.0


def test_classification_single_cube_kinds():
    # I0 = [0.1, 0.9]: the root meets it and fits inside I1 -> class (0, 1)
    assert set(ring_classes(one(UNIT1, (0.1,), (0.9,), 2.0)).values()) == {(0, 1)}
    assert shell0((0.1,), (0.9,))[1] == pytest.approx(0.8)
    # a tight pair: the root still meets I0 but pokes out of I1 -> class (0, 2)
    for (level, _), (k, kind) in ring_classes(one(UNIT1, (0.49,), (0.51,), 2.0)).items():
        if level == 0:
            assert kind == 2


def test_classification_matches_predicate_oracle():
    pairs = pair_list(UNIT2, 20, seed=17)
    sets = tree_sets(UNIT2, *zip(*pairs), 2.0)
    minimal, _ = ring_counts(sets)
    for p, ((x, y), classes) in enumerate(zip(pairs, all_ring_classes(sets))):
        # rings partition the allowed set
        assert len(classes) == minimal[p].sum()
        for key, ring_class in classes.items():
            assert oracles.brute_force_ring_class(*geometry(UNIT2, key), x, y) == ring_class
        # the initial cube has edge sqrt(n)|x-y| and contains both points
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        center, edge0 = shell0(x, y)
        assert edge0 == pytest.approx(math.sqrt(2) * d)
        for a, b, c in zip(x, y, (c - edge0 / 2 for c in center)):
            assert c <= a <= c + edge0 and c <= b <= c + edge0


def dyadic_tie_pairs(n: int, step: int) -> list:
    """Every pair of points on the grid of step step/32 in the unit cube."""
    points = itertools.product([i / 32 for i in range(0, 33, step)], repeat=n)
    return list(itertools.combinations(points, 2))


@pytest.mark.parametrize("n,step", [(1, 1), (2, 8)])
def test_classification_boundary_ties_match_predicate_oracle(n, step):
    # pairs on a dyadic grid: shell corners (and for n = 1 shell edges) are
    # dyadic, so cube faces land exactly on shell faces
    root = UNIT1 if n == 1 else UNIT2
    pairs = dyadic_tie_pairs(n, step)
    sets = tree_sets(root, *zip(*pairs), 2.0)
    for (x, y), classes in zip(pairs, all_ring_classes(sets)):
        for key, ring_class in classes.items():
            assert oracles.brute_force_ring_class(*geometry(root, key), x, y) == ring_class


def test_ring_partition_reconstructs_allowed_kernel():
    # summing the kernel ring by ring reproduces the minimal-cube kernel,
    # i.e. the two-kind split really is a partition
    for x, y in pair_list(UNIT1, 25, seed=31):
        g = one(UNIT1, x, y, 2.0)
        minimal, _ = ring_counts(g)
        by_ring = {}  # minimal cubes per level, per ring class
        for (k, _), ring_class in ring_classes(g).items():
            by_ring.setdefault(ring_class, [0] * minimal.shape[1])[k] += 1
        by_rings = sum(kernels(g, list(by_ring.values()), 0.5))
        assert by_rings == pytest.approx(kernels(g, minimal, 0.5)[0], rel=1e-12)


def test_far_pair_scaled_kernel_closed_form():
    # Gamma = {root} only, so k = 1 and k * |x-y|^(2a+n) = 0.8^(2a+1)
    x, y = (0.1,), (0.9,)
    g = one(UNIT1, x, y, 2.0)
    for alpha in (0.3, 0.5):
        (k,) = kernels(g, g.counts(), alpha)
        assert k == 1.0
        assert k * 0.8 ** (2 * alpha + 1) == pytest.approx(0.8 ** (2 * alpha + 1))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 2.5, 3.0])
def test_ring_counts_match_oracles(n, m, monkeypatch):
    root = Cube((0.0,) * n, 1.0)
    pairs = pair_list(root, 24, seed=31)
    if n == 2:  # the exhaustive enumeration visits 4^k cubes per level
        pairs = [p for p in pairs if quotient_depth(root, *p, m) <= 8][:4]
    sets = tree_sets(root, *zip(*pairs), m)
    minimal, maxima = ring_counts(sets)
    for p, (x, y) in enumerate(pairs):
        depth = quotient_depth(root, x, y, m)
        found = oracles.child_free_members(
            oracles.exhaustive_gamma(root.corner, root.edge, x, y, m, depth)
        )
        per_level = np.bincount([k for k, _ in found], minlength=minimal.shape[1])
        assert np.array_equal(minimal[p], per_level)
        rings = Counter(
            oracles.brute_force_ring_class(tuple(i * 2.0**-k for i in index), 2.0**-k, x, y)
            for k, index in found
        )
        assert maxima[p].tolist() == [
            max((c for (_, kind), c in rings.items() if kind == want), default=0)
            for want in (1, 2)
        ]
    monkeypatch.setattr(cubes_module, "_BATCH_MEMBERS", 1)  # one pair per batch
    one_by_one = ring_counts(sets)
    assert all(np.array_equal(a, b) for a, b in zip(one_by_one, (minimal, maxima)))


def test_count_summary_single_cube():
    g = one(UNIT1, (0.1,), (0.9,), 2.0)
    assert Counter(ring_classes(g).values()) == {(0, 1): 1}  # ring 0: one kind-1 cube
    m, n = 2.0, 1
    (kind1, kind2), = ring_counts(g)[1].tolist()
    assert kind1 / m**n == 0.5
    assert kind2 == 0


def test_count_bounds_frozen_constants():
    # bounds established by the build-time oracle sweep (2000 pairs, seed 7):
    # n=1: kind1/m^n <= 0.75, kind2 <= 2
    for m in (2.0, 4.0):
        _, maxima = ring_counts(tree_sets(UNIT1, *sample_pairs(UNIT1, 120, seed=7), m))
        for kind1, kind2 in maxima.tolist():
            assert kind1 / m**1 <= 0.75 + 1e-12
            assert kind2 <= 2


def test_sample_pairs_properties():
    x, y = sample_pairs(UNIT2, 40, seed=3)
    assert x.shape == y.shape == (40, 2)
    for a, b in zip(x.tolist(), y.tolist()):
        assert all(0.0 <= c <= 1.0 for c in a + b)
        r = math.sqrt(sum((p - q) ** 2 for p, q in zip(a, b)))
        assert 4e-3 <= r <= 4e-1
    again = sample_pairs(UNIT2, 40, seed=3)
    assert x.tolist() == again[0].tolist() and y.tolist() == again[1].tolist()


def test_sample_pairs_rejects_dimension_three():
    # the direction is a sign (n = 1) or an angle (n = 2); nothing samples a sphere
    with pytest.raises(ConfigError, match="dimension 1 or 2, got 3"):
        sample_pairs(Cube((0.0,) * 3, 1.0), 1, 0)
    with pytest.raises(ConfigError, match="dimension 1 or 2, got 3"):
        kernel_decay_check(0.5, 2.0, 3, 10, 7)


def test_sample_pairs_rejects_a_root_narrower_than_the_largest_separation():
    sample_pairs(Cube((0.0,), 0.4), 1, 0)
    with pytest.raises(ConfigError, match="separations up to 0.4 exceed the root cube edge"):
        sample_pairs(Cube((0.0,), 0.39), 1, 0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("corner,edge", [(0.0, 1.0), (0.25, 0.5), (-0.3, 0.75)])
def test_sample_pairs_matches_sequential_draws(n, corner, edge):
    # one block of n + 2 doubles per attempt reproduces the attempt-by-attempt
    # draws (corner, log-radius, direction) bit for bit
    root = Cube((corner,) * n, edge)
    for seed, count in itertools.product((0, 1, 7919), (1, 3, 2000)):
        want = oracles.sequential_pairs(root.corner, root.edge, count, seed)
        x, y = sample_pairs(root, count, seed)
        assert repr(x.tolist()) == repr([list(a) for a, _ in want])
        assert repr(y.tolist()) == repr([list(b) for _, b in want])


def close_pair(n: int, e: int):
    """x and y about 2^-e from the corner 0 of the unit root, with the same
    digits at every e."""
    x, y = (0.3, 0.7)[:n], (0.55, 0.45)[:n]
    return tuple(math.ldexp(v, -e) for v in x), tuple(math.ldexp(v, -e) for v in y)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_close_pairs_keep_their_ring_classes(n, m):
    # scaling a pair by 2^(60-e) scales its tree set and shells exactly; the
    # cubes inside [0, 2^(60-e))^n then carry the classes of the pair at 2^-60,
    # and the cubes outside, whose rings reach e and beyond with m = 3, must
    # still find one.  At e = 600 and 1000, |x-y|^2 is below the smallest normal float.
    root = Cube((0.0,) * n, 1.0)
    x, y = close_pair(n, 60)
    base = one(root, x, y, m)
    want = ring_classes(base)
    for key, ring_class in want.items():  # the predicate oracle squares |x-y| too: e = 60 only
        assert oracles.brute_force_ring_class(*geometry(root, key), x, y) == ring_class
    for e in (200, 600, 1000):
        sets = one(root, *close_pair(n, e), m)
        shift = e - 60
        classes = ring_classes(sets)
        inside = {
            (k - shift, index): ring_class
            for (k, index), ring_class in classes.items()
            if k >= shift and all(i < 2 ** (k - shift) for i in index)
        }
        assert inside == want
        assert ring_counts(sets)[1].tolist() == ring_counts(base)[1].tolist()
        if m == 3.0:  # a level-1 cube is minimal at every e: its ring grows with e
            assert max(classes.values())[0] == max(want.values())[0] + shift


def walk_ring_classes(root_corner, root_edge, level, index, center, edge0):
    """The shell walk that classified minimal cubes before the exact rule, a
    float reference: J's ring is the first k = 0, 1, 2, ... with J meeting I_k."""
    edge = root_edge * np.ldexp(1.0, -level)
    corner = root_corner + index.astype(float) * edge[:, None]
    end = corner + edge[:, None]
    reach = np.maximum(abs(corner - center), abs(end - center)).max(axis=1, initial=0.0)
    with np.errstate(divide="ignore"):  # a cube below its corner's ulp has reach 0
        shells = np.ceil(np.log2(2 * reach) - np.log2(edge0)).max(initial=0.0)
    ring = np.zeros(len(edge), dtype=np.int64)
    todo = np.arange(len(edge))
    for k in range(int(shells) + 2):
        if not todo.size:
            break
        s = np.ldexp(edge0[todo], k)
        b = center[todo] - (s / 2)[:, None]
        meets = np.all(np.maximum(corner[todo], b) <= np.minimum(end[todo], b + s[:, None]), axis=1)
        ring[todo[meets]] = k
        todo = todo[~meets]
    if todo.size:
        raise AssertionError("allowed cube matched no ring class")
    s = np.ldexp(edge0, ring + 1)
    b = center - (s / 2)[:, None]
    inside = np.all((b <= corner) & (end <= b + s[:, None]), axis=1)
    return ring, np.where(inside, 1, 2)


# Pairs one float step apart next to a center far larger than |x - y|: float
# comparisons of shell faces are not monotone in k there, and a walk from
# I_0, or a ring started from its candidate, reflects rounding (found by a
# random search over such pairs).
ULP_PAIRS = [
    ((0.1810661170641817, 0.9311455586885095), (0.18106611706418171, 0.9311455586885095), 3.0),
    ((0.6358933291733394, 0.39641309735086966), (0.6358933291733394, 0.3964130973508697), 3.0),
    ((0.22125482330807084, 0.5850690423852357), (0.2212548233080708, 0.5850690423852357), 2.0),
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_ring_classes_match_shell_walk(n, m):
    # the float classes are the walk's first shell for sampled pairs
    root = Cube((0.0,) * n, 1.0)
    sets = tree_sets(root, *sample_pairs(root, 2000, seed=1), m)
    owner, level, index, ring, kind = cubes_module._classified(sets)
    center, edge0 = cubes_module._shell0(sets.x, sets.y)
    args = (sets.root.corner, sets.root.edge, level, index, center[owner], edge0[owner])
    walk_ring, walk_kind = walk_ring_classes(*args)
    assert len(ring) > len(sets) and np.array_equal(ring, walk_ring)
    assert np.array_equal(kind, walk_kind)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_classified_matches_exact_oracle(n, m):
    # sampled pairs in one batch; close pairs down to subnormal separations,
    # where rings pass 1000, and the pairs one float step apart, on the axes
    # where they differ, each in its own batch.  The pair at 2^-1074 has a
    # subnormal, rounded l0 (sqrt(58) * 2^-1074 for n = 2).
    root = Cube((0.0,) * n, 1.0)
    sets = tree_sets(root, *sample_pairs(root, 500, seed=1), m)
    assert exact_classes_match(sets) > len(sets)
    pairs = [close_pair(n, e) for e in (60, 200, 600, 1000, 1020, 1030, 1070)]
    pairs.append(tuple(tuple(math.ldexp(v, -1074) for v in p[:n]) for p in ((32, 30), (34, 25))))
    pairs += [(x[:n], y[:n]) for x, y, _ in ULP_PAIRS if x[:n] != y[:n]]
    for x, y in pairs:
        assert exact_classes_match(one(root, x, y, m)) >= 1
    # a root of edge 0.7 * 2^-1000 and a pair about 2^-1022 apart: l0 is
    # normal, and for m = 3 some minimal cubes have subnormal, rounded edges
    root = Cube((0.0,) * n, 0.7 * 2.0**-1000)
    x = tuple(v * root.edge for v in (0.3, 0.7)[:n])
    y = tuple(a + math.ldexp(v, -1022) for a, v in zip(x, (1.5, -0.5)))
    assert exact_classes_match(one(root, x, y, m)) >= 1


# Cubes of the 1-D root of edge 0.7 * 2^-1000 at levels 31-33, (level, index),
# each with a pair about 2^-1021 apart: l0 is normal, J's edge subnormal and
# rounded.  The pair puts a face of I_ring between J's exact upper face and
# its float one, farther than eps from both, so floats on J's float geometry
# give the wrong ring.  Built from the float error of each face.
ROUNDED_EDGE_TIES = [
    (32, 1562769517, 2.3770480606835915e-302, 2.377053711422575e-302),
    (33, 3423614727, 2.603749045742319e-302, 2.6037559151010455e-302),
    (33, 3835634319, 2.917105336596554e-302, 2.9171099362049226e-302),
    (31, 340338642, 1.0353658690233578e-302, 1.0353727287524674e-302),
]


def test_subnormal_cube_edges_are_rechecked():
    root = Cube((0.0,), 0.7 * 2.0**-1000)
    level, index, x, y = (np.array(v) for v in zip(*ROUNDED_EDGE_TIES))
    assert (root.edge * np.ldexp(1.0, -level) < 2.0**-1022).all()
    assert (cubes_module._shell0(x[:, None], y[:, None])[1] >= 2.0**-1022).all()
    args = (level, index[:, None], x[:, None], y[:, None], np.arange(len(x)))
    ring, kind = cubes_module._ring_classes(root.corner, root.edge, *args)
    for k, i, a, b, r, c in zip(level.tolist(), index.tolist(), x, y, ring, kind):
        assert oracles.exact_ring_class(*exact_geometry(root, (k, (i,))), (a,), (b,)) == (r, c)


def test_ring_classes_recheck_every_cube_above_16_axes(monkeypatch):
    # eps bounds the float error of t and r only for n <= 16
    calls = []
    exact = cubes_module._exact_ring_class
    monkeypatch.setattr(cubes_module, "_exact_ring_class", lambda *a: calls.append(a) or exact(*a))
    rng = np.random.default_rng(5)
    for n in (16, 17):
        calls.clear()
        root = Cube((0.0,) * n, 1.0)
        x, y = rng.uniform(0.2, 0.8, (2, 1, n))
        level = rng.integers(1, 8, 40)
        index = (rng.random((40, n)) * 2.0 ** level[:, None]).astype(np.int64)
        ring, kind = cubes_module._ring_classes(root.corner, 1.0, level, index, x, y, np.zeros(40, int))
        assert len(calls) == (40 if n > 16 else 0)
        for k, i, r, c in zip(level.tolist(), index.tolist(), ring, kind):
            assert oracles.exact_ring_class(*exact_geometry(root, (k, tuple(i))), x[0], y[0]) == (r, c)


def test_sub_ulp_cubes_match_exact_oracle():
    # a pair one float step apart: its deepest minimal cubes are narrower
    # than half their corner's ulp, so in floats corner + edge == corner
    x, y, m = ULP_PAIRS[0]
    sets = one(UNIT2, x, y, m)
    _, level, index = cubes_module._minimal_cubes(sets)
    corner = index * np.ldexp(1.0, -level)[:, None]
    assert (corner + np.ldexp(1.0, -level)[:, None] == corner).any()
    assert exact_classes_match(sets) == 284


def near_tie_cubes(n: int, count: int, seed: int) -> tuple:
    """Arguments of `_ring_classes`, one cube of the unit root per pair, with
    the cube's face on axis 0 within a few float steps of a face of one of its
    pair's shells: either face of J on either face of I_k.  J's far face on
    I_k's near face ties its ring; J inside I_k with a face on I_k's face
    ties its kind.  The pair is drawn first, then both points are moved
    along axis 0 until that shell face lands on a cube face, and then by
    -3 to 3 times 2^-53 .. 2^-42 more, inside and outside the float margin.
    On the other axes J holds the center."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, (count, n))
    y = x + rng.uniform(0.005, 0.05, (count, n)) * rng.choice([-1.0, 1.0], (count, n))
    center = (x + y) / 2
    edge0 = math.sqrt(n) * np.sqrt(((x - y) ** 2).sum(axis=1))
    level = rng.integers(3, 12, count)
    edge = np.ldexp(1.0, -level)
    half = np.ldexp(edge0, rng.integers(0, 6, count)) / 2
    below, top = rng.random((2, count)) < 0.5  # I_k's lower face, J's upper face
    face = np.where(below, center[:, 0] - half, center[:, 0] + half)
    first = np.floor(face / edge)
    step = rng.integers(-3, 4, count) * np.ldexp(1.0, rng.integers(-53, -41, count))
    shift = np.where(top, first + 1, first) * edge - face + step
    x[:, 0] += shift
    y[:, 0] += shift
    index = np.floor((x + y) / 2 / edge[:, None]).astype(np.int64)
    index[:, 0] = first
    keep = np.all((0 <= index) & (index < 2**level[:, None]), axis=1)
    owner = np.arange(keep.sum())
    return (0.0,) * n, 1.0, level[keep], index[keep], x[keep], y[keep], owner


def test_ring_classes_match_exact_oracle_on_ties():
    # cube faces on shell faces (the dyadic grids of the tie test above)
    for n, step in ((1, 1), (2, 8)):
        root = Cube((0.0,) * n, 1.0)
        assert exact_classes_match(tree_sets(root, *zip(*dyadic_tie_pairs(n, step)), 2.0))
    # cube faces near shell faces: the float ring or kind can be off inside
    # the margin, where the cube is rechecked, and must be right outside it
    for n, root in ((1, UNIT1), (2, UNIT2)):
        args = near_tie_cubes(n, 20000, seed=n)
        ring, kind = cubes_module._ring_classes(*args)
        _, _, level, index, x, y, _ = args
        for k, i, a, b, r, c in zip(level.tolist(), index.tolist(), x, y, ring, kind):
            assert oracles.exact_ring_class(*exact_geometry(root, (k, tuple(i))), a, b) == (r, c)


# ---------------------------------------------------------------------------
# The object layer that bench/ still names until ROADMAP item 6 must agree
# with the carriers above; item 13 then deletes these tests with it.


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_bench_pinned_object_layer_matches_carriers(n, m):
    root = Cube((0.0,) * n, 1.0)
    pairs = pair_list(root, 30, seed=19)
    sets = tree_sets(root, *zip(*pairs), m)
    minimal, maxima = ring_counts(sets)
    full, allowed = kernels(sets, sets.counts(), 0.5), kernels(sets, minimal, 0.5)
    for p, (x, y) in enumerate(pairs):
        g = cubes_module.gamma_set(root, x, y, m)
        levels = Counter(J.level for J in g.members)  # as bench/workloads.py reads them
        assert [levels[k] for k in range(sets.first.shape[1])] == sets.counts()[p].tolist()
        al = cubes_module.allowed_cubes(g)
        cs = cubes_module.count_summary(cubes_module.classify_allowed(al, x, y, m), m, n)
        assert (cs.max_kind1_over_mn, cs.max_kind2) == (maxima[p, 0] / m**n, maxima[p, 1])
        assert cubes_module.kernel_sum(g.members, 0.5, n) == full[p]
        assert cubes_module.kernel_sum(al, 0.5, n) == allowed[p]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_bench_pinned_classify_allowed_close_pairs(n, m):
    # classify_allowed buckets each minimal cube as the carrier classes it,
    # which test_close_pairs_keep_their_ring_classes ties to the pair at 2^-60
    root = Cube((0.0,) * n, 1.0)
    for e in (60, 200, 600, 1000):
        x, y = close_pair(n, e)
        al = cubes_module.allowed_cubes(cubes_module.gamma_set(root, x, y, m))
        cls = cubes_module.classify_allowed(al, x, y, m)
        got = {(J.level, J.index): key for key, cubes in cls.rings.items() for J in cubes}
        assert got == ring_classes(one(root, x, y, m))
