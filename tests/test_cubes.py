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
from qalpha.cubes import required_max_level
from qalpha.grid import dilate

import oracles

UNIT1 = Cube((0.0,), 1.0)
UNIT2 = Cube((0.0, 0.0), 1.0)


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


def ring_classes(sets, p=0) -> dict:
    """{(level, index): (ring, kind)} of pair p's minimal cubes, from the
    `_classified` rows, which give each minimal cube exactly one class."""
    owner, level, index, ring, kind = cubes_module._classified(sets)
    rows = zip(owner.tolist(), level.tolist(), index.tolist(), ring.tolist(), kind.tolist())
    out = [((k, tuple(i)), (r, c)) for o, k, i, r, c in rows if o == p]
    assert len(dict(out)) == len(out) and set(dict(out)) == minimal_keys(sets, p)
    return dict(out)


def geometry(root, key) -> tuple[tuple[float, ...], float]:
    """Corner and edge of the level-k cube `index` of the root, key = (k, index)."""
    k, index = key
    edge = root.edge * 2.0**-k
    return tuple(c + i * edge for c, i in zip(root.corner, index)), edge


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
        center, edge0 = cubes_module._shell0(x, y)
        ring, kind = cubes_module._ring_classes(
            UNIT2.corner, UNIT2.edge, level, index, np.full((5, 2), center), np.full(5, edge0)
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
    for x, y in sample_pairs(root, count, seed=13):
        if required_max_level(root, x, y, m) > max_level:
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
        for x, y in sample_pairs(root, 8, seed=17) + ties
        if required_max_level(root, x, y, m) <= cap
    ]
    assert sum(pair in pairs for pair in ties) >= 6
    sets = tree_sets(root, [x for x, _ in pairs], [y for _, y in pairs], m)
    for p, (x, y) in enumerate(pairs):
        level = required_max_level(root, x, y, m)
        oracle = oracles.exhaustive_gamma(root.corner, root.edge, x, y, m, level)
        assert batch_keys(sets, p) == oracle
        assert batch_keys(one(root, x, y, m)) == oracle
        if (x, y) in ties:
            assert x[0] in rechecked


def test_gamma_upward_closure_and_finiteness():
    for x, y in sample_pairs(UNIT2, 20, seed=21):
        members = batch_keys(one(UNIT2, x, y, 2.0))
        d_inf = max(abs(a - b) for a, b in zip(x, y))
        for k, index in members:
            assert geometry(UNIT2, (k, index))[1] >= d_inf / 2.0
            if k > 0:
                assert (k - 1, tuple(i // 2 for i in index)) in members


def test_gamma_errors():
    with pytest.raises(ConfigError, match="diagonal"):
        one(UNIT1, (0.5,), (0.5,), 2.0)
    with pytest.raises(ConfigError, match=">= 2"):
        one(UNIT1, (0.1,), (0.9,), 1.5)
    for m in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            one(UNIT1, (0.1,), (0.9,), m)


def test_required_max_level_message_value():
    x, y = (0.5,), (0.5 + 2.0**-6,)
    assert required_max_level(UNIT1, x, y, 2.0) == 8  # ceil(log2(2/2^-6)) + 1


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
    pairs = sample_pairs(root, 15, seed=5)
    sets = tree_sets(root, *zip(*pairs), m)
    for p in range(len(pairs)):
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
    classes = ring_classes(g)  # one class per minimal cube
    assert len(classes) == len(al)
    for key, ring_class in classes.items():
        assert oracles.brute_force_ring_class(*geometry(root, key), x, y) == ring_class


def test_box_arithmetic_matches_members():
    # counts, boxes and the level-by-level kernel sum agree with the built cubes
    for n in (1, 2):
        root = UNIT1 if n == 1 else UNIT2
        for x, y in sample_pairs(root, 20, seed=41):
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
        (x1, y1), (x2, y2) = sample_pairs(root, 2, seed=43)
        both = tree_sets(root, [x1, x2], [y1, y2], 2.5)
        first, second = batch_keys(one(root, x1, y1, 2.5)), batch_keys(one(root, x2, y2, 2.5))
        assert batch_keys(both, 0) | batch_keys(both, 1) == first | second
        assert batch_keys(both[:1]) == first and batch_keys(both[1:]) == second


def test_kernel_subset_monotone_exact():
    sets = tree_sets(UNIT1, *zip(*sample_pairs(UNIT1, 50, seed=9)), 2.0)
    minimal, _ = ring_counts(sets)
    for full, allowed in zip(kernels(sets, sets.counts(), 0.5), kernels(sets, minimal, 0.5)):
        assert full >= allowed


def test_kernel_equivalence_constant_stable_under_deeper_trees():
    # the tree set is complete: its last nonempty level lies above the
    # required depth
    for x, y in sample_pairs(UNIT1, 25, seed=10):
        g1 = one(UNIT1, x, y, 2.0)
        assert g1.depth[0] <= required_max_level(UNIT1, x, y, 2.0)
        minimal, _ = ring_counts(g1)
        c = kernels(g1, g1.counts(), 0.5)[0] / kernels(g1, minimal, 0.5)[0]
        assert math.isfinite(c) and c >= 1.0


def test_classification_single_cube_kinds():
    # I0 = [0.1, 0.9]: the root meets it and fits inside I1 -> class (0, 1)
    assert set(ring_classes(one(UNIT1, (0.1,), (0.9,), 2.0)).values()) == {(0, 1)}
    assert cubes_module._shell0((0.1,), (0.9,))[1] == pytest.approx(0.8)
    # a tight pair: the root still meets I0 but pokes out of I1 -> class (0, 2)
    for (level, _), (k, kind) in ring_classes(one(UNIT1, (0.49,), (0.51,), 2.0)).items():
        if level == 0:
            assert kind == 2


def test_classification_matches_predicate_oracle():
    pairs = sample_pairs(UNIT2, 20, seed=17)
    sets = tree_sets(UNIT2, *zip(*pairs), 2.0)
    minimal, _ = ring_counts(sets)
    for p, (x, y) in enumerate(pairs):
        classes = ring_classes(sets, p)
        # rings partition the allowed set
        assert len(classes) == minimal[p].sum()
        for key, ring_class in classes.items():
            assert oracles.brute_force_ring_class(*geometry(UNIT2, key), x, y) == ring_class
        # the initial cube has edge sqrt(n)|x-y| and contains both points
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        center, edge0 = cubes_module._shell0(x, y)
        assert edge0 == pytest.approx(math.sqrt(2) * d)
        for a, b, c in zip(x, y, (c - edge0 / 2 for c in center)):
            assert c <= a <= c + edge0 and c <= b <= c + edge0


@pytest.mark.parametrize("n,step", [(1, 1), (2, 8)])
def test_classification_boundary_ties_match_predicate_oracle(n, step):
    # pairs on a dyadic grid: shell corners (and for n = 1 shell edges) are
    # dyadic, so cube faces land exactly on shell faces
    root = UNIT1 if n == 1 else UNIT2
    points = itertools.product([i / 32 for i in range(0, 33, step)], repeat=n)
    pairs = list(itertools.combinations(points, 2))
    sets = tree_sets(root, *zip(*pairs), 2.0)
    for p, (x, y) in enumerate(pairs):
        for key, ring_class in ring_classes(sets, p).items():
            assert oracles.brute_force_ring_class(*geometry(root, key), x, y) == ring_class


def test_ring_partition_reconstructs_allowed_kernel():
    # summing the kernel ring by ring reproduces the minimal-cube kernel,
    # i.e. the two-kind split really is a partition
    for x, y in sample_pairs(UNIT1, 25, seed=31):
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
    pairs = sample_pairs(root, 24, seed=31)
    if n == 2:  # the exhaustive enumeration visits 4^k cubes per level
        pairs = [p for p in pairs if required_max_level(root, *p, m) <= 8][:4]
    sets = tree_sets(root, *zip(*pairs), m)
    minimal, maxima = ring_counts(sets)
    for p, (x, y) in enumerate(pairs):
        depth = required_max_level(root, x, y, m)
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
        _, maxima = ring_counts(tree_sets(UNIT1, *zip(*sample_pairs(UNIT1, 120, seed=7)), m))
        for kind1, kind2 in maxima.tolist():
            assert kind1 / m**1 <= 0.75 + 1e-12
            assert kind2 <= 2


def test_sample_pairs_properties():
    pairs = sample_pairs(UNIT2, 40, seed=3)
    assert len(pairs) == 40
    for x, y in pairs:
        assert all(0.0 <= c <= 1.0 for c in x + y)
        r = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        assert 4e-3 <= r <= 4e-1
    assert pairs == sample_pairs(UNIT2, 40, seed=3)


def test_sample_pairs_rejects_dimension_three():
    # the direction is a sign (n = 1) or an angle (n = 2); nothing samples a sphere
    with pytest.raises(ConfigError, match="dimension 1 or 2, got 3"):
        sample_pairs(Cube((0.0,) * 3, 1.0), 1, 0)
    with pytest.raises(ConfigError, match="dimension 1 or 2, got 3"):
        kernel_decay_check(0.5, 2.0, 3, 10, 7)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("corner,edge", [(0.0, 1.0), (0.25, 0.5), (-0.3, 0.75)])
def test_sample_pairs_matches_sequential_draws(n, corner, edge):
    # one block of n + 2 doubles per attempt reproduces the attempt-by-attempt
    # draws (corner, log-radius, direction) bit for bit
    root = Cube((corner,) * n, edge)
    for seed, count in itertools.product((0, 1, 7919), (1, 3, 2000)):
        want = oracles.sequential_pairs(root.corner, root.edge, count, seed)
        assert repr(sample_pairs(root, count, seed)) == repr(want)


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


# ---------------------------------------------------------------------------
# The object layer that bench/ still names until ROADMAP item 6 must agree
# with the carriers above; item 13 then deletes these tests with it.


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_bench_pinned_object_layer_matches_carriers(n, m):
    root = Cube((0.0,) * n, 1.0)
    pairs = sample_pairs(root, 30, seed=19)
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
