"""Dyadic-cube combinatorics over a continuum root cube.

Given two distinct points x, y and a dilation factor m >= 2, the tree set
collects every dyadic subcube J of the root with x, y in mJ (same center,
edge m*l(J)).  At level k it is one index box: per axis, the indices with
x and y in mJ form an integer interval.  The set is upward-closed and so
ends at its first empty box: `tree_sets` walks the levels until every box
of its batch is empty, with no a-priori depth, so a batch is as wide as its
deepest set's depth + 1.  The minimal elements (no child qualifies), each
level's box minus the parents of the next box, are pairwise disjoint and
carry essentially the whole kernel sum
    k(x, y) = sum over qualifying J of l(J)^(-2*alpha - n).

Interval ends are computed a level at a time for all pairs in floats, with
an exact recheck for the pairs whose box is not yet empty.  With q = (p - a)/E
the coordinate of a point p scaled by the root's corner a and edge E, the
level-k index i has p in mJ iff
q*2^k - (m+1)/2 <= i <= q*2^k + (m-1)/2; per axis a pair's box runs from
ceil(q_hi*2^k - (m+1)/2) to floor(q_lo*2^k + (m-1)/2), clipped to [0, 2^k).
q carries two roundings, the scaling by 2^k none, the shift and the sum one
each, so a float bound is within 4u(2^k|q| + m + 1) + 2^(k-1075) of the
exact value (u = 2^-53; the last term only for a subnormal q).  A bound
further than twice that, the margin, from every integer has the exact
ceiling or floor; the others, ties included, are recomputed from q*2^k
in `Fraction`s, where every float is exact, so the ceiling or floor is too.
From 2^k|q| = 2^49 on the margin exceeds 1/2: deep levels are exact.
Kernel sums are exact: a weight l(J)^(-2*alpha - n) is a float num/2^d, so
the sum over counted cubes per level is one integer over the largest 2^d,
rounded once, the value math.fsum gives.  That makes the subset inequality
kernel(full tree) >= kernel(minimal elements) exact.  A batch of tree sets is
a `TreeSets`.

Ring classes are computed on index arrays, never on cube objects.  The
boxes of a batch of tree sets, each with the parent box of the level below,
give one vectorised expansion of every box minus its parent box into rows
(tree set, level, index), one per minimal cube.  One array classifier then
gives each cube its ring among the shells I_k = 2^k I_0 around its pair
(I_0 centered at c = (x+y)/2, edge l0 = sqrt(n)|x-y|_2): the first k with J
meeting I_k, and its kind, 1 if J fits inside I_(k+1) and 2 if not.  With
gap and reach the largest over axes of max(corner - c, c - end, 0) and of
max(c - corner, end - c), J meets I_k iff (2 gap)^2 <= 4^k n|x-y|_2^2, and
fits inside I_(k+1) iff (2 reach)^2 <= 4^(k+1) n|x-y|_2^2, rational both
sides.  The ring is the least k that passes, monotone by construction, and
as x != y (`tree_sets` rejects x == y) it always exists, so no guard
against a missing ring remains.  With t = 2 gap/l0, r = 2 reach/l0 and
ring = max(0, ceil(log2 t)), floats decide a class where t <= 2^ring - eps,
ring = 0 or t > 2^(ring-1) + eps, and |r - 2^(ring+1)| > eps, for
eps = 2^-48 (r + S/l0), S the largest of |root corner|, |corner|, |end|, |c|
and 2^-1022.  With u = 2^-53, and l0 and J's edge normal: corner takes three
roundings (index to float, times edge, plus root corner), so it is within
5uS; end within 6uS; c within uS (the floor on S covers halving a subnormal
x + y); a difference of two adds uS each, so gap and reach are within 9uS.
l0 (n squares by pow within 2u each, an underflowed one within 2u of the
largest, their sum, root and factor sqrt(n)) is within (3n + 7)u/2 relative.
So t and r are within 18uS/l0 + (3n + 9)u/2 * r, below eps for n <= 16.
Every other cube, and every cube for n > 16, is classified exactly, on
integers: the floats scaled by 2^(1075 + level).  No class depends on its batch.
Batches are cut by tree-set members, so their arrays stay small whatever
the pair count or dilation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .grid import _WEIGHT_LOG2_MAX, Cube

__all__ = ["TreeSets", "tree_sets", "ring_counts", "sample_pairs"]


# Upper end of the dilation factor: a tree set has about (m+1)^n members per
# level, and a dilated cube mJ holds (m l(J) N)^n lattice points.
_M_MAX = 16


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=-1) as a loop over that axis, which has one entry
    per coordinate: numpy's own reduction along a short axis is many times slower."""
    return functools.reduce(ufunc, np.moveaxis(a, -1, 0))


def _check_dilation(m: float) -> None:
    if not (math.isfinite(m) and 2 <= m <= _M_MAX):
        raise ConfigError(f"dilation factor must be finite, >= 2 and <= {_M_MAX}, got {m}")


@dataclass(frozen=True, eq=False)
class TreeSets:
    """Tree sets of many pairs (x[p], y[p]) around one root, as index arrays.

    Pair p's level-k box is first[p, k] .. last[p, k] (one entry per axis)
    for k < depth[p]; entries from depth[p] on mean nothing.
    """

    root: Cube
    x: np.ndarray  # (pairs, n)
    y: np.ndarray
    first: np.ndarray  # (pairs, levels, n), int64 or, past level 62, Python ints
    last: np.ndarray
    depth: np.ndarray  # (pairs,)

    def __len__(self) -> int:
        return len(self.depth)

    def __getitem__(self, s: slice) -> TreeSets:
        arrays = (self.x, self.y, self.first, self.last, self.depth)
        return TreeSets(self.root, *(a[s] for a in arrays))

    def counts(self) -> np.ndarray:
        """Members per (pair, level), zero from each pair's depth on."""
        live = np.arange(self.first.shape[1]) < self.depth[:, None]
        return np.where(live, _fold(np.multiply, self.last - self.first + 1), 0)

    def _boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """(pair, level) of every nonempty box."""
        return np.nonzero(np.arange(self.first.shape[1]) < self.depth[:, None])

    @property
    def members(self) -> frozenset[DyadicCube]:  # for bench/ until ROADMAP item 6, as below
        """Every member of the batch's tree sets (their union) as a DyadicCube."""
        pair, level = self._boxes()
        box, index = _expand(self.first[pair, level], self.last[pair, level])
        return frozenset(
            DyadicCube(self.root, k, tuple(i)) for k, i in zip(level[box].tolist(), index.tolist())
        )


def _index_dtype(level: int):
    """Integer dtype for the indices of levels up to `level` (below 2^level)."""
    return np.int64 if level < 63 else object


def _exact_bound(p: float, a: float, e: float, m: float, k: int, upper: int) -> int:
    """First (upper 0) or last (upper 1) level-k index on one axis whose mJ holds p,
    from q = (p - a) * 2^k / e in exact rational arithmetic."""
    q = (Fraction(p) - Fraction(a)) * 2**k / Fraction(e)
    if upper:
        return math.floor(q + (Fraction(m) - 1) / 2)
    return math.ceil(q - (Fraction(m) + 1) / 2)


def tree_sets(root: Cube, x, y, m: float) -> TreeSets:
    """Tree sets of the pairs (x[p], y[p]), walked level by level up to the
    first level at which every pair's box is empty: no depth is fixed ahead,
    and the batch is depth.max() + 1 levels wide (1 for no pair)."""
    _check_dilation(m)
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] != root.n:
        raise ConfigError("point dimension does not match root cube")
    if not _fold(np.logical_or, x != y).all():
        raise ConfigError("diagonal point pair: x == y")
    points = np.maximum(x, y), np.minimum(x, y)
    levels, alive, depth = [], np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=np.int64)
    for k in itertools.count():
        box = []  # first, last
        for upper, p in enumerate(points):
            with np.errstate(over="ignore", invalid="ignore"):  # past float range: rechecked
                t = np.ldexp((p - root.corner) / root.edge, k)
                v = t + ((m - 1) / 2 if upper else -(m + 1) / 2)
                margin = 2.0**-50 * (np.abs(t) + m + 1) + math.ldexp(1.0, k - 1074)
                recheck = ~(np.abs(v - np.rint(v)) > margin) & alive[:, None]
                bound = (np.floor if upper else np.ceil)(np.where(recheck, 0, v))
                bound = bound.astype(np.int64).astype(_index_dtype(k))
            for i, d in zip(*np.nonzero(recheck)):
                bound[i, d] = _exact_bound(p[i, d], root.corner[d], root.edge, m, k, upper)
            box.append(bound)
        first, last = np.maximum(box[0], 0), np.minimum(box[1], (1 << k) - 1)
        levels.append((first, last))
        alive &= ~_fold(np.logical_or, last < first)
        depth += alive
        if not alive.any():
            break
    first, last = (np.stack(b, axis=1) for b in zip(*levels))
    return TreeSets(root, x, y, first, last, depth)


def _expand(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the boxes first[b] .. last[b] (shape (boxes, n)) as rows
    (box, index), in box order and, within a box, last axis fastest."""
    size = (last - first + 1).astype(np.int64)
    volume = _fold(np.multiply, size)
    box = np.repeat(np.arange(len(first)), volume)
    offset = np.arange(len(box)) - np.repeat(np.cumsum(volume) - volume, volume)
    index = np.empty((len(box), first.shape[1]), dtype=first.dtype)
    for d in range(first.shape[1] - 1, -1, -1):
        span = size[:, d][box]
        index[:, d] = first[:, d][box] + offset % span
        offset //= span
    return box, index


def _minimal_cubes(sets: TreeSets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimal cubes of a batch of tree sets as rows (owner, level, index).

    The members with a child in the set are the parents of the next level's
    box, which form the box of halved index ranges; each level contributes
    its box minus that one.  owner is the tree set's position in the batch,
    index has shape (cubes, n).
    """
    owner, level = sets._boxes()
    below = (owner, np.minimum(level + 1, sets.first.shape[1] - 1))
    has_child = (level + 1 < sets.depth[owner])[:, None]  # else the parents are empty
    parent_first = np.where(has_child, sets.first[below] >> 1, 0)
    parent_last = np.where(has_child, sets.last[below] >> 1, -1)
    box, index = _expand(sets.first[owner, level], sets.last[owner, level])
    # np.take and np.compress: row gathers, many times faster than fancy indexing
    lo, hi = np.take(parent_first, box, axis=0), np.take(parent_last, box, axis=0)
    minimal = ~_fold(np.logical_and, (lo <= index) & (index <= hi))
    return owner[box[minimal]], level[box[minimal]], np.compress(minimal, index, axis=0)


def _kernel_sums(edges, counts, alpha: float, n: int) -> list[float]:
    """Per row of `counts`, the sum of counts[r, k] copies of edges[k]^(-2*alpha - n),
    rounded once like math.fsum: each weight is num / 2^d, so a row is one
    integer over the largest 2^d.  Only levels counted in some row are weighed,
    and the largest of their weights must stay below 2^_WEIGHT_LOG2_MAX."""
    if not alpha > -n / 2:
        raise ConfigError(f"divergent tree-sum regime: alpha={alpha} <= -n/2")
    expo = -(2.0 * alpha + n)
    counts = np.asarray(counts, dtype=object)
    used = np.flatnonzero(counts.any(axis=0))
    if used.size and not expo * math.log2(min(edges[k] for k in used)) <= _WEIGHT_LOG2_MAX:
        raise ConfigError(f"alpha={alpha}: kernel weights l(J)^-(2a+n) overflow")
    ratios = [(edges[k] ** expo).as_integer_ratio() for k in used]
    den = max([d for _, d in ratios], default=1)
    nums = np.array([num * (den // d) for num, d in ratios], dtype=object)
    return [int(total) / den for total in counts[:, used].dot(nums)]


# From this |x_d - y_d| on its square is a normal float, and I_0's edge is
# taken as is; a closer pair is squared after an exact rescaling by 2^600.
_SQUARE_MIN = 2.0**-511


def _norms(d: np.ndarray) -> np.ndarray:
    """math.sqrt(sum(v ** 2 for v in row)) of every row of d, bit for bit: Python
    squares each v (a libm pow, which can differ from v * v in the last bit),
    and the squares are added from the first axis on."""
    squares = np.reshape([v**2 for v in d.ravel().tolist()], d.shape)
    return np.sqrt(sum(squares.T, np.zeros(len(d))))


def _shell0(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and edges of I_0 for the pairs (x[p], y[p]), arrays (pairs, n):
    the midpoints, and sqrt(n)|x-y|_2."""
    d = x - y
    scale = np.where(_fold(np.maximum, abs(d)) >= _SQUARE_MIN, 1.0, 2.0**600)
    edge0 = math.sqrt(x.shape[1]) * _norms(d * scale[:, None]) / scale
    return (x + y) / 2, edge0


def _exact_ring_class(a, E: float, k: int, i, x, y) -> tuple[int, int]:
    """Ring class (ring, kind) of the level-k cube i of the root with corner a
    and edge E around x, y, exact: every float is a multiple of 2^-1074, so
    scaled by 2^(1075 + k) the faces, the points and twice c are integers."""
    scale = 2 ** (1075 + k)
    a, x, y = ([p * scale // q for p, q in map(float.as_integer_ratio, w)] for w in (a, x, y))
    e = int(Fraction(E) * scale) >> k
    lo = [2 * (v + j * e) for v, j in zip(a, i)]  # doubled, as c is
    c = [p + q for p, q in zip(x, y)]
    d2 = len(c) * sum((p - q) ** 2 for p, q in zip(x, y))
    gap = max(max(v - w, w - v - 2 * e, 0) for v, w in zip(lo, c))
    reach = max(max(w - v, v + 2 * e - w) for v, w in zip(lo, c))
    ring = max(0, ((gap * gap).bit_length() - d2.bit_length()) // 2 - 1)
    while gap * gap > d2 << 2 * ring:  # J misses I_ring
        ring += 1
    return ring, 1 if reach * reach <= d2 << 2 * (ring + 1) else 2


def _ring_classes(root_corner, root_edge, level, index, x, y, owner):
    """Ring class (k, kind) of each dyadic cube J of the root, given per cube
    by its level, its index and its owner, the row of its pair in x and y:
    k the first shell index with J meeting I_k, kind 1 if J fits inside
    I_(k+1) and 2 if not, in two integer arrays.  Floats decide the cubes
    clear of every threshold by eps, the others are rechecked exactly.
    """
    center, edge0 = _shell0(x, y)
    c, l0 = np.take(center, owner, axis=0), edge0[owner]  # a row gather, as in _minimal_cubes
    edge = root_edge * np.ldexp(1.0, -level)
    corner = root_corner + index.astype(float) * edge[:, None]
    end = corner + edge[:, None]
    gap = np.maximum(_fold(np.maximum, np.maximum(corner - c, c - end)), 0.0)
    reach = _fold(np.maximum, np.maximum(c - corner, end - c))
    size = _fold(np.maximum, np.maximum(np.maximum(abs(corner), abs(end)), abs(c)))
    size = np.maximum(size, max(*map(abs, root_corner), 2.0**-1022))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t, r = 2 * gap / l0, 2 * reach / l0
        eps = 2.0**-48 * (r + size / l0)
        mantissa, ring = np.frexp(t)  # ceil(log2 t) is ring, or ring - 1 at a power of 2
        ring = np.maximum(ring - (mantissa == 0.5), 0).astype(np.int64)
        high = np.ldexp(1.0, ring)
        low = np.where(ring > 0, high / 2, -np.inf)  # no shell below I_0
        bounded = (np.minimum(l0, edge) >= 2.0**-1022) & (len(root_corner) <= 16)  # eps holds
        decided = (low + eps < t) & (t <= high - eps) & (abs(r - 2 * high) > eps) & bounded
        kind = np.where(r <= 2 * high, 1, 2)
    for j in np.flatnonzero(~decided).tolist():
        cube = (int(level[j]), index[j].tolist(), x[owner[j]], y[owner[j]])
        ring[j], kind[j] = _exact_ring_class(root_corner, root_edge, *cube)
    return ring, kind


def _classified(sets: TreeSets) -> tuple[np.ndarray, ...]:
    """The rows (owner, level, index) of `_minimal_cubes`, then each cube's
    ring class (ring, kind) around its own pair."""
    owner, level, index = _minimal_cubes(sets)
    ring, kind = _ring_classes(sets.root.corner, sets.root.edge, level, index, sets.x, sets.y, owner)
    return owner, level, index, ring, kind


# Tree-set members per batch of `ring_counts`: a batch's arrays hold one row
# per member at most, so their size does not grow with the pair count.  Each
# batch costs a few dozen numpy calls, which dominate below about 2^12 members.
_BATCH_MEMBERS = 2**13


def ring_counts(sets: TreeSets) -> tuple[np.ndarray, np.ndarray]:
    """Minimal cubes and ring counts of many tree sets, without cube objects.

    Returns minimal, the minimal cubes per (pair, level), and maxima, per
    pair the largest count of kind-1 and of kind-2 minimal cubes in one ring.
    The pairs are taken in batches of about _BATCH_MEMBERS tree-set members,
    so one batch's expansion is held at a time.
    """
    minimal = np.zeros((len(sets), sets.first.shape[1]), dtype=np.int64)
    maxima = np.zeros((len(sets), 2), dtype=np.int64)
    start, members, last = 0, 0, len(sets) - 1
    for p, count in enumerate(sets.counts().sum(axis=1).tolist()):
        members += count
        if members < _BATCH_MEMBERS and p < last:
            continue
        owner, level, _, ring, kind = _classified(sets[start : p + 1])
        np.add.at(minimal, (start + owner, level), 1)
        rings = int(ring.max(initial=0)) + 1
        key, in_ring = np.unique((owner * rings + ring) * 2 + (kind - 1), return_counts=True)
        np.maximum.at(maxima, (start + key // (2 * rings), key % 2), in_ring)  # owner, kind - 1
        start, members = p + 1, 0
    return minimal, maxima


_R_MIN, _R_MAX = 4e-3, 4e-1  # range of the sampled pair separations r


def _sample_points(root: Cube, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The points x and y of `sample_pairs`, as arrays (count, n)."""
    if _R_MAX > root.edge:
        raise ConfigError(f"pair separations up to {_R_MAX} exceed the root cube edge")
    n = root.n
    if n not in (1, 2):
        raise ConfigError(f"pairs are sampled in dimension 1 or 2, got {n}")
    rng = np.random.default_rng(seed)
    log_lo, log_hi = math.log(_R_MIN), math.log(_R_MAX)
    corner = np.array(root.corner)
    xs, ys, kept = [np.empty((0, n))], [np.empty((0, n))], 0
    while kept < count:
        block = rng.random((count - kept, n + 2))
        x = corner + root.edge * block[:, :n]
        r = np.array([math.exp(v) for v in (log_lo + (log_hi - log_lo) * block[:, n]).tolist()])
        if n == 1:
            u = np.where(block[:, n + 1 :] < 0.5, 1.0, -1.0)
        else:
            theta = (2.0 * math.pi * block[:, n + 1]).tolist()
            u = np.array([[math.cos(t) for t in theta], [math.sin(t) for t in theta]]).T
        y = x + r[:, None] * u
        inside = _fold(np.logical_and, (corner <= y) & (y <= corner + root.edge))
        xs.append(x[inside])
        ys.append(y[inside])
        kept += len(xs[-1])
    return np.concatenate(xs), np.concatenate(ys)


def sample_pairs(
    root: Cube,
    count: int,
    seed: int,
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Point pairs with log-uniform separation: x uniform in the root cube,
    y = x + r*u with uniform direction u, rejected until y lands in the root.

    Each attempt takes n + 2 doubles of the seeded stream in this order: the
    n coordinates of x, the log-radius, the direction (a sign for n = 1, else
    an angle).  Reports are reproducible from the seed only by that order.
    The attempts are drawn and rejected a block at a time, in arrays; the
    exponential, cosine and sine are math's, as numpy's can differ from them
    in the last bit.
    """
    x, y = _sample_points(root, count, seed)
    return [(tuple(a), tuple(b)) for a, b in zip(x.tolist(), y.tolist())]


# ---------------------------------------------------------------------------
# Kept for bench/ until ROADMAP item 6, and called by nothing in the package:
# bench/tracing.py wraps gamma_set, allowed_cubes, classify_allowed,
# kernel_sum and count_summary by name, and bench/workloads.py reads
# gamma_set(...).members and DyadicCube.level.  Item 13 then deletes this
# section and TreeSets.members.


@dataclass(frozen=True)
class DyadicCube:
    """Level-k subcube of a root cube, addressed by an integer index vector."""

    root: Cube
    level: int
    index: tuple[int, ...]


def gamma_set(I: Cube, x: tuple[float, ...], y: tuple[float, ...], m: float = 2.0) -> TreeSets:
    """The tree set of one pair: `tree_sets` on a batch of one."""
    return tree_sets(I, [x], [y], m)


def allowed_cubes(gamma: TreeSets) -> frozenset[DyadicCube]:
    """Minimal members of the tree sets: none of their children qualify.

    Minimal members of an upward-closed family are pairwise disjoint.
    """
    _, level, index = _minimal_cubes(gamma)
    return frozenset(
        DyadicCube(gamma.root, k, tuple(i)) for k, i in zip(level.tolist(), index.tolist())
    )


def kernel_sum(S, alpha: float, n: int) -> float:
    """Sum of l(J)^(-2*alpha - n) over the DyadicCubes in S (order-independent).

    The largest weight, that of the smallest cube, must stay below
    2^_WEIGHT_LOG2_MAX.
    """
    edges, counts = np.unique([J.root.edge * 2.0**-J.level for J in S], return_counts=True)
    return _kernel_sums(edges.tolist(), [counts], alpha, n)[0]


@dataclass(frozen=True, eq=False)
class AllowedClassification:
    """Minimal cubes bucketed by the first shell I_k = 2^k I_0 they meet."""

    rings: dict[tuple[int, int], frozenset[DyadicCube]]
    I0: Cube


def classify_allowed(
    allowed, x: tuple[float, ...], y: tuple[float, ...], m: float
) -> AllowedClassification:
    """Bucket the cubes of `allowed` by their ring class (k, kind) around x, y."""
    x, y = tuple(map(float, x)), tuple(map(float, y))
    if x == y:
        raise ConfigError("diagonal point pair: x == y")
    x0, y0 = np.array([x]), np.array([y])
    center, edge0 = (v[0].tolist() for v in _shell0(x0, y0))
    I0 = Cube(tuple(c - edge0 / 2 for c in center), edge0)
    cubes = list(allowed)
    root = cubes[0].root if cubes else Cube((0.0,) * len(x), 1.0)  # one tree set's root
    level = np.array([J.level for J in cubes], dtype=np.int64)
    index = np.array([J.index for J in cubes], dtype=_index_dtype(level.max(initial=0)))
    index, owner = index.reshape(-1, len(x)), np.zeros(len(cubes), dtype=np.int64)
    ring, kind = _ring_classes(root.corner, root.edge, level, index, x0, y0, owner)
    buckets: dict[tuple[int, int], set[DyadicCube]] = {}
    for J, key in zip(cubes, zip(ring.tolist(), kind.tolist())):
        buckets.setdefault(key, set()).add(J)
    rings = {key: frozenset(val) for key, val in sorted(buckets.items())}
    return AllowedClassification(rings, I0)


@dataclass(frozen=True)
class CountSummary:
    """Per-shell ring counts and the normalized maxima behind the bounds."""

    per_level: dict[int, tuple[int, int]]
    max_kind1_over_mn: float
    max_kind2: int


def count_summary(c: AllowedClassification, m: float, n: int) -> CountSummary:
    per_level = {
        k: tuple(len(c.rings.get((k, kind), ())) for kind in (1, 2)) for k, _ in sorted(c.rings)
    }
    max1 = max((c1 for c1, _ in per_level.values()), default=0)
    max2 = max((c2 for _, c2 in per_level.values()), default=0)
    return CountSummary(per_level, max1 / m**n, max2)
