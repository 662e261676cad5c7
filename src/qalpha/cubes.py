"""Dyadic-cube combinatorics over a continuum root cube.

Given two distinct points x, y and a dilation factor m >= 2, the tree set
collects every dyadic subcube J of the root with x, y in mJ (same center,
edge m*l(J)).  At level k it is one index box: per axis, the indices with
x and y in mJ form an integer interval.  The set is upward-closed and so
ends at its first empty box.  Its minimal elements (no child qualifies),
each level's box minus the parents of the next box, are pairwise disjoint
and carry essentially the whole kernel sum
    k(x, y) = sum over qualifying J of l(J)^(-2*alpha - n).

Interval ends are computed for all pairs and levels at once in floats, with
an exact recheck.  With q = (p - a)/E the coordinate of a point p scaled by
the root's corner a and edge E, the level-k index i has p in mJ iff
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
a `TreeSets`; `gamma_set`, the tree set of one pair, is a batch of one.

Ring classes are computed on index arrays, never on cube objects.  The
boxes of a batch of tree sets, each with the parent box of the level below,
give one vectorised expansion of every box minus its parent box into rows
(tree set, level, index), one per minimal cube.
One array classifier then walks the shells I_k = 2^k I_0 around each pair
(I_0 centered at the midpoint with edge sqrt(n)|x-y|_2): a cube's ring is
the first k with J meeting I_k, its kind 1 if J fits inside I_(k+1) and 2
if not.  J's corner is that of `DyadicCube.corner`, root.corner + index *
(root.edge * 2^-level), shell k's corner is center - edge0 * 2^k / 2, and
meeting and fitting inside are closed-interval comparisons per axis, all in
double precision and element by element, so a cube's class does not depend
on the batch it is classified in.  For n = 2 the shell edge is irrational,
but the classes stay a partition by construction.  Batches are cut by
tree-set members, so their arrays stay small whatever the pair count or
dilation.  `allowed_cubes` and `classify_allowed` are views over the same
expansion and classifier that hand out `DyadicCube` objects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InvariantViolation
from .grid import _WEIGHT_LOG2_MAX, Cube

__all__ = [
    "DyadicCube",
    "TreeSets",
    "AllowedClassification",
    "CountSummary",
    "gamma_set",
    "tree_sets",
    "required_max_level",
    "allowed_cubes",
    "kernel_sum",
    "classify_allowed",
    "ring_counts",
    "count_summary",
    "sample_pairs",
]


@dataclass(frozen=True)
class DyadicCube:
    """Level-k subcube of a root cube, addressed by an integer index vector."""

    root: Cube
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ConfigError(f"dyadic level must be >= 0, got {self.level}")
        index = tuple(int(i) for i in self.index)
        if len(index) != self.root.n:
            raise ConfigError("index dimension does not match root cube")
        if any(not 0 <= i < 2**self.level for i in index):
            raise ConfigError(f"index {index} outside level-{self.level} range")
        object.__setattr__(self, "index", index)

    @property
    def n(self) -> int:
        return self.root.n

    @property
    def edge(self) -> float:
        return self.root.edge * 2.0**-self.level

    @property
    def corner(self) -> tuple[float, ...]:
        e = self.edge
        return tuple(c + i * e for c, i in zip(self.root.corner, self.index))


# Upper end of the dilation factor: a tree set has about (m+1)^n members per
# level, and a dilated cube mJ holds (m l(J) N)^n lattice points.
_M_MAX = 16


def _check_dilation(m: float) -> None:
    if not (math.isfinite(m) and 2 <= m <= _M_MAX):
        raise ConfigError(f"dilation factor must be finite, >= 2 and <= {_M_MAX}, got {m}")


def required_max_level(I: Cube, x: tuple[float, ...], y: tuple[float, ...], m: float) -> int:
    """Smallest tree depth guaranteed to expose every minimal member."""
    d_inf = max(abs(a - b) for a, b in zip(x, y))
    if d_inf == 0:
        raise ConfigError("diagonal point pair: x == y")
    return max(0, math.ceil(math.log2(m * I.edge / d_inf))) + 1


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
        return np.where(live, (self.last - self.first + 1).prod(axis=2), 0)

    def _boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """(pair, level) of every nonempty box."""
        return np.nonzero(np.arange(self.first.shape[1]) < self.depth[:, None])

    @property
    def members(self) -> frozenset[DyadicCube]:
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
    """Tree sets of the pairs (x[p], y[p]), each ending at its first empty
    level, at the latest at required_max_level (always empty)."""
    _check_dilation(m)
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] != root.n:
        raise ConfigError("point dimension does not match root cube")
    required = [required_max_level(root, p, q, m) for p, q in zip(x.tolist(), y.tolist())]
    levels = np.arange(max(required, default=-1) + 1)
    live = levels <= np.array(required, dtype=np.int64)[:, None]
    dtype = _index_dtype(len(levels) - 1)
    bounds = np.zeros((2, len(x), len(levels), root.n), dtype=dtype)  # first, last
    points = np.maximum(x, y), np.minimum(x, y)
    for k, upper in itertools.product(levels.tolist(), (0, 1)):
        with np.errstate(over="ignore", invalid="ignore"):  # past float range: rechecked
            t = np.ldexp((points[upper] - root.corner) / root.edge, k)
            v = t + ((m - 1) / 2 if upper else -(m + 1) / 2)
            margin = 2.0**-50 * (np.abs(t) + m + 1) + math.ldexp(1.0, k - 1074)
            recheck = ~(np.abs(v - np.rint(v)) > margin) & live[:, k, None]
            bound = (np.floor if upper else np.ceil)(np.where(recheck, 0, v)).astype(np.int64)
        bounds[upper, :, k] = bound
        for i, d in zip(*np.nonzero(recheck)):
            p = points[upper][i, d]
            bounds[upper, i, k, d] = _exact_bound(p, root.corner[d], root.edge, m, k, upper)
    first, last = bounds
    top = np.array([(1 << k) - 1 for k in levels.tolist()], dtype=dtype)[:, None]
    np.maximum(first, 0, out=first)
    np.minimum(last, top, out=last)
    depth = np.argmax(np.any(last < first, axis=2), axis=1)
    return TreeSets(root, x, y, first, last, depth)


def gamma_set(I: Cube, x: tuple[float, ...], y: tuple[float, ...], m: float = 2.0) -> TreeSets:
    """The tree set of one pair: `tree_sets` on a batch of one."""
    return tree_sets(I, [x], [y], m)


def _expand(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the boxes first[b] .. last[b] (shape (boxes, n)) as rows
    (box, index), in box order and, within a box, last axis fastest."""
    size = (last - first + 1).astype(np.int64)
    volume = size.prod(axis=1)
    box = np.repeat(np.arange(len(first)), volume)
    offset = np.arange(len(box)) - np.repeat(np.cumsum(volume) - volume, volume)
    index = np.empty((len(box), first.shape[1]), dtype=first.dtype)
    for d in range(first.shape[1] - 1, -1, -1):
        index[:, d] = first[box, d] + offset % size[box, d]
        offset //= size[box, d]
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
    in_parents = (parent_first[box] <= index) & (index <= parent_last[box])
    minimal = ~np.all(in_parents, axis=1)
    return owner[box[minimal]], level[box[minimal]], index[minimal]


def allowed_cubes(gamma: TreeSets) -> frozenset[DyadicCube]:
    """Minimal members of the tree sets: none of their children qualify.

    Minimal members of an upward-closed family are pairwise disjoint.
    """
    _, level, index = _minimal_cubes(gamma)
    return frozenset(
        DyadicCube(gamma.root, k, tuple(i)) for k, i in zip(level.tolist(), index.tolist())
    )


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


def kernel_sum(S, alpha: float, n: int) -> float:
    """Sum of l(J)^(-2*alpha - n) over the DyadicCubes in S (order-independent).

    The largest weight, that of the smallest cube, must stay below
    2^_WEIGHT_LOG2_MAX.
    """
    edges, counts = np.unique([J.edge for J in S], return_counts=True)
    return _kernel_sums(edges.tolist(), [counts], alpha, n)[0]


@dataclass(frozen=True, eq=False)
class AllowedClassification:
    """Minimal cubes bucketed by the first shell I_k = 2^k I_0 they meet."""

    rings: dict[tuple[int, int], frozenset[DyadicCube]]
    I0: Cube


_RING_CAP = 128


def _shell0(x: tuple[float, ...], y: tuple[float, ...]) -> tuple[tuple[float, ...], float]:
    """Center and edge of I_0: the midpoint of x and y, and sqrt(n)|x-y|_2."""
    edge0 = math.sqrt(len(x)) * math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    return tuple((a + b) / 2 for a, b in zip(x, y)), edge0


def _ring_classes(root_corner, root_edge, level, index, center, edge0):
    """Ring class (k, kind) of each dyadic cube J, every argument given per cube.

    k is the first shell index with J meeting I_k (shells are nested, so this
    also encodes J missing I_0,...,I_(k-1)); kind 1 means J fits inside
    I_(k+1), kind 2 that it sticks out.  Returns two integer arrays.
    """
    edge = root_edge * np.ldexp(1.0, -level)
    corner = root_corner + index.astype(float) * edge[:, None]
    end = corner + edge[:, None]
    ring = np.zeros(len(edge), dtype=np.int64)
    todo = np.arange(len(edge))
    for k in range(_RING_CAP):
        if not todo.size:
            break
        s = edge0[todo] * 2.0**k
        b = center[todo] - (s / 2)[:, None]
        meets = np.all(np.maximum(corner[todo], b) <= np.minimum(end[todo], b + s[:, None]), axis=1)
        ring[todo[meets]] = k
        todo = todo[~meets]
    if todo.size:
        raise InvariantViolation("allowed cube matched no ring class")
    s = edge0 * np.ldexp(1.0, ring + 1)
    b = center - (s / 2)[:, None]
    inside = np.all((b <= corner) & (end <= b + s[:, None]), axis=1)
    return ring, np.where(inside, 1, 2)


def classify_allowed(
    allowed, x: tuple[float, ...], y: tuple[float, ...], m: float
) -> AllowedClassification:
    """Bucket the cubes of `allowed` by their ring class (k, kind) around x, y."""
    x, y = tuple(map(float, x)), tuple(map(float, y))
    if x == y:
        raise ConfigError("diagonal point pair: x == y")
    center, edge0 = _shell0(x, y)
    I0 = Cube(tuple(c - edge0 / 2 for c in center), edge0)
    cubes = list(allowed)
    n = len(x)
    level = np.array([J.level for J in cubes], dtype=np.int64)
    index = np.array([J.index for J in cubes], dtype=_index_dtype(level.max(initial=0)))
    ring, kind = _ring_classes(
        np.array([J.root.corner for J in cubes]).reshape(-1, n),
        np.array([J.root.edge for J in cubes]),
        level,
        index.reshape(-1, n),
        np.full((len(cubes), n), center),
        np.full(len(cubes), edge0),
    )
    buckets: dict[tuple[int, int], set[DyadicCube]] = {}
    for J, key in zip(cubes, zip(ring.tolist(), kind.tolist())):
        buckets.setdefault(key, set()).add(J)
    rings = {key: frozenset(val) for key, val in sorted(buckets.items())}
    return AllowedClassification(rings, I0)


# Tree-set members per batch of `ring_counts`: a batch's arrays hold one row
# per member at most, so their size does not grow with the pair count.
_BATCH_MEMBERS = 2**11


def ring_counts(sets: TreeSets) -> tuple[np.ndarray, np.ndarray]:
    """Minimal cubes and ring counts of many tree sets, without cube objects.

    Returns minimal, the minimal cubes per (pair, level), and maxima, per
    pair the largest count of kind-1 and of kind-2 minimal cubes in one ring:
    what `allowed_cubes`, `classify_allowed` and `count_summary` give per
    pair.  The pairs are taken in batches of about _BATCH_MEMBERS tree-set
    members, so one batch's expansion is held at a time.
    """
    minimal = np.zeros((len(sets), sets.first.shape[1]), dtype=np.int64)
    maxima = np.zeros((len(sets), 2), dtype=np.int64)
    start, members = 0, 0
    for p, count in enumerate(sets.counts().sum(axis=1).tolist()):
        members += count
        if members < _BATCH_MEMBERS and p < len(sets) - 1:
            continue
        batch = sets[start : p + 1]
        owner, level, index = _minimal_cubes(batch)
        shells = zip(*(_shell0(x, y) for x, y in zip(batch.x.tolist(), batch.y.tolist())))
        center, edge0 = (np.array(v)[owner] for v in shells)
        ring, kind = _ring_classes(batch.root.corner, batch.root.edge, level, index, center, edge0)
        np.add.at(minimal, (start + owner, level), 1)
        key, in_ring = np.unique((owner * _RING_CAP + ring) * 2 + (kind - 1), return_counts=True)
        np.maximum.at(maxima, (start + key // (2 * _RING_CAP), key % 2), in_ring)  # owner, kind - 1
        start, members = p + 1, 0
    return minimal, maxima


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


_R_MIN, _R_MAX = 4e-3, 4e-1  # range of the sampled pair separations r


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
    """
    if _R_MAX > root.edge:
        raise ConfigError(f"pair separations up to {_R_MAX} exceed the root cube edge")
    n = root.n
    if n not in (1, 2):
        raise ConfigError(f"pairs are sampled in dimension 1 or 2, got {n}")
    rng = np.random.default_rng(seed)
    log_lo, log_hi = math.log(_R_MIN), math.log(_R_MAX)
    pairs = []
    while len(pairs) < count:
        for row in rng.random((count - len(pairs), n + 2)).tolist():
            x = tuple(c + root.edge * d for c, d in zip(root.corner, row))
            r = math.exp(log_lo + (log_hi - log_lo) * row[n])
            if n == 1:
                u = (1.0 if row[n + 1] < 0.5 else -1.0,)
            else:
                theta = 2.0 * math.pi * row[n + 1]
                u = (math.cos(theta), math.sin(theta))
            y = tuple(a + r * b for a, b in zip(x, u))
            if all(c <= b <= c + root.edge for c, b in zip(root.corner, y)):
                pairs.append((x, y))
    return pairs
