"""Dyadic-cube combinatorics over a continuum root cube.

Given two distinct points x, y and a dilation factor m >= 2, the tree set
collects every dyadic subcube J of the root with x, y in mJ (same center,
edge m*l(J)).  At level k it is one index box: per axis, the indices with
x and y in mJ form an integer interval.  The set is upward-closed and so
ends at its first empty box.  Its minimal elements (no child qualifies),
each level's box minus the parents of the next box, are pairwise disjoint
and carry essentially the whole kernel sum
    k(x, y) = sum over qualifying J of l(J)^(-2*alpha - n).

Interval ends are computed on scaled integers: every float is a dyadic
rational, so after multiplying through by a common power of two the test
|x - center| <= m*edge/2 is exact.  Kernel powers are evaluated in floating
point and accumulated with math.fsum, which makes the subset inequality
kernel(full tree) >= kernel(minimal elements) exact.

Ring classes are computed on index arrays, never on cube objects.  The
boxes of a batch of tree sets, each with the parent box of the level below,
go into one integer array; one vectorised expansion turns every box minus
its parent box into rows (tree set, level, index), one per minimal cube.
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

import numpy as np

from .errors import ConfigError, InvariantViolation
from .grid import _WEIGHT_LOG2_MAX, Cube

__all__ = [
    "DyadicCube",
    "GammaSet",
    "AllowedClassification",
    "CountSummary",
    "gamma_set",
    "required_max_level",
    "allowed_cubes",
    "kernel_sum",
    "level_kernel_sum",
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

    def to_cube(self) -> Cube:
        return Cube(self.corner, self.edge)


# Upper end of the dilation factor: a tree set has about (m+1)^n members per
# level, and a dilated cube mJ holds (m l(J) N)^n lattice points.
_M_MAX = 16


def _check_dilation(m: float) -> None:
    if not (math.isfinite(m) and 2 <= m <= _M_MAX):
        raise ConfigError(f"dilation factor must be finite, >= 2 and <= {_M_MAX}, got {m}")


def _dyadic_bits(v: float) -> int:
    """Exponent e with v * 2^e an integer (floats are dyadic rationals)."""
    den = float(v).as_integer_ratio()[1]
    return den.bit_length() - 1


def _scaled(v: float, scale: int) -> int:
    num, den = float(v).as_integer_ratio()
    return num * (2**scale // den)


def required_max_level(I: Cube, x: tuple[float, ...], y: tuple[float, ...], m: float) -> int:
    """Smallest tree depth guaranteed to expose every minimal member."""
    d_inf = max(abs(a - b) for a, b in zip(x, y))
    if d_inf == 0:
        raise ConfigError("diagonal point pair: x == y")
    return max(0, math.ceil(math.log2(m * I.edge / d_inf))) + 1


Box = tuple[tuple[int, int], ...]  # per-axis (first, last) index range


def _box_indices(box: Box):
    return itertools.product(*(range(first, last + 1) for first, last in box))


def _in_box(index: tuple[int, ...], box: Box) -> bool:
    return all(first <= i <= last for i, (first, last) in zip(index, box))


def _volume(box: Box) -> int:
    return math.prod(last - first + 1 for first, last in box)


@dataclass(frozen=True, eq=False)
class GammaSet:
    """All dyadic subcubes J of the root with x, y in mJ, one index box per level.

    boxes[k] is the box of the level-k members; the tuple ends before the
    first empty level.
    """

    root: Cube
    x: tuple[float, ...]
    y: tuple[float, ...]
    m: float
    boxes: tuple[Box, ...]

    @property
    def members(self) -> frozenset[DyadicCube]:
        return frozenset(
            DyadicCube(self.root, k, index)
            for k, box in enumerate(self.boxes)
            for index in _box_indices(box)
        )

    def __contains__(self, J: DyadicCube) -> bool:
        return J.level < len(self.boxes) and _in_box(J.index, self.boxes[J.level])

    def __len__(self) -> int:
        return sum(_volume(box) for box in self.boxes)


def gamma_set(I: Cube, x: tuple[float, ...], y: tuple[float, ...], m: float = 2.0) -> GammaSet:
    """Compute the tree set level by level as index boxes.

    With P, A0 and E the scaled point, root corner and level-k edge, and
    m = m_num/m_den, the level-k cube with index i on one axis has p in mJ
    iff |2(P - A0) - (2i+1)E| * m_den <= m_num * E, which bounds i by one
    ceiling and one floor division.  The bounds for x and y, clipped to
    [0, 2^k), give the level's box.  The first empty box ends the set, at
    the latest at level required_max_level; if x or y falls outside mI the
    set is empty.
    """
    x = tuple(float(c) for c in x)
    y = tuple(float(c) for c in y)
    if len(x) != I.n or len(y) != I.n:
        raise ConfigError("point dimension does not match root cube")
    if x == y:
        raise ConfigError("diagonal point pair: x == y")
    _check_dilation(m)
    required = required_max_level(I, x, y, m)

    coord_bits = max(_dyadic_bits(v) for v in (*x, *y, *I.corner))
    scale = max(coord_bits, _dyadic_bits(I.edge) + required)
    A0 = tuple(_scaled(v, scale) for v in I.corner)
    E0 = _scaled(I.edge, scale)
    m_num, m_den = float(m).as_integer_ratio()
    # 2(P - A0) * m_den for P = x and P = y, per axis
    D = [
        (2 * (_scaled(px, scale) - a) * m_den, 2 * (_scaled(py, scale) - a) * m_den)
        for px, py, a in zip(x, y, A0)
    ]

    boxes: list[Box] = []
    for k in range(required + 1):
        E = E0 >> k
        span = 2 * E * m_den
        box = []
        for ds in D:
            first, last = 0, 2**k - 1
            for d in ds:
                first = max(first, -((E * (m_num + m_den) - d) // span))
                last = min(last, (d + E * (m_num - m_den)) // span)
            box.append((first, last))
        if any(last < first for first, last in box):
            break
        boxes.append(tuple(box))

    return GammaSet(I, x, y, float(m), tuple(boxes))


def _index_dtype(level: int):
    """Integer dtype for the indices of levels up to `level` (below 2^level)."""
    return np.int64 if level < 63 else object


def _minimal_cubes(gammas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimal cubes of several tree sets (at least one) as rows (owner, level, index).

    The members with a child in the set are the parents of the next level's
    box, which form the box of halved index ranges; each level contributes
    its box minus that one.  owner is the tree set's position in `gammas`,
    index has shape (cubes, n).
    """
    n = gammas[0].root.n
    empty = ((0, -1),) * n  # its parents (0 >> 1, -1 >> 1) are empty too
    rows = [
        (p, k, *(v for (first, last), (lo, hi) in zip(box, below)
                 for v in (first, last, lo >> 1, hi >> 1)))
        for p, g in enumerate(gammas)
        for k, (box, below) in enumerate(zip(g.boxes, g.boxes[1:] + (empty,)))
    ]
    depth = max(len(g.boxes) for g in gammas)
    table = np.array(rows, dtype=_index_dtype(depth - 1)).reshape(-1, 2 + 4 * n)
    owner, level = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    first, last, parent_first, parent_last = np.moveaxis(table[:, 2:].reshape(-1, n, 4), 2, 0)
    size = (last - first + 1).astype(np.int64)
    volume = size.prod(axis=1)
    box = np.repeat(np.arange(len(table)), volume)
    offset = np.arange(len(box)) - np.repeat(np.cumsum(volume) - volume, volume)
    index = np.empty((len(box), n), dtype=table.dtype)
    for d in range(n - 1, -1, -1):
        index[:, d] = first[box, d] + offset % size[box, d]
        offset //= size[box, d]
    in_parents = (parent_first[box] <= index) & (index <= parent_last[box])
    minimal = ~np.all(in_parents, axis=1)
    return owner[box[minimal]], level[box[minimal]], index[minimal]


def allowed_cubes(gamma: GammaSet) -> frozenset[DyadicCube]:
    """Minimal members of the tree set: none of their children qualify.

    Minimal members of an upward-closed family are pairwise disjoint.
    """
    _, level, index = _minimal_cubes([gamma])
    return frozenset(
        DyadicCube(gamma.root, k, tuple(i)) for k, i in zip(level.tolist(), index.tolist())
    )


def _kernel_fsum(terms, alpha: float, n: int) -> float:
    """math.fsum of `count` copies of edge^(-2*alpha - n) per (edge, count) term."""
    if not alpha > -n / 2:
        raise ConfigError(f"divergent tree-sum regime: alpha={alpha} <= -n/2")
    expo = -(2.0 * alpha + n)
    if terms and not expo * math.log2(min(e for e, _ in terms)) <= _WEIGHT_LOG2_MAX:
        raise ConfigError(f"alpha={alpha}: kernel weights l(J)^-(2a+n) overflow")
    return math.fsum(t for e, count in terms for t in itertools.repeat(e**expo, count))


def level_kernel_sum(edge: float, counts, alpha: float, n: int) -> float:
    """Kernel sum over counts[k] dyadic cubes of level k below a root of edge `edge`."""
    return _kernel_fsum([(edge * 2.0**-k, c) for k, c in enumerate(counts) if c], alpha, n)


def kernel_sum(S, alpha: float, n: int) -> float:
    """Sum of l(J)^(-2*alpha - n) over the cubes in S (order-independent).

    S is an iterable of DyadicCubes, or a GammaSet, which is summed level by
    level without building its cubes.  The largest weight, that of the
    smallest cube, must stay below 2^_WEIGHT_LOG2_MAX.
    """
    if isinstance(S, GammaSet):
        return level_kernel_sum(S.root.edge, [_volume(box) for box in S.boxes], alpha, n)
    return _kernel_fsum([(J.edge, 1) for J in S], alpha, n)


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
    x = tuple(float(c) for c in x)
    y = tuple(float(c) for c in y)
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


def ring_counts(gammas):
    """Minimal cubes and ring counts of many tree sets, without cube objects.

    Yields, per tree set of `gammas` in order, (the set, its minimal cubes
    per level, the largest count of kind-1 and of kind-2 minimal cubes in one
    ring): what `allowed_cubes`, `classify_allowed` and `count_summary` give
    per pair.  The sets are taken in batches of about _BATCH_MEMBERS members,
    so one batch and its arrays are held at a time.
    """
    batch, members = [], 0
    for g in gammas:
        batch.append(g)
        members += len(g)
        if members >= _BATCH_MEMBERS:
            yield from _batch_ring_counts(batch)
            batch, members = [], 0
    if batch:
        yield from _batch_ring_counts(batch)


def _batch_ring_counts(batch):
    owner, level, index = _minimal_cubes(batch)
    shells = [_shell0(g.x, g.y) for g in batch]
    ring, kind = _ring_classes(
        np.array([g.root.corner for g in batch])[owner],
        np.array([g.root.edge for g in batch])[owner],
        level,
        index,
        np.array([c for c, _ in shells])[owner],
        np.array([e for _, e in shells])[owner],
    )
    minimal = np.zeros((len(batch), max(len(g.boxes) for g in batch)), dtype=np.int64)
    np.add.at(minimal, (owner, level), 1)
    maxima = np.zeros((len(batch), 2), dtype=np.int64)
    key, count = np.unique((owner * _RING_CAP + ring) * 2 + (kind - 1), return_counts=True)
    np.maximum.at(maxima, (key // (2 * _RING_CAP), key % 2), count)  # (owner, kind - 1)
    for g, counts, (kind1, kind2) in zip(batch, minimal.tolist(), maxima.tolist()):
        yield g, counts, kind1, kind2


@dataclass(frozen=True)
class CountSummary:
    """Per-shell ring counts and the normalized maxima behind the bounds."""

    per_level: dict[int, tuple[int, int]]
    max_kind1_over_mn: float
    max_kind2: int


def count_summary(c: AllowedClassification, m: float, n: int) -> CountSummary:
    per_level: dict[int, tuple[int, int]] = {}
    for (k, kind), cubes in c.rings.items():
        c1, c2 = per_level.get(k, (0, 0))
        if kind == 1:
            c1 += len(cubes)
        else:
            c2 += len(cubes)
        per_level[k] = (c1, c2)
    per_level = dict(sorted(per_level.items()))
    max1 = max((c1 for c1, _ in per_level.values()), default=0)
    max2 = max((c2 for _, c2 in per_level.values()), default=0)
    return CountSummary(per_level, max1 / m**n, max2)


def sample_pairs(
    root: Cube,
    count: int,
    seed: int,
    r_min: float = 4e-3,
    r_max: float = 4e-1,
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Point pairs with log-uniform separation: x uniform in the root cube,
    y = x + r*u with uniform direction u, rejected until y lands in the root.
    """
    if not 0 < r_min < r_max:
        raise ConfigError("need 0 < r_min < r_max")
    if r_max > root.edge:
        raise ConfigError("r_max exceeds the root cube edge")
    n = root.n
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        x = tuple(c + root.edge * rng.random() for c in root.corner)
        r = math.exp(rng.uniform(math.log(r_min), math.log(r_max)))
        if n == 1:
            u = (1.0 if rng.random() < 0.5 else -1.0,)
        else:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            u = (math.cos(theta), math.sin(theta))
        y = tuple(a + r * b for a, b in zip(x, u))
        if root.contains(y):
            pairs.append((x, y))
    return pairs
