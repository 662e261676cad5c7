"""Periodic sampled functions on the unit torus and cube-restricted sums.

A function is represented by its real samples on the lattice
{i/N : i in {0,...,N-1}}^n over [0,1)^n, with N a power of two (spacing
h = 1/N).  Cubes are axis-parallel boxes in R^n; a cube may extend beyond
[0,1)^n, in which case lattice membership wraps coordinates periodically
while positions stay in the cube's own (unwrapped) coordinates.

Cube lists are read through `cube_blocks`: it finds each cube's first
lattice integer and point count per axis, groups cubes with equal counts,
and reads a group as one stacked block (cubes, M1, ..., Mn), in position
order, with a single periodic-index gather; a `CubeFamily`, which holds its
cubes as arrays, is read without a `Cube` per cube.  Energies on a family
also have an O(N^n) route, `family_energies`, one pyramid for a stack of
functions: an aligned cube is the union of its 2^n children, and the
half-shifted level-k cube i is the union of the aligned level-(k+1) cubes
2i+1 and 2i+2 per axis, read periodically.
Two membership rules coexist:

* half-open intervals [corner, corner+edge) per axis (the default, for all
  quadrature sums), so dyadic children partition the lattice points of
  their parent exactly, grid-aligned cubes carry their exact measure, and a
  cube wider than the torus sees points with multiplicity;
* closed intervals with each lattice index counted once (`closed=True`, for
  `campanato`'s mean f_I): boundary points are averaged too.

All comparisons act on exactly representable dyadic rationals, so boundary
ties are deterministic.  `_check_values` rejects samples whose squares times
the weights pass 2^960, from the max |f| that a `GridFunction` measures once,
as it is built; `filterbank.decompose` runs it before its FFT.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "GridFunction",
    "Cube",
    "CubeBlock",
    "cube_blocks",
    "cube_sums",
    "per_cube",
    "cube_energies",
    "CubeFamily",
    "dilate",
    "block_sums",
    "family_energies",
    "enumerate_cubes",
    "read_grid",
    "write_grid",
]


def _validate_size(N: int) -> None:
    if N < 2**_EDGE_LEVELS or N & (N - 1):
        raise ConfigError(f"grid size must be a power of two >= {2**_EDGE_LEVELS}, got {N}")


# Weights 2^e with |e| above this are rejected (h^-(2a+n), 2^(2aj), ...),
# which leaves 64 binary orders of magnitude below 2^1024 for their sums.
_WEIGHT_LOG2_MAX = 960
_DIMENSIONS = (1, 2)  # the supported n, read by every check of a dimension
_EDGE_LEVELS = 3  # cubes stay 3 levels above the grid: 2^3 = 8 lattice points per edge or more


def _check_values(f: GridFunction, weight_log2: float = 0.0) -> None:
    """Reject grid values whose squares times weights up to 2^weight_log2 pass
    2^_WEIGHT_LOG2_MAX, so that sums of them keep the 64 binary orders of
    magnitude below 2^1024 that the weight bound leaves.  Reads f.max_abs only."""
    if f.max_abs > 0.0 and 2.0 * math.log2(f.max_abs) + weight_log2 > _WEIGHT_LOG2_MAX:
        bound = 2.0 ** ((_WEIGHT_LOG2_MAX - weight_log2) / 2)
        raise ConfigError(f"grid values up to {f.max_abs:g} overflow the squared sums at "
                          f"N={f.N} (|f| <= {bound:.4g})")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples on the periodic lattice {i/N}^n, n in {1, 2}; a float64 array
    that owns its memory is kept and frozen, anything else (a view) is copied.
    Its max |f|, `max_abs`, is measured once, by the scan that rejects NaN and inf."""

    values: np.ndarray
    max_abs: float = field(init=False, repr=False)

    def __post_init__(self):
        v = self.values
        if not (type(v) is np.ndarray and v.dtype == np.float64 and v.base is None):
            v = np.array(v, dtype=float)
        if v.ndim not in _DIMENSIONS:
            raise ConfigError(f"dimension must be 1 or 2, got array of ndim {v.ndim}")
        N = v.shape[0]
        if any(s != N for s in v.shape):
            raise ConfigError(f"grid must be square, got shape {v.shape}")
        _validate_size(N)
        top = float(max(v.max(), -v.min()))  # NaN propagates, and +-inf reaches the max
        if not math.isfinite(top):
            raise ConfigError("grid values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "max_abs", top)

    @property
    def n(self) -> int:
        return self.values.ndim

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def L(self) -> int:
        return self.N.bit_length() - 1

    @property
    def h(self) -> float:
        return 1.0 / self.N


@dataclass(frozen=True)
class Cube:
    """Axis-parallel closed cube [corner, corner+edge]^n."""

    corner: tuple[float, ...]
    edge: float

    def __post_init__(self):
        corner = tuple(float(c) for c in self.corner)
        if not corner:
            raise ConfigError("cube corner must have at least one coordinate")
        if not (self.edge > 0):
            raise ConfigError(f"cube edge must be positive, got {self.edge}")
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "edge", float(self.edge))

    @property
    def n(self) -> int:
        return len(self.corner)


@dataclass(frozen=True, eq=False)
class CubeBlock:
    """Cubes at positions `index` of the cube list whose lattices have the
    per-axis counts `shape`; `start` (cubes, n) holds their first unwrapped
    lattice integer per axis."""

    index: np.ndarray
    start: np.ndarray
    shape: tuple[int, ...]

    def read(self, f: GridFunction) -> np.ndarray:
        """Samples of f on every cube's lattice, stacked: (cubes, M1, ..., Mn)."""
        n = len(self.shape)
        axes = []
        for d, M in enumerate(self.shape):
            idx = (self.start[:, d, None] + np.arange(M)) % f.N
            axes.append(idx.reshape((-1,) + (1,) * d + (M,) + (1,) * (n - 1 - d)))
        return f.values[tuple(axes)]


def cube_blocks(f: GridFunction, cubes, closed: bool = False) -> list[CubeBlock]:
    """Group the cubes by per-axis lattice count, half-open or closed
    membership as in the module docstring.  Raises on a cube with no point
    or of another dimension than f."""
    return _corner_blocks(f, *_corners_edges(cubes, f.n), closed)


def _corner_blocks(f: GridFunction, corner, edge, closed: bool = False) -> list[CubeBlock]:
    """`cube_blocks` of the cubes of corners (cubes, n) and edges (cubes,), or one edge."""
    end = corner + np.reshape(edge, (-1, 1))
    start = np.ceil(corner * f.N)
    if closed:
        count = np.minimum(np.floor(end * f.N) - start + 1, f.N)
    else:
        count = np.ceil(end * f.N) - start
    if np.any(count < 1):
        raise ConfigError("degenerate cube: no lattice point inside")
    start, count = start.astype(np.int64), count.astype(np.int64)
    shapes, group = np.unique(count, axis=0, return_inverse=True)
    blocks = []
    for g, shape in enumerate(shapes):
        index = np.flatnonzero(group.ravel() == g)
        blocks.append(CubeBlock(index, start[index], tuple(int(M) for M in shape)))
    return blocks


def cube_sums(block: np.ndarray) -> np.ndarray:
    """Per-cube sums of a stacked block."""
    return block.reshape(block.shape[0], -1).sum(axis=1)


def per_cube(f: GridFunction, blocks: list[CubeBlock], reduce) -> np.ndarray:
    """reduce(stacked block of f, CubeBlock) -> one value per cube, in cube-list order."""
    out = np.empty(sum(len(b.index) for b in blocks))
    for b in blocks:
        out[b.index] = reduce(b.read(f), b)
    return out


def cube_energies(f: GridFunction, blocks: list[CubeBlock]) -> np.ndarray:
    """h^n * sum of f^2 over each cube's lattice points, in cube-list order."""
    return per_cube(f, blocks, lambda v, b: f.h**f.n * cube_sums(v**2))


# Kept for bench/tracing.py, which wraps them by name, until ROADMAP item 6;
# nothing in the package calls these three, which item 13 then deletes.
def cube_lattice(f: GridFunction, I: Cube) -> tuple[np.ndarray, np.ndarray]:
    """Half-open lattice points of I: positions (P, n) and sampled values (P,).

    Positions are unwrapped (they live in the cube, which may extend beyond
    the unit cell); values are read periodically.
    """
    (b,) = cube_blocks(f, [I])
    axes = [(b.start[0, d] + np.arange(M)) / f.N for d, M in enumerate(b.shape)]
    pos = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)
    return pos, b.read(f).ravel()


def cube_mean(f: GridFunction, I: Cube) -> float:
    """Arithmetic mean of f over the lattice points of the closed cube."""
    (b,) = cube_blocks(f, [I], closed=True)
    return float(b.read(f).mean())


def l2_on_cube(f: GridFunction, I: Cube) -> float:
    """Squared discrete L2 norm h^n * sum of f^2 over half-open lattice points."""
    return float(cube_energies(f, cube_blocks(f, [I]))[0])


@dataclass(frozen=True)
class CubeFamily(Sequence):
    """Grid-aligned dyadic subcubes of [0,1)^n, levels 0..level_max, for an
    N = 2^L grid, level by level and row-major within a level; with `shifted`,
    the same family translated by half an edge per axis follows (membership
    wraps periodically).  Held as a `level` array and a (cubes, n) `corner`
    array of (i + shift) * 2^-k; an immutable sequence of `Cube`, each built
    when indexed or iterated; slices are tuples."""

    L: int
    level_max: int
    n: int = 1
    shifted: bool = False
    level: np.ndarray = field(init=False, repr=False, compare=False)
    corner: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in _DIMENSIONS:
            raise ConfigError(f"dimension must be 1 or 2, got {self.n}")
        if self.level_max < 0:
            raise ConfigError(f"level_max must be >= 0, got {self.level_max}")
        if self.level_max > self.L - _EDGE_LEVELS:
            raise ConfigError(
                f"level_max {self.level_max} leaves fewer than {2**_EDGE_LEVELS} lattice points "
                f"per edge (maximum for L={self.L} is {self.L - _EDGE_LEVELS})"
            )
        shifts = (0.0, 0.5) if self.shifted else (0.0,)
        index = [np.indices((2**k,) * self.n).reshape(self.n, -1).T
                 for k in range(self.level_max + 1)]
        level = np.concatenate([np.full(len(i), k) for _ in shifts for k, i in enumerate(index)])
        corner = np.concatenate([(i + s) * 2.0**-k for s in shifts for k, i in enumerate(index)])
        for name, array in (("level", level), ("corner", corner)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.level)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return Cube(tuple(self.corner[i].tolist()), 2.0 ** -int(self.level[i]))

    def __iter__(self):
        return map(Cube, map(tuple, self.corner.tolist()), np.ldexp(1.0, -self.level).tolist())


def _corners_edges(cubes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Corners (cubes, n) and edges of a cube list, a `CubeFamily`'s from its
    arrays.  Raises on a cube of another dimension than n."""
    if isinstance(cubes, CubeFamily) and cubes.n == n:
        return cubes.corner, np.ldexp(1.0, -cubes.level)
    if any(I.n != n for I in cubes):
        raise ConfigError(f"cube dimension differs from the grid's n={n}")
    corner = np.array([I.corner for I in cubes], dtype=float).reshape(-1, n)
    return corner, np.array([I.edge for I in cubes], dtype=float)


def enumerate_cubes(L: int, level_max: int, n: int = 1, shifted: bool = False) -> CubeFamily:
    """The `CubeFamily`; a level_max above L-3, where a cube would keep fewer
    than 8 lattice points per edge, raises ConfigError."""
    return CubeFamily(L, level_max, n, shifted)


def dilate(corner: np.ndarray, edge: float, m: float) -> tuple[np.ndarray, float]:
    """Corners and edge of cubes of one edge, each dilated by m > 0 about its centre."""
    return corner + edge * (1 - m) / 2, m * edge


def block_sums(e: np.ndarray, width: int, n: int | None = None) -> np.ndarray:
    """Sums of an array over its blocks of `width` entries along each of its
    last n axes (every axis by default)."""
    lead = 0 if n is None else e.ndim - n
    split = tuple(s for m in e.shape[lead:] for s in (m // width, width))
    return e.reshape(e.shape[:lead] + split).sum(axis=tuple(range(lead + 1, len(split) + lead, 2)))


def family_energies(fs: Iterable[GridFunction], family: CubeFamily) -> np.ndarray:
    """`cube_energies` of each function of fs on every cube of a family of
    their grid, (functions, cubes), from one dyadic pyramid of the stacked f^2;
    each f is reduced to its finest block sums as soon as it is read."""
    finest = map(lambda f: block_sums(f.values**2, f.N >> (family.level_max + 1)), fs)
    levels = [np.stack(list(finest))]
    while levels[-1].shape[-1] > 1:  # levels[i] is level level_max+1-i
        levels.append(block_sums(levels[-1], 2, family.n))
    out = [e.reshape(len(e), -1) for e in levels[:0:-1]]
    if family.shifted:  # level k from level k+1 moved by one cell per axis
        rolled = (np.roll(e, -1, axis=tuple(range(1, family.n + 1))) for e in levels[-2::-1])
        out += [block_sums(e, 2, family.n).reshape(len(e), -1) for e in rolled]
    return (1.0 / 2**family.L) ** family.n * np.concatenate(out, axis=1)


def write_grid(f: GridFunction, path) -> None:
    """Plain-text record: header line "n N", then N^n row-major values."""
    with open(path, "w") as fh:
        fh.write(f"{f.n} {f.N}\n")
        for v in f.values.ravel():
            fh.write(f"{float(v)!r}\n")


def read_grid(path) -> GridFunction:
    try:
        with open(path, errors="replace") as fh:  # stray bytes fail to parse below
            header = fh.readline().split()
            if len(header) != 2:
                raise ConfigError(f"{path}: malformed grid header, expected 'n N'")
            try:
                n, N = int(header[0]), int(header[1])
            except ValueError as exc:
                raise ConfigError(f"{path}: malformed grid header: {exc}") from None
            if n not in _DIMENSIONS:
                raise ConfigError(f"{path}: dimension must be 1 or 2, got {n}")
            _validate_size(N)
            try:
                flat = np.loadtxt(fh, dtype=float, ndmin=1)
            except ValueError as exc:
                raise ConfigError(f"{path}: malformed grid value: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read grid file: {exc.strerror or exc}") from None
    if flat.size != N**n:
        raise ConfigError(f"{path}: expected {N**n} values, found {flat.size}")
    return GridFunction(flat.reshape((N,) * n))
