"""Cube-supremum norm functionals on sampled functions.

Five functionals share the same report shape: the increment-kernel norm
(`q_alpha`), the mean-oscillation norm (`campanato`), the per-cube weighted
band-energy norm (`lp_morrey`), its dyadic-refinement rearrangement
(`dyadic_lp` and `dyadic_lp_rearranged`, equal by an exact finite Fubini
exchange), and the band-supremum combination (`morrey_besov`).

Sup-type functionals report the largest per-cube value with the first
attaining cube in cube-list order, one rule (`_finish`) that `morrey_besov`
applies band by band, so users can judge how saturated the finite cube family
is.  A report's fields are the keys of its JSON file, and its table builds each
plain-dict row when read; `verify.write_json` and `write_csv` write them.  Edge
weights are evaluated once per distinct edge.

Every functional reduces the stacked lattice blocks of `grid.cube_blocks`,
one band at a time; `lp_morrey` and `morrey_besov` take the dyadic pyramid
of `grid.family_energies` instead when the cubes are a `CubeFamily` of f's
grid, one pyramid per batch of at most `_BATCH_FLOATS` energies
(`_band_energies`).  All four band readers take the lazy bands in one pass,
each reduced to its energies before the next is filtered.  The pair sum of a
block B with its mean removed, in lattice units (w(t) = |t|^-(2a+n), w(0) = 0),
is that of B zero-padded on the torus (2M)^n of P points, by Parseval
2 sum (W(0) - W)|B^|^2 / P with W = rfftn(w), less the pairs that reach the
padding, 2<B^2, W(0) - w*1>: two sums of nonnegative terms, and one FFT per
cube, in chunks of cubes whose spectra take at most `_FFT_BYTES`.  The kernels
depend on (M, a) only, not on h; `_kernel` keeps them for the process, shared
by every function and grid size (level k at N is level k+1 at 2N): at 2-D
N=4096 about 512 MiB, 384 of them for the level-0 cube.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvariantViolation
from .filterbank import BandDecomposition
from .grid import (
    _EDGE_LEVELS,
    _WEIGHT_LOG2_MAX,
    Cube,
    CubeFamily,
    GridFunction,
    _check_values,
    _corners_edges,
    block_sums,
    cube_blocks,
    cube_energies,
    cube_sums,
    family_energies,
    per_cube,
)

__all__ = [
    "NormReport",
    "CubeTable",
    "MorreyBesovReport",
    "q_alpha",
    "campanato",
    "lp_morrey",
    "dyadic_lp",
    "dyadic_lp_rearranged",
    "morrey_besov",
]


def _check_alpha(alpha: float, f: GridFunction | None = None, positive: bool = False) -> None:
    """Reject a non-finite alpha, with `positive` alpha <= 0, and on f's grid an
    alpha whose weights overflow or values whose squares overflow with them.
    Every weight, h^-(2a+n), 2^(2aj) for j <= L+1, l(I)^(2a-n) or
    |x-y|^-(2a+n), lies within 2^±(2|a|+n)(L+1)."""
    if not math.isfinite(alpha) or (positive and alpha <= 0):
        kind = "positive and finite" if positive else "finite"
        raise ConfigError(f"alpha must be {kind}, got {alpha}")
    if f is None:
        return
    weight_log2 = (2 * abs(alpha) + f.n) * (f.L + 1)
    if weight_log2 > _WEIGHT_LOG2_MAX:
        bound = (_WEIGHT_LOG2_MAX / (f.L + 1) - f.n) / 2
        raise ConfigError(f"alpha={alpha} overflows the weights at N={f.N} (|alpha| <= {bound:g})")
    _check_values(f, weight_log2)


def _centered(block: np.ndarray) -> np.ndarray:
    """Each cube's samples minus their mean; exactly 0 on a constant cube."""
    flat = block.reshape(block.shape[0], -1)
    flat = flat - flat[:, :1]
    return (flat - flat.mean(axis=1, keepdims=True)).reshape(block.shape)


_FFT_BYTES = 2**26  # padded spectra per chunk of cubes (64 MiB), bounding the pair-sum memory


@functools.lru_cache(maxsize=None)
def _kernel(shape: tuple[int, ...], exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (V, c) of w(t) = |t|^-exponent, w(0) = 0, on the unit lattice of
    `shape` padded to (2M)^n, W = rfftn(w): V = (W(0) - W)/P >= 0 with the interior
    last-axis columns doubled for the half spectrum, and c = W(0) - w*1 >= 0."""
    pad, axes = tuple(2 * M for M in shape), tuple(range(len(shape)))
    w = np.zeros(pad)  # |t|^2 (t from 0 to M - 1, then -M to -1), then w in place
    for d, M in enumerate(shape):
        w += np.fft.ifftshift(np.arange(-M, M) ** 2.0).reshape((-1,) + (1,) * (len(shape) - 1 - d))
    W = np.fft.rfftn(np.power(w, -exponent / 2, out=w, where=w > 0)).real.copy()  # owns its data
    del w
    box = np.fft.rfftn(np.ones(shape), s=pad, axes=axes) * W  # then w*1, by the inverse
    for j in range(0, box.shape[-1], 64):  # in slabs, lest a second padded spectrum set the peak
        box[..., j:j + 64] = np.fft.ifftn(box[..., j:j + 64], axes=axes[:-1])
    c = W.flat[0] - np.fft.irfft(box, pad[-1])[tuple(slice(M) for M in shape)]
    V = (W.flat[0] - W) / math.prod(pad)
    V[..., 1:shape[-1]] *= 2.0
    V.setflags(write=False)
    c.setflags(write=False)
    return V, c


def _increment_sums(block: np.ndarray, exponent: float) -> np.ndarray:
    """Per cube the sum over ordered pairs x != y of (f(x)-f(y))^2 / |x-y|^exponent
    in lattice units, by one forward FFT per cube (module docstring); chunks of
    cubes change no bit since every sum is per cube."""
    shape = block.shape[1:]
    V, c = _kernel(shape, exponent)
    pad, axes = tuple(2 * M for M in shape), tuple(range(1, len(shape) + 1))
    step = max(1, _FFT_BYTES // (2 * V.nbytes))
    sums = []
    for i in range(0, len(block), step):
        B = _centered(block[i:i + step])
        F = np.fft.rfftn(B, s=pad, axes=axes)
        sums.append(2.0 * (cube_sums((F.real**2 + F.imag**2) * V) - cube_sums(B**2 * c)))
    return np.concatenate(sums)


@dataclass(frozen=True, eq=False)
class CubeTable(Sequence):
    """Read-only {"cube", "value"} rows over a cube list and its values, each
    built when read; slices are tuples."""

    cubes: Sequence[Cube]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return {"cube": self.cubes[i], "value": float(self.values[i])}

    def __iter__(self):
        return ({"cube": I, "value": v} for I, v in zip(self.cubes, self.values.tolist()))


@dataclass(frozen=True, eq=False)
class NormReport:
    """Value of a sup-type functional with its per-cube table of
    {"cube", "value"} rows."""

    kind: str
    alpha: float
    value: float
    argmax_cube: Cube | None
    table: CubeTable
    flags: tuple[str, ...] = ()


def _finish(kind, alpha, cubes, values: np.ndarray, flags) -> NormReport:
    """Report of per-cube values; the maximum goes to the first attaining cube.
    A tie means equal floats: cubes that tie only in exact arithmetic, as the unit
    cube and its half-shifted copy on the torus, are ordered by rounding."""
    if not len(cubes):
        raise ConfigError(f"{kind}: no cube in the family")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvariantViolation(f"{kind}: non-finite value on cube {cubes[bad[0]]}")
    best = int(np.argmax(values))
    values.setflags(write=False)
    return NormReport(
        kind=kind,
        alpha=alpha,
        value=float(values[best]),
        argmax_cube=cubes[best],
        table=CubeTable(cubes if isinstance(cubes, CubeFamily) else tuple(cubes), values),
        flags=tuple(flags),
    )


def _per_edge(f: GridFunction, cubes, value) -> np.ndarray:
    """value(edge) per cube in Python floats (numpy's power can differ in the
    last bit), called once per distinct edge: on a `CubeFamily` once per level."""
    distinct, inverse = np.unique(_corners_edges(cubes, f.n)[1], return_inverse=True)
    return np.array([value(e) for e in distinct.tolist()])[inverse]


def q_alpha(f: GridFunction, alpha: float, cubes: list[Cube]) -> NormReport:
    """Increment-kernel norm: per cube the square root of

        l(I)^(2a-n) * h^(2n) * sum_{x != y in I} |f(x)-f(y)|^2 / |x-y|^(2a+n),

    maximized over the family.  Straight-line distances; values read
    periodically.  A cube with one lattice point has no pair: its value is 0.
    """
    _check_alpha(alpha, f)
    flags = []
    if not 0 < alpha < 1:
        flags.append(
            f"alpha={alpha} outside (0,1): below it the functional behaves like the "
            "mean-oscillation norm, at or above 1 only constants stay bounded"
        )
    blocks = cube_blocks(f, cubes)
    sums = per_cube(f, blocks, lambda v, b: _increment_sums(v, 2.0 * alpha + f.n))
    weight = _per_edge(f, cubes, lambda e: e ** (2.0 * alpha - f.n) * f.h ** (f.n - 2.0 * alpha))
    # a sum within rounding of 0 may come out slightly negative
    return _finish("q_alpha", alpha, cubes, np.sqrt(weight * np.maximum(sums, 0.0)), flags)


def campanato(f: GridFunction, lam: float, cubes: list[Cube]) -> NormReport:
    """Mean-oscillation norm: sqrt of sup over cubes of
    l(I)^(-lambda) * h^n * sum_{x in I} |f(x) - f_I|^2; lambda = n is BMO.

    f_I averages over the closed cube, the sum runs over the half-open one.
    """
    if not 0 <= lam <= f.n:
        raise ConfigError(f"lambda must lie in [0, n]={[0, f.n]} for diagnostics, got {lam}")
    _check_values(f, lam * (f.L + 1))
    means = per_cube(f, cube_blocks(f, cubes, closed=True), lambda v, b: cube_sums(v) / v[0].size)
    osc = per_cube(
        f,
        cube_blocks(f, cubes),
        lambda v, b: cube_sums((v - means[b.index].reshape((-1,) + (1,) * f.n)) ** 2),
    )
    weight = _per_edge(f, cubes, lambda e: e**-lam * f.h**f.n)
    return _finish("campanato", lam, cubes, np.sqrt(weight * osc), [])


_BATCH_FLOATS = 2**20  # band energies per pyramid of a family (8 MiB), bounding its memory


def _band_energies(f: GridFunction, cubes, bands: Sequence[GridFunction]):
    """`cube_energies` of each band on every cube, in cube-list order, yielded
    band by band from one pass over the bands; on a family of f's grid from
    one pyramid per batch of bands."""
    if isinstance(cubes, CubeFamily) and (cubes.L, cubes.n) == (f.L, f.n):
        step, pending = max(1, _BATCH_FLOATS // len(cubes)), iter(bands)
        return (e for _ in range(0, len(bands), step)
                for e in family_energies(itertools.islice(pending, step), cubes))
    return map(cube_energies, bands, itertools.repeat(cube_blocks(f, cubes)))


def _bands_from(decomposition: BandDecomposition, j: int) -> Sequence[GridFunction]:
    """Bands j..j_max of the decomposition, a slice to read in one pass."""
    if j < decomposition.j_min:
        raise ConfigError(f"cube of level {j} needs bands from j={j}, but the decomposition "
                          f"starts at j_min={decomposition.j_min}")
    return decomposition.bands[j - decomposition.j_min:]


def lp_morrey(
    f: GridFunction,
    alpha: float,
    cubes: list[Cube],
    decomposition: BandDecomposition,
) -> NormReport:
    """Band-energy Morrey norm: per cube of dyadic edge 2^-k (any other edge
    is rejected) the square root of

        |I|^-(1-2a/n) * sum_{j=k}^{L+1} 2^(2aj) * ||band_j||_{L2(I)}^2.

    alpha outside (0,1) is allowed for degeneracy diagnostics and flagged.
    """
    _check_alpha(alpha, f)
    flags: list[str] = []
    if not 0 < alpha < 1:
        flags.append(f"alpha={alpha} outside (0,1): two-sided comparison not expected")
    j0 = _per_edge(f, cubes, _dyadic_level)
    j_lo = int(j0.min()) if j0.size else decomposition.j_max + 1
    acc = np.zeros(len(cubes))
    energies = _band_energies(f, cubes, _bands_from(decomposition, j_lo))
    for j, e in zip(itertools.count(j_lo), energies):
        acc += np.where(np.less_equal(j0, j), 2.0 ** (2 * alpha * j) * e, 0.0)
    weight = _per_edge(f, cubes, lambda e: (e**f.n) ** -(1.0 - 2.0 * alpha / f.n))
    return _finish("lp_morrey", alpha, cubes, np.sqrt(weight * acc), flags)


def _dyadic_level(edge: float) -> int:
    level = -math.log2(edge)
    if level != int(level) or level < 0:
        raise ConfigError(f"cube edge {edge} is not dyadic")
    return int(level)


def _refinement_level(f: GridFunction, I: Cube, K: int) -> int:
    """Level of the dyadic cube I, after checking that K generations below it
    stay at least 3 levels above the grid."""
    level = _dyadic_level(I.edge)
    if K < 0:
        raise ConfigError(f"K must be >= 0, got {K}")
    if K > f.L - level - _EDGE_LEVELS:
        raise ConfigError(
            f"K={K} too deep for a level-{level} cube on an N={f.N} grid "
            f"(maximum {f.L - level - _EDGE_LEVELS})"
        )
    return level


def dyadic_lp(
    f: GridFunction,
    alpha: float,
    I: Cube,
    K: int,
    decomposition: BandDecomposition,
) -> float:
    """Truncated refinement sum over dyadic generations of I:

        sum_{k=0}^{K} 2^((2a-n)k) sum_{J in D_k(I)} (1/|J|)
            sum_{j >= -log2 l(J)} ||band_j||_{L2(J)}^2 .

    The children D_k(I) partition I's lattice into 2^k equal slabs per axis,
    so their energies are sums over a reshape of I's block.
    """
    _check_alpha(alpha, f, positive=True)
    level = _refinement_level(f, I, K)
    (b,) = cube_blocks(f, [I])
    layers = [np.zeros((2**k,) * f.n) for k in range(K + 1)]
    bands = iter(_bands_from(decomposition, level))
    for j in range(level, decomposition.j_max + 1):
        sq = b.read(next(bands))[0] ** 2
        for k in range(min(K, j - level) + 1):
            layers[k] += block_sums(sq, b.shape[0] >> k)
        del sq  # before the next band is filtered
    total = 0.0
    for k, layer in enumerate(layers):
        inv_measure = (I.edge / 2**k) ** -f.n
        energy = f.h**f.n * float(layer.sum())
        total += 2.0 ** ((2 * alpha - f.n) * k) * (inv_measure * energy)
    return total


def dyadic_lp_rearranged(
    f: GridFunction,
    alpha: float,
    I: Cube,
    K: int,
    decomposition: BandDecomposition,
) -> float:
    """Independent route to `dyadic_lp`: exchange the k and j summations.

    Children of one generation partition the lattice points of I, so the
    inner cube sums collapse onto I and each band picks up the finite
    geometric weight w_j = sum_{k=0}^{min(K, j-level)} 2^(2ak).  Equality
    with `dyadic_lp` is exact for the truncated sums.
    """
    _check_alpha(alpha, f, positive=True)
    level = _refinement_level(f, I, K)
    total = 0.0
    energies = _band_energies(f, [I], _bands_from(decomposition, level))
    for j, e in zip(itertools.count(level), energies):
        w = sum(2.0 ** (2 * alpha * k) for k in range(min(K, j - level) + 1))
        total += w * float(e[0])
    return I.edge ** -f.n * total


@dataclass(frozen=True, eq=False)
class MorreyBesovReport:
    """Band-supremum combination with one {"j", "sup", "argmax_cube"} row per
    band; argmax_cube is None where the band is 0 on every cube."""

    alpha: float
    sigma: float
    value: float
    rows: tuple[dict, ...] = ()
    kind: str = field(default="morrey_besov", init=False)


def morrey_besov(
    f: GridFunction,
    alpha: float,
    sigma: float,
    p: float,
    q: float,
    cubes: list[Cube],
    decomposition: BandDecomposition,
) -> MorreyBesovReport:
    """Band-supremum norm at the embedding parameters p = q = 2, sigma = n-2a:

        sqrt( sum_j sup_I |I|^(-sigma/n) * 2^(2aj) * ||band_j||_{L2(I)}^2 ).

    Other (p, q) are rejected: only the embedding case is implemented.
    """
    _check_alpha(alpha, f)
    if p != 2 or q != 2 or abs(sigma - (f.n - 2 * alpha)) > 1e-9:
        raise ConfigError(
            "only the embedding case is implemented: p = q = 2, sigma = n - 2*alpha"
        )
    energies = _band_energies(f, cubes, decomposition.bands)
    scale = _per_edge(f, cubes, lambda e: (e**f.n) ** (-sigma / f.n))
    rows = []
    for j, e in zip(decomposition.js, energies):
        band = _finish("morrey_besov", alpha, cubes, scale * 2.0 ** (2 * alpha * j) * e, [])
        sup = band.value if band.value > 0.0 else 0.0  # no attaining cube if every value is 0
        rows.append({"j": j, "sup": sup, "argmax_cube": band.argmax_cube if sup else None})
    return MorreyBesovReport(alpha, sigma, math.sqrt(sum(r["sup"] for r in rows)), tuple(rows))
