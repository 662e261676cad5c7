"""Cube-supremum norm functionals on sampled functions.

Five functionals share the same report shape: the increment-kernel norm
(`q_alpha`), the mean-oscillation norm (`campanato`), the per-cube weighted
band-energy norm (`lp_morrey`), its dyadic-refinement rearrangement
(`dyadic_lp` and `dyadic_lp_rearranged`, equal by an exact finite Fubini
exchange), and the band-supremum combination (`morrey_besov`).

Sup-type functionals report the square root of the per-cube maximum with
the first attaining cube in cube-list order, so users can judge how saturated
the finite cube family is.  A report's fields are the keys of its JSON file,
and its table rows are plain dicts; `verify.write_json` and `write_csv` write them.

Every functional reduces the stacked lattice blocks of `grid.cube_blocks`,
one band at a time; `lp_morrey` and `morrey_besov` take the dyadic pyramid
of `grid.family_energies` instead when the cubes are a `CubeFamily` of f's
grid (`_band_energies`).  The pair sum of a block B with its mean removed is
S = 2(<B^2, w*1> - <B, w*B>), w(d) = |h d|^-(2a+n), w(0) = 0, with both
convolutions taken by one zero-padded batched FFT on (2M)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvariantViolation
from .filterbank import BandDecomposition
from .grid import (
    _WEIGHT_LOG2_MAX,
    Cube,
    CubeFamily,
    GridFunction,
    block_sums,
    cube_blocks,
    cube_energies,
    cube_sums,
    family_energies,
    per_cube,
)

__all__ = [
    "NormReport",
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


def _check_values(f: GridFunction, weight_log2: float = 0.0) -> None:
    """Reject grid values whose squares times weights up to 2^weight_log2 pass
    2^_WEIGHT_LOG2_MAX, so that sums of them keep the 64 binary orders of
    magnitude below 2^1024 that the weight bound leaves."""
    top = float(np.abs(f.values).max())
    if top > 0.0 and 2.0 * math.log2(top) + weight_log2 > _WEIGHT_LOG2_MAX:
        bound = 2.0 ** ((_WEIGHT_LOG2_MAX - weight_log2) / 2)
        raise ConfigError(
            f"grid values up to {top:g} overflow the squared sums at N={f.N} (|f| <= {bound:.4g})"
        )


def _centered(block: np.ndarray) -> np.ndarray:
    """Each cube's samples minus their mean; exactly 0 on a constant cube."""
    flat = block.reshape(block.shape[0], -1)
    flat = flat - flat[:, :1]
    return (flat - flat.mean(axis=1, keepdims=True)).reshape(block.shape)


def _increment_sums(block: np.ndarray, h: float, exponent: float) -> np.ndarray:
    """Per cube the sum over ordered pairs x != y of (f(x)-f(y))^2 / |x-y|^exponent."""
    shape = block.shape[1:]
    n = len(shape)
    pad = tuple(2 * M for M in shape)
    axes = tuple(range(1, n + 1))
    crop = (slice(None),) + tuple(slice(M) for M in shape)
    # |x-y|^2 on the padded torus (displacement t below M, t - 2M above)
    d2 = np.zeros(pad)
    for d, M in enumerate(shape):
        t = np.arange(2 * M)
        d2 = d2 + ((h * np.where(t < M, t, t - 2 * M)) ** 2).reshape((-1,) + (1,) * (n - 1 - d))
    origin = (0,) * n
    d2[origin] = 1.0
    w = d2 ** (-exponent / 2)
    w[origin] = 0.0
    W = np.fft.rfftn(w)

    def conv(g):
        return np.fft.irfftn(np.fft.rfftn(g, s=pad, axes=axes) * W, s=pad, axes=axes)[crop]

    B = _centered(block)
    w_ones = conv(np.ones((1,) + shape))
    return 2.0 * (cube_sums(B**2 * w_ones) - cube_sums(B * conv(B)))


@dataclass(frozen=True, eq=False)
class NormReport:
    """Value of a sup-type functional with its per-cube table of
    {"cube", "value"} rows."""

    kind: str
    alpha: float
    value: float
    argmax_cube: Cube | None
    table: tuple[dict, ...]
    flags: tuple[str, ...] = ()


def _finish(kind, alpha, cubes, values: np.ndarray, flags) -> NormReport:
    """Report of per-cube values; the maximum goes to the first attaining cube."""
    if not len(cubes):
        raise ConfigError(f"{kind}: no cube in the family")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvariantViolation(f"{kind}: non-finite value on cube {cubes[bad[0]]}")
    best = int(np.argmax(values))
    values = values.tolist()
    return NormReport(
        kind=kind,
        alpha=alpha,
        value=values[best],
        argmax_cube=cubes[best],
        table=tuple({"cube": I, "value": v} for I, v in zip(cubes, values)),
        flags=tuple(flags),
    )


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
    sums = per_cube(f, blocks, lambda v, b: _increment_sums(v, f.h, 2.0 * alpha + f.n))
    weight = np.array([I.edge ** (2.0 * alpha - f.n) * f.h ** (2 * f.n) for I in cubes])
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
    weight = np.array([I.edge**-lam * f.h**f.n for I in cubes])
    return _finish("campanato", lam, cubes, np.sqrt(weight * osc), [])


def _band_energies(f: GridFunction, cubes):
    """band -> `cube_energies` of the band on every cube, in cube-list order."""
    if isinstance(cubes, CubeFamily) and (cubes.L, cubes.n) == (f.L, f.n):
        return lambda band: family_energies(band, cubes)
    blocks = cube_blocks(f, cubes)
    return lambda band: cube_energies(band, blocks)


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
    j0 = [_dyadic_level(I) for I in cubes]
    j_lo = min(j0, default=decomposition.j_max + 1)
    if j_lo < decomposition.j_min:
        raise ConfigError(
            f"cube of level {j_lo} needs bands from j={j_lo}, but the decomposition "
            f"starts at j_min={decomposition.j_min}"
        )
    energies = _band_energies(f, cubes)
    acc = np.zeros(len(cubes))
    for j in range(j_lo, decomposition.j_max + 1):
        e = 2.0 ** (2 * alpha * j) * energies(decomposition.band(j))
        acc += np.where(np.less_equal(j0, j), e, 0.0)
    weight = np.array([(I.edge**f.n) ** -(1.0 - 2.0 * alpha / f.n) for I in cubes])
    return _finish("lp_morrey", alpha, cubes, np.sqrt(weight * acc), flags)


def _dyadic_level(I: Cube) -> int:
    level = -math.log2(I.edge)
    if level != int(level) or level < 0:
        raise ConfigError(f"cube edge {I.edge} is not dyadic")
    return int(level)


def _refinement_level(f: GridFunction, I: Cube, K: int) -> int:
    """Level of the dyadic cube I, after checking that K generations below it
    stay at least 3 levels above the grid."""
    level = _dyadic_level(I)
    if K < 0 or K > f.L - level - 3:
        raise ConfigError(
            f"K={K} too deep for a level-{level} cube on an N={f.N} grid "
            f"(maximum {f.L - level - 3})"
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
    for j in range(level, decomposition.j_max + 1):
        sq = b.read(decomposition.band(j))[0] ** 2
        for k in range(min(K, j - level) + 1):
            layers[k] += block_sums(sq, b.shape[0] >> k)
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
    blocks = cube_blocks(f, [I])
    inv_measure = I.edge ** -f.n
    total = 0.0
    for j in range(level, decomposition.j_max + 1):
        w = sum(2.0 ** (2 * alpha * k) for k in range(min(K, j - level) + 1))
        total += w * float(cube_energies(decomposition.band(j), blocks)[0])
    return inv_measure * total


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
    if not cubes:
        raise ConfigError("morrey_besov: no cube in the family")
    energies = _band_energies(f, cubes)
    scale = np.array([(I.edge**f.n) ** (-sigma / f.n) for I in cubes])
    rows = []
    total = 0.0
    for j in decomposition.js:
        vals = scale * 2.0 ** (2 * alpha * j) * energies(decomposition.band(j))
        if not np.all(np.isfinite(vals)):
            raise InvariantViolation(f"morrey_besov: non-finite value in band {j}")
        best = int(np.argmax(vals))  # the first attaining cube; none if every value is 0
        if vals[best] > 0.0:
            rows.append({"j": j, "sup": float(vals[best]), "argmax_cube": cubes[best]})
        else:
            rows.append({"j": j, "sup": 0.0, "argmax_cube": None})
        total += rows[-1]["sup"]
    return MorreyBesovReport(alpha, sigma, math.sqrt(total), tuple(rows))
