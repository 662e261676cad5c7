"""Cube-supremum norm functionals on sampled functions.

Five functionals share the same report shape: the increment-kernel norm
(`q_alpha`), the mean-oscillation norm (`campanato`), the per-cube weighted
band-energy norm (`lp_morrey`), its dyadic-refinement rearrangement
(`dyadic_lp` and `dyadic_lp_rearranged`, equal by an exact finite Fubini
exchange), and the band-supremum combination (`morrey_besov`).

Sup-type functionals report the square root of the per-cube maximum along
with the attaining cube, so users can judge how saturated the finite cube
family is.  Pair sums are evaluated blockwise in a fixed order, which keeps
results bit-stable for a fixed configuration regardless of worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .filterbank import BandDecomposition
from .grid import Cube, GridFunction, cube_lattice, cube_mean, l2_on_cube

__all__ = [
    "NormReport",
    "MorreyBesovReport",
    "q_alpha",
    "campanato",
    "lp_morrey",
    "dyadic_lp",
    "dyadic_lp_rearranged",
    "morrey_besov",
    "pair_increment_sum",
]

_PAIR_BLOCK = 2048


def pair_increment_sum(
    positions: np.ndarray, values: np.ndarray, exponent: float
) -> float:
    """Sum over ordered pairs i != j of (v_i - v_j)^2 / |p_i - p_j|^exponent.

    Blocked with a fixed chunk size and accumulation order, so the result is
    deterministic for a fixed input.
    """
    P = positions.shape[0]
    total = 0.0
    for a0 in range(0, P, _PAIR_BLOCK):
        a1 = min(a0 + _PAIR_BLOCK, P)
        pa, va = positions[a0:a1], values[a0:a1]
        for b0 in range(a0, P, _PAIR_BLOCK):
            b1 = min(b0 + _PAIR_BLOCK, P)
            pb, vb = positions[b0:b1], values[b0:b1]
            d2 = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=-1)
            dv2 = (va[:, None] - vb[None, :]) ** 2
            if b0 == a0:
                np.fill_diagonal(d2, 1.0)
                np.fill_diagonal(dv2, 0.0)
                block = float(np.sum(dv2 * d2 ** (-exponent / 2)))
            else:
                block = 2.0 * float(np.sum(dv2 * d2 ** (-exponent / 2)))
            total += block
    return total


@dataclass(frozen=True, eq=False)
class NormReport:
    """Value of a sup-type functional with its per-cube table."""

    kind: str
    alpha: float
    value: float
    argmax_cube: Cube | None
    table: tuple[tuple[Cube, float], ...]
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "value": self.value,
            "argmax_cube": _cube_dict(self.argmax_cube),
            "table": [
                {"cube": _cube_dict(c), "value": v} for c, v in self.table
            ],
            "flags": list(self.flags),
        }

    def csv_rows(self):
        yield ["corner", "edge", "value"]
        for c, v in self.table:
            yield [";".join(repr(x) for x in c.corner), repr(c.edge), repr(v)]


def _cube_dict(c: Cube | None):
    if c is None:
        return None
    return {"corner": list(c.corner), "edge": c.edge}


def _finish(kind, alpha, rows, flags) -> NormReport:
    if not rows:
        raise ConfigError(f"{kind}: no usable cube in the family")
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    return NormReport(
        kind=kind,
        alpha=alpha,
        value=rows[best][1],
        argmax_cube=rows[best][0],
        table=tuple(rows),
        flags=tuple(flags),
    )


def q_alpha(f: GridFunction, alpha: float, cubes: list[Cube]) -> NormReport:
    """Increment-kernel norm: per cube the square root of

        l(I)^(2a-n) * h^(2n) * sum_{x != y in I} |f(x)-f(y)|^2 / |x-y|^(2a+n),

    maximized over the family.  Straight-line distances; values read
    periodically.  Cubes with fewer than two lattice points are skipped.
    """
    flags = []
    if not 0 < alpha < 1:
        flags.append(
            f"alpha={alpha} outside (0,1): below it the functional behaves like the "
            "mean-oscillation norm, at or above 1 only constants stay bounded"
        )
    expo = 2.0 * alpha + f.n
    rows = []
    for I in cubes:
        pos, vals = cube_lattice(f, I)
        if vals.size < 2:
            warnings.warn(f"cube {I} has fewer than 2 lattice points; skipped", stacklevel=2)
            continue
        s = pair_increment_sum(pos, vals, expo)
        val = I.edge ** (2.0 * alpha - f.n) * f.h ** (2 * f.n) * s
        rows.append((I, math.sqrt(val)))
    return _finish("q_alpha", alpha, rows, flags)


def campanato(f: GridFunction, lam: float, cubes: list[Cube]) -> NormReport:
    """Mean-oscillation norm: sqrt of sup over cubes of
    l(I)^(-lambda) * h^n * sum_{x in I} |f(x) - f_I|^2; lambda = n is BMO.
    """
    if not 0 <= lam <= f.n:
        raise ConfigError(f"lambda must lie in [0, n]={[0, f.n]} for diagnostics, got {lam}")
    rows = []
    for I in cubes:
        mean = cube_mean(f, I)
        _, vals = cube_lattice(f, I)
        val = I.edge**-lam * f.h**f.n * float(np.sum((vals - mean) ** 2))
        rows.append((I, math.sqrt(val)))
    return _finish("campanato", lam, rows, [])


def _band_start(I: Cube, flags: list[str]) -> int:
    level = -math.log2(I.edge)
    j0 = math.ceil(level)
    if j0 != level:
        flags.append(f"cube edge {I.edge} not dyadic: band sum started at j={j0}")
    return j0


def lp_morrey(
    f: GridFunction,
    alpha: float,
    cubes: list[Cube],
    decomposition: BandDecomposition,
) -> NormReport:
    """Band-energy Morrey norm: per cube of level k the square root of

        |I|^-(1-2a/n) * sum_{j=k}^{L+1} 2^(2aj) * ||band_j||_{L2(I)}^2.

    alpha outside (0,1) is allowed for degeneracy diagnostics and flagged.
    """
    flags: list[str] = []
    if not 0 < alpha < 1:
        flags.append(f"alpha={alpha} outside (0,1): two-sided comparison not expected")
    rows = []
    for I in cubes:
        j0 = _band_start(I, flags)
        if j0 < decomposition.j_min:
            raise ConfigError(
                f"cube of level {j0} needs bands from j={j0}, but the decomposition "
                f"starts at j_min={decomposition.j_min}"
            )
        acc = 0.0
        for j in range(j0, decomposition.j_max + 1):
            acc += 2.0 ** (2 * alpha * j) * l2_on_cube(decomposition.band(j), I)
        measure = I.edge**f.n
        val = measure ** -(1.0 - 2.0 * alpha / f.n) * acc
        rows.append((I, math.sqrt(val)))
    return _finish("lp_morrey", alpha, rows, flags)


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


def _children(I: Cube, k: int) -> list[Cube]:
    edge = I.edge / 2**k
    out = []
    for idx in np.ndindex(*(2**k,) * I.n):
        corner = tuple(c + i * edge for c, i in zip(I.corner, idx))
        out.append(Cube(corner, edge))
    return out


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
    """
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    level = _refinement_level(f, I, K)
    total = 0.0
    for k in range(K + 1):
        child_edge = I.edge / 2**k
        inv_measure = child_edge ** -f.n
        layer = 0.0
        for J in _children(I, k):
            j0 = level + k
            acc = 0.0
            for j in range(j0, decomposition.j_max + 1):
                acc += l2_on_cube(decomposition.band(j), J)
            layer += inv_measure * acc
        total += 2.0 ** ((2 * alpha - f.n) * k) * layer
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
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    level = _refinement_level(f, I, K)
    inv_measure = I.edge ** -f.n
    total = 0.0
    for j in range(level, decomposition.j_max + 1):
        w = sum(2.0 ** (2 * alpha * k) for k in range(min(K, j - level) + 1))
        total += w * l2_on_cube(decomposition.band(j), I)
    return inv_measure * total


@dataclass(frozen=True, eq=False)
class MorreyBesovReport:
    """Band-supremum combination with the attaining cube per band."""

    alpha: float
    sigma: float
    value: float
    rows: tuple[tuple[int, float, Cube | None], ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "kind": "morrey_besov",
            "alpha": self.alpha,
            "sigma": self.sigma,
            "value": self.value,
            "rows": [
                {"j": j, "sup": s, "argmax_cube": _cube_dict(c)} for j, s, c in self.rows
            ],
        }


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
    if p != 2 or q != 2 or abs(sigma - (f.n - 2 * alpha)) > 1e-9:
        raise ConfigError(
            "only the embedding case is implemented: p = q = 2, sigma = n - 2*alpha"
        )
    rows = []
    total = 0.0
    for j in decomposition.js:
        band = decomposition.band(j)
        best_val, best_cube = 0.0, None
        for I in cubes:
            measure = I.edge**f.n
            val = measure ** (-sigma / f.n) * 2.0 ** (2 * alpha * j) * l2_on_cube(band, I)
            if val > best_val:
                best_val, best_cube = val, I
        rows.append((j, best_val, best_cube))
        total += best_val
    return MorreyBesovReport(alpha, sigma, math.sqrt(total), tuple(rows))
