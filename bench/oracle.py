"""Independent recomputations used by the benchmark's correctness checks.

Everything here is written from the defining formulas with numpy and the
standard library only.  It imports nothing from `qalpha`, so a fault in the
program cannot hide itself by also appearing in the check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def read_grid_text(path) -> np.ndarray:
    """Parse the plain-text grid format: header "n N", then N^n values."""
    with open(path) as fh:
        n, N = (int(t) for t in fh.readline().split())
        values = np.array([float(line) for line in fh], dtype=float)
    return values.reshape((N,) * n)


def write_grid_text(values: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{values.ndim} {values.shape[0]}\n")
        fh.writelines(f"{float(v)!r}\n" for v in values.ravel())


def axis_indices(N: int, a: float, e: float, closed: bool) -> np.ndarray:
    """Unwrapped lattice integers i with i/N in [a, a+e) or, closed, in [a, a+e].

    Closed intervals count each index once even when they wrap the torus.
    """
    lo = math.ceil(a * N)
    hi = math.floor((a + e) * N) if closed else math.ceil((a + e) * N) - 1
    if closed:
        hi = min(hi, lo + N - 1)
    return np.arange(lo, hi + 1)


def lattice_count(N: int, corner, edge: float) -> int:
    """Number of half-open lattice points of a cube (with wrap multiplicity)."""
    return math.prod(math.ceil((a + edge) * N) - math.ceil(a * N) for a in corner)


def _block(values: np.ndarray, corner, edge: float, closed: bool = False) -> np.ndarray:
    N = values.shape[0]
    axes = [axis_indices(N, a, edge, closed) % N for a in corner]
    return values[np.ix_(*axes)]


def q_alpha_cube(values: np.ndarray, alpha: float, corner, edge: float) -> float:
    """sqrt( l^(2a-n) h^(2n) sum_{x != y in I} |f(x)-f(y)|^2 / |x-y|^(2a+n) )."""
    N, n = values.shape[0], values.ndim
    axes = [axis_indices(N, a, edge, closed=False) for a in corner]
    grids = np.meshgrid(*axes, indexing="ij")
    pos = np.stack([g.ravel() / N for g in grids], axis=1)
    vals = values[tuple(g.ravel() % N for g in grids)]
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    total = float(((vals[:, None] - vals[None, :]) ** 2 * dist ** -(2 * alpha + n)).sum())
    return math.sqrt(edge ** (2 * alpha - n) * N ** (-2 * n) * total)


def cube_family(n: int, level_max: int, shifted: bool) -> list[tuple[tuple[float, ...], float]]:
    """(corner, edge) of the dyadic cubes of [0,1)^n, levels 0..level_max, and
    with `shifted` the same cubes translated by half an edge per axis."""
    return [
        (tuple((i + shift) * 2.0**-k for i in idx), 2.0**-k)
        for shift in ((0.0, 0.5) if shifted else (0.0,))
        for k in range(level_max + 1)
        for idx in itertools.product(range(2**k), repeat=n)
    ]


def lemma23_ratio(values: np.ndarray, alpha: float, m: float, K: int) -> float:
    """Dilated-cube oscillation sum over m^(2a+2n) q_alpha^2 on the unit cube:

        sum_{k<=K} 2^((2a-n)k) sum_{J in D_k} l(J)^-2n h^2n sum_{x,y in mJ} |f(x)-f(y)|^2

    mJ is half-open and unwrapped, so a lattice point is counted once for
    every period of the torus the dilated cube covers.  The pair sum is taken
    directly over all (x, y), not through the mean.  q_alpha is the sup over
    the shifted family of levels 0..L-3.
    """
    N, n = values.shape[0], values.ndim
    L = N.bit_length() - 1
    total = 0.0
    for k in range(K + 1):
        edge = 2.0**-k
        for idx in itertools.product(range(2**k), repeat=n):
            corner = [i * edge + edge * (1 - m) / 2 for i in idx]
            axes = [axis_indices(N, a, m * edge, closed=False) % N for a in corner]
            vals = values[np.ix_(*axes)].ravel()
            pair_sum = float(((vals[:, None] - vals[None, :]) ** 2).sum())
            total += 2.0 ** ((2 * alpha - n) * k) * edge ** (-2 * n) * N ** (-2 * n) * pair_sum
    if total == 0.0:
        return 0.0
    q = max(q_alpha_cube(values, alpha, c, e) for c, e in cube_family(n, L - 3, shifted=True))
    return total / (m ** (2 * alpha + 2 * n) * q**2)


def campanato_cube(values: np.ndarray, lam: float, corner, edge: float) -> float:
    """sqrt( l^-lam h^n sum_{x in I} |f(x) - f_I|^2 ), f_I over the closed cube."""
    N, n = values.shape[0], values.ndim
    mean = float(_block(values, corner, edge, closed=True).mean())
    osc = float(((_block(values, corner, edge) - mean) ** 2).sum())
    return math.sqrt(edge**-lam * N**-n * osc)


def _chi(u: np.ndarray) -> np.ndarray:
    """Smooth cutoff: 1 on [0, 1], 0 on [2, inf), exp(-1/t) quotient between."""
    out = (u <= 1.0).astype(float)
    mid = (u > 1.0) & (u < 2.0)
    t = u[mid]
    a, b = np.exp(-1.0 / (2.0 - t)), np.exp(-1.0 / (t - 1.0))
    out[mid] = a / (a + b)
    return out


def bands(values: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Lowpass chi(2|xi|) and bands chi(|xi|/2^j) - chi(|xi|/2^(j-1)), j = 0..L+1."""
    N, n = values.shape[0], values.ndim
    L = N.bit_length() - 1
    q = np.fft.fftfreq(N, d=1.0 / N)
    mag = np.sqrt(sum(g**2 for g in np.meshgrid(*([q] * n), indexing="ij")))
    f_hat = np.fft.fftn(values)
    lowpass = np.fft.ifftn(f_hat * _chi(2.0 * mag)).real
    out = {}
    for j in range(L + 2):
        mult = _chi(mag / 2.0**j) - _chi(mag / 2.0 ** (j - 1))
        out[j] = np.fft.ifftn(f_hat * mult).real
    return lowpass, out


def energy(values: np.ndarray) -> float:
    return float((values**2).sum()) / values.size


def lp_morrey_cube(band_arrays: dict[int, np.ndarray], alpha: float, corner, edge: float) -> float:
    """sqrt( |I|^-(1-2a/n) sum_{j >= level} 2^(2aj) ||band_j||^2_{L2(I)} )."""
    some = band_arrays[0]
    N, n = some.shape[0], some.ndim
    level = round(-math.log2(edge))
    acc = sum(
        2.0 ** (2 * alpha * j) * float((_block(b, corner, edge) ** 2).sum()) * N**-n
        for j, b in band_arrays.items()
        if j >= level
    )
    return math.sqrt((edge**n) ** -(1 - 2 * alpha / n) * acc)


def morrey_besov_band_sups(
    band_arrays: dict[int, np.ndarray], alpha: float, level_max: int
) -> dict[int, float]:
    """Per band j: sup over aligned dyadic cubes of |I|^-(1-2a/n) 2^(2aj) ||band_j||^2_I."""
    some = band_arrays[0]
    N, n = some.shape[0], some.ndim
    out = {}
    for j, b in band_arrays.items():
        sq = b**2 * N**-n
        best = 0.0
        for k in range(level_max + 1):
            M = N >> k
            shape = sum(((2**k, M) for _ in range(n)), ())
            sums = sq.reshape(shape).sum(axis=tuple(range(1, 2 * n, 2)))
            weight = (2.0 ** (-k * n)) ** -(1 - 2 * alpha / n) * 2.0 ** (2 * alpha * j)
            best = max(best, weight * float(sums.max()))
        out[j] = best
    return out


def tree_boxes(x, y, m: float) -> list[list[tuple[int, int]]]:
    """Per level k, the tree set {J : x, y in mJ} of [0,1]^n as index intervals.

    Along each axis the qualifying indices i satisfy |p - (i + 1/2) 2^-k| <=
    m 2^-k / 2 for p = x and p = y: one integer interval (first, last).  The
    level's set is the product of the axis intervals.  Exact rational
    arithmetic.  The family is closed upward in the tree, so the list stops
    at the first empty level.
    """
    mf = Fraction(m)
    lows = [Fraction(max(a, b)) for a, b in zip(x, y)]
    highs = [Fraction(min(a, b)) for a, b in zip(x, y)]
    boxes = []
    k = 0
    while True:
        size = 2**k
        box = [(max(0, math.ceil(lo * size - (mf + 1) / 2)),
                min(size - 1, math.floor(hi * size + (mf - 1) / 2)))
               for lo, hi in zip(lows, highs)]
        if any(last < first for first, last in box):
            return boxes
        boxes.append(box)
        k += 1


def _volume(box) -> int:
    return math.prod(last - first + 1 for first, last in box)


def tree_level_counts(boxes) -> list[int]:
    return [_volume(box) for box in boxes]


def minimal_level_counts(boxes) -> list[int]:
    """Members with no child in the set: level box minus the parents of the next box."""
    counts = []
    for k, box in enumerate(boxes):
        below = boxes[k + 1] if k + 1 < len(boxes) else None
        parents = 0 if below is None else _volume([(a // 2, b // 2) for a, b in below])
        counts.append(_volume(box) - parents)
    return counts


def kernel_from_counts(counts: list[int], alpha: float, n: int) -> float:
    """sum of l(J)^(-2a-n) over cubes counted per level, one term each, exactly rounded."""
    expo = -(2.0 * alpha + n)
    return math.fsum(
        term for k, c in enumerate(counts) for term in [(2.0**-k) ** expo] * c
    )
