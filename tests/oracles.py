"""Independent naive implementations used as oracles.

Everything here is written as plain loops straight from the defining
formulas, with its own membership tests, so it shares no code path with the
package.  Exhaustive cube enumeration uses Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def naive_dft(values: np.ndarray) -> np.ndarray:
    """O(N^(2n)) direct DFT with the package's normalization (1/N^n forward)."""
    N = values.shape[0]
    n = values.ndim
    out = np.zeros((N,) * n, dtype=complex)
    for xi in np.ndindex(*(N,) * n):
        acc = 0.0 + 0.0j
        for i in np.ndindex(*(N,) * n):
            phase = sum(x * k for x, k in zip(xi, i)) / N
            acc += values[i] * np.exp(-2j * np.pi * phase)
        out[xi] = acc / N**n
    return out


def naive_lattice(N: int, n: int, corner, edge, closed: bool):
    """(position, index) lattice points of the cube, wraps handled directly.

    Half-open keeps multiplicity over wraps; closed dedups by index.
    """
    axes = []
    for d in range(n):
        a, b = corner[d], corner[d] + edge
        pts = []
        for i in range(N):
            for z in range(math.floor(a) - 1, math.ceil(b) + 2):
                p = i / N + z
                inside = a <= p <= b if closed else a <= p < b
                if inside:
                    pts.append((p, i))
                    if closed:
                        break  # one appearance per index
        axes.append(pts)
    out = []
    for combo in itertools.product(*axes):
        pos = tuple(c[0] for c in combo)
        idx = tuple(c[1] for c in combo)
        out.append((pos, idx))
    return out


def naive_cube_mean(values: np.ndarray, corner, edge) -> float:
    pts = naive_lattice(values.shape[0], values.ndim, corner, edge, closed=True)
    return sum(values[idx] for _, idx in pts) / len(pts)


def naive_l2_on_cube(values: np.ndarray, corner, edge) -> float:
    N, n = values.shape[0], values.ndim
    pts = naive_lattice(N, n, corner, edge, closed=False)
    return (1.0 / N) ** n * sum(values[idx] ** 2 for _, idx in pts)


def naive_q_alpha_on_cube(values: np.ndarray, alpha: float, corner, edge) -> float:
    """Square of the per-cube increment-kernel value, direct double loop."""
    N, n = values.shape[0], values.ndim
    pts = naive_lattice(N, n, corner, edge, closed=False)
    h = 1.0 / N
    acc = 0.0
    for (px, ix) in pts:
        for (py, iy) in pts:
            if px == py:
                continue
            d2 = sum((a - b) ** 2 for a, b in zip(px, py))
            acc += (values[ix] - values[iy]) ** 2 / d2 ** ((2 * alpha + n) / 2)
    return edge ** (2 * alpha - n) * h ** (2 * n) * acc


def naive_campanato_on_cube(values: np.ndarray, lam: float, corner, edge) -> float:
    """Square of the per-cube mean-oscillation value."""
    N, n = values.shape[0], values.ndim
    mean = naive_cube_mean(values, corner, edge)
    pts = naive_lattice(N, n, corner, edge, closed=False)
    acc = sum((values[idx] - mean) ** 2 for _, idx in pts)
    return edge**-lam * (1.0 / N) ** n * acc


def naive_lp_morrey_on_cube(
    band_values: dict[int, np.ndarray], alpha: float, corner, edge, j_max: int
) -> float:
    """Square of the per-cube band-energy value; bands indexed by j."""
    some = next(iter(band_values.values()))
    N, n = some.shape[0], some.ndim
    level = -math.log2(edge)
    j0 = math.ceil(level)
    acc = 0.0
    for j in range(j0, j_max + 1):
        band = band_values[j]
        pts = naive_lattice(N, n, corner, edge, closed=False)
        e = (1.0 / N) ** n * sum(band[idx] ** 2 for _, idx in pts)
        acc += 2.0 ** (2 * alpha * j) * e
    return (edge**n) ** -(1.0 - 2.0 * alpha / n) * acc


def naive_dyadic_lp(
    band_values: dict[int, np.ndarray],
    alpha: float,
    corner,
    edge,
    K: int,
    j_max: int,
) -> float:
    """Literal triple loop over generations k, children J, and bands j."""
    some = next(iter(band_values.values()))
    N, n = some.shape[0], some.ndim
    level = int(-math.log2(edge))
    total = 0.0
    for k in range(K + 1):
        child_edge = edge / 2**k
        layer = 0.0
        for idx in itertools.product(range(2**k), repeat=n):
            child_corner = tuple(c + i * child_edge for c, i in zip(corner, idx))
            acc = 0.0
            for j in range(level + k, j_max + 1):
                band = band_values[j]
                pts = naive_lattice(N, n, child_corner, child_edge, closed=False)
                acc += (1.0 / N) ** n * sum(band[idx2] ** 2 for _, idx2 in pts)
            layer += child_edge**-n * acc
        total += 2.0 ** ((2 * alpha - n) * k) * layer
    return total


def naive_morrey_besov(
    band_values: dict[int, np.ndarray], alpha: float, sigma: float, cubes, j_max: int
) -> float:
    some = next(iter(band_values.values()))
    N, n = some.shape[0], some.ndim
    total = 0.0
    for j in sorted(band_values):
        if j > j_max:
            continue
        band = band_values[j]
        best = 0.0
        for corner, edge in cubes:
            pts = naive_lattice(N, n, corner, edge, closed=False)
            e = (1.0 / N) ** n * sum(band[idx] ** 2 for _, idx in pts)
            best = max(best, (edge**n) ** (-sigma / n) * 2.0 ** (2 * alpha * j) * e)
        total += best
    return math.sqrt(total)


def exhaustive_gamma(root_corner, root_edge, x, y, m, max_level):
    """Every dyadic cube key (level, index) with x, y in mJ; no pruning.

    Fraction arithmetic throughout, so exact for float inputs.
    """
    n = len(root_corner)
    xf = [Fraction(c) for c in x]
    yf = [Fraction(c) for c in y]
    mf = Fraction(m)
    ca = [Fraction(c) for c in root_corner]
    e0 = Fraction(root_edge)
    out = set()
    for k in range(max_level + 1):
        e = e0 / 2**k
        half = mf * e / 2
        for idx in itertools.product(range(2**k), repeat=n):
            ok = True
            for d in range(n):
                c = ca[d] + idx[d] * e + e / 2
                if abs(xf[d] - c) > half or abs(yf[d] - c) > half:
                    ok = False
                    break
            if ok:
                out.add((k, idx))
    return out


def brute_force_minimal(keys: set[tuple[int, tuple[int, ...]]]):
    """Minimality by testing every proper-descendant relation directly."""

    def is_descendant(child, parent):
        ck, ci = child
        pk, pi = parent
        if ck <= pk:
            return False
        shift = ck - pk
        return all(c >> shift == p for c, p in zip(ci, pi))

    return {
        j for j in keys if not any(j2 != j and is_descendant(j2, j) for j2 in keys)
    }


def brute_force_ring_class(corner, edge, x, y, cap: int = 64):
    """Ring class (k, kind) of one cube by testing the defining predicates."""
    n = len(x)
    l0 = math.sqrt(n) * math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    center = [(a + b) / 2 for a, b in zip(x, y)]

    def shell(k):
        e = l0 * 2.0**k
        return [c - e / 2 for c in center], e

    def meets(k):
        sc, se = shell(k)
        return all(
            max(corner[d], sc[d]) <= min(corner[d] + edge, sc[d] + se) for d in range(n)
        )

    def inside(k):
        sc, se = shell(k)
        return all(
            sc[d] <= corner[d] and corner[d] + edge <= sc[d] + se for d in range(n)
        )

    for k in range(cap):
        misses_lower = k == 0 or not meets(k - 1)
        if meets(k) and misses_lower:
            return (k, 1 if inside(k + 1) else 2)
    raise AssertionError("no ring class found")


def displacement_q_alpha(values: np.ndarray, alpha: float, cubes) -> list[float]:
    """Squares of the per-cube increment-kernel values, exact pair sums.

    Each cube's half-open lattice is found by testing a <= t/N < a+edge on
    the integers t near the cube, per axis and in position order, and cubes
    of the same lattice shape are stacked.  The ordered pairs are grouped by
    integer displacement t: the weight |h t|^-(2a+n) is computed once per t
    and multiplies the squared differences of the block with its own slice
    shifted by t.  t and -t give the same terms, so only the t whose first
    nonzero component is positive are summed, twice.  Cost O(P^2) per cube.
    """
    N, n = values.shape[0], values.ndim
    h = 1.0 / N
    stacks = {}
    for c, (corner, edge) in enumerate(cubes):
        idx = []
        for a in corner:
            near = range(math.floor(a * N) - 1, math.ceil((a + edge) * N) + 2)
            idx.append([t % N for t in near if a <= t / N < a + edge])
        block = values[np.ix_(*idx)]
        stacks.setdefault(block.shape, []).append((c, block))
    out = [0.0] * len(cubes)
    for shape, members in stacks.items():
        blocks = np.stack([b for _, b in members])
        acc = np.zeros(len(members))
        for t in itertools.product(*(range(-(M - 1), M) for M in shape)):
            if next((s for s in t if s), 0) <= 0:
                continue
            x = (slice(None),) + tuple(slice(max(0, -s), M - max(0, s)) for s, M in zip(t, shape))
            y = (slice(None),) + tuple(slice(max(0, s), M + min(0, s)) for s, M in zip(t, shape))
            weight = sum((h * s) ** 2 for s in t) ** (-(2 * alpha + n) / 2)
            diff2 = (blocks[x] - blocks[y]) ** 2
            acc += 2.0 * weight * diff2.reshape(len(members), -1).sum(axis=1)
        for (c, _), s in zip(members, acc):
            corner, edge = cubes[c]
            out[c] = edge ** (2 * alpha - n) * h ** (2 * n) * float(s)
    return out
