"""Dyadic frequency-band multipliers and the band decomposition.

The band-pass family is built from a radial cutoff chi with chi = 1 for
|xi| <= 1 and chi = 0 for |xi| >= 2.  The band multiplier at scale j is the
telescoping difference

    psi_hat_j(xi) = chi(|xi| / 2^j) - chi(|xi| / 2^(j-1)),

which is supported in 2^(j-1) <= |xi| <= 2^(j+1), takes values in [0, 1],
and sums with the lowpass block chi(|xi| / 2^(j_min-1)) to exactly 1 at
every representable frequency.  Bands above the Nyquist shell are
identically zero on the grid, so truncating at j = L+1 loses nothing.

Band j = L+1 is itself identically zero: its support starts at |xi| = 2^L,
beyond the largest grid frequency (N/2) sqrt(n).  It is kept because the
`decompose` CSV and the `mb` report list one row per band j = j_min..L+1,
and the oracle checks of the benchmark in `bench/` read exactly that range.
Its zero energies add +0.0 to every band sum, so no norm value changes.

`decompose` takes one real FFT of f and streams the multipliers from
`_profiles`: each is checked, applied to the half spectrum by one inverse
real FFT and dropped, so one full-grid multiplier is alive at a time beside
the bands.  `build_profiles` lists them all, for the profile tables.

Two cutoff families are available: "exp" (default, the smooth
exp(-1/t)-quotient ramp) and "cosine" (raised-cosine ramp) for probing that
results do not depend on the profile shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corpus import _freqs
from .errors import ConfigError, InvariantViolation
from .grid import GridFunction

__all__ = [
    "BandProfile",
    "BandDecomposition",
    "build_profiles",
    "decompose",
    "profiles_to_csv",
]


def _chi_exp(u: np.ndarray) -> np.ndarray:
    out = np.ones_like(u)
    out[u >= 2.0] = 0.0
    mid = (u > 1.0) & (u < 2.0)
    t = u[mid]
    a = np.exp(-1.0 / (2.0 - t))
    b = np.exp(-1.0 / (t - 1.0))
    out[mid] = a / (a + b)
    return out


def _chi_cosine(u: np.ndarray) -> np.ndarray:
    out = np.ones_like(u)
    out[u >= 2.0] = 0.0
    mid = (u > 1.0) & (u < 2.0)
    out[mid] = 0.5 * (1.0 + np.cos(np.pi * (u[mid] - 1.0)))
    return out


_FAMILIES = {"exp": _chi_exp, "cosine": _chi_cosine}


@dataclass(frozen=True, eq=False)
class BandProfile:
    """One Fourier multiplier: kind 'standard' (band j) or 'lowpass' (every
    band below j = j_min at once)."""

    j: int
    values: np.ndarray
    kind: str = "standard"

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def label(self) -> str:
        if self.kind == "lowpass":
            return f"lowpass(j_min={self.j})"
        return f"band{self.j}"


def _profiles(L: int, j_min: int, n: int, family: str):
    """The lowpass block, then each band j = j_min..L+1, one at a time."""
    if family not in _FAMILIES:
        raise ConfigError(f"unknown profile family {family!r}, expected one of {sorted(_FAMILIES)}")
    if not 0 <= j_min <= L:
        raise ConfigError(f"j_min must satisfy 0 <= j_min <= L, got j_min={j_min}, L={L}")
    chi = _FAMILIES[family]
    N = 2**L
    mag = _freqs(N, n)[1]  # Euclidean |xi| over the integer frequencies, FFT order
    below = chi(mag / 2.0 ** (j_min - 1))  # chi at scale j-1, carried over
    yield BandProfile(j_min, below, kind="lowpass")
    for j in range(j_min, L + 2):
        cut = chi(mag / 2.0**j)
        yield BandProfile(j, cut - below, kind="standard")
        below = cut


def build_profiles(L: int, j_min: int, n: int = 1, family: str = "exp") -> list[BandProfile]:
    """Standard profiles for j = j_min..L+1 plus the matching lowpass block.

    The lowpass multiplier is chi(|xi| / 2^(j_min-1)), i.e. the telescoped sum
    of all bands below j_min, so lowpass + sum of bands == 1 identically.
    """
    return list(_profiles(L, j_min, n, family))


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """All band projections of one function plus its lowpass block."""

    j_min: int
    j_max: int
    bands: tuple[GridFunction, ...]
    lowpass: GridFunction

    @property
    def js(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def band(self, j: int) -> GridFunction:
        if not self.j_min <= j <= self.j_max:
            raise ConfigError(f"band {j} not in decomposition range {self.j_min}..{self.j_max}")
        return self.bands[j - self.j_min]

    def reconstruction(self) -> np.ndarray:
        out = self.lowpass.values.copy()
        for b in self.bands:
            out = out + b.values
        return out


def decompose(f: GridFunction, j_min: int = 0, family: str = "exp") -> BandDecomposition:
    """Split f into lowpass + bands j_min..L+1 (exact telescoping), each from
    the half spectrum of one real FFT: exact for even multipliers, checked.
    The multipliers are built one at a time, as they are applied."""
    f_hat = np.fft.rfftn(f.values)
    axes = tuple(range(f.n))
    fields = []
    for p in _profiles(f.L, j_min, f.n, family):
        if not np.array_equal(p.values, np.roll(np.flip(p.values), 1, axis=axes)):
            raise InvariantViolation(f"{p.label} multiplier is not even: projection not real")
        half = p.values[..., : f.N // 2 + 1]
        fields.append(GridFunction(np.fft.irfftn(f_hat * half, s=f.values.shape, axes=axes)))
    return BandDecomposition(j_min, f.L + 1, tuple(fields[1:]), fields[0])


def profiles_to_csv(profiles: list[BandProfile], path) -> None:
    """Long-format table (frequency components, profile label, value)."""
    N, n = profiles[0].values.shape[0], profiles[0].values.ndim
    freqs = np.fft.fftfreq(N, d=1.0 / N).astype(int).tolist()
    with open(path, "w") as fh:
        fh.write(",".join(f"xi{d + 1}" for d in range(n)) + ",profile,value\n")
        for p in profiles:
            for q, v in zip(itertools.product(freqs, repeat=n), p.values.ravel().tolist()):
                fh.write(f"{','.join(map(str, q))},{p.label},{v!r}\n")
