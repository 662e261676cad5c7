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

Two cutoff families are available: "exp" (default, the smooth
exp(-1/t)-quotient ramp) and "cosine" (raised-cosine ramp) for probing that
results do not depend on the profile shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _freq_magnitude(N: int, n: int) -> np.ndarray:
    """Euclidean |xi| over the grid's integer frequencies, FFT order."""
    q = np.fft.fftfreq(N, d=1.0 / N)
    if n == 1:
        return np.abs(q)
    qx, qy = np.meshgrid(q, q, indexing="ij")
    return np.sqrt(qx**2 + qy**2)


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


def build_profiles(L: int, j_min: int, n: int = 1, family: str = "exp") -> list[BandProfile]:
    """Standard profiles for j = j_min..L+1 plus the matching lowpass block.

    The lowpass multiplier is chi(|xi| / 2^(j_min-1)), i.e. the telescoped sum
    of all bands below j_min, so lowpass + sum of bands == 1 identically.
    """
    if family not in _FAMILIES:
        raise ConfigError(f"unknown profile family {family!r}, expected one of {sorted(_FAMILIES)}")
    if not 0 <= j_min <= L:
        raise ConfigError(f"j_min must satisfy 0 <= j_min <= L, got j_min={j_min}, L={L}")
    chi = _FAMILIES[family]
    N = 2**L
    mag = _freq_magnitude(N, n)
    profiles = [BandProfile(j_min, chi(mag / 2.0 ** (j_min - 1)), kind="lowpass")]
    for j in range(j_min, L + 2):
        values = chi(mag / 2.0**j) - chi(mag / 2.0 ** (j - 1))
        profiles.append(BandProfile(j, values, kind="standard"))
    return profiles


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
    """Split f into lowpass + bands j_min..L+1 (exact telescoping)."""
    profiles = build_profiles(f.L, j_min, n=f.n, family=family)
    f_hat = np.fft.fftn(f.values)
    fields = []
    scale = max(1.0, float(np.max(np.abs(f.values))))
    for p in profiles:
        out = np.fft.ifftn(f_hat * p.values)
        if np.max(np.abs(out.imag)) > 1e-12 * scale:
            raise InvariantViolation("band projection produced a non-real field")
        fields.append(GridFunction(out.real))
    return BandDecomposition(j_min, f.L + 1, tuple(fields[1:]), fields[0])


def profiles_to_csv(profiles: list[BandProfile], path) -> None:
    """Long-format table (frequency components, profile label, value)."""
    first = profiles[0]
    N = first.values.shape[0]
    n = first.values.ndim
    freqs = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    with open(path, "w") as fh:
        cols = ",".join(f"xi{d + 1}" for d in range(n))
        fh.write(f"{cols},profile,value\n")
        for p in profiles:
            if n == 1:
                for q, v in zip(freqs, p.values):
                    fh.write(f"{q},{p.label},{float(v)!r}\n")
            else:
                for a, qa in enumerate(freqs):
                    for b, qb in enumerate(freqs):
                        fh.write(f"{qa},{qb},{p.label},{float(p.values[a, b])!r}\n")
