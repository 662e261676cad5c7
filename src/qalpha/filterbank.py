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

`decompose` keeps the half spectrum of one real FFT of f, and its bands
are a `LazyBands`: a band is filtered when read, by one multiplier from
`_profiles`, checked even, and one inverse real FFT, and no one else keeps
it.  Readers pass once over a slice of the bands, one cutoff per scale.

Two cutoff families are available: "exp" (default, the smooth
exp(-1/t)-quotient ramp) and "cosine" (raised-cosine ramp) for probing that
results do not depend on the profile shape.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .corpus import _freqs
from .errors import ConfigError, InvariantViolation
from .grid import GridFunction, _check_values

__all__ = [
    "BandProfile",
    "BandDecomposition",
    "LazyBands",
    "build_profiles",
    "decompose",
    "profiles_to_csv",
]


def _chi(u: np.ndarray, ramp) -> np.ndarray:
    """The cutoff: 1 for u <= 1, 0 for u >= 2, and the family's ramp between."""
    out = np.where(u < 2.0, 1.0, 0.0)
    mid = (u > 1.0) & (u < 2.0)
    out[mid] = ramp(u[mid])
    return out


def _chi_exp(u: np.ndarray) -> np.ndarray:
    def ramp(t):
        a = np.exp(-1.0 / (2.0 - t))
        b = np.exp(-1.0 / (t - 1.0))
        return a / (a + b)
    return _chi(u, ramp)


def _chi_cosine(u: np.ndarray) -> np.ndarray:
    return _chi(u, lambda t: 0.5 * (1.0 + np.cos(np.pi * (t - 1.0))))


_FAMILIES = {"exp": _chi_exp, "cosine": _chi_cosine}


@dataclass(frozen=True, eq=False)
class BandProfile:
    """One Fourier multiplier: kind 'standard' (band j) or 'lowpass' (every
    band below j = j_min at once).  `values` is kept as given, not copied."""

    j: int
    values: np.ndarray
    kind: str = "standard"

    @property
    def label(self) -> str:
        if self.kind == "lowpass":
            return f"lowpass(j_min={self.j})"
        return f"band{self.j}"


def _profiles(L: int, n: int, family: str, js: range):
    """The lowpass block below js.start, then each band j of js, one at a
    time; in steps of 1 each cutoff is evaluated once and carried over."""
    chi = _FAMILIES[family]
    mag = _freqs(2**L, n)[1]  # Euclidean |xi| over the integer frequencies, FFT order
    below = chi(mag / 2.0 ** (js.start - 1))  # chi at scale j-1
    yield BandProfile(js.start, below, kind="lowpass")
    for j in js:
        cut = chi(mag / 2.0**j)
        yield BandProfile(j, cut - below, kind="standard")
        below = cut if js.step == 1 else chi(mag / 2.0 ** (j + js.step - 1))


def _band_range(L: int, j_min: int, family: str) -> range:
    if family not in _FAMILIES:
        raise ConfigError(f"unknown profile family {family!r}, expected one of {sorted(_FAMILIES)}")
    if not 0 <= j_min <= L:
        raise ConfigError(f"j_min must satisfy 0 <= j_min <= L, got j_min={j_min}, L={L}")
    return range(j_min, L + 2)


def build_profiles(L: int, j_min: int, n: int = 1, family: str = "exp") -> list[BandProfile]:
    """Standard profiles for j = j_min..L+1 plus the matching lowpass block.

    The lowpass multiplier is chi(|xi| / 2^(j_min-1)), i.e. the telescoped sum
    of all bands below j_min, so lowpass + sum of bands == 1 identically.
    """
    return list(_profiles(L, n, family, _band_range(L, j_min, family)))


@dataclass(frozen=True, eq=False)
class LazyBands(Sequence):
    """Read-only bands js of a function on the 2^L grid in n dimensions, each
    filtered from the half spectrum `f_hat` of its real FFT when read; slices
    are `LazyBands`, and a pass over one carries the cutoffs along."""

    f_hat: np.ndarray
    L: int
    n: int
    family: str
    js: range

    def __len__(self) -> int:
        return len(self.js)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, js=self.js[i])
        j = self.js[i]
        return next(iter(replace(self, js=range(j, j + 1))))

    def __iter__(self):
        profiles = _profiles(self.L, self.n, self.family, self.js)
        return map(self._filter, itertools.islice(profiles, 1, None))

    def _filter(self, p: BandProfile) -> GridFunction:  # exact for an even multiplier
        axes = tuple(range(self.n))
        if not np.array_equal(p.values, np.roll(np.flip(p.values), 1, axis=axes)):
            raise InvariantViolation(f"{p.label} multiplier is not even: projection not real")
        half = p.values[..., : 2 ** (self.L - 1) + 1]
        return GridFunction(np.fft.irfftn(self.f_hat * half, s=(2**self.L,) * self.n, axes=axes))


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """The lowpass block and bands j_min..j_max of one function.  `source`
    computes a band when it is read; `bands` is `source`, or the bands held
    by `replace(dec, bands=tuple(dec.bands))` for a caller that rereads them."""

    j_min: int
    j_max: int
    bands: Sequence[GridFunction]
    source: LazyBands

    @property
    def js(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def lowpass(self) -> GridFunction:
        s = self.source
        return s._filter(next(_profiles(s.L, s.n, s.family, s.js[:0])))

    def band(self, j: int) -> GridFunction:
        if not self.j_min <= j <= self.j_max:
            raise ConfigError(f"band {j} not in decomposition range {self.j_min}..{self.j_max}")
        return self.bands[j - self.j_min]

    def reconstruction(self, visit=lambda block: None) -> np.ndarray:
        """lowpass + bands, added in that order in one pass over the multipliers
        of `source` that holds one block at a time; `visit` sees each as added."""
        s = self.source
        out = np.zeros((2**s.L,) * s.n)
        for b in map(s._filter, _profiles(s.L, s.n, s.family, s.js)):
            out += b.values
            visit(b)
            del b  # before the next block is filtered
        return out


def decompose(f: GridFunction, j_min: int = 0, family: str = "exp") -> BandDecomposition:
    """Split f into lowpass + bands j_min..L+1 (exact telescoping), each band
    filtered from the half spectrum of one real FFT when it is read.  Values
    whose squares pass 2^960 (`grid._check_values`) are rejected before the FFT."""
    _check_values(f)
    bands = LazyBands(np.fft.rfftn(f.values), f.L, f.n, family, _band_range(f.L, j_min, family))
    return BandDecomposition(j_min, f.L + 1, bands, bands)


def profiles_to_csv(profiles: list[BandProfile], path) -> None:
    """Long-format table (frequency components, profile label, value)."""
    N, n = profiles[0].values.shape[0], profiles[0].values.ndim
    freqs = np.fft.fftfreq(N, d=1.0 / N).astype(int).tolist()
    with open(path, "w") as fh:
        fh.write(",".join(f"xi{d + 1}" for d in range(n)) + ",profile,value\n")
        for p in profiles:
            for q, v in zip(itertools.product(freqs, repeat=n), p.values.ravel().tolist()):
                fh.write(f"{','.join(map(str, q))},{p.label},{v!r}\n")
