"""Deterministic generators of test functions with a tunable regularity dial.

The `spectral_noise` kind prescribes |f_hat(xi)| = |xi|^(-s - n/2) with
seeded random phases, which puts the per-band energies on the power law
2^(-2js): the slope s plays the role of a smoothness dial, with s > alpha
expected to give resolution-stable increment-norm values and s < alpha
values that grow with N.  The remaining kinds are closed-form samples.
Identical specs (including the seed) produce bit-identical grids.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid import _DIMENSIONS, GridFunction

__all__ = ["CorpusSpec", "generate", "load_corpus_file", "default_corpus"]

@dataclass(frozen=True)
class CorpusSpec:
    kind: str
    N: int
    n: int
    params: tuple[tuple[str, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown corpus kind {self.kind!r}, expected one of {KINDS}")
        if self.n not in _DIMENSIONS or self.seed < 0:
            raise ConfigError(f"corpus n must be 1 or 2 and seed >= 0, got {self.n}, {self.seed}")
        params = tuple(sorted((str(k), v) for k, v in dict(self.params).items()))
        for k, v in params:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ConfigError(
                    f"corpus kind {self.kind!r}: parameter {k!r} must be a finite number, "
                    f"got {v!r}"
                )
        object.__setattr__(self, "params", params)

    def param(self, name: str, default=None):
        for k, v in self.params:
            if k == name:
                return v
        if default is None:
            raise ConfigError(f"corpus kind {self.kind!r} needs parameter {name!r}")
        return default

    @property
    def ident(self) -> str:
        parts = [self.kind] + [f"{k}={v:g}" for k, v in self.params]
        if self.kind == "spectral_noise":
            parts.append(f"seed={self.seed}")
        return "_".join(parts)

    def with_size(self, N: int) -> "CorpusSpec":
        return replace(self, N=N)


def _positions(N: int, n: int) -> tuple[np.ndarray, ...]:
    """Per-axis sample positions i/N, one array per axis that broadcasts against the others."""
    x = np.arange(N) / N
    return np.meshgrid(*(x,) * n, indexing="ij", sparse=True)


def _freqs(N: int, n: int):
    """Per-axis integer frequencies in FFT order, broadcastable axes, and |xi| as a full grid."""
    q = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    freq = np.meshgrid(*(q,) * n, indexing="ij", sparse=True)
    return freq, np.sqrt(sum(a.astype(float) ** 2 for a in freq))


def _from_spectrum(coeffs: np.ndarray, N: int, n: int) -> GridFunction:
    return GridFunction(np.fft.ifftn(coeffs).real * N**n)  # a fresh array, kept uncopied


def _centred_bump(spec: CorpusSpec, envelope) -> GridFunction:
    """Coefficients envelope(|xi|) with zero mean, translated to the centre x = 1/2."""
    freq, mag = _freqs(spec.N, spec.n)
    coeffs = np.exp(-2j * np.pi * sum(freq) * 0.5)
    coeffs *= envelope(mag)
    del freq, mag  # before the inverse FFT
    coeffs[(0,) * spec.n] = 0.0
    return _from_spectrum(coeffs, spec.N, spec.n)


def _gaussian_bump(spec: CorpusSpec) -> GridFunction:
    width = spec.param("width")
    if not 0 < width <= 1:
        raise ConfigError(f"bump width must lie in (0, 1], the unit torus, got {width}")
    return _centred_bump(spec, lambda mag: np.exp(-2.0 * np.pi**2 * width**2 * mag**2))


def _schwartz_like(spec: CorpusSpec) -> GridFunction:
    rate = spec.param("rate", 1.0)
    if not rate > 0:
        raise ConfigError(f"decay rate must be positive, got {rate}")
    return _centred_bump(spec, lambda mag: np.exp(-rate * mag))


def _harmonic(spec: CorpusSpec) -> GridFunction:
    xi0 = int(spec.param("xi0"))
    if xi0 != spec.param("xi0"):
        raise ConfigError(f"harmonic frequency must be an integer, got {spec.param('xi0')}")
    if not 0 < xi0 < spec.N // 2:
        raise ConfigError(f"harmonic frequency must lie in (0, N/2), got {xi0}")
    phase = sum(_positions(spec.N, spec.n))  # frequency vector (xi0,...,xi0)
    return GridFunction(np.cos(2.0 * np.pi * xi0 * phase))


def _smoothed_step(spec: CorpusSpec) -> GridFunction:
    sharp = spec.param("sharpness")
    if not sharp > 0:
        raise ConfigError(f"sharpness must be positive, got {sharp}")
    out = 1.0
    for x in _positions(spec.N, spec.n):  # one tanh per axis, broadcast by the product
        out = out * np.tanh(sharp * np.sin(2.0 * np.pi * x))
    return GridFunction(out)


def _spectral_noise(spec: CorpusSpec) -> GridFunction:
    """One draw u per conjugate pair of frequencies, in lexicographic order:
    a self-conjugate xi gets the sign of u - 1/2, any other xi the phase
    2 pi u and its partner -xi the conjugate.  `index` numbers the centred
    frequencies row-major, so lexicographically; `mirror` numbers -xi."""
    slope = spec.param("slope")
    if not slope > 0:
        raise ConfigError(f"spectral slope must be positive, got {slope}")
    N, n, shape = spec.N, spec.n, (spec.N,) * spec.n
    index = np.arange(N**n).reshape(shape)
    mirror = np.roll(np.flip(index), 1, axis=tuple(range(n)))  # -(-N/2) is -N/2
    keep = (index >= mirror) & (index != index[(N // 2,) * n])  # not xi = 0
    kept, partner = index[keep], mirror[keep]
    del index, mirror, keep
    u = np.random.default_rng(spec.seed).random(len(kept))
    # Python float powers, once per distinct |xi|^2: np.power differs from them in the last bit
    square = sum((i - N // 2) ** 2 for i in np.unravel_index(kept, shape))
    square, inverse = np.unique(square, return_inverse=True)
    mag = np.array([math.sqrt(s) ** (-slope - n / 2) for s in square.tolist()])[inverse]
    sign = np.where(u < 0.5, 1.0, -1.0)
    c = np.where(kept == partner, mag * sign, mag * np.exp(1j * (2.0 * np.pi * u)))
    coeffs = np.zeros(N**n, dtype=complex)
    coeffs[partner] = np.conj(c)  # c then overwrites a self-conjugate xi, its own partner
    coeffs[kept] = c
    del kept, partner, c, square, inverse, u, mag, sign  # before the inverse FFT
    coeffs = np.fft.ifftshift(coeffs.reshape(shape))
    return _from_spectrum(coeffs, N, n)


_BUILDERS = {
    "constant": lambda spec: GridFunction(
        np.full((spec.N,) * spec.n, spec.param("value", 1.0))
    ),
    "harmonic": _harmonic,
    "gaussian_bump": _gaussian_bump,
    "smoothed_step": _smoothed_step,
    "spectral_noise": _spectral_noise,
    "schwartz_like": _schwartz_like,
}
KINDS = tuple(_BUILDERS)


def generate(spec: CorpusSpec) -> GridFunction:
    return _BUILDERS[spec.kind](spec)


def _integer(name: str, v) -> int:
    """A JSON integer, or a float with no fractional part such as 64.0."""
    if not (type(v) is int or type(v) is float and v.is_integer()):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def load_corpus_file(path) -> list[CorpusSpec]:
    """JSON list of {kind, params, N, n, seed} records."""
    try:
        with open(path) as fh:
            records = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read corpus file: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSON syntax or text encoding
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(records, list):
        raise ConfigError(f"{path}: expected a JSON list of corpus records")
    if not records:
        raise ConfigError(f"{path}: corpus file has no records")
    specs = []
    for rec in records:
        try:
            fields = dict(
                kind=rec["kind"],
                N=_integer("N", rec["N"]),
                n=_integer("n", rec["n"]),
                params=tuple(rec.get("params", {}).items()),
                seed=_integer("seed", rec.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed corpus record {rec!r}: {exc}") from None
        specs.append(CorpusSpec(**fields))
    return specs


def default_corpus(n: int, N: int) -> list[CorpusSpec]:
    """A small spread of regularities used by the verification harness."""
    return [
        CorpusSpec("constant", N, n, (("value", 1.0),)),
        CorpusSpec("harmonic", N, n, (("xi0", 3),)),
        CorpusSpec("gaussian_bump", N, n, (("width", 0.08),)),
        CorpusSpec("smoothed_step", N, n, (("sharpness", 6.0),)),
        CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42),
        CorpusSpec("schwartz_like", N, n, (("rate", 1.0),)),
    ]
