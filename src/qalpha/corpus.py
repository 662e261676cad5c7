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
from .grid import GridFunction

__all__ = ["CorpusSpec", "generate", "load_corpus_file", "default_corpus"]

KINDS = (
    "constant",
    "harmonic",
    "gaussian_bump",
    "smoothed_step",
    "spectral_noise",
    "schwartz_like",
)


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
        if self.n not in (1, 2) or self.seed < 0:
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


def _positions(N: int, n: int) -> list[np.ndarray]:
    x = np.arange(N) / N
    if n == 1:
        return [x]
    X, Y = np.meshgrid(x, x, indexing="ij")
    return [X, Y]


def _freqs(N: int, n: int):
    q = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    if n == 1:
        return q, np.abs(q).astype(float)
    qx, qy = np.meshgrid(q, q, indexing="ij")
    return (qx, qy), np.sqrt(qx.astype(float) ** 2 + qy.astype(float) ** 2)


def _from_spectrum(coeffs: np.ndarray, N: int, n: int) -> GridFunction:
    v = np.fft.ifftn(coeffs) * N**n
    return GridFunction(v.real)


def _phase_shift(freq, n: int, center: float = 0.5) -> np.ndarray:
    if n == 1:
        return np.exp(-2j * np.pi * freq * center)
    return np.exp(-2j * np.pi * (freq[0] + freq[1]) * center)


def _gaussian_bump(spec: CorpusSpec) -> GridFunction:
    width = spec.param("width")
    if not 0 < width <= 1:
        raise ConfigError(f"bump width must lie in (0, 1], the unit torus, got {width}")
    freq, mag = _freqs(spec.N, spec.n)
    coeffs = np.exp(-2.0 * np.pi**2 * width**2 * mag**2) * _phase_shift(freq, spec.n)
    coeffs[(0,) * spec.n] = 0.0
    return _from_spectrum(coeffs, spec.N, spec.n)


def _schwartz_like(spec: CorpusSpec) -> GridFunction:
    rate = spec.param("rate", 1.0)
    if not rate > 0:
        raise ConfigError(f"decay rate must be positive, got {rate}")
    freq, mag = _freqs(spec.N, spec.n)
    coeffs = np.exp(-rate * mag) * _phase_shift(freq, spec.n)
    coeffs[(0,) * spec.n] = 0.0
    return _from_spectrum(coeffs, spec.N, spec.n)


def _harmonic(spec: CorpusSpec) -> GridFunction:
    xi0 = int(spec.param("xi0"))
    if not 0 < xi0 < spec.N // 2:
        raise ConfigError(f"harmonic frequency must lie in (0, N/2), got {xi0}")
    pos = _positions(spec.N, spec.n)
    phase = sum(pos)  # frequency vector (xi0,...,xi0)
    return GridFunction(np.cos(2.0 * np.pi * xi0 * phase))


def _smoothed_step(spec: CorpusSpec) -> GridFunction:
    sharp = spec.param("sharpness")
    if not sharp > 0:
        raise ConfigError(f"sharpness must be positive, got {sharp}")
    pos = _positions(spec.N, spec.n)
    out = np.ones_like(pos[0])
    for x in pos:
        out = out * np.tanh(sharp * np.sin(2.0 * np.pi * x))
    return GridFunction(out)


def _spectral_noise(spec: CorpusSpec) -> GridFunction:
    """One draw u per conjugate pair of frequencies, in lexicographic order:
    a self-conjugate xi gets the sign of u - 1/2, any other xi the phase
    2 pi u and its partner -xi the conjugate."""
    slope = spec.param("slope")
    if not slope > 0:
        raise ConfigError(f"spectral slope must be positive, got {slope}")
    N, n = spec.N, spec.n
    half = N // 2
    axis = np.arange(-half, half)
    xi = np.stack(np.meshgrid(*(axis,) * n, indexing="ij"), axis=-1).reshape(-1, n)
    neg = np.where(xi == -half, -half, -xi)
    self_conj = np.all((xi == 0) | (xi == -half), axis=1)
    at_least_neg = xi[:, -1] >= neg[:, -1]  # xi >= neg, lexicographically
    for d in range(n - 2, -1, -1):
        at_least_neg = (xi[:, d] > neg[:, d]) | ((xi[:, d] == neg[:, d]) & at_least_neg)
    keep = np.any(xi != 0, axis=1) & (self_conj | at_least_neg)
    xi, self_conj = xi[keep], self_conj[keep]
    u = np.random.default_rng(spec.seed).random(len(xi))
    # Python float powers: np.power differs from them in the last bit
    radius = np.sqrt((xi.astype(float) ** 2).sum(axis=1))
    mag = np.array([r ** (-slope - n / 2) for r in radius.tolist()])
    sign = np.where(u < 0.5, 1.0, -1.0)
    c = np.where(self_conj, mag * sign, mag * np.exp(1j * (2.0 * np.pi * u)))
    coeffs = np.zeros((N,) * n, dtype=complex)
    coeffs[tuple((xi % N).T)] = c
    coeffs[tuple((-xi[~self_conj] % N).T)] = np.conj(c[~self_conj])
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


def generate(spec: CorpusSpec) -> GridFunction:
    return _BUILDERS[spec.kind](spec)


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
    specs = []
    for rec in records:
        try:
            fields = dict(
                kind=rec["kind"],
                N=int(rec["N"]),
                n=int(rec["n"]),
                params=tuple(rec.get("params", {}).items()),
                seed=int(rec.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed corpus record {rec!r}: {exc}") from None
        specs.append(CorpusSpec(**fields))
    return specs


def default_corpus(n: int, N: int, with_constant: bool = True) -> list[CorpusSpec]:
    """A small spread of regularities used by the verification harness."""
    specs = []
    if with_constant:
        specs.append(CorpusSpec("constant", N, n, (("value", 1.0),)))
    specs += [
        CorpusSpec("harmonic", N, n, (("xi0", 3),)),
        CorpusSpec("gaussian_bump", N, n, (("width", 0.08),)),
        CorpusSpec("smoothed_step", N, n, (("sharpness", 6.0),)),
        CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42),
        CorpusSpec("schwartz_like", N, n, (("rate", 1.0),)),
    ]
    return specs
