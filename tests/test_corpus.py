import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qalpha import (
    ConfigError,
    CorpusSpec,
    decompose,
    default_corpus,
    generate,
    load_corpus_file,
)
from qalpha.corpus import KINDS


def test_constant_preserves_mean():
    f = generate(CorpusSpec("constant", 16, 2, (("value", 3.5),)))
    assert np.all(f.values == 3.5)


def spectrum(f):
    """Fourier coefficients, FFT order, normalized so a constant c gives c at xi = 0."""
    return np.fft.fftn(f.values) / f.N**f.n


def test_harmonic_exact_spectrum():
    f = generate(CorpusSpec("harmonic", 16, 1, (("xi0", 3),)))
    F = spectrum(f)
    assert F[3] == pytest.approx(0.5, abs=1e-14)
    assert F[-3] == pytest.approx(0.5, abs=1e-14)
    live = np.abs(F) > 1e-13
    assert live.sum() == 2


def test_harmonic_2d_single_pair():
    f = generate(CorpusSpec("harmonic", 16, 2, (("xi0", 3),)))
    F = spectrum(f)
    assert F[3, 3] == pytest.approx(0.5, abs=1e-14)
    assert np.count_nonzero(np.abs(F) > 1e-13) == 2


def test_spectral_noise_deterministic():
    spec = CorpusSpec("spectral_noise", 64, 1, (("slope", 0.7),), seed=42)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.values, b.values)
    c = generate(CorpusSpec("spectral_noise", 64, 1, (("slope", 0.7),), seed=43))
    assert not np.array_equal(a.values, c.values)


def test_spectral_noise_prescribed_magnitudes():
    spec = CorpusSpec("spectral_noise", 32, 1, (("slope", 0.8),), seed=5)
    F = spectrum(generate(spec))
    for xi in range(1, 16):
        assert abs(F[xi]) == pytest.approx(
            float(xi) ** (-0.8 - 0.5), rel=1e-10
        )


def spectral_noise_reference(N, n, slope, seed):
    """The spectral_noise grid, frequency by frequency in lexicographic order."""
    half = N // 2
    kept = []
    for xi in itertools.product(range(-half, half), repeat=n):
        neg = tuple(-half if x == -half else -x for x in xi)
        self_conj = all(x in (0, -half) for x in xi)
        if any(xi) and (self_conj or xi >= neg):
            kept.append((xi, neg, self_conj))
    u = np.random.default_rng(seed).random(len(kept))
    coeffs = np.zeros((N,) * n, dtype=complex)
    for (xi, neg, self_conj), ui in zip(kept, u.tolist()):
        mag = math.sqrt(sum(float(x) ** 2 for x in xi)) ** (-slope - n / 2)
        if self_conj:
            coeffs[tuple(x % N for x in xi)] = mag * (1.0 if ui < 0.5 else -1.0)
        else:
            c = mag * np.exp(1j * (2.0 * np.pi * np.float64(ui)))
            coeffs[tuple(x % N for x in xi)] = c
            coeffs[tuple(x % N for x in neg)] = np.conj(c)
    return (np.fft.ifftn(coeffs) * N**n).real


@pytest.mark.parametrize("slope", [0.3, 0.9])
@pytest.mark.parametrize("n,sizes", [(1, (64, 1024)), (2, (16, 64))])
def test_spectral_noise_matches_per_frequency_formula(n, sizes, slope):
    for N in sizes:
        got = generate(CorpusSpec("spectral_noise", N, n, (("slope", slope),), seed=42)).values
        assert np.array_equal(got, spectral_noise_reference(N, n, slope, 42))


def test_spectral_noise_frees_its_temporaries():
    spec = CorpusSpec("spectral_noise", 512, 2, (("slope", 0.9),), seed=42)
    tracemalloc.start()
    try:
        f = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complex spectrum and the inverse FFT's own arrays: about 7.4 grids
    assert peak < 10 * f.values.nbytes


# peak of `generate` at 2-D N=512, in grids of its output: the full coordinate
# meshgrids and the copied `.real` view read 5.0, 5.0, 9.1 and 9.0
@pytest.mark.parametrize("kind,params,grids", [
    ("harmonic", (("xi0", 3),), 3.2),
    ("smoothed_step", (("sharpness", 6.0),), 1.3),
    ("gaussian_bump", (("width", 0.08),), 6.3),
    ("schwartz_like", (("rate", 1.0),), 6.3),
])
def test_generators_build_each_grid_once(kind, params, grids):
    tracemalloc.start()
    try:
        f = generate(CorpusSpec(kind, 512, 2, params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grids * f.values.nbytes


def dense_reference(spec):
    """The grid of spec built on full coordinate meshgrids, with the complex
    inverse FFT scaled before its real part is taken."""
    N, n = spec.N, spec.n
    pos = np.meshgrid(*(np.arange(N) / N,) * n, indexing="ij")
    freq = np.meshgrid(*(np.fft.fftfreq(N, d=1.0 / N).astype(int),) * n, indexing="ij")
    mag = np.sqrt(sum(a.astype(float) ** 2 for a in freq))
    phase = np.exp(-2j * np.pi * sum(freq) * 0.5)  # translation to the centre x = 1/2
    if spec.kind == "constant":
        return np.full((N,) * n, spec.param("value"))
    if spec.kind == "harmonic":
        return np.cos(2.0 * np.pi * spec.param("xi0") * sum(pos))
    if spec.kind == "smoothed_step":
        out = np.ones((N,) * n)
        for x in pos:
            out = out * np.tanh(spec.param("sharpness") * np.sin(2.0 * np.pi * x))
        return out
    if spec.kind == "spectral_noise":
        return spectral_noise_reference(N, n, spec.param("slope"), spec.seed)
    if spec.kind == "gaussian_bump":
        coeffs = np.exp(-2.0 * np.pi**2 * spec.param("width") ** 2 * mag**2) * phase
    else:  # schwartz_like
        coeffs = np.exp(-spec.param("rate") * mag) * phase
    coeffs[(0,) * n] = 0.0
    v = np.fft.ifftn(coeffs)
    v *= N**n
    return v.real


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_default_corpus_matches_dense_construction(n, N):
    for spec in default_corpus(n, N):
        got, want = generate(spec).values, dense_reference(spec)
        assert got.shape == want.shape, spec.ident
        # bit for bit, the sign of a zero included
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), spec.ident


@pytest.mark.parametrize("n,N", [(1, 256), (2, 64)])
def test_spectral_noise_band_energy_slope(n, N):
    # band energies follow 2^(-2 j s) over the mid bands
    s = 0.7
    f = generate(CorpusSpec("spectral_noise", N, n, (("slope", s),), seed=9))
    dec = decompose(f, 0)
    js, loge = [], []
    j_hi = dec.j_max - 2  # skip Nyquist-edge bands
    for j in range(2, j_hi):
        e = float(np.sum(dec.band(j).values ** 2)) / N**n
        if e > 0:
            js.append(j)
            loge.append(math.log2(e))
    slope = np.polyfit(js, loge, 1)[0]
    assert abs(slope - (-2 * s)) < 0.2


def test_generators_real_and_zero_mean():
    for kind, params in [
        ("harmonic", (("xi0", 3),)),
        ("gaussian_bump", (("width", 0.08),)),
        ("smoothed_step", (("sharpness", 6.0),)),
        ("spectral_noise", (("slope", 0.9),)),
        ("schwartz_like", (("rate", 1.0),)),
    ]:
        for n in (1, 2):
            f = generate(CorpusSpec(kind, 32, n, params, seed=3))
            assert abs(float(f.values.mean())) < 1e-12
            assert float(np.abs(f.values).max()) > 1e-8


def test_invalid_parameters():
    with pytest.raises(ConfigError, match="slope"):
        generate(CorpusSpec("spectral_noise", 16, 1, (("slope", -0.5),)))
    with pytest.raises(ConfigError, match="unknown corpus kind"):
        CorpusSpec("sawtooth", 16, 1)
    with pytest.raises(ConfigError, match="needs parameter"):
        generate(CorpusSpec("harmonic", 16, 1))
    with pytest.raises(ConfigError, match="frequency"):
        generate(CorpusSpec("harmonic", 16, 1, (("xi0", 8),)))


def test_rate_and_sharpness_must_be_positive():
    for rate in (0.0, -1.0):
        with pytest.raises(ConfigError, match=f"decay rate must be positive, got {rate}"):
            generate(CorpusSpec("schwartz_like", 16, 1, (("rate", rate),)))
    for sharp in (0.0, -2.0):
        with pytest.raises(ConfigError, match=f"sharpness must be positive, got {sharp}"):
            generate(CorpusSpec("smoothed_step", 16, 2, (("sharpness", sharp),)))


def test_left_out_parameters_take_their_defaults():
    # `param`'s default: a record without params is the record with the default given
    for kind, default in (("schwartz_like", (("rate", 1.0),)), ("constant", (("value", 1.0),))):
        for n in (1, 2):
            got = generate(CorpusSpec(kind, 16, n)).values
            assert np.array_equal(got, generate(CorpusSpec(kind, 16, n, default)).values)


def test_kinds_are_the_builder_table():
    assert KINDS == ("constant", "harmonic", "gaussian_bump", "smoothed_step", "spectral_noise",
                     "schwartz_like")
    with pytest.raises(ConfigError) as exc:
        CorpusSpec("sawtooth", 16, 1)
    assert str(exc.value) == (
        "unknown corpus kind 'sawtooth', expected one of ('constant', 'harmonic', "
        "'gaussian_bump', 'smoothed_step', 'spectral_noise', 'schwartz_like')"
    )


def test_readme_names_every_kind():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = readme.split("\nKinds: ", 1)[1].split(".\n", 1)[0]
    assert tuple(re.findall(r"`(\w+)[(`]", sentence)) == KINDS


def test_corpus_file_round_trip(tmp_path):
    records = [
        {"kind": "harmonic", "params": {"xi0": 3}, "N": 32, "n": 1},
        {"kind": "spectral_noise", "params": {"slope": 0.7}, "N": 32, "n": 1, "seed": 5},
    ]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(records))
    specs = load_corpus_file(path)
    assert len(specs) == 2
    assert specs[0].kind == "harmonic" and specs[0].param("xi0") == 3
    assert specs[1].seed == 5
    generate(specs[0])


def test_corpus_file_integral_floats(tmp_path):
    record = {"kind": "harmonic", "params": {"xi0": 3.0}, "N": 64.0, "n": 2.0, "seed": 5.0}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([record]))
    (spec,) = load_corpus_file(path)
    assert (spec.N, spec.n, spec.seed) == (64, 2, 5)
    assert all(type(v) is int for v in (spec.N, spec.n, spec.seed))
    want = generate(CorpusSpec("harmonic", 64, 2, (("xi0", 3),))).values
    assert np.array_equal(generate(spec).values, want)


def test_corpus_file_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"kind\": 1}")
    with pytest.raises(ConfigError, match="JSON list"):
        load_corpus_file(path)
    path.write_text("[{\"params\": {}}]")
    with pytest.raises(ConfigError, match="malformed"):
        load_corpus_file(path)


@pytest.mark.parametrize("change,got", [({"n": 3}, "3, 0"), ({"seed": -1}, "1, -1")])
def test_corpus_file_dimension_and_seed(tmp_path, change, got):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"kind": "harmonic", "params": {"xi0": 3}, "N": 16, "n": 1,
                                 **change}]))
    with pytest.raises(ConfigError) as exc:
        load_corpus_file(path)
    assert str(exc.value).endswith(f"corpus n must be 1 or 2 and seed >= 0, got {got}")


def test_default_corpus_shape():
    specs = default_corpus(1, 64)
    kinds = [s.kind for s in specs]
    assert kinds[0] == "constant"
    assert set(kinds) == {
        "constant",
        "harmonic",
        "gaussian_bump",
        "smoothed_step",
        "spectral_noise",
        "schwartz_like",
    }
    assert all(s.N == 64 and s.n == 1 for s in specs)
    resized = [s.with_size(128) for s in specs]
    assert all(s.N == 128 for s in resized)
