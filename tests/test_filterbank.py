import math
import tracemalloc

import numpy as np
import pytest

from qalpha import (
    BandProfile,
    ConfigError,
    GridFunction,
    InvariantViolation,
    build_profiles,
    decompose,
    filterbank,
    profiles_to_csv,
)
from qalpha.corpus import _freqs
from qalpha.filterbank import _chi_cosine, _chi_exp


def chi_exp_scalar(u: float) -> float:
    """The cutoff ramp, written out independently for spot values."""
    if u <= 1:
        return 1.0
    if u >= 2:
        return 0.0
    a = math.exp(-1.0 / (2.0 - u))
    b = math.exp(-1.0 / (u - 1.0))
    return a / (a + b)


@pytest.mark.parametrize("family", ["exp", "cosine"])
@pytest.mark.parametrize("n,L", [(1, 5), (2, 4)])
def test_partition_of_unity(family, n, L):
    profiles = build_profiles(L, 0, n=n, family=family)
    total = sum(p.values for p in profiles)
    mag = np.abs(np.fft.fftfreq(2**L, d=2.0**-L))
    if n == 2:
        qx, qy = np.meshgrid(mag, mag, indexing="ij")
        mag = np.sqrt(qx**2 + qy**2)
    assert np.max(np.abs(total[mag > 0] - 1.0)) < 1e-12
    for p in profiles:
        assert p.values.min() >= 0.0 and p.values.max() <= 1.0 + 1e-15


def test_standard_profile_support():
    profiles = build_profiles(5, 0, n=1)
    freqs = np.abs(np.fft.fftfreq(32, d=1 / 32))
    for p in profiles:
        if p.kind != "standard":
            continue
        lo, hi = 2.0 ** (p.j - 1), 2.0 ** (p.j + 1)
        outside = (freqs < lo) | (freqs > hi)
        assert np.all(p.values[outside] == 0.0)
        # |xi| = 3 * 2^j lies outside the closed support
        probe = 3 * 2**p.j
        if probe <= 16:
            idx = probe  # fft order: positive freqs at their own index
            assert p.values[idx] == 0.0


def test_profiles_at_exact_dyadic_frequency():
    # at |xi| = 2^j only profiles j and j+1 can be nonzero, and they sum to 1
    profiles = build_profiles(5, 0, n=1)
    standard = {p.j: p for p in profiles if p.kind == "standard"}
    for j in (1, 2, 3):
        xi = 2**j
        total = 0.0
        for jj, p in standard.items():
            v = p.values[xi]
            if jj not in (j, j + 1):
                assert v == 0.0
            total += v
        assert total == pytest.approx(1.0, abs=1e-14)
        assert standard[j].values[xi] == pytest.approx(
            chi_exp_scalar(1.0) - chi_exp_scalar(2.0), abs=1e-14
        )


def test_chi_families_endpoints():
    u = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    for chi in (_chi_exp, _chi_cosine):
        v = chi(u)
        assert v[0] == 1.0 and v[1] == 1.0
        assert 0.0 < v[2] < 1.0
        assert v[3] == 0.0 and v[4] == 0.0


def test_band_project_annihilates_constants():
    f = GridFunction(np.full(32, 7.0))
    dec = decompose(f, 0)
    for j in dec.js:
        assert np.max(np.abs(dec.band(j).values)) < 1e-12
    assert np.max(np.abs(dec.lowpass.values - 7.0)) < 1e-12


def test_band_project_single_harmonic_support_and_sum():
    x = np.arange(32) / 32
    f = GridFunction(np.cos(2 * np.pi * 3 * x))
    dec = decompose(f, 0)
    active = {}
    for j in dec.js:
        out = dec.band(j)
        peak = np.max(np.abs(out.values))
        if j in (1, 2, 3):
            active[j] = out
        else:
            assert peak < 1e-13
    total = sum(b.values for b in active.values())
    assert np.max(np.abs(total - f.values)) < 1e-12


def test_band_project_output_spectral_support_exact():
    rng = np.random.default_rng(0)
    f = GridFunction(rng.standard_normal(32))
    F = np.fft.fft(decompose(f, 0).band(3).values) / 32
    freqs = np.abs(np.fft.fftfreq(32, d=1 / 32))
    outside = (freqs < 4.0) | (freqs > 16.0)
    assert np.max(np.abs(F[outside])) < 1e-16


def test_band_project_linearity():
    rng = np.random.default_rng(1)
    f = GridFunction(rng.standard_normal(16))
    g = GridFunction(rng.standard_normal(16))
    lhs = decompose(GridFunction(2.0 * f.values - 3.0 * g.values), 0).band(1)
    rhs = 2.0 * decompose(f, 0).band(1).values - 3.0 * decompose(g, 0).band(1).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


def test_decompose_constant():
    f = GridFunction(np.full(16, 4.2))
    dec = decompose(f, 0)
    assert np.max(np.abs(dec.lowpass.values - 4.2)) < 1e-12
    for b in dec.bands:
        assert np.max(np.abs(b.values)) < 1e-12


def test_decompose_reconstructs_harmonic():
    x = np.arange(32) / 32
    f = GridFunction(np.cos(2 * np.pi * 5 * x))
    dec = decompose(f, 0)
    assert np.max(np.abs(dec.reconstruction() - f.values)) < 1e-12


def test_near_orthogonality_bounds():
    rng = np.random.default_rng(3)
    f = GridFunction(rng.standard_normal((16, 16)))
    dec = decompose(f, 0)
    high = f.values - dec.lowpass.values
    denom = float(np.sum(high**2))
    total = sum(float(np.sum(b.values**2)) for b in dec.bands)
    tol = 1e-12 * denom
    assert 0.5 * denom - tol <= total <= 2.0 * denom + tol


def test_decompose_jmin_validation():
    f = GridFunction(np.ones(16))
    with pytest.raises(ConfigError, match="j_min"):
        decompose(f, -1)
    with pytest.raises(ConfigError, match="j_min"):
        decompose(f, 9)
    with pytest.raises(ConfigError, match="family"):
        decompose(f, 0, family="boxcar")


def test_decompose_rejects_values_whose_squares_overflow():
    # the check runs before the FFT, which would overflow (a RuntimeWarning) on such values
    with pytest.raises(ConfigError, match=r"at N=64 \(\|f\| <= 3\.122e\+144\)"):
        decompose(GridFunction(np.full(64, 1e308)))


def test_band_accessor_range():
    f = GridFunction(np.ones(16))
    dec = decompose(f, 1)
    assert dec.js == range(1, 6)
    with pytest.raises(ConfigError):
        dec.band(0)


def test_profiles_csv(tmp_path):
    profiles = build_profiles(3, 0, n=1)
    path = tmp_path / "profiles.csv"
    profiles_to_csv(profiles, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi1,profile,value"
    # one row per (frequency, profile)
    assert len(lines) == 1 + 8 * len(profiles)


@pytest.mark.parametrize("family,chi", [("exp", _chi_exp), ("cosine", _chi_cosine)])
@pytest.mark.parametrize("n,L", [(1, 9), (2, 6)])
def test_profiles_equal_two_evaluation_formula(family, chi, n, L):
    # each cutoff is evaluated once and carried to the next scale, bit for bit
    mag = _freqs(2**L, n)[1]
    profiles = build_profiles(L, 1, n=n, family=family)
    assert np.array_equal(profiles[0].values, chi(mag / 2.0**0))
    for p in profiles[1:]:
        assert np.array_equal(p.values, chi(mag / 2.0**p.j) - chi(mag / 2.0 ** (p.j - 1))), p.label


@pytest.mark.parametrize("n", [1, 2])
def test_decompose_rejects_odd_multiplier(n, monkeypatch):
    # an odd part in a multiplier makes its projection complex; the real
    # inverse transform would drop it silently, so decompose refuses it
    profiles = filterbank._profiles

    def lopsided(*args):
        for i, p in enumerate(profiles(*args)):
            if i == 2:
                values = p.values.copy()
                values[(1,) * n] += 0.25  # xi = (1, ..., 1) but not -xi
                p = BandProfile(p.j, values)
            yield p

    monkeypatch.setattr(filterbank, "_profiles", lopsided)
    f = GridFunction(np.random.default_rng(4).standard_normal((16,) * n))
    dec = decompose(f, j_min=0)  # a band is checked when it is read
    with pytest.raises(InvariantViolation, match="band1 multiplier is not even"):
        tuple(dec.bands)


def test_decompose_memory_bounded():
    f = GridFunction(np.random.default_rng(0).standard_normal(2**18))
    tracemalloc.start()
    try:
        for band in decompose(f, j_min=0).bands:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the half spectrum, the cutoffs carried from scale to scale and one band
    # with its multiplier and inverse FFT are alive at a time: about 9 grids,
    # against 27 with the L+2 = 20 bands and the lowpass block all held
    assert peak < 12 * f.values.nbytes


@pytest.mark.parametrize("n,L", [(1, 9), (2, 5)])
def test_band_reads_evaluate_chi_once_per_scale(n, L, monkeypatch):
    calls = []
    chi = filterbank._FAMILIES["exp"]
    monkeypatch.setitem(filterbank._FAMILIES, "exp", lambda u: calls.append(1) or chi(u))
    f = GridFunction(np.random.default_rng(5).standard_normal((2**L,) * n))
    dec = decompose(f, j_min=0)
    assert len(calls) == 0 and len(dec.bands) == L + 2
    bands = tuple(dec.bands)  # the cutoff is carried from scale to scale
    assert len(calls) == L + 3
    for j in (0, L // 2, L + 1):
        calls.clear()
        assert np.array_equal(dec.band(j).values, bands[j].values)
        assert len(calls) == 2
    calls.clear()
    sliced = tuple(dec.bands[2:5])
    assert len(calls) == 4
    assert all(np.array_equal(a.values, b.values) for a, b in zip(sliced, bands[2:5]))
    calls.clear()
    dec.lowpass
    assert len(calls) == 1
    calls.clear()
    seen = []
    assert np.max(np.abs(dec.reconstruction(seen.append) - f.values)) < 1e-12
    assert len(calls) == L + 3 and len(seen) == L + 3  # one pass, the lowpass block first
    assert all(np.array_equal(a.values, b.values) for a, b in zip(seen[1:], bands))
    # a slice with another step recomputes the cutoff below each of its bands
    for step in (slice(None, None, 2), slice(None, None, -1), slice(-1, 0, -3)):
        got = dec.bands[step]
        assert len(got) == len(bands[step])
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got, bands[step]))
    assert np.array_equal(dec.bands[-1].values, bands[-1].values)
    with pytest.raises(IndexError):
        dec.bands[L + 2]
