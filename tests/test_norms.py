import collections
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalpha import (
    ConfigError,
    CorpusSpec,
    Cube,
    GridFunction,
    InvariantViolation,
    campanato,
    decompose,
    dyadic_lp,
    dyadic_lp_rearranged,
    enumerate_cubes,
    generate,
    lp_morrey,
    morrey_besov,
    q_alpha,
)
from qalpha import filterbank, norms
from qalpha.grid import block_sums, cube_blocks, cube_energies, family_energies

import oracles

UNIT1 = Cube((0.0,), 1.0)


def small_corpus(n, N):
    return [
        generate(CorpusSpec("harmonic", N, n, (("xi0", 3),))),
        generate(CorpusSpec("smoothed_step", N, n, (("sharpness", 6.0),))),
        generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42)),
    ]


def test_q_alpha_constant_zero():
    f = GridFunction(np.full(16, 5.0))
    cubes = enumerate_cubes(4, 1, n=1)
    for alpha in (0.3, 0.5, 0.7):
        assert q_alpha(f, alpha, cubes).value == 0.0
    # non-dyadic constants: a mean of many copies of 0.1 is not 0.1
    for n, N in ((1, 4096), (2, 64)):
        cubes = enumerate_cubes(N.bit_length() - 1, N.bit_length() - 4, n=n, shifted=True)
        for value in (0.1, -3.7):
            assert q_alpha(GridFunction(np.full((N,) * n, value)), 0.5, cubes).value == 0.0


@pytest.mark.parametrize("n,N", [(1, 4096), (2, 128)])
def test_q_alpha_matches_exact_displacement_sum(n, N):
    noise = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42))
    bump = generate(CorpusSpec("gaussian_bump", N, n, (("width", 0.08),)))
    cubes = enumerate_cubes(noise.L, noise.L - 3, n=n, shifted=True)
    for f in (noise, GridFunction(bump.values + 3.0)):
        rep = q_alpha(f, 0.5, cubes)
        exact = oracles.displacement_q_alpha(f.values, 0.5, [(c.corner, c.edge) for c in cubes])
        assert len(rep.table) == len(cubes)
        for row, want in zip(rep.table, exact):
            assert row["value"] == pytest.approx(math.sqrt(want), rel=1e-12), row["cube"]


def test_q_alpha_alpha_09_matches_exact_displacement_sum():
    # at alpha = 0.9 the near field dominates the rounding: the pair sum by a
    # transform and its inverse measured up to 3.4e-12 from the oracle here
    # (the torus-minus-padding form 1.1e-12), and this bound is twice that
    cubes = [Cube((i / 16 + s,), 1 / 16) for s in (0.0, 1 / 32) for i in range(16)]
    for f in small_corpus(1, 16384):
        rep = q_alpha(f, 0.9, cubes)
        exact = oracles.displacement_q_alpha(f.values, 0.9, [(c.corner, c.edge) for c in cubes])
        for row, want in zip(rep.table, exact):
            assert row["value"] == pytest.approx(math.sqrt(want), rel=7e-12), row["cube"]


def test_q_alpha_alternating_matches_oracle():
    f = GridFunction(np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))
    got = q_alpha(f, 0.5, [UNIT1]).value
    want = math.sqrt(oracles.naive_q_alpha_on_cube(f.values, 0.5, (0.0,), 1.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_q_alpha_2d_matches_oracle():
    rng = np.random.default_rng(7)
    f = GridFunction(rng.standard_normal((8, 8)))
    for corner, edge in [((0.0, 0.0), 1.0), ((0.5, 0.0), 0.5)]:
        got = q_alpha(f, 0.3, [Cube(corner, edge)]).value
        want = math.sqrt(oracles.naive_q_alpha_on_cube(f.values, 0.3, corner, edge))
        assert got == pytest.approx(want, rel=1e-12)


def test_q_alpha_two_resolution_consistency():
    vals = {}
    for N in (64, 128):
        x = np.arange(N) / N
        f = GridFunction(np.cos(2 * np.pi * x))
        vals[N] = q_alpha(f, 0.5, [UNIT1]).value
    assert abs(vals[128] / vals[64] - 1) < 0.05


def test_q_alpha_one_point_cube_is_zero():
    # a cube holding one lattice point has no pair: the empty sum
    f = GridFunction(np.arange(8) / 8)
    point = Cube((0.24,), 0.02)
    rep = q_alpha(f, 0.5, [point, UNIT1])
    assert rep.table[0] == {"cube": point, "value": 0.0}
    assert rep.table[1]["cube"] == UNIT1 and rep.table[1]["value"] > 0
    assert rep.argmax_cube == UNIT1


def test_tie_reports_first_cube():
    # cos(2 pi 2x) sampled with period 1/2: both halves hold the same samples
    half = np.cos(2 * np.pi * 2 * np.arange(32) / 64)
    f = GridFunction(np.tile(half, 2))
    cubes = [Cube((0.0,), 0.5), Cube((0.5,), 0.5)]
    for rep in (
        q_alpha(f, 0.5, cubes),
        campanato(f, 0.5, cubes),
        lp_morrey(f, 0.5, cubes, decompose(f, 0)),
    ):
        assert rep.table[0]["value"] == rep.table[1]["value"] > 0
        assert rep.argmax_cube is cubes[0]
        assert rep.value == rep.table[0]["value"]


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_half_shifted_unit_cube_ties_to_rounding(n, N):
    # on the torus the unit cube and its half-shifted copy hold the same samples,
    # so campanato and lp_morrey tie in exact arithmetic; q_alpha, on straight-line
    # distances, ties where f(x + 1/2) = +-f(x), as for the harmonic and the step.
    # The floats agree to rounding, which decides the argmax, so that is not pinned
    harmonic, step, noise = small_corpus(n, N)
    cubes = [Cube((0.0,) * n, 1.0), Cube((0.5,) * n, 1.0)]
    for f in (harmonic, step, noise):
        dec = decompose(f, 0)
        reports = campanato(f, 0.5, cubes), lp_morrey(f, 0.5, cubes, dec), q_alpha(f, 0.5, cubes)
        for rep in reports:
            a, b = (row["value"] for row in rep.table)
            if rep.kind == "q_alpha" and f is noise:
                assert abs(a - b) > 0.01 * a  # no tie
            else:
                assert a == pytest.approx(b, rel=1e-12, abs=0)


def test_empty_family_rejected_by_every_sup_norm():
    f = GridFunction(np.cos(2 * np.pi * np.arange(16) / 16))
    dec = decompose(f, 0)
    for kind, norm in (
        ("q_alpha", lambda: q_alpha(f, 0.5, [])),
        ("campanato", lambda: campanato(f, 0.5, [])),
        ("lp_morrey", lambda: lp_morrey(f, 0.5, [], dec)),
        ("morrey_besov", lambda: morrey_besov(f, 0.5, 0.0, 2, 2, [], dec)),
    ):
        with pytest.raises(ConfigError, match=f"^{kind}: no cube in the family$"):
            norm()


def test_non_finite_value_names_first_bad_cube(monkeypatch):
    f = GridFunction(np.cos(2 * np.pi * np.arange(64) / 64))
    cubes = [Cube((0.25 * i,), 0.25) for i in range(3)]
    monkeypatch.setattr(norms, "_increment_sums", lambda *a: np.array([1.0, np.nan, np.nan]))
    with pytest.raises(InvariantViolation, match=re.escape(f"on cube {cubes[1]}")):
        q_alpha(f, 0.5, cubes)
    dec = decompose(f, 0)
    monkeypatch.setattr(norms, "_band_energies", lambda *a: iter([np.array([1.0, np.inf, 1.0])]))
    message = f"morrey_besov: non-finite value on cube {cubes[1]}"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        morrey_besov(f, 0.5, 0.0, 2, 2, cubes, dec)


def test_cube_of_other_dimension_rejected():
    # a cube is not cut down or padded to the grid's dimension
    f = GridFunction(np.arange(16.0))
    with pytest.raises(ConfigError, match="dimension"):
        q_alpha(f, 0.5, [Cube((0.0, 0.0), 1.0)])
    with pytest.raises(ConfigError, match="dimension"):
        cube_blocks(GridFunction(np.zeros((8, 8))), [UNIT1])


def test_q_alpha_regime_flag():
    f = GridFunction(np.arange(8) / 8)
    rep = q_alpha(f, 1.2, [UNIT1])
    assert any("outside (0,1)" in fl for fl in rep.flags)


def test_campanato_constant_and_oracle():
    cubes = enumerate_cubes(4, 1, n=1)
    assert campanato(GridFunction(np.full(16, 2.0)), 1.0, cubes).value == 0.0
    f = generate(CorpusSpec("smoothed_step", 16, 1, (("sharpness", 6.0),)))
    for lam in (0.5, 1.0):
        got = campanato(f, lam, cubes).value
        want = max(
            math.sqrt(oracles.naive_campanato_on_cube(f.values, lam, c.corner, c.edge))
            for c in cubes
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_campanato_translation_invariance_exact():
    x = np.arange(32) / 32
    f = GridFunction(np.cos(2 * np.pi * 2 * x))
    g = GridFunction(np.roll(f.values, 16))  # half-period lattice translation
    cubes = enumerate_cubes(5, 2, n=1, shifted=True)
    assert campanato(g, 1.0, cubes).value == campanato(f, 1.0, cubes).value


def test_campanato_lambda_range():
    f = GridFunction(np.ones(16))
    with pytest.raises(ConfigError):
        campanato(f, -0.1, enumerate_cubes(4, 0, n=1))
    with pytest.raises(ConfigError):
        campanato(f, 1.5, enumerate_cubes(4, 0, n=1))


def test_lp_morrey_constant_zero():
    f = GridFunction(np.full(32, 3.0))
    dec = decompose(f, 0)
    assert lp_morrey(f, 0.5, enumerate_cubes(5, 2, n=1), dec).value < 1e-12


def test_lp_morrey_single_harmonic_direct_value():
    # f = cos(2 pi 8 x): only band 3 is active with weight 1, L2 energy 1/2
    N = 64
    x = np.arange(N) / N
    f = GridFunction(np.cos(2 * np.pi * 8 * x))
    dec = decompose(f, 0)
    rep = lp_morrey(f, 0.5, [UNIT1], dec)
    assert rep.value == pytest.approx(math.sqrt(2.0 ** (2 * 0.5 * 3) * 0.5), rel=1e-12)
    # against the loop-level oracle over several cubes
    cubes = enumerate_cubes(6, 2, n=1)
    bands = {j: dec.band(j).values for j in dec.js}
    got = lp_morrey(f, 0.5, cubes, dec).value
    want = max(
        math.sqrt(
            oracles.naive_lp_morrey_on_cube(bands, 0.5, c.corner, c.edge, dec.j_max)
        )
        for c in cubes
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_lp_morrey_requires_bands():
    f = GridFunction(np.ones(32))
    dec = decompose(f, 2)
    with pytest.raises(ConfigError, match="j_min"):
        lp_morrey(f, 0.5, [UNIT1], dec)


def test_lp_morrey_non_dyadic_edge_rejected():
    f = generate(CorpusSpec("harmonic", 32, 1, (("xi0", 3),)))
    dec = decompose(f, 0)
    with pytest.raises(ConfigError, match="not dyadic"):
        lp_morrey(f, 0.5, [UNIT1, Cube((0.0,), 0.3)], dec)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_norms_one_homogeneous(scale):
    f = generate(CorpusSpec("harmonic", 16, 1, (("xi0", 3),)))
    g = GridFunction(scale * f.values)
    cubes = enumerate_cubes(4, 1, n=1)
    dec_f = decompose(f, 0)
    dec_g = decompose(g, 0)
    assert q_alpha(g, 0.5, cubes).value == pytest.approx(
        scale * q_alpha(f, 0.5, cubes).value, rel=1e-12
    )
    assert campanato(g, 1.0, cubes).value == pytest.approx(
        scale * campanato(f, 1.0, cubes).value, rel=1e-12
    )
    assert lp_morrey(g, 0.5, cubes, dec_g).value == pytest.approx(
        scale * lp_morrey(f, 0.5, cubes, dec_f).value, rel=1e-12
    )


def test_dyadic_lp_fubini_identity_and_k0():
    for f in small_corpus(1, 64):
        dec = decompose(f, 0)
        for K in range(4):
            a = dyadic_lp(f, 0.5, UNIT1, K, dec)
            b = dyadic_lp_rearranged(f, 0.5, UNIT1, K, dec)
            assert a == pytest.approx(b, rel=1e-12)
        # K = 0 reduces to the plain inner sum over I alone
        k0 = dyadic_lp(f, 0.5, UNIT1, 0, dec)
        inner = sum(cube_energies(b, cube_blocks(b, [UNIT1]))[0] for b in map(dec.band, dec.js))
        assert k0 == pytest.approx(inner, rel=1e-12)


def test_dyadic_lp_matches_triple_loop_oracle():
    for n, N, K in ((1, 16, 1), (2, 16, 1)):
        f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.8),), seed=6))
        dec = decompose(f, 0)
        bands = {j: dec.band(j).values for j in dec.js}
        root = Cube((0.0,) * n, 1.0)
        got = dyadic_lp(f, 0.6, root, K, dec)
        want = oracles.naive_dyadic_lp(bands, 0.6, (0.0,) * n, 1.0, K, dec.j_max)
        assert got == pytest.approx(want, rel=1e-12)


def test_dyadic_lp_geometric_weight_spot_value():
    # alpha = 0.5, K = 3, j - level = 5: sum of 2^k for k <= 3 is 15
    w = sum(2.0 ** (2 * 0.5 * k) for k in range(min(3, 5) + 1))
    assert w == 15.0


def test_dyadic_lp_depth_guard():
    f = GridFunction(np.ones(64))
    dec = decompose(f, 0)
    with pytest.raises(ConfigError, match="too deep"):
        dyadic_lp(f, 0.5, UNIT1, 4, dec)
    with pytest.raises(ConfigError, match="positive"):
        dyadic_lp(f, -0.2, UNIT1, 2, dec)


def test_band_readers_need_bands_from_cube_level():
    f = GridFunction(np.ones(64))
    late = decompose(f, 2)
    message = "cube of level 0 needs bands from j=0, but the decomposition starts at j_min=2"
    for norm in (lambda: dyadic_lp(f, 0.5, UNIT1, 1, late),
                 lambda: dyadic_lp_rearranged(f, 0.5, UNIT1, 1, late),
                 lambda: lp_morrey(f, 0.5, [UNIT1], late)):
        with pytest.raises(ConfigError, match=re.escape(message)):
            norm()


def test_morrey_besov_embedding_case_only():
    f = GridFunction(np.ones(16))
    dec = decompose(f, 0)
    cubes = enumerate_cubes(4, 1, n=1)
    with pytest.raises(ConfigError, match="embedding case"):
        morrey_besov(f, 0.5, 0.0, 2, 4, cubes, dec)
    with pytest.raises(ConfigError, match="embedding case"):
        morrey_besov(f, 0.5, 0.3, 2, 2, cubes, dec)


def test_morrey_besov_single_harmonic():
    N = 64
    x = np.arange(N) / N
    f = GridFunction(np.cos(2 * np.pi * 8 * x))
    dec = decompose(f, 0)
    cubes = enumerate_cubes(6, 3, n=1)
    rep = morrey_besov(f, 0.5, 0.0, 2, 2, cubes, dec)
    bands = {j: dec.band(j).values for j in dec.js}
    want = oracles.naive_morrey_besov(
        bands, 0.5, 0.0, [(c.corner, c.edge) for c in cubes], dec.j_max
    )
    assert rep.value == pytest.approx(want, rel=1e-12)
    # at sigma = 0 the band supremum sits at the root cube
    row3 = [r for r in rep.rows if r["j"] == 3][0]
    assert row3["argmax_cube"] == UNIT1
    assert rep.value == pytest.approx(2.0, rel=1e-12)


def test_morrey_besov_dominates_lp_morrey():
    for f in small_corpus(1, 64):
        cubes = enumerate_cubes(6, 3, n=1, shifted=True)
        dec = decompose(f, 0)
        mb = morrey_besov(f, 0.5, 0.0, 2, 2, cubes, dec).value
        lp = lp_morrey(f, 0.5, cubes, dec).value
        assert mb >= lp * (1 - 1e-12)


def test_zero_iff_constant():
    cubes = enumerate_cubes(6, 3, n=1, shifted=True)
    for f in small_corpus(1, 64):
        dec = decompose(f, 0)
        assert q_alpha(f, 0.5, cubes).value > 1e-6
        assert campanato(f, 0.0, cubes).value > 1e-6
        assert lp_morrey(f, 0.5, cubes, dec).value > 1e-6
        assert morrey_besov(f, 0.5, 0.0, 2, 2, cubes, dec).value > 1e-6


def test_family_monotonicity():
    f = generate(CorpusSpec("spectral_noise", 64, 1, (("slope", 0.9),), seed=1))
    small = enumerate_cubes(6, 2, n=1)
    large = enumerate_cubes(6, 3, n=1, shifted=True)
    assert set(small) <= set(large)
    dec = decompose(f, 0)
    assert q_alpha(f, 0.5, large).value >= q_alpha(f, 0.5, small).value
    assert lp_morrey(f, 0.5, large, dec).value >= lp_morrey(f, 0.5, small, dec).value
    assert campanato(f, 1.0, large).value >= campanato(f, 1.0, small).value


def test_q_alpha_translation_invariance_exact():
    f = generate(CorpusSpec("spectral_noise", 64, 1, (("slope", 0.9),), seed=4))
    g = GridFunction(np.roll(f.values, 32))  # half-torus shift maps the shifted family onto itself
    cubes = enumerate_cubes(6, 3, n=1, shifted=True)
    assert q_alpha(g, 0.5, cubes).value == q_alpha(f, 0.5, cubes).value


def test_norm_comparable_across_profile_families():
    # the norm value should not depend strongly on the cutoff shape
    f = generate(CorpusSpec("spectral_noise", 64, 1, (("slope", 0.9),), seed=42))
    cubes = enumerate_cubes(6, 3, n=1, shifted=True)
    v_exp = lp_morrey(f, 0.5, cubes, decompose(f, 0, family="exp")).value
    v_cos = lp_morrey(f, 0.5, cubes, decompose(f, 0, family="cosine")).value
    assert 0.5 <= v_cos / v_exp <= 2.0


def test_report_serialization_round_trip(tmp_path):
    import json

    from qalpha.verify import write_csv, write_json

    f = generate(CorpusSpec("harmonic", 16, 1, (("xi0", 3),)))
    rep = q_alpha(f, 0.5, enumerate_cubes(4, 1, n=1))
    write_json(rep, tmp_path / "r.json")
    d = json.loads((tmp_path / "r.json").read_text())
    assert d["value"] == rep.value
    assert d["argmax_cube"]["edge"] == rep.argmax_cube.edge
    assert d["kind"] == "q_alpha"
    write_csv(rep.table, tmp_path / "r.csv")
    rows = (tmp_path / "r.csv").read_text().splitlines()
    assert rows[0] == "corner,edge,value"
    assert len(rows) == 1 + len(rep.table)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
def test_family_arrays_match_cube_list(n, N, shifted, tmp_path):
    from qalpha.verify import write_csv, write_json

    f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42))
    dec = decompose(f, j_min=0)
    family = enumerate_cubes(f.L, f.L - 3, n=n, shifted=shifted)
    cubes = list(family)
    for norm in (lambda c: q_alpha(f, 0.5, c), lambda c: campanato(f, n - 1.0, c)):
        got, want = norm(family), norm(cubes)
        assert (got.value, got.argmax_cube) == (want.value, want.argmax_cube)
        assert list(got.table) == list(want.table)
        assert [got.table[i] for i in (0, -1, np.int64(2))] == [want.table[i] for i in (0, -1, 2)]
        for write, part in ((write_json, lambda r: r), (write_csv, lambda r: r.table)):
            write(part(got), tmp_path / "got")
            write(part(want), tmp_path / "want")
            assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
    # the family takes the pyramid, the list the blocks: within the pyramid bound
    got, want = lp_morrey(f, 0.5, family, dec), lp_morrey(f, 0.5, cubes, dec)
    a, b = np.array([r["value"] for r in got.table]), np.array([r["value"] for r in want.table])
    assert np.all(np.abs(a - b) <= 1e-13 * b)
    mb_got = morrey_besov(f, 0.5, n - 1.0, 2, 2, family, dec)
    mb_want = morrey_besov(f, 0.5, n - 1.0, 2, 2, cubes, dec)
    assert mb_got.value == pytest.approx(mb_want.value, rel=1e-13, abs=0.0)
    for r, w in zip(mb_got.rows, mb_want.rows):
        assert r["sup"] == pytest.approx(w["sup"], rel=1e-13, abs=0.0)
    # the indexing contract of a sequence of cubes
    assert family[-1] == cubes[-1] and family[np.int64(2)] == cubes[2]
    assert family[1:4] == tuple(cubes[1:4]) and family[::-3] == tuple(cubes[::-3])
    with pytest.raises(IndexError):
        family[len(cubes)]
    with pytest.raises(IndexError):
        got.table[len(cubes)]


@pytest.mark.parametrize("n,N", [(1, 65536), (2, 512)])
def test_pyramid_energies_match_cube_blocks(n, N, monkeypatch):
    f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42))
    dec = decompose(f, j_min=0)
    for shifted in (False, True):
        family = enumerate_cubes(f.L, f.L - 3, n=n, shifted=shifted)
        # the list enumerate_cubes used to build, in its order
        old = [
            Cube(tuple((i + shift) * 2.0**-k for i in idx), 2.0**-k)
            for shift in ((0.0, 0.5) if shifted else (0.0,))
            for k in range(f.L - 2)
            for idx in itertools.product(range(2**k), repeat=n)
        ]
        assert len(family) == len(old)
        assert list(family) == old
        assert [family[i] for i in range(len(old))] == old
        assert family[-1] == old[-1] and family[3:9] == tuple(old[3:9])
        blocks = cube_blocks(f, old)
        bands = (dec.lowpass, *dec.bands)
        pyramid = list(norms._band_energies(f, family, bands))
        assert len(pyramid) == len(bands)
        for band, got in zip(bands, pyramid):
            want = cube_energies(band, blocks)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        # anything but a family of f's own grid takes the block path
        monkeypatch.setattr(norms, "family_energies", None)
        band = dec.band(f.L // 2)
        want = cube_energies(band, blocks)
        other_L = enumerate_cubes(f.L + 1, f.L - 3, n=n, shifted=shifted)
        for cubes in (family[:], list(family), other_L):
            (got,) = norms._band_energies(f, cubes, [band])
            assert np.array_equal(got, want)
        (got,) = norms._band_energies(f, family[5:], [band])
        assert np.array_equal(got, want[5:])
        monkeypatch.undo()


def one_band_pyramid(band, family):
    """The pyramid of one band, level by level, as `family_energies` builds it."""
    levels = [block_sums(band.values**2, band.N >> (family.level_max + 1))]
    while levels[-1].size > 1:
        levels.append(block_sums(levels[-1], 2))
    out = [e.ravel() for e in levels[:0:-1]]
    if family.shifted:
        axes = tuple(range(band.n))
        out += [block_sums(np.roll(e, -1, axis=axes), 2).ravel() for e in levels[-2::-1]]
    return band.h**band.n * np.concatenate(out)


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
@pytest.mark.parametrize("shifted", [False, True])
def test_batched_pyramid_rows_are_bit_exact(n, N, shifted):
    f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42))
    dec = decompose(f, j_min=0)
    bands = (dec.lowpass, *dec.bands)
    for level_max in (0, f.L - 4, f.L - 3):
        family = enumerate_cubes(f.L, level_max, n=n, shifted=shifted)
        batched = family_energies(bands, family)
        assert batched.shape == (len(bands), len(family))
        for band, row in zip(bands, batched):
            assert np.array_equal(row, family_energies([band], family)[0])
            assert np.array_equal(row, one_band_pyramid(band, family))


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_batch_cap_leaves_band_norms_unchanged(n, N, monkeypatch):
    def reports():
        out = []
        for f in small_corpus(n, N):
            dec = decompose(f, j_min=0)
            for shifted in (False, True):
                family = enumerate_cubes(f.L, f.L - 3, n=n, shifted=shifted)
                lp = lp_morrey(f, 0.5, family, dec)
                mb = morrey_besov(f, 0.5, n - 1.0, 2, 2, family, dec)
                out.append((lp.value, lp.argmax_cube, lp.table.values.tobytes(), mb.value, mb.rows))
        return out

    default = reports()
    monkeypatch.setattr(norms, "_BATCH_FLOATS", 1)  # one band per pyramid
    assert reports() == default


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_band_norms_read_each_band_once(n, N, monkeypatch):
    # one pass over the lazy bands, the cutoff carried across the batches of
    # the pyramid and through the block path alike: chi L+3 times per norm
    calls = []
    chi = filterbank._FAMILIES["exp"]
    monkeypatch.setitem(filterbank._FAMILIES, "exp", lambda u: calls.append(1) or chi(u))
    monkeypatch.setattr(norms, "_BATCH_FLOATS", 1)  # one band per pyramid
    f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42))
    dec = decompose(f, j_min=0)
    for shifted in (False, True):
        family = enumerate_cubes(f.L, f.L - 3, n=n, shifted=shifted)
        for norm in (lambda: lp_morrey(f, 0.5, family, dec),
                     lambda: lp_morrey(f, 0.5, list(family), dec),
                     lambda: morrey_besov(f, 0.5, n - 1.0, 2, 2, family, dec)):
            calls.clear()
            norm()
            assert len(calls) == f.L + 3
    # the refinement sums pass over the bands level..L+1 of their cube
    for level in (0, 2):
        I = Cube((0.25 * level,) * n, 2.0**-level)
        for norm in (dyadic_lp, dyadic_lp_rearranged):
            calls.clear()
            norm(f, 0.5, I, 1, dec)
            assert len(calls) == f.L + 3 - level


@pytest.mark.parametrize("n,N", [(1, 2**16), (2, 256)])
def test_band_readers_hold_one_band_at_a_time(n, N):
    # each band is reduced and dropped before the next is filtered: against a
    # pass that keeps no band, the refinement sums hold no band-sized array,
    # and the reconstruction only its output (a held band would add one grid)
    f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42))
    dec = decompose(f, j_min=0)
    root = Cube((0.0,) * n, 1.0)

    def peak(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1] / f.values.nbytes
        finally:
            tracemalloc.stop()

    one_band = peak(lambda: collections.deque(dec.bands, maxlen=0))
    assert peak(lambda: dyadic_lp(f, 0.5, root, 2, dec)) < one_band + 0.25
    assert peak(lambda: dyadic_lp_rearranged(f, 0.5, root, 2, dec)) < one_band + 0.25
    assert peak(lambda: dec.reconstruction()) < one_band + 1.25


def test_band_norm_memory_bounded():
    f = generate(CorpusSpec("spectral_noise", 2**18, 1, (("slope", 0.9),), seed=42))
    dec = decompose(f, j_min=0)
    family = enumerate_cubes(f.L, f.L - 3, n=1, shifted=True)
    for norm in (lambda: lp_morrey(f, 0.5, family, dec),
                 lambda: morrey_besov(f, 0.5, 0.0, 2, 2, family, dec)):
        tracemalloc.start()
        try:
            norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each pyramid holds at most norms._BATCH_FLOATS energies, 8 MiB
        assert peak < 40 * 2**20


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
@pytest.mark.parametrize("shifted", [False, True])
def test_fft_chunk_cap_leaves_q_alpha_unchanged(n, N, shifted, tmp_path, monkeypatch):
    from qalpha.verify import write_csv, write_json

    def reports(tag):
        out = []
        for i, f in enumerate(small_corpus(n, N)):
            rep = q_alpha(f, 0.5, enumerate_cubes(f.L, f.L - 3, n=n, shifted=shifted))
            write_json(rep, tmp_path / f"{tag}{i}.json")
            write_csv(rep.table, tmp_path / f"{tag}{i}.csv")
            out.append((rep.value, rep.argmax_cube, rep.table.values.tobytes(),
                        (tmp_path / f"{tag}{i}.json").read_bytes(),
                        (tmp_path / f"{tag}{i}.csv").read_bytes()))
        return out

    default = reports("default")
    monkeypatch.setattr(norms, "_FFT_BYTES", 1)  # one cube per chunk
    assert reports("chunked") == default


def test_q_alpha_memory_bounded():
    f = generate(CorpusSpec("spectral_noise", 512, 2, (("slope", 0.9),), seed=42))
    family = enumerate_cubes(f.L, f.L - 3, n=2, shifted=True)
    tracemalloc.start()
    try:
        q_alpha(f, 0.5, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two level-0 cubes in one chunk: 24 grids with the kernel built here
    # (22 from the cache), against 33 with an inverse transform per cube and
    # 44 while the padded kernel and w*1 stayed alive
    assert peak < 38 * f.values.nbytes


def test_kernel_cache_holds_owned_read_only_arrays():
    # a view such as the .real of a complex spectrum would keep that spectrum
    # alive in the cache for the whole process
    f = small_corpus(2, 64)[2]
    q_alpha(f, 0.5, enumerate_cubes(f.L, f.L - 3, n=2))
    for shape in ((64, 64), (8, 8)):
        for a in norms._kernel(shape, 3.0):
            assert a.base is None or a.flags.owndata
            assert a.dtype == np.float64 and not a.flags.writeable


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_q_alpha_independent_of_kernel_cache(n, N):
    f = small_corpus(n, N)[2]
    cubes = enumerate_cubes(f.L, f.L - 3, n=n, shifted=True)

    def report():
        rep = q_alpha(f, 0.5, cubes)
        return rep.value, rep.argmax_cube, rep.table.values.tobytes()

    norms._kernel.cache_clear()
    cold = report()
    norms._kernel.cache_clear()
    for g in small_corpus(n, 2 * N)[:2]:  # level k + 1 at 2N has the cube shape of level k at N
        q_alpha(g, 0.5, enumerate_cubes(g.L, g.L - 3, n=n, shifted=True))
    hits = norms._kernel.cache_info().hits
    assert report() == cold
    assert norms._kernel.cache_info().hits > hits
