"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and measured values.  Two sub-criteria are marked strict-xfail with
the blocking analysis in their reasons; each has a passing companion test
asserting the attainable version of the property.
"""

import math
import time

import numpy as np
import pytest

from qalpha import (
    CorpusSpec,
    Cube,
    campanato,
    decompose,
    dyadic_lp,
    enumerate_cubes,
    equivalence_report,
    fubini_identity_check,
    generate,
    kernel_decay_check,
    lemma23_check,
    lp_morrey,
    morrey_besov,
    q_alpha,
    ring_counts,
    sample_pairs,
    tree_sets,
)
from qalpha.cubes import _kernel_sums, required_max_level

import oracles
from test_cubes import batch_keys, one

UNIT1 = Cube((0.0,), 1.0)
UNIT2 = Cube((0.0, 0.0), 1.0)

# first-build regression baselines (seeds fixed below)
BASELINE_SPREAD = 1.0417  # c_high/c_low at N=256, alpha=0.5, n=1


def equivalence_corpus(N: int) -> list[CorpusSpec]:
    """The converged corpus: noise at s = alpha+0.2 and alpha+0.4, harmonics, bumps."""
    return [
        CorpusSpec("spectral_noise", N, 1, (("slope", 0.7),), seed=11),
        CorpusSpec("spectral_noise", N, 1, (("slope", 0.9),), seed=42),
        CorpusSpec("harmonic", N, 1, (("xi0", 4),)),
        CorpusSpec("harmonic", N, 1, (("xi0", 8),)),
        CorpusSpec("gaussian_bump", N, 1, (("width", 0.08),)),
    ]


def test_criterion_1_fubini_identity():
    t0 = time.time()
    worst = 0.0
    for spec in [s.with_size(256) for s in __import__("qalpha").default_corpus(1, 256)]:
        f = generate(spec)
        dec = decompose(f, 0)
        for I in enumerate_cubes(f.L, 2, n=1):
            for K in range(4):
                for alpha in (0.3, 0.5, 0.7):
                    d = fubini_identity_check(f, alpha, I, K, dec)
                    worst = max(worst, d)
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE 1 (exact rearrangement identity): "
        f"max discrepancy {worst:.3e}, {elapsed:.1f}s -> "
        + ("PASS" if worst < 1e-12 and elapsed < 30 else "FAIL")
    )
    assert worst < 1e-12
    assert elapsed < 30


def test_criterion_2_oracle_equivalence_small_scale():
    tol = 1e-12
    for n in (1, 2):
        N = 8
        f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.8),), seed=3))
        dec = decompose(f, 0)
        bands = {j: dec.band(j).values for j in dec.js}
        cubes = [Cube((0.0,) * n, 1.0), Cube((0.5,) * n, 0.5), Cube((0.25,) * n, 0.5)]
        for alpha in (0.4, 0.6):
            got = q_alpha(f, alpha, cubes)
            want = max(
                math.sqrt(oracles.naive_q_alpha_on_cube(f.values, alpha, c.corner, c.edge))
                for c in cubes
            )
            assert got.value == pytest.approx(want, rel=tol)
        for lam in (0.5, float(n)):
            got = campanato(f, lam, cubes)
            want = max(
                math.sqrt(oracles.naive_campanato_on_cube(f.values, lam, c.corner, c.edge))
                for c in cubes
            )
            assert got.value == pytest.approx(want, rel=tol)
        alpha = 0.5
        got = lp_morrey(f, alpha, cubes, dec)
        want = max(
            math.sqrt(
                oracles.naive_lp_morrey_on_cube(bands, alpha, c.corner, c.edge, dec.j_max)
            )
            for c in cubes
        )
        assert got.value == pytest.approx(want, rel=tol)
        got = dyadic_lp(f, alpha, Cube((0.0,) * n, 1.0), 0, dec)
        want = oracles.naive_dyadic_lp(bands, alpha, (0.0,) * n, 1.0, 0, dec.j_max)
        assert got == pytest.approx(want, rel=tol)
        got = morrey_besov(f, alpha, n - 2 * alpha, 2, 2, cubes, dec).value
        want = oracles.naive_morrey_besov(
            bands, alpha, n - 2 * alpha, [(c.corner, c.edge) for c in cubes], dec.j_max
        )
        assert got == pytest.approx(want, rel=tol)
    print("\nACCEPTANCE 2 (small-scale oracle equivalence, n=1 and n=2): PASS")


def test_criterion_3_filterbank_contracts():
    worst_pou, worst_rec = 0.0, 0.0
    ortho_ok = True
    for n, N in ((1, 64), (2, 16)):
        from qalpha import build_profiles

        profiles = build_profiles(int(math.log2(N)), 0, n=n)
        total = sum(p.values for p in profiles)
        q = np.fft.fftfreq(N, d=1.0 / N)
        mag = np.abs(q) if n == 1 else np.hypot(*np.meshgrid(q, q, indexing="ij"))
        worst_pou = max(worst_pou, float(np.max(np.abs(total[mag > 0] - 1.0))))
        for spec in __import__("qalpha").default_corpus(n, N):
            f = generate(spec)
            dec = decompose(f, 0)
            scale = max(float(np.max(np.abs(f.values))), 1e-300)
            rec = float(np.max(np.abs(dec.reconstruction() - f.values))) / scale
            worst_rec = max(worst_rec, rec)
            high = f.values - dec.lowpass.values
            denom = float(np.sum(high**2))
            total_e = sum(float(np.sum(b.values**2)) for b in dec.bands)
            tol = 1e-12 * max(denom, 1.0)
            if not (0.5 * denom - tol <= total_e <= 2.0 * denom + tol):
                ortho_ok = False
    ok = worst_pou < 1e-12 and worst_rec < 1e-10 and ortho_ok
    print(
        f"\nACCEPTANCE 3 (filter-bank contracts): partition residual {worst_pou:.2e}, "
        f"reconstruction {worst_rec:.2e}, near-orthogonality {'ok' if ortho_ok else 'violated'}"
        f" -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst_pou < 1e-12
    assert worst_rec < 1e-10
    assert ortho_ok


def test_criterion_4_kernel_combinatorics():
    t0 = time.time()
    # (a) exact subset inequality on 1000 seeded pairs
    pairs = sample_pairs(UNIT1, 1000, seed=7)
    sets = tree_sets(UNIT1, *zip(*pairs), 2.0)
    edges = [2.0**-k for k in range(sets.first.shape[1])]
    minimal, _ = ring_counts(sets)
    full, allowed = (_kernel_sums(edges, counts, 0.5, 1) for counts in (sets.counts(), minimal))
    assert len(full) == len(allowed) == 1000
    for k_full, k_allowed in zip(full, allowed):
        assert k_full >= k_allowed

    # (b) level boxes equal exhaustive enumeration up to depth 10
    checked = 0
    for x, y in sample_pairs(UNIT1, 40, seed=23):
        if required_max_level(UNIT1, x, y, 2.0) > 10:
            continue
        assert batch_keys(one(UNIT1, x, y, 2.0)) == oracles.exhaustive_gamma(
            (0.0,), 1.0, x, y, 2.0, 10
        )
        checked += 1
    assert checked >= 20
    pairs2 = [p for p in sample_pairs(UNIT2, 24, seed=29)]
    deep = [p for p in pairs2 if required_max_level(UNIT2, *p, 2.0) <= 8][:4]
    for x, y in deep:
        assert batch_keys(one(UNIT2, x, y, 2.0)) == oracles.exhaustive_gamma(
            (0.0, 0.0), 1.0, x, y, 2.0, 8
        )
    x, y = deep[0]
    assert batch_keys(one(UNIT2, x, y, 2.0)) == oracles.exhaustive_gamma(
        (0.0, 0.0), 1.0, x, y, 2.0, 10
    )

    # (c) log-log decay slope within +/-0.15 of -(2a+n) for 12 combos
    worst = 0.0
    for n in (1, 2):
        for alpha in (0.3, 0.5, 0.7):
            for m in (2.0, 4.0):
                rec = kernel_decay_check(alpha, m, n, 400, seed=7)
                err = abs(rec.slope - (-(2 * alpha + n)))
                worst = max(worst, err)
                assert err <= 0.15, (n, alpha, m, rec.slope)
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE 4a-c (kernel combinatorics): subset inequality exact on 1000 pairs, "
        f"boxes == exhaustive, worst slope error {worst:.3f} <= 0.15, {elapsed:.0f}s -> "
        + ("PASS" if elapsed < 120 else "FAIL (runtime)")
    )
    assert elapsed < 120


def _ring2_maxima_by_m() -> dict[float, int]:
    pairs = sample_pairs(UNIT1, 1000, seed=7)
    out = {}
    for m in (2.0, 4.0, 8.0):
        _, maxima = ring_counts(tree_sets(UNIT1, *zip(*pairs), m))
        out[m] = int(maxima[:, 1].max())
    return out


def test_criterion_4d_ring2_nongrowth():
    # attainable version: the second-kind ring count does not grow with m
    maxima = _ring2_maxima_by_m()
    values = [maxima[m] for m in (2.0, 4.0, 8.0)]
    ok = all(b <= a for a, b in zip(values, values[1:]))
    print(
        f"\nACCEPTANCE 4d (ring-2 maxima do not grow with m): {maxima} -> "
        + ("PASS" if ok else "FAIL")
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the population maximum of the second-kind ring "
        "count is 2 for m in {2,4} but 1 for m=8 (0 two-cube events in a 40000-pair "
        "sweep); at large m the minimal cubes are small relative to the shells, so "
        "two simultaneous shell-straddling cubes no longer occur.  The bound is "
        "m-independent (non-growth holds, see companion test), but not identical."
    ),
)
def test_criterion_4d_ring2_identical_as_stated():
    maxima = _ring2_maxima_by_m()
    print(f"\nACCEPTANCE 4d-strict (ring-2 maxima identical across m): {maxima} -> FAIL")
    assert maxima[2.0] == maxima[4.0] == maxima[8.0]


def test_criterion_5_ratio_stability():
    sizes = [64, 128, 256]
    rep = equivalence_report(equivalence_corpus(64), 0.5, sizes)
    worst_drift = max(
        (abs(c) for changes in rep.per_doubling_ratio_change.values() for c in changes),
        default=0.0,
    )
    spread = rep.spread
    rep2 = equivalence_report(equivalence_corpus(64), 0.5, sizes)
    repro = abs(rep2.spread / spread - 1.0)
    ok = (
        worst_drift < 0.20
        and math.isfinite(spread)
        and repro < 0.05
        and abs(spread / BASELINE_SPREAD - 1.0) < 0.05
    )
    print(
        f"\nACCEPTANCE 5 (two-sided ratio stability): worst drift/doubling "
        f"{worst_drift:.2%} < 20%, spread {spread:.4f} (baseline {BASELINE_SPREAD}), "
        f"rerun reproduction {repro:.2%} -> " + ("PASS" if ok else "FAIL")
    )
    assert worst_drift < 0.20
    assert math.isfinite(spread)
    assert repro < 0.05
    assert abs(spread / BASELINE_SPREAD - 1.0) < 0.05


def _lemma23_ratios(K: int, m: float) -> dict[str, float]:
    out = {}
    for spec in equivalence_corpus(128):
        out[spec.ident] = lemma23_check(generate(spec), 0.5, m, UNIT1, K).ratio
    return out


def test_criterion_6_m_doubling():
    r_m2 = _lemma23_ratios(3, 2.0)
    r_m4 = _lemma23_ratios(3, 4.0)
    worst = max(r_m4[k] / r_m2[k] for k in r_m2)
    ok = worst <= 1.10
    print(
        f"\nACCEPTANCE 6 (m-doubling absorbed by m^(2a+2n)): worst ratio(m=4)/ratio(m=2) "
        f"= {worst:.4f} <= 1.10 -> " + ("PASS" if ok else "FAIL")
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the K-truncation tail of the dilated-oscillation "
        "sum decays like 2^(-2K(s-alpha)) for a function of smoothness s, so the "
        "corpus member at s = alpha+0.2 can never change less than ~24% from K=3 "
        "to K=4 (measured 23-107% across the corpus), far above 5%.  The bound "
        "itself holds; only the 5% truncation-stability figure is impossible."
    ),
)
def test_criterion_6_k_stability_as_stated():
    r_k3 = _lemma23_ratios(3, 2.0)
    r_k4 = _lemma23_ratios(4, 2.0)
    changes = {k: abs(r_k4[k] / r_k3[k] - 1.0) for k in r_k3}
    worst = max(changes.values())
    print(
        f"\nACCEPTANCE 6-strict (K=3 -> K=4 ratio change < 5%): measured "
        + ", ".join(f"{k}: {v:.1%}" for k, v in changes.items())
        + f" -> FAIL (worst {worst:.1%})"
    )
    assert worst < 0.05


def test_criterion_7_degeneracy_diagnostics():
    # constants: every norm vanishes
    f = generate(CorpusSpec("constant", 64, 1, (("value", 3.0),)))
    cubes = enumerate_cubes(f.L, f.L - 3, n=1, shifted=True)
    dec = decompose(f, 0)
    norms = {
        "q_alpha": q_alpha(f, 0.5, cubes).value,
        "campanato": campanato(f, 1.0, cubes).value,
        "lp_morrey": lp_morrey(f, 0.5, cubes, dec).value,
        "dyadic_lp": dyadic_lp(f, 0.5, UNIT1, 3, dec),
        "morrey_besov": morrey_besov(f, 0.5, 0.0, 2, 2, cubes, dec).value,
    }
    assert all(v < 1e-10 for v in norms.values()), norms

    # alpha = 1.2: the band-energy norm stays finite and resolution-stable on a
    # visibly non-constant smooth function, while the increment norm diverges
    lp_vals, q_vals = {}, {}
    for N in (64, 128):
        g = generate(CorpusSpec("schwartz_like", N, 1, (("rate", 1.0),)))
        gc = enumerate_cubes(g.L, g.L - 3, n=1, shifted=True)
        gd = decompose(g, 0)
        lp_vals[N] = lp_morrey(g, 1.2, gc, gd).value
        q_vals[N] = q_alpha(g, 1.2, gc).value
        assert float(g.values.max() - g.values.min()) > 0.1
    lp_change = abs(lp_vals[128] / lp_vals[64] - 1.0)
    ok = all(math.isfinite(v) for v in lp_vals.values()) and lp_change < 0.10
    print(
        f"\nACCEPTANCE 7 (degeneracy diagnostics): constants all < 1e-10; at alpha=1.2 "
        f"lp_morrey {lp_vals[64]:.5f} -> {lp_vals[128]:.5f} (change {lp_change:.2%}), "
        f"q_alpha grows {q_vals[64]:.2f} -> {q_vals[128]:.2f} -> "
        + ("PASS" if ok else "FAIL")
    )
    assert ok
