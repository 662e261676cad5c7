import json
import math
from collections import Counter

import pytest

from qalpha import (
    ConfigError,
    CorpusSpec,
    Cube,
    campanato,
    decompose,
    default_corpus,
    embedding_check,
    enumerate_cubes,
    equivalence_report,
    fubini_identity_check,
    generate,
    kernel_decay_check,
    lemma23_check,
    tree_sets,
    write_grid,
)
from qalpha import cubes, norms
from qalpha.cli import main
from qalpha.verify import write_csv, write_json

import oracles
from test_cubes import batch_keys

UNIT1 = Cube((0.0,), 1.0)


def mini_corpus(N=64):
    return [
        CorpusSpec("constant", N, 1, (("value", 1.0),)),
        CorpusSpec("harmonic", N, 1, (("xi0", 4),)),
        CorpusSpec("spectral_noise", N, 1, (("slope", 0.9),), seed=42),
    ]


def test_equivalence_report_basic():
    rep = equivalence_report(mini_corpus(), 0.5, [64, 128])
    assert len(rep.rows) == 6
    const_rows = [r for r in rep.rows if r["spec_id"].startswith("constant")]
    assert all(r["excluded"] and r["ratio"] is None for r in const_rows)
    live = [r for r in rep.rows if r["ratio"] is not None]
    assert all(r["ratio"] > 0 for r in live)
    assert rep.c_low <= rep.c_high
    assert not any(rep.drift_flags.values())
    # deterministic reproduction
    rep2 = equivalence_report(mini_corpus(), 0.5, [64, 128])
    assert rep2.c_low == rep.c_low and rep2.c_high == rep.c_high


def test_equivalence_report_builds_no_cube_per_cube(monkeypatch):
    built = []
    post_init = Cube.__post_init__
    monkeypatch.setattr(Cube, "__post_init__", lambda self: built.append(1) or post_init(self))
    corpus = default_corpus(1, 1024)
    rep = equivalence_report(corpus, 0.5, [1024, 2048])
    assert len(rep.rows) == 2 * len(corpus)
    # the argmax cubes of q_alpha and lp_morrey, per function and size
    assert len(built) <= 2 * len(rep.rows)



@pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
@pytest.mark.parametrize("shifted", [False, True])
def test_norm_table_csv_from_arrays_matches_dict_rows(n, N, shifted, tmp_path):
    f = generate(CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42))
    family = enumerate_cubes(f.L, f.L - 3, n=n, shifted=shifted)
    for cubes in (family, family[1:]):
        table = campanato(f, n - 1.0, cubes).table
        write_csv(table, tmp_path / "arrays.csv")
        write_csv(list(table), tmp_path / "rows.csv")
        written = (tmp_path / "arrays.csv").read_bytes()
        assert written.startswith(b"corner,edge,value\n")
        assert written == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("argv", [["campanato"], ["lpmorrey", "--shifted"]])
def test_norm_csv_builds_no_cube_per_row(argv, tmp_path, monkeypatch, capsys):
    grid, out = tmp_path / "f.grid", tmp_path / "table.csv"
    write_grid(generate(CorpusSpec("spectral_noise", 64, 2, (("slope", 0.9),), seed=42)), grid)
    built = []
    post_init = Cube.__post_init__
    monkeypatch.setattr(Cube, "__post_init__", lambda self: built.append(1) or post_init(self))
    code = main(["norm", *argv, "--input", str(grid), "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == 0 and len(out.read_text().splitlines()) > 85
    assert len(built) <= 1  # the argmax cube

def test_equivalence_report_validation():
    with pytest.raises(ConfigError, match="ascending"):
        equivalence_report(mini_corpus(), 0.5, [128, 64])
    with pytest.raises(ConfigError, match="positive"):
        equivalence_report(mini_corpus(), -0.5, [64])


def test_equivalence_report_workers_deterministic():
    # two sizes: the threads build and share one pair-sum kernel per cube shape
    norms._kernel.cache_clear()
    rep1 = equivalence_report(mini_corpus(), 0.5, [64, 128], workers=1)
    norms._kernel.cache_clear()
    rep2 = equivalence_report(mini_corpus(), 0.5, [64, 128], workers=3)
    assert rep1.rows == rep2.rows


def test_fubini_identity_check_small():
    for spec in mini_corpus():
        f = generate(spec)
        dec = decompose(f, 0)
        assert fubini_identity_check(f, 0.5, UNIT1, 3, dec) < 1e-12
    # constant: 0 vs 0 counts as zero discrepancy
    f = generate(CorpusSpec("constant", 64, 1, (("value", 2.0),)))
    assert fubini_identity_check(f, 0.5, UNIT1, 2, decompose(f, 0)) == 0.0


def test_lemma23_record_fields():
    f = generate(CorpusSpec("spectral_noise", 64, 1, (("slope", 0.9),), seed=42))
    rec = lemma23_check(f, 0.5, 2.0, UNIT1, 2)
    assert rec.lhs > 0 and rec.q_alpha > 0
    assert rec.ratio == pytest.approx(
        rec.lhs / (2.0 ** (2 * 0.5 + 2) * rec.q_alpha**2), rel=1e-12
    )
    with pytest.raises(ConfigError, match=">= 2"):
        lemma23_check(f, 0.5, 1.0, UNIT1, 2)
    for m in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            lemma23_check(f, 0.5, m, UNIT1, 2)


def test_lemma23_rejects_non_dyadic_root():
    f = generate(CorpusSpec("spectral_noise", 64, 1, (("slope", 0.9),), seed=42))
    with pytest.raises(ConfigError, match="not dyadic"):
        lemma23_check(f, 0.5, 2.0, Cube((0.0,), 0.75), 1)


def test_lemma23_constant_zero_ratio():
    f = generate(CorpusSpec("constant", 64, 1, (("value", 1.0),)))
    rec = lemma23_check(f, 0.5, 2.0, UNIT1, 2)
    assert rec.lhs == 0.0 and rec.ratio == 0.0


def test_oscillation_pair_sum_matches_literal_double_loop():
    # the implementation uses the 2*P*sum((v - mean)^2) rewrite; check it
    # against the raw double loop over the dilated cube's lattice points
    import oracles
    from qalpha import GridFunction
    from qalpha.grid import dilate
    from qalpha.verify import _oscillation_pair_sums
    import numpy as np

    rng = np.random.default_rng(12)
    f = GridFunction(rng.standard_normal(8))
    for corner, edge, m in [((0.0,), 0.5, 2.0), ((0.25,), 0.25, 4.0), ((0.0,), 1.0, 2.0)]:
        D_corner, D_edge = dilate(np.array([corner]), edge, m)
        pts = oracles.naive_lattice(8, 1, tuple(D_corner[0].tolist()), D_edge, closed=False)
        naive = 0.0
        for _, ix in pts:
            for _, iy in pts:
                naive += (f.values[ix] - f.values[iy]) ** 2
        naive *= f.h**2
        assert _oscillation_pair_sums(f, D_corner, D_edge)[0] == pytest.approx(naive, rel=1e-12)


def test_kernel_decay_check_record():
    rec = kernel_decay_check(0.5, 2.0, 1, 120, seed=7)
    assert len(rec.rows) == 120
    for row in rec.rows:
        assert row["k_full"] >= row["k_allowed"]
        assert row["k_full_scaled"] > 0
    assert abs(rec.slope - (-2.0)) < 0.15
    # deterministic
    rec2 = kernel_decay_check(0.5, 2.0, 1, 120, seed=7)
    assert rec2.slope == rec.slope


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_decay_row_floats_match_per_pair_formulas(n):
    # dist and k_full_scaled of every row are the per-pair Python formulas bit
    # for bit: Python's v ** 2 and ** (2a+n) can differ from numpy's in the
    # last bit, which for n = 2 changes a dist at each of these seeds
    alpha = 0.5
    for seed in (3, 6):
        for r in kernel_decay_check(alpha, 2.0, n, 2000, seed=seed).rows:
            dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(r["x"], r["y"])))
            assert r["dist"].hex() == dist.hex()
            assert r["k_full_scaled"].hex() == (r["k_full"] * dist ** (2 * alpha + n)).hex()


def oracle_decay_row(x, y, m, alpha, n, cross_check=True):
    """k_allowed and the largest kind-1 and kind-2 ring counts of one pair,
    from the child-lookup minimality and the ring-class predicates; with
    `cross_check`, the minimal cubes are also found by brute force."""
    root = Cube((0.0,) * n, 1.0)
    keys = batch_keys(tree_sets(root, [x], [y], m))
    minimal = oracles.child_free_members(keys)
    if cross_check:
        by_level = {}
        for k, index in keys:
            by_level.setdefault(k, set()).add((k, index))
        # the tree set is upward-closed, so a member with a descendant in it
        # has a child in it: minimality needs two adjacent levels at a time
        brute = {
            (k, index)
            for k, level_keys in by_level.items()
            for level, index in oracles.brute_force_minimal(level_keys | by_level.get(k + 1, set()))
            if level == k
        }
        assert minimal == brute
    expo = -(2.0 * alpha + n)
    k_allowed = math.fsum((root.edge * 2.0**-k) ** expo for k, _ in minimal)
    rings = Counter()
    for k, index in minimal:
        e = root.edge * 2.0**-k
        corner = tuple(c + i * e for c, i in zip(root.corner, index))
        rings[oracles.brute_force_ring_class(corner, e, x, y)] += 1
    kind1, kind2 = (max((c for (_, kind), c in rings.items() if kind == want), default=0)
                    for want in (1, 2))
    return k_allowed, kind1, kind2


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2.0, 2.5, 3.0, 16.0])
def test_kernel_decay_rows_match_brute_force(n, m):
    rec = kernel_decay_check(0.5, m, n, 40, seed=11)
    for r in rec.rows:
        # brute force is quadratic in a level's members: too slow for n=2, m=16
        k_allowed, kind1, kind2 = oracle_decay_row(
            tuple(r["x"]), tuple(r["y"]), m, 0.5, n, cross_check=(n, m) != (2, 16.0)
        )
        assert (r["k_allowed"], r["count_kind1_max"], r["count_kind2_max"]) == (
            k_allowed, kind1, kind2
        )
    assert rec.max_kind1_over_mn == max(r["count_kind1_max"] for r in rec.rows) / m**n
    assert rec.max_kind2 == max(r["count_kind2_max"] for r in rec.rows)


@pytest.mark.parametrize("n,m", [(1, 3.0), (2, 2.5)])
def test_kernel_decay_rows_independent_of_batches(n, m, monkeypatch):
    batches = []
    minimal_cubes = cubes._minimal_cubes

    def record(batch):
        # a batch is a slice of the pairs' tree-set arrays, one row per pair
        assert isinstance(batch, cubes.TreeSets)
        batches.append(len(batch.depth))
        return minimal_cubes(batch)

    monkeypatch.setattr(cubes, "_minimal_cubes", record)
    whole = kernel_decay_check(0.5, m, n, 60, seed=3)
    assert batches == [60]
    # a budget of 50 members cuts the 60 pairs into many batches, and one
    # pair's tree set can fill a batch alone
    monkeypatch.setattr(cubes, "_BATCH_MEMBERS", 50)
    batches.clear()
    split = kernel_decay_check(0.5, m, n, 60, seed=3)
    assert len(batches) > 5 and sum(batches) == 60
    assert split.rows == whole.rows
    assert (split.max_kind1_over_mn, split.max_kind2) == (whole.max_kind1_over_mn, whole.max_kind2)


@pytest.mark.parametrize(
    "alpha,m,n,bound",
    [(0.5, 2.0, 1, 5.12 * 1.5), (0.3, 4.0, 1, 19.40 * 1.5), (0.5, 2.0, 2, 15.91 * 1.5)],
)
def test_scaled_kernel_bounded(alpha, m, n, bound):
    # k(x,y) * |x-y|^(2a+n) stays bounded across separations; bounds frozen
    # from the build-time sweep with 1.5x headroom
    rec = kernel_decay_check(alpha, m, n, 200, seed=7)
    assert max(r["k_full_scaled"] for r in rec.rows) <= bound


def test_kernel_csv_and_json(tmp_path):
    rec = kernel_decay_check(0.5, 2.0, 1, 10, seed=7)
    csv_path = tmp_path / "k.csv"
    write_csv(rec.rows, csv_path)  # as `qalpha kernel` writes it
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("x,y,dist,k_full,k_allowed")
    json_path = tmp_path / "k.json"
    write_json(rec, json_path)
    data = json.loads(json_path.read_text())
    assert data["expected_slope"] == -2.0
    assert len(data["rows"]) == 10
    # byte-identical reruns
    json_path2 = tmp_path / "k2.json"
    write_json(kernel_decay_check(0.5, 2.0, 1, 10, seed=7), json_path2)
    assert json_path.read_bytes() == json_path2.read_bytes()


def test_embedding_check():
    rep = embedding_check(mini_corpus(), 0.5)
    assert not rep.violations
    live = [r for r in rep.rows if r["ratio"] is not None]
    assert live and all(r["ratio"] <= rep.max_ratio for r in live)
    const = [r for r in rep.rows if r["spec_id"].startswith("constant")]
    assert const[0]["ratio"] is None


def test_embedding_max_ratio_stable_under_refinement():
    specs = mini_corpus()
    r1 = embedding_check([s.with_size(128) for s in specs], 0.5)
    r2 = embedding_check([s.with_size(256) for s in specs], 0.5)
    assert abs(r2.max_ratio / r1.max_ratio - 1.0) < 0.10


def test_equivalence_alpha_above_one_diagnostic():
    # the degeneracy regime still produces a report (ratios may drift)
    specs = [CorpusSpec("schwartz_like", 64, 1, (("rate", 1.0),))]
    rep = equivalence_report(specs, 1.2, [64, 128])
    rows = [r for r in rep.rows if r["ratio"] is not None]
    assert len(rows) == 2
    assert all(math.isfinite(r["lp_morrey"]) for r in rows)


def test_drift_flag_fires_when_one_side_diverges():
    # deep in the degeneracy regime the increment norm grows with N while the
    # band-energy norm stays put, so the ratio drifts monotonically > 20%
    specs = [CorpusSpec("schwartz_like", 64, 1, (("rate", 1.0),))]
    rep = equivalence_report(specs, 1.5, [64, 128, 256])
    assert rep.drift_flags["schwartz_like_rate=1"] is True
