"""The benchmark's three workloads: inputs made from a seed, operations, checks.

An operation is one `qalpha` command line, run in-process through
`qalpha.cli.main`.  A workload's pass runs every operation once, in order.
Each operation names the files it writes; the checks read those files after
the timed passes and compare them with `oracle.py` or with a property the
method must have, never with a stored copy of an earlier output.

`increment` spends its time in the pair sum of `q_alpha`; `band-energy` in
corpus generation, the filter bank, the band norms and grid I/O, calling
`q_alpha` only from probes on N=16 grids; `kernel-decay` in dyadic tree-set
enumeration, with no grid.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle
from qalpha.corpus import generate, load_corpus_file
from qalpha.cubes import gamma_set
from qalpha.filterbank import decompose
from qalpha.grid import Cube, GridFunction, read_grid, write_grid

ALPHA = 0.5
SLOPES = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
Q_RTOL = 1e-12  # direct sums of grid values
BAND_RTOL = 1e-10  # quantities built on two FFT filter banks
SLOPE_BAND = 0.15  # |fitted decay slope + (2a+n)| must stay below this
TREE_SAMPLE = 100  # pairs per decay operation whose tree set is enumerated again
TABLE_SAMPLE = 48  # rows per large norm table recomputed by the oracle
LEMMA23_N, LEMMA23_M, LEMMA23_K = 1024, 2.0, 3


@dataclass
class Op:
    """One CLI call.  A probe expects exit 2 with a one-line message."""

    name: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    probe: bool = False
    check: Callable[["Op", object], list[str]] | None = None  # (op, run.Outcome) -> errors


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, salt])


def _path(workdir: str, name: str) -> str:
    return os.path.join(workdir, name)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _noise_record(rng: np.random.Generator, n: int) -> dict:
    return {
        "kind": "spectral_noise",
        "params": {"slope": float(rng.choice(SLOPES))},
        "N": 8,
        "n": n,
        "seed": int(rng.integers(1, 10**6)),
    }


def _noise_ident(rec: dict, N: int) -> str:
    slope, seed, n = rec["params"]["slope"], rec["seed"], rec["n"]
    return f"spectral_noise_slope={slope:g}_seed={seed}_n{n}_N{N}"


def _trig_grid(rng: np.random.Generator, n: int, N: int) -> np.ndarray:
    """A random trigonometric polynomial plus a little white noise."""
    axes = np.meshgrid(*([np.arange(N) / N] * n), indexing="ij")
    out = 0.05 * rng.standard_normal((N,) * n)
    for _ in range(6):
        k = rng.integers(-N // 4, N // 4 + 1, size=n)
        phase = sum(int(kd) * x for kd, x in zip(k, axes))
        amp = rng.standard_normal() / (1.0 + float(np.abs(k).sum()))
        out = out + amp * np.cos(2 * np.pi * phase + rng.uniform(0, 2 * np.pi))
    return out


# ---------------------------------------------------------------------------
# output readers


def _json(op: Op):
    with open(op.outputs[0]) as fh:
        return json.load(fh)


def _table(path: str) -> list[tuple[tuple[float, ...], float, float]]:
    """Rows (corner, edge, value) of a `norm ... --format csv` table."""
    with open(path) as fh:
        next(fh)
        rows = []
        for line in fh:
            corner, edge, value = line.rstrip("\n").split(",")
            rows.append((tuple(float(c) for c in corner.split(";")), float(edge), float(value)))
    return rows


def _printed_value(out: str) -> float:
    return float(out.split("value=")[1].split()[0])


def _close(a: float, b: float, rtol: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + floor


def _sample(rows: list, count: int, seed: int) -> list:
    if len(rows) <= count:
        return rows
    picks = np.random.default_rng(seed).choice(len(rows), size=count, replace=False)
    return [rows[i] for i in sorted(picks)]


def _agrees_to_digits(printed: float, exact: float, digits: int) -> bool:
    """Whether `printed` is `exact` rounded to `digits` significant digits."""
    if exact == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - digits + 1)
    return abs(printed - exact) <= half_unit * (1 + 1e-6)


# ---------------------------------------------------------------------------
# checks shared by several operations


def _check_table(op: Op, res, grid: str, kind: str, shifted: bool, sample_seed: int):
    """Per-cube rows of a norm table against the oracle, and the printed sup."""
    values = oracle.read_grid_text(grid)
    n, L = values.ndim, values.shape[0].bit_length() - 1
    rows = _table(op.outputs[0])
    errs = []
    expected_rows = len(oracle.cube_family(n, L - 3, shifted))
    if len(rows) != expected_rows:
        errs.append(f"{len(rows)} table rows, expected {expected_rows}")
    if _printed_value(res.stdout) != max(v for _, _, v in rows):
        errs.append("printed value is not the table maximum")
    if kind == "qalpha":
        own, rtol = (lambda c, e: oracle.q_alpha_cube(values, ALPHA, c, e)), Q_RTOL
    elif kind == "campanato":
        own, rtol = (lambda c, e: oracle.campanato_cube(values, n - 2 * ALPHA, c, e)), Q_RTOL
    else:
        _, band_arrays = oracle.bands(values)
        own, rtol = (lambda c, e: oracle.lp_morrey_cube(band_arrays, ALPHA, c, e)), BAND_RTOL
    checked = rows if len(rows) <= 1024 else _sample(rows, TABLE_SAMPLE, sample_seed)
    for corner, edge, value in checked:
        expect = own(corner, edge)
        if not _close(value, expect, rtol):
            errs.append(f"cube {corner} edge {edge}: {value!r} != oracle {expect!r}")
            break
    return errs


# ---------------------------------------------------------------------------
# increment


def build_increment(workdir: str, seed: int) -> list[Op]:
    rng = _rng(seed, 1)
    corpus1 = [{"kind": "constant", "params": {"value": 1.0}, "N": 8, "n": 1}, _noise_record(rng, 1)]
    corpus2 = [_noise_record(rng, 2)]
    c1, c2 = _path(workdir, "increment_n1.json"), _path(workdir, "increment_n2.json")
    _write_json(c1, corpus1)
    _write_json(c2, corpus2)
    g1, g2 = _path(workdir, "table_n1_N1024.grid"), _path(workdir, "table_n2_N16.grid")
    oracle.write_grid_text(_trig_grid(rng, 1, 1024), g1)
    oracle.write_grid_text(_trig_grid(rng, 2, 16), g2)
    out = lambda name: _path(workdir, name)  # noqa: E731

    def check_equivalence(corpus):
        def check(op, res):
            data = _json(op)
            errs = [] if len(data["rows"]) == 3 * len(corpus) else ["missing equivalence rows"]
            for row in data["rows"]:
                if row["spec_id"].startswith("constant"):
                    if not (row["excluded"] and row["q_alpha"] == 0.0 and row["lp_morrey"] == 0.0):
                        errs.append(f"constant row not excluded with exact zeros: {row}")
                elif row["excluded"] or not (math.isfinite(row["ratio"]) and row["ratio"] > 0):
                    errs.append(f"ratio not finite and positive: {row}")
            return errs
        return check

    def check_lemma23(op, res):
        ratios = {}
        for line in res.stdout.splitlines():
            ident, _, ratio = line.partition(": ratio=")
            ratios[ident] = float(ratio)
        errs = [] if len(ratios) == len(corpus1) else ["missing lemma23 ratios"]
        for ident, r in ratios.items():
            if ident.startswith("constant") and r != 0.0:
                errs.append(f"constant has ratio {r}")
            if not ident.startswith("constant") and not (math.isfinite(r) and r > 0):
                errs.append(f"{ident}: ratio {r} not finite and positive")
        for spec in load_corpus_file(c1):
            spec = spec.with_size(LEMMA23_N)
            expect = oracle.lemma23_ratio(generate(spec).values, ALPHA, LEMMA23_M, LEMMA23_K)
            if not _agrees_to_digits(ratios.get(spec.ident, math.nan), expect, 6):
                errs.append(f"{spec.ident}: ratio {ratios.get(spec.ident)} != oracle {expect:.6g}")
        return errs

    def check_embedding(op, res):
        data = _json(op)
        errs = [f"violations {data['violations']}"] if data["violations"] else []
        for row in data["rows"]:
            if not row["spec_id"].startswith("constant") and not (
                math.isfinite(row["ratio"]) and row["ratio"] > 0
            ):
                errs.append(f"embedding ratio not finite and positive: {row}")
        return errs

    def table_check(grid, kind):
        return lambda op, res: _check_table(op, res, grid, kind, True, seed)

    ops = [
        Op(f"equivalence_n{n}", ["verify", "equivalence", "--n", str(n), "--corpus", path,
                                 "--sizes", *sizes, "--out", out(f"eq_n{n}.json")],
           [out(f"eq_n{n}.json")], check=check_equivalence(corpus))
        for n, path, corpus, sizes in ((1, c1, corpus1, ["1024", "2048", "4096"]),
                                       (2, c2, corpus2, ["16", "32", "64"]))
    ] + [
        Op("lemma23_n1", ["verify", "lemma23", "--n", "1", "--corpus", c1,
                          "--sizes", str(LEMMA23_N), "--m", f"{LEMMA23_M:g}", "--K", str(LEMMA23_K)],
           check=check_lemma23),
        Op("embedding_n1", ["verify", "embedding", "--n", "1", "--corpus", c1, "--sizes", "1024",
                            "--out", out("emb_n1.json")], [out("emb_n1.json")], check=check_embedding),
    ]
    for grid, tag in ((g1, "n1"), (g2, "n2")):
        for kind in ("qalpha", "lpmorrey"):
            path = out(f"{kind}_{tag}.csv")
            ops.append(Op(f"{kind}_table_{tag}", ["norm", kind, "--shifted", "--format", "csv",
                                                  "--input", grid, "--out", path], [path],
                          check=table_check(grid, kind)))
    return ops


# ---------------------------------------------------------------------------
# band-energy


def _probe_inputs(workdir: str) -> dict[str, str]:
    """Tiny fixed inputs for the input-contract probes; no seed involved."""
    paths = {k: _path(workdir, f"probe_{k}") for k in
             ("tiny.grid", "bad_value.grid", "tiny.json", "bad_param.json", "missing.grid", "gen")}
    values = [float(i % 5) for i in range(16)]
    with open(paths["tiny.grid"], "w") as fh:
        fh.write("1 16\n" + "".join(f"{v!r}\n" for v in values))
    with open(paths["bad_value.grid"], "w") as fh:
        fh.write("1 16\n" + "".join(f"{v!r}\n" if i != 7 else "abc\n" for i, v in enumerate(values)))
    _write_json(paths["tiny.json"], [{"kind": "harmonic", "params": {"xi0": 1}, "N": 16, "n": 1}])
    _write_json(paths["bad_param.json"], [{"kind": "harmonic", "params": {"xi0": "x"}, "N": 16, "n": 1}])
    return paths


def _probes(p: dict[str, str]) -> list[Op]:
    argvs = {
        "probe_qalpha_alpha_nan": ["norm", "qalpha", "--alpha", "nan", "--input", p["tiny.grid"]],
        "probe_lpmorrey_alpha_inf": ["norm", "lpmorrey", "--alpha", "inf", "--input", p["tiny.grid"]],
        "probe_equivalence_alpha_inf": ["verify", "equivalence", "--alpha", "inf", "--corpus",
                                        p["tiny.json"], "--sizes", "16"],
        "probe_decay_m_nan": ["verify", "decay", "--m", "nan", "--pairs", "10"],
        "probe_lemma23_m_inf": ["verify", "lemma23", "--m", "inf", "--corpus", p["tiny.json"],
                                "--sizes", "64"],
        "probe_grid_value_abc": ["norm", "campanato", "--input", p["bad_value.grid"]],
        "probe_missing_input": ["norm", "campanato", "--input", p["missing.grid"]],
        "probe_corpus_xi0_x": ["gen", "--corpus", p["bad_param.json"], "--size", "16",
                               "--out", p["gen"]],
        "probe_workers_0": ["verify", "equivalence", "--workers", "0", "--corpus", p["tiny.json"],
                            "--sizes", "16"],
    }
    return [Op(name, argv, probe=True) for name, argv in argvs.items()]


def build_band_energy(workdir: str, seed: int) -> list[Op]:
    rng = _rng(seed, 2)
    rec2, rec1 = _noise_record(rng, 2), _noise_record(rng, 1)
    c2, c1 = _path(workdir, "band_n2.json"), _path(workdir, "band_n1.json")
    _write_json(c2, [rec2])
    _write_json(c1, [rec1])
    grids = _path(workdir, "grids")
    os.makedirs(grids, exist_ok=True)
    g2 = os.path.join(grids, _noise_ident(rec2, 512) + ".grid")
    g1 = os.path.join(grids, _noise_ident(rec1, 65536) + ".grid")
    out = lambda name: _path(workdir, name)  # noqa: E731
    roundtrip = _path(workdir, "roundtrip.grid")
    roundtrip_values = _trig_grid(rng, 2, 64) * 10.0 ** rng.integers(-300, 300, size=(64, 64))

    def check_gen(grid):
        def check(op, res):
            errs = []
            f = read_grid(grid)
            if not np.array_equal(f.values, oracle.read_grid_text(grid)):
                errs.append("read_grid disagrees with an independent parse of the file")
            write_grid(f, roundtrip)
            with open(grid, "rb") as a, open(roundtrip, "rb") as b:
                if a.read() != b.read():
                    errs.append("rewriting a grid that was read back changes its bytes")
            write_grid(GridFunction(roundtrip_values), roundtrip)
            back = read_grid(roundtrip).values
            if back.tobytes() != roundtrip_values.tobytes():
                errs.append("write_grid/read_grid round trip is not bit for bit")
            return errs
        return check

    def check_mb(op, res):
        values = oracle.read_grid_text(g2)
        L = values.shape[0].bit_length() - 1
        _, band_arrays = oracle.bands(values)
        sups = oracle.morrey_besov_band_sups(band_arrays, ALPHA, L - 3)
        data = _json(op)
        errs = []
        if [r["j"] for r in data["rows"]] != sorted(sups):
            errs.append("band rows do not cover j = 0..L+1")
        for r in data["rows"]:
            if not _close(r["sup"], sups[r["j"]], BAND_RTOL):
                errs.append(f"band {r['j']} sup {r['sup']!r} != oracle {sups[r['j']]!r}")
        lp_aligned = max(v for c, e, v in _table(out("lpmorrey_n2.csv"))
                         if all((a / e).is_integer() for a in c))
        if not data["value"] >= lp_aligned:
            errs.append(f"mb {data['value']!r} < lpmorrey {lp_aligned!r} on the same cubes")
        return errs

    def check_decompose(grid):
        def check(op, res):
            errs = []
            values = oracle.read_grid_text(grid)
            scale = float(np.abs(values).max())
            low, band_arrays = oracle.bands(values)
            dec = decompose(read_grid(grid), j_min=0)
            recon = dec.reconstruction()
            if float(np.abs(recon - values).max()) > 1e-12 * scale:
                errs.append("lowpass + bands does not reconstruct f to 1e-12")
            if float(res.stdout.split("residual ")[1].split()[0]) >= 1e-12:
                errs.append("printed reconstruction residual >= 1e-12")
            for j, b in band_arrays.items():
                if float(np.abs(dec.band(j).values - b).max()) > 1e-12 * scale:
                    errs.append(f"band {j} differs from the oracle filter bank")
            total = oracle.energy(values)
            with open(op.outputs[0]) as fh:
                rows = [line.strip().split(",") for line in fh][1:]
            expect = {"lowpass": oracle.energy(low)}
            expect |= {str(j): oracle.energy(b) for j, b in band_arrays.items()}
            if [r[0] for r in rows] != list(expect):
                errs.append("band energy rows do not cover lowpass, j = 0..L+1")
            for key, value in rows:
                if not _close(float(value), expect.get(key, math.nan), BAND_RTOL, 1e-14 * total):
                    errs.append(f"band {key} energy {value} != oracle {expect.get(key)!r}")
            return errs
        return check

    def check_fubini(op, res):
        worst = float(res.stdout.split("discrepancy ")[1])
        return [] if worst < 1e-12 else [f"fubini discrepancy {worst:.3e} >= 1e-12"]

    def table_check(grid, kind, shifted):
        return lambda op, res: _check_table(op, res, grid, kind, shifted, seed)

    ops = [
        Op("gen_n2_N512", ["gen", "--n", "2", "--size", "512", "--corpus", c2, "--out", grids],
           [g2], check=check_gen(g2)),
        Op("campanato_n2", ["norm", "campanato", "--format", "csv", "--input", g2,
                            "--out", out("campanato_n2.csv")], [out("campanato_n2.csv")],
           check=table_check(g2, "campanato", False)),
        Op("lpmorrey_n2", ["norm", "lpmorrey", "--shifted", "--format", "csv", "--input", g2,
                           "--out", out("lpmorrey_n2.csv")], [out("lpmorrey_n2.csv")],
           check=table_check(g2, "lpmorrey", True)),
        Op("mb_n2", ["norm", "mb", "--input", g2, "--out", out("mb_n2.json")], [out("mb_n2.json")],
           check=check_mb),
        Op("decompose_n2", ["decompose", "--input", g2, "--out", out("bands_n2.csv")],
           [out("bands_n2.csv")], check=check_decompose(g2)),
        Op("fubini_n2_N256", ["verify", "fubini", "--n", "2", "--corpus", c2, "--sizes", "256"],
           check=check_fubini),
        Op("gen_n1_N65536", ["gen", "--n", "1", "--size", "65536", "--corpus", c1, "--out", grids],
           [g1], check=check_gen(g1)),
        Op("campanato_n1", ["norm", "campanato", "--format", "csv", "--input", g1,
                            "--out", out("campanato_n1.csv")], [out("campanato_n1.csv")],
           check=table_check(g1, "campanato", False)),
        Op("decompose_n1", ["decompose", "--input", g1, "--out", out("bands_n1.csv")],
           [out("bands_n1.csv")], check=check_decompose(g1)),
    ]
    return ops + _probes(_probe_inputs(workdir))


# ---------------------------------------------------------------------------
# kernel-decay


def _decay_rows(op: Op) -> list[dict]:
    if op.outputs[0].endswith(".json"):
        return _json(op)["rows"]
    with open(op.outputs[0]) as fh:
        header = next(fh).strip().split(",")
        rows = []
        for line in fh:
            rec = dict(zip(header, line.strip().split(",")))
            rows.append({
                "x": [float(v) for v in rec["x"].split(";")],
                "y": [float(v) for v in rec["y"].split(";")],
                "k_full": float(rec["k_full"]),
                "k_allowed": float(rec["k_allowed"]),
            })
    return rows


def build_kernel_decay(workdir: str, seed: int) -> list[Op]:
    rng = _rng(seed, 3)
    seeds = [str(int(s)) for s in rng.integers(1, 10**6, size=3)]
    out = lambda name: _path(workdir, name)  # noqa: E731

    def check_decay(n, m, reported_slope):
        def check(op, res):
            rows = _decay_rows(op)
            errs = [] if len(rows) == 2000 else [f"{len(rows)} pairs, expected 2000"]
            sample = {id(r) for r in _sample(rows, TREE_SAMPLE, seed)}
            root = Cube((0.0,) * n, 1.0)
            for r in rows:
                pair = f"pair {r['x']},{r['y']}"
                boxes = oracle.tree_boxes(r["x"], r["y"], m)
                counts = oracle.tree_level_counts(boxes)
                k_full = oracle.kernel_from_counts(counts, ALPHA, n)
                k_allowed = oracle.kernel_from_counts(oracle.minimal_level_counts(boxes), ALPHA, n)
                if not _close(r["k_full"], k_full, 1e-12):
                    errs.append(f"{pair}: k_full {r['k_full']!r} != {k_full!r}")
                if not _close(r["k_allowed"], k_allowed, 1e-12):
                    errs.append(f"{pair}: k_allowed {r['k_allowed']!r} != {k_allowed!r}")
                if not r["k_full"] >= r["k_allowed"] > 0:
                    errs.append(f"{pair}: not k_full >= k_allowed > 0")
                if id(r) in sample:
                    levels = Counter(J.level for J in gamma_set(root, r["x"], r["y"], m).members)
                    if [levels[k] for k in range(max(levels) + 1)] != counts:
                        errs.append(f"{pair}: tree set per level {dict(levels)} != {counts}")
                if errs:
                    return errs
            d = np.array([math.dist(r["x"], r["y"]) for r in rows])
            k = np.array([r["k_full"] for r in rows])
            own_slope = float(np.polyfit(np.log(d), np.log(k), 1)[0])
            slope, atol = reported_slope(op, res)
            if abs(slope - own_slope) > atol + 1e-9 * abs(own_slope):
                errs.append(f"reported slope {slope} != refitted {own_slope}")
            expected = -(2 * ALPHA + n)
            if abs(own_slope - expected) > SLOPE_BAND:
                errs.append(f"slope {own_slope} outside {expected} +- {SLOPE_BAND}")
            return errs
        return check

    def decay_op(n, m, s):
        path = out(f"decay_n{n}_m{m:g}.json")
        argv = ["verify", "decay", "--n", str(n), "--m", str(m), "--pairs", "2000", "--seed", s,
                "--out", path]
        slope = lambda op, res: (_json(op)["slope"], 0.0)  # noqa: E731
        return Op(f"decay_n{n}_m{m:g}", argv, [path], check=check_decay(n, m, slope))

    kernel_path = out("kernel_n1.csv")
    # `kernel` prints its slope with four decimals and does not write it to the CSV
    printed = lambda op, res: (float(res.stdout.split("slope ")[1].split()[0]), 5e-5)  # noqa: E731
    ops = [
        decay_op(2, 2.0, seeds[0]),
        decay_op(2, 3.0, seeds[1]),
        Op("kernel_n1_m2", ["kernel", "--n", "1", "--m", "2", "--pairs", "2000", "--seed", seeds[2],
                            "--out", kernel_path], [kernel_path], check=check_decay(1, 2.0, printed)),
    ]
    return ops


BUILDERS = {
    "increment": build_increment,
    "band-energy": build_band_energy,
    "kernel-decay": build_kernel_decay,
}
