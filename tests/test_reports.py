"""The report files' schema, as the commands write them: the keys of every JSON
report, down to its rows and cubes, and the header of every CSV table."""

import json

import numpy as np
import pytest

from qalpha import GridFunction, write_grid
from qalpha.cli import main

CUBE = {"corner": [None], "edge": None}
EQUIVALENCE_ROW = {"N": None, "excluded": None, "lp_morrey": None, "q_alpha": None,
                   "ratio": None, "spec_id": None}

JSON_REPORTS = {
    "q_alpha": (
        ["norm", "qalpha", "--input", "{grid}"],
        {"alpha": None, "argmax_cube": CUBE, "flags": [], "kind": None,
         "table": [{"cube": CUBE, "value": None}], "value": None},
    ),
    "mb": (
        # the top bands of cos(2 pi 4 x) are exactly 0: no attaining cube
        ["norm", "mb", "--input", "{grid}"],
        {"alpha": None, "kind": None, "sigma": None, "value": None,
         "rows": [{"argmax_cube": CUBE, "j": None, "sup": None},
                  {"argmax_cube": None, "j": None, "sup": None}]},
    ),
    "equivalence": (
        ["verify", "equivalence", "--corpus", "{corpus}", "--sizes", "16", "32"],
        {"alpha": None, "c_high": None, "c_low": None, "sizes": [None], "spread": None,
         "drift_flags": {"harmonic_xi0=3": None},
         "per_doubling_ratio_change": {"harmonic_xi0=3": [None]},
         "rows": [EQUIVALENCE_ROW]},
    ),
    "decay": (
        ["verify", "decay", "--pairs", "10"],
        {"alpha": None, "expected_slope": None, "m": None, "max_kind1_over_mn": None,
         "max_kind2": None, "n": None, "seed": None, "slope": None,
         "rows": [{"count_kind1_max": None, "count_kind2_max": None, "dist": None,
                   "k_allowed": None, "k_full": None, "k_full_scaled": None,
                   "x": [None], "y": [None]}]},
    ),
    "embedding": (
        ["verify", "embedding", "--corpus", "{corpus}", "--sizes", "32"],
        {"alpha": None, "max_ratio": None, "violations": [],
         "rows": [{"mb": None, "q_alpha": None, "ratio": None, "spec_id": None}]},
    ),
}

CSV_REPORTS = {
    "norm_table": (["norm", "qalpha", "--input", "{grid}", "--format", "csv"],
                   "corner,edge,value"),
    "equivalence": (["verify", "equivalence", "--corpus", "{corpus}", "--sizes", "16", "32",
                     "--format", "csv"], "spec_id,N,q_alpha,lp_morrey,ratio,excluded"),
    "kernel": (["kernel", "--pairs", "10"],
               "x,y,dist,k_full,k_allowed,k_full_scaled,count_kind1_max,count_kind2_max"),
}


def shape(value):
    """A JSON value with every scalar replaced by None and every list by the
    distinct shapes of its items, in order of first appearance."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    if isinstance(value, list):
        out = []
        for item in map(shape, value):
            if item not in out:
                out.append(item)
        return out
    return None


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture
def inputs(tmp_path):
    grid, corpus = tmp_path / "f.grid", tmp_path / "corpus.json"
    write_grid(GridFunction(np.cos(2 * np.pi * 4 * np.arange(64) / 64)), grid)
    corpus.write_text(json.dumps([
        {"kind": "constant", "params": {"value": 1.0}, "N": 16, "n": 1},
        {"kind": "harmonic", "params": {"xi0": 3}, "N": 16, "n": 1},
    ]))
    return {"grid": str(grid), "corpus": str(corpus)}


def write_report(argv, inputs, path, capsys):
    assert main([a.format(**inputs) for a in argv] + ["--out", str(path)]) == 0
    capsys.readouterr()
    return path.read_text()


@pytest.mark.parametrize("kind", [*JSON_REPORTS, *(f"{k}_csv" for k in CSV_REPORTS)])
def test_report_schema(kind, inputs, tmp_path, capsys):
    if kind in JSON_REPORTS:
        argv, keys = JSON_REPORTS[kind]
        text = write_report(argv, inputs, tmp_path / "r.json", capsys)
        assert shape(json.loads(text, parse_constant=reject)) == keys
        return
    argv, header = CSV_REPORTS[kind.removesuffix("_csv")]
    lines = write_report(argv, inputs, tmp_path / "r.csv", capsys).splitlines()
    assert lines[0] == header
    assert len(lines) > 1
    assert {line.count(",") for line in lines} == {header.count(",")}


def test_equivalence_report_without_a_ratio_is_json(tmp_path, capsys):
    """When every row is excluded the spread is undefined: the report writes
    null, where `Infinity` would not parse as JSON, and stdout stays one line."""
    corpus, path = tmp_path / "constant.json", tmp_path / "eq.json"
    corpus.write_text(json.dumps([{"kind": "constant", "params": {"value": 1.0}, "N": 16,
                                   "n": 1}]))
    argv = ["verify", "equivalence", "--corpus", str(corpus), "--sizes", "16", "32"]
    report = json.loads(write_report(argv, {}, path, capsys), parse_constant=reject)
    assert (report["c_low"], report["c_high"], report["spread"]) == (0.0, 0.0, None)
    assert all(row["excluded"] for row in report["rows"])
    assert main(argv) == 0
    assert capsys.readouterr().out == "equivalence alpha=0.5: c_low=0 c_high=0 spread=inf\n"
