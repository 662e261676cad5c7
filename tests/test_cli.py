import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalpha import ConfigError, GridFunction, filterbank, write_grid
from qalpha.cli import _FLAGS, _TABLE, build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_constant_grid(path, N=8, n=1, value=1.0):
    write_grid(GridFunction(np.full((N,) * n, value)), path)


def _leaves():
    """(argv prefix, flags it reads) for each command, `norm` kind and `verify` check."""
    for name, (_, _, row) in _TABLE.items():
        if isinstance(row, str):
            yield [name], row.split()
        else:
            yield from (([name, leaf], flags.split()) for leaf, (_, flags, *_) in row.items())


LEAVES = list(_leaves())


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("gen", "norm", "decompose", "kernel", "verify"):
        assert main([sub, "--help"]) == 0
    for path, _ in LEAVES:
        assert main([*path, "--help"]) == 0


def test_each_leaf_accepts_exactly_the_flags_it_reads():
    def subcommands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    pairs = 0
    for path, flags in LEAVES:
        parser = build_parser()
        for name in path:
            parser = subcommands(parser)[name]
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == set(flags), path
        pairs += len(flags) if len(path) == 2 else 0
    assert pairs == 57  # (kind, flag) pairs of `norm` and `verify`
    assert {*FLAG_VALUES, "--shifted"} == set(_FLAGS)  # the generated argvs cover every flag


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("qalpha ")]
    assert len(lines) >= len(LEAVES)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])  # raises ConfigError on a usage error


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_size_exits_two(capsys):
    code, out, err = run(["gen", "--size", "12"], capsys)
    assert code == 2
    assert "power of two" in err


BAD_INPUTS = {
    "decay_m_nan": (["verify", "decay", "--m", "nan", "--pairs", "10"],
                    "dilation factor must be finite"),
    "lemma23_m_inf": (["verify", "lemma23", "--m", "inf", "--sizes", "64"],
                      "dilation factor must be finite"),
    "kernel_m_inf": (["kernel", "--m", "inf", "--pairs", "10"], "dilation factor must be finite"),
    "qalpha_alpha_nan": (["norm", "qalpha", "--alpha", "nan", "--input", "{grid}"],
                         "alpha must be"),
    "lpmorrey_alpha_inf": (["norm", "lpmorrey", "--alpha", "inf", "--input", "{grid}"],
                           "alpha must be"),
    "equivalence_alpha_inf": (["verify", "equivalence", "--alpha", "inf", "--corpus", "{corpus}",
                               "--sizes", "16"], "alpha must be"),
    # with --lam left out, lambda = n - 2*alpha = -0.5 on a 1-D grid
    "campanato_default_lambda": (["norm", "campanato", "--alpha", "0.75", "--input", "{grid}"],
                                 "default lambda = n - 2*alpha = -0.5 from --alpha 0.75"),
    "grid_value_abc": (["norm", "campanato", "--input", "{bad_grid}"], "malformed grid value"),
    "missing_input": (["norm", "campanato", "--input", "{missing}"], "cannot read grid file"),
    "corpus_xi0_x": (["gen", "--corpus", "{bad_corpus}", "--size", "16", "--out", "{out}"],
                     "parameter 'xi0' must be a finite number"),
    "workers_0": (["verify", "equivalence", "--workers", "0", "--corpus", "{corpus}",
                   "--sizes", "16"], "worker count must be at least 1"),
    "qalpha_alpha_huge": (["norm", "qalpha", "--alpha", "1e308", "--input", "{grid}"], "overflow"),
    "lpmorrey_alpha_huge": (["norm", "lpmorrey", "--alpha", "1e308", "--input", "{grid}"],
                            "overflow"),
    "mb_alpha_huge": (["norm", "mb", "--alpha", "1e308", "--input", "{grid}"], "overflow"),
    "equivalence_alpha_huge": (["verify", "equivalence", "--alpha", "1e308", "--corpus",
                                "{corpus}", "--sizes", "16"], "overflow"),
    "decay_alpha_nan": (["verify", "decay", "--alpha", "nan", "--pairs", "10"],
                        "alpha must be finite, got nan"),
    "kernel_alpha_inf": (["kernel", "--alpha", "inf", "--pairs", "10"],
                         "alpha must be finite, got inf"),
    "decay_alpha_huge": (["verify", "decay", "--alpha", "1e308", "--pairs", "10"], "overflow"),
    "qalpha_values_huge": (["norm", "qalpha", "--input", "{big_grid}"], "overflow the squared"),
    "lpmorrey_values_huge": (["norm", "lpmorrey", "--input", "{big_grid}"], "overflow the squared"),
    "campanato_values_huge": (["norm", "campanato", "--input", "{big_grid}"],
                              "overflow the squared"),
    "mb_values_huge": (["norm", "mb", "--input", "{big_grid}"], "overflow the squared"),
    "mb_values_at_float_limit": (["norm", "mb", "--input", "{limit_grid}"],
                                 "overflow the squared"),
    "decompose_values_huge": (["decompose", "--input", "{big_grid}", "--out", "{out}"],
                              "overflow the squared"),
    # a finite corpus value whose square overflows: rejected before any FFT, with no warning
    "fubini_values_huge": (["verify", "fubini", "--corpus", "{huge_corpus}"],
                           "overflow the squared sums"),
    "embedding_values_huge": (["verify", "embedding", "--corpus", "{huge_corpus}"],
                              "overflow the squared sums"),
    "bump_width_huge": (["gen", "--corpus", "{big_bump}", "--size", "16", "--out", "{out}"],
                        "bump width must lie in (0, 1]"),
    "empty_list": (["verify", "fubini", "--corpus", "{empty_list}", "--sizes", "16"],
                   "corpus file has no records"),
    "mb_format_csv": (["norm", "mb", "--input", "{grid}", "--format", "csv", "--out", "{out}"],
                      "unrecognized arguments: --format csv"),
    "dyadiclp_format_csv": (["norm", "dyadiclp", "--input", "{grid}", "--format", "csv",
                             "--out", "{out}"], "unrecognized arguments: --format csv"),
    "decay_format_csv": (["verify", "decay", "--pairs", "10", "--format", "csv", "--out", "{out}"],
                         "unrecognized arguments: --format csv"),
    "embedding_format_csv": (["verify", "embedding", "--corpus", "{corpus}", "--sizes", "16",
                              "--format", "csv", "--out", "{out}"],
                             "unrecognized arguments: --format csv"),
    "size_abc": (["gen", "--size", "abc"], "argument --size: invalid int value: 'abc'"),
    "qalpha_no_input": (["norm", "qalpha"], "the following arguments are required: --input"),
    "unknown_norm_kind": (["norm", "sobolev", "--input", "{grid}"], "invalid choice: 'sobolev'"),
    "lemma23_out": (["verify", "lemma23", "--sizes", "16", "--out", "{out}"],
                    "unrecognized arguments: --out"),
    "fubini_out": (["verify", "fubini", "--sizes", "16", "--out", "{out}"],
                   "unrecognized arguments: --out"),
    "embedding_two_sizes": (["verify", "embedding", "--sizes", "16", "32"],
                            "unrecognized arguments: 32"),
    "qalpha_csv_no_out": (["norm", "qalpha", "--input", "{grid}", "--format", "csv"],
                          "--format csv writes a table and needs --out"),
    "campanato_csv_no_out": (["norm", "campanato", "--input", "{grid}", "--format", "csv"],
                             "--format csv writes a table and needs --out"),
    "lpmorrey_csv_no_out": (["norm", "lpmorrey", "--input", "{grid}", "--format", "csv"],
                            "--format csv writes a table and needs --out"),
    "equivalence_csv_no_out": (["verify", "equivalence", "--corpus", "{corpus}", "--sizes", "16",
                                "--format", "csv"], "--format csv writes a table and needs --out"),
    "dyadiclp_K_negative": (["norm", "dyadiclp", "--input", "{grid}", "--K", "-1"],
                            "K must be >= 0, got -1"),
    # an output path that cannot be written names the path; {missing} is no directory
    "norm_json_unwritable": (["norm", "qalpha", "--input", "{grid}", "--out", "{missing}/x.json"],
                             "cannot write {missing}/x.json"),
    "norm_csv_unwritable": (["norm", "campanato", "--input", "{grid}", "--format", "csv",
                             "--out", "{missing}/x.csv"], "cannot write {missing}/x.csv"),
    "mb_unwritable": (["norm", "mb", "--input", "{grid}", "--out", "{missing}/x.json"],
                      "cannot write {missing}/x.json"),
    "dyadiclp_unwritable": (["norm", "dyadiclp", "--input", "{grid}", "--K", "1",
                             "--out", "{missing}/x.txt"], "cannot write {missing}/x.txt"),
    "decompose_unwritable": (["decompose", "--input", "{grid}", "--out", "{missing}/b.csv"],
                             "cannot write {missing}/b.csv"),
    "kernel_unwritable": (["kernel", "--pairs", "10", "--out", "{missing}/k.csv"],
                          "cannot write {missing}/k.csv"),
    "decay_unwritable": (["verify", "decay", "--pairs", "10", "--out", "{missing}/d.json"],
                         "cannot write {missing}/d.json"),
    "equivalence_unwritable": (["verify", "equivalence", "--corpus", "{corpus}", "--sizes", "16",
                                "--format", "csv", "--out", "{missing}/e.csv"],
                               "cannot write {missing}/e.csv"),
    "embedding_unwritable": (["verify", "embedding", "--corpus", "{corpus}", "--sizes", "16",
                              "--out", "{missing}/e.json"], "cannot write {missing}/e.json"),
    "gen_onto_file": (["gen", "--size", "16", "--out", "{grid}"], "cannot write {grid}: "),
    # integer fields of a corpus record are whole numbers, not truncated to one
    "corpus_n_fractional": (["gen", "--corpus", "{frac_n}", "--size", "16", "--out", "{out}"],
                            "n must be an integer, got 1.7"),
    "corpus_seed_fractional": (["gen", "--corpus", "{frac_seed}", "--size", "16",
                                "--out", "{out}"], "seed must be an integer, got 2.9"),
    "corpus_n_true": (["gen", "--corpus", "{bool_n}", "--size", "16", "--out", "{out}"],
                      "n must be an integer, got True"),
    "corpus_N_string": (["verify", "fubini", "--corpus", "{str_N}", "--sizes", "16"],
                        "N must be an integer, got '16'"),
    "corpus_xi0_fractional": (["gen", "--corpus", "{frac_xi0}", "--size", "16", "--out", "{out}"],
                              "harmonic frequency must be an integer, got 3.7"),
}

# corpus records, by file name, whose integer fields are not whole numbers
NOT_INTEGER = {"frac_n": {"n": 1.7, "seed": 2.9}, "frac_seed": {"seed": 2.9},
               "bool_n": {"n": True}, "str_N": {"N": "16"}, "frac_xi0": {"params": {"xi0": 3.7}}}


def write_big_grid(path):
    """1-D N=8 grid of alternating values +-k * 1e200: finite, but their squares are not."""
    write_grid(GridFunction(np.array([(-1) ** k * k * 1e200 for k in range(1, 9)])), path)


BIG_BUMP = {"kind": "gaussian_bump", "params": {"width": 1e200}, "N": 16, "n": 1}
HUGE_CONSTANT = {"kind": "constant", "params": {"value": 1e308}, "N": 64, "n": 1}
CORPUS2 = {"kind": "spectral_noise", "params": {"slope": 0.8}, "N": 16, "n": 2, "seed": 3}


@pytest.mark.parametrize("argv,message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_two(argv, message, tmp_path, capsys):
    names = ("grid", "bad_grid", "big_grid", "limit_grid", "corpus", "bad_corpus", "big_bump",
             "huge_corpus", "empty_list", "missing", "out", *NOT_INTEGER)
    paths = {k: str(tmp_path / k) for k in names}
    write_constant_grid(paths["grid"], N=16)
    write_big_grid(paths["big_grid"])
    write_constant_grid(paths["limit_grid"], value=1.7e308)
    (tmp_path / "big_bump").write_text(json.dumps([BIG_BUMP]))
    (tmp_path / "huge_corpus").write_text(json.dumps([HUGE_CONSTANT]))
    (tmp_path / "empty_list").write_text("[]")
    lines = (tmp_path / "grid").read_text().splitlines()
    lines[5] = "abc"
    (tmp_path / "bad_grid").write_text("\n".join(lines) + "\n")
    record = {"kind": "harmonic", "params": {"xi0": 1}, "N": 16, "n": 1}
    (tmp_path / "corpus").write_text(json.dumps([record]))
    (tmp_path / "bad_corpus").write_text(json.dumps([{**record, "params": {"xi0": "x"}}]))
    for name, change in NOT_INTEGER.items():
        (tmp_path / name).write_text(json.dumps([{**record, **change}]))
    code, out, err = run([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and message.format(**paths) in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


# the bound |f| <= 2^((960 - w) / 2) of the first check that runs, with its weights up to 2^w
VALUE_BOUNDS = {
    "qalpha": (["norm", "qalpha"], "1.951e+143"),  # w = (2a+n)(L+1) = 8 at alpha = 0.5, N = 8
    "campanato_lam1": (["norm", "campanato", "--lam", "1"], "7.804e+143"),  # w = lam(L+1) = 4
    "lpmorrey": (["norm", "lpmorrey"], "3.122e+144"),  # w = 0: `decompose`, before any weight
}


@pytest.mark.parametrize("argv,bound", VALUE_BOUNDS.values(), ids=VALUE_BOUNDS.keys())
def test_values_overflow_states_its_own_bound(argv, bound, tmp_path, capsys):
    write_big_grid(tmp_path / "big")
    code, _, err = run([*argv, "--input", str(tmp_path / "big")], capsys)
    assert code == 2
    assert err == ("error: grid values up to 8e+200 overflow the squared sums at N=8 "
                   f"(|f| <= {bound})\n")


def test_norm_qalpha_constant_zero(tmp_path, capsys):
    grid = tmp_path / "constant.grid"
    write_constant_grid(grid)
    code, out, _ = run(
        ["norm", "qalpha", "--alpha", "0.5", "--input", str(grid)],
        capsys,
    )
    assert code == 0
    assert "value=0.0" in out


def test_norm_report_files(tmp_path, capsys):
    grid = tmp_path / "f.grid"
    rng = np.random.default_rng(0)
    write_grid(GridFunction(rng.standard_normal(32)), grid)
    out_json = tmp_path / "r.json"
    code, _, _ = run(
        ["norm", "campanato", "--lam", "1.0", "--input", str(grid), "--out", str(out_json)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["kind"] == "campanato" and data["value"] > 0
    out_csv = tmp_path / "r.csv"
    code, _, _ = run(
        [
            "norm", "qalpha", "--input", str(grid),
            "--out", str(out_csv), "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    assert out_csv.read_text().startswith("corner,edge,value")


def test_norm_dyadiclp_and_mb(tmp_path, capsys):
    grid = tmp_path / "f.grid"
    write_grid(GridFunction(np.cos(2 * np.pi * 4 * np.arange(64) / 64)), grid)
    code, out, _ = run(
        ["norm", "dyadiclp", "--alpha", "0.5", "--K", "2", "--input", str(grid)], capsys
    )
    assert code == 0 and "value=" in out
    code, out, _ = run(["norm", "mb", "--alpha", "0.5", "--input", str(grid)], capsys)
    assert code == 0 and "value=" in out


def test_gen_then_norm_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(
        json.dumps([{"kind": "harmonic", "params": {"xi0": 3}, "N": 16, "n": 1}])
    )
    out_dir = tmp_path / "grids"
    code, out, _ = run(
        ["gen", "--corpus", str(corpus), "--size", "16", "--out", str(out_dir)], capsys
    )
    assert code == 0
    grids = list(out_dir.glob("*.grid"))
    assert len(grids) == 1
    code, out, _ = run(["norm", "qalpha", "--input", str(grids[0])], capsys)
    assert code == 0


def test_decompose_command(tmp_path, capsys):
    grid = tmp_path / "f.grid"
    write_grid(GridFunction(np.cos(2 * np.pi * 3 * np.arange(32) / 32)), grid)
    out = tmp_path / "bands.csv"
    code, text, _ = run(["decompose", "--input", str(grid), "--out", str(out)], capsys)
    assert code == 0
    assert "reconstruction residual" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "band,l2_energy"
    assert lines[1].startswith("lowpass,")


@pytest.mark.parametrize("argv", [["norm", "lpmorrey"], ["norm", "mb"], ["decompose"]])
def test_odd_multiplier_exits_one(argv, tmp_path, capsys, monkeypatch):
    # the bands are filtered as the command reads them; the evenness check
    # still stops it before it prints or writes anything
    from qalpha import BandProfile, filterbank

    profiles = filterbank._profiles

    def lopsided(*args):
        for i, p in enumerate(profiles(*args)):
            if i == 2:
                values = p.values.copy()
                values[1] += 0.25  # xi = 1 but not -1
                p = BandProfile(p.j, values)
            yield p

    monkeypatch.setattr(filterbank, "_profiles", lopsided)
    grid, out = tmp_path / "f.grid", tmp_path / "out"
    write_grid(GridFunction(np.random.default_rng(4).standard_normal(64)), grid)
    code, text, err = run([*argv, "--input", str(grid), "--out", str(out)], capsys)
    assert code == 1 and text == "" and not out.exists()
    assert err == "invariant violation: band1 multiplier is not even: projection not real\n"


def test_kernel_csv_subset_property(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, text, _ = run(
        [
            "kernel", "--alpha", "0.5", "--m", "2", "--n", "1",
            "--pairs", "100", "--seed", "7", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 101
    for line in lines[1:]:
        cols = line.split(",")
        k_full, k_allowed = float(cols[3]), float(cols[4])
        assert k_full >= k_allowed


def test_kernel_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["kernel", "--pairs", "50", "--seed", "11", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_fubini_exit_zero(tmp_path, capsys):
    code, out, _ = run(
        ["verify", "fubini", "--alpha", "0.5", "--n", "1", "--sizes", "64"], capsys
    )
    assert code == 0
    assert "max relative discrepancy" in out
    printed = float(out.rsplit(" ", 1)[1])
    assert printed < 1e-12


def test_verify_fubini_with_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "default.json"
    corpus.write_text(
        json.dumps(
            [
                {"kind": "constant", "params": {"value": 1.0}, "N": 64, "n": 1},
                {"kind": "spectral_noise", "params": {"slope": 0.8}, "N": 64, "n": 1, "seed": 3},
            ]
        )
    )
    code, out, _ = run(
        ["verify", "fubini", "--alpha", "0.5", "--n", "1", "--sizes", "64",
         "--corpus", str(corpus)],
        capsys,
    )
    assert code == 0


def test_verify_fubini_holds_one_function_at_a_time(capsys):
    build_parser()  # cached, so the peak below is the check's own
    tracemalloc.start()
    try:
        code = main(["verify", "fubini", "--n", "2", "--sizes", "256", "--K", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # one function, its spectrum and its held bands: about 19 grids of 2-D N=256;
    # holding the previous function and its bands while the next is built reads 22
    assert peak <= 20.5 * 256**2 * 8


def test_verify_equivalence_report_out(tmp_path, capsys):
    out = tmp_path / "eq.json"
    code, text, _ = run(
        ["verify", "equivalence", "--alpha", "0.5", "--sizes", "64", "128",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "spread=" in text
    data = json.loads(out.read_text())
    assert data["alpha"] == 0.5
    assert len(data["rows"]) == 12  # 6 default corpus members x 2 sizes


def test_verify_decay_and_embedding(capsys):
    code, out, _ = run(
        ["verify", "decay", "--alpha", "0.5", "--m", "2", "--n", "1",
         "--pairs", "80", "--seed", "7"],
        capsys,
    )
    assert code == 0 and "slope" in out
    code, out, _ = run(
        ["verify", "embedding", "--alpha", "0.5", "--sizes", "64"], capsys
    )
    assert code == 0 and "max ratio" in out


def test_verify_lemma23(capsys):
    code, out, _ = run(
        ["verify", "lemma23", "--alpha", "0.5", "--m", "2", "--K", "2",
         "--sizes", "64"],
        capsys,
    )
    assert code == 0
    assert "ratio=" in out


def test_verify_lemma23_dimension_from_corpus(tmp_path, capsys):
    # the root cube takes its dimension from the corpus grids, whatever --n says
    corpus = tmp_path / "c2.json"
    corpus.write_text(json.dumps([CORPUS2]))
    argv = ["verify", "lemma23", "--corpus", str(corpus), "--sizes", "16", "--K", "1"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert "ratio=" in out
    assert run([*argv, "--n", "2"], capsys) == (0, out, "")


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QALPHA_OUT_DIR", str(tmp_path))
    code, out, _ = run(["kernel", "--pairs", "10", "--seed", "2"], capsys)
    assert code == 0
    assert (tmp_path / "kernel.csv").exists()


def test_decompose_profiles_without_out(tmp_path, capsys, monkeypatch):
    # --format csv writes the profile table next to the default bands.csv
    monkeypatch.setenv("QALPHA_OUT_DIR", str(tmp_path))
    grid = tmp_path / "f.grid"
    write_grid(GridFunction(np.cos(2 * np.pi * 3 * np.arange(32) / 32)), grid)
    code, text, _ = run(["decompose", "--input", str(grid), "--format", "csv"], capsys)
    assert code == 0
    assert (tmp_path / "bands.csv").read_text().startswith("band,l2_energy\n")
    assert (tmp_path / "bands.csv.profiles").read_text().strip()
    assert f"wrote {tmp_path / 'bands.csv.profiles'}" in text


def test_decompose_family_choices():
    assert _FLAGS["--family"]["choices"] == tuple(filterbank._FAMILIES) == ("exp", "cosine")
    argv = ["decompose", "--input", "f.grid", "--family"]
    assert build_parser().parse_args([*argv, "cosine"]).family == "cosine"
    with pytest.raises(ConfigError, match="invalid choice: 'boxcar'"):
        build_parser().parse_args([*argv, "boxcar"])


def test_decompose_family_flag(tmp_path, capsys):
    grid = tmp_path / "f.grid"
    write_grid(GridFunction(np.cos(2 * np.pi * 3 * np.arange(32) / 32)), grid)
    out = tmp_path / "bands.csv"
    code, text, _ = run(
        ["decompose", "--input", str(grid), "--out", str(out), "--family", "cosine"],
        capsys,
    )
    assert code == 0
    assert "reconstruction residual" in text


def test_kernel_byte_identical_across_processes(tmp_path):
    # hash randomization must not leak into outputs (set iteration feeds only
    # order-independent reductions)
    import os

    outs = []
    for i, seed in enumerate(("0", "424242")):
        out = tmp_path / f"p{i}.csv"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "qalpha.cli", "kernel", "--pairs", "40",
             "--seed", "11", "--out", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_invocable():
    proc = subprocess.run(
        [sys.executable, "-m", "qalpha.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "qalpha" in proc.stdout


# -- the exit-code contract over generated command lines ----------------------

NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "1e5", "-1e5", "100", "-3", "-0.2", "0", "0.5",
     "1.5", "2", "3", "16", "17"]
) | st.floats().map(repr)
INTEGERS = st.integers(-3, 12).map(str) | st.sampled_from(["-1000000", "1000000"])
GRID_FILES = ("grid1", "grid2", "grid8", "missing", "dir", "bad_header", "bad_value",
              "bad_count", "bad_bytes", "bad_size", "bad_dim", "empty", "big_values")
CORPUS_FILES = ("corpus", "corpus2", "missing", "dir", "bad_bytes", "bad_json", "not_list",
                "no_kind", "bad_kind", "bad_N", "bad_params", "bad_n", "bad_seed",
                "bad_param_value", "big_bump", "empty_list", *NOT_INTEGER)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Well-formed, malformed and missing inputs, by name; `out` is a directory."""
    root = tmp_path_factory.mktemp("argv")
    paths = {k: root / k for k in {*GRID_FILES, *CORPUS_FILES, "out"}}
    rng = np.random.default_rng(0)
    write_grid(GridFunction(rng.standard_normal(32)), paths["grid1"])
    write_grid(GridFunction(rng.standard_normal((16, 16))), paths["grid2"])
    write_grid(GridFunction(rng.standard_normal(8)), paths["grid8"])
    write_big_grid(paths["big_values"])
    paths["dir"].mkdir()
    paths["out"].mkdir()
    texts = {
        "bad_header": "1 x\n", "bad_value": "1 8\n" + "1.0\n" * 7 + "abc\n",
        "bad_count": "1 8\n1.0\n", "bad_size": "2 -3\n" + "1.0\n" * 9,
        "bad_dim": "3 8\n" + "1.0\n" * 512, "empty": "", "bad_json": "[{",
        "not_list": json.dumps({"kind": "constant"}), "empty_list": "[]",
    }
    record = {"kind": "harmonic", "params": {"xi0": 3}, "N": 16, "n": 1}
    for name, change in {"corpus": {}, "bad_kind": {"kind": "sawtooth"}, "bad_N": {"N": "x"},
                         "bad_params": {"params": [3]}, "bad_n": {"n": 3},
                         "bad_seed": {"seed": -1}, "bad_param_value": {"params": {"xi0": "x"}},
                         "no_kind": {"kind": None}, **NOT_INTEGER}.items():
        texts[name] = json.dumps([{k: v for k, v in {**record, **change}.items() if v is not None}])
    texts["big_bump"] = json.dumps([BIG_BUMP])
    texts["corpus2"] = json.dumps([CORPUS2])
    for name, text in texts.items():
        paths[name].write_text(text)
    paths["bad_bytes"].write_bytes(b"\xff\xfe 1 8\n")
    return {k: str(v) for k, v in paths.items()}


def placeholder(names):
    return st.sampled_from(names).map(lambda k: "{" + k + "}")


FLAG_VALUES = {
    "--alpha": NUMBERS, "--m": NUMBERS, "--lam": NUMBERS, "--n": st.sampled_from("12"),
    "--K": INTEGERS, "--jmin": INTEGERS, "--level-max": INTEGERS, "--seed": INTEGERS,
    "--pairs": st.integers(-1, 20).map(str), "--workers": st.integers(0, 2).map(str),
    "--size": st.sampled_from(["8", "12", "16"]),
    "--sizes": st.sampled_from([["16"], ["32"], ["16", "32"], ["12"], ["8"]]),
    "--format": st.sampled_from(["json", "csv"]), "--family": st.sampled_from(["exp", "cosine"]),
    "--input": placeholder(GRID_FILES), "--corpus": placeholder(CORPUS_FILES),
    "--out": st.sampled_from(["r.json", "r.csv", "k.csv", "bands.csv"]).map(lambda f: "{out}/" + f),
}


@st.composite
def command_lines(draw):
    """argvs of one command, `norm` kind or `verify` check, drawn from the flags it
    reads, with file names as {placeholders}.  `--input` and `--out` are always given."""
    path, flags = draw(st.sampled_from(LEAVES))
    argv = list(path)
    for flag in flags:
        if flag == "--out" and path == ["gen"]:
            argv.append("--out={out}")
        elif flag == "--shifted":
            argv += [flag] if draw(st.booleans()) else []
        elif flag in ("--input", "--out") or draw(st.booleans()):
            value = draw(FLAG_VALUES[flag])
            argv += [flag, *value] if isinstance(value, list) else [f"{flag}={value}"]
    return argv


@given(argv=command_lines())
@settings(max_examples=200, deadline=None)
def test_generated_argv_exits_zero_or_two(argv, argv_files):
    argv = [a.format(**argv_files) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert "Traceback" not in err.getvalue()
