import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalpha import GridFunction, write_grid
from qalpha.cli import NORM_KINDS, VERIFY_CHECKS, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_constant_grid(path, N=8, n=1, value=1.0):
    write_grid(GridFunction(np.full((N,) * n, value)), path)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("gen", "norm", "decompose", "kernel", "verify"):
        assert main([sub, "--help"]) == 0


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
    "bump_width_huge": (["gen", "--corpus", "{big_bump}", "--size", "16", "--out", "{out}"],
                        "bump width must lie in (0, 1]"),
}


def write_big_grid(path):
    """1-D N=8 grid of alternating values +-k * 1e200: finite, but their squares are not."""
    write_grid(GridFunction(np.array([(-1) ** k * k * 1e200 for k in range(1, 9)])), path)


BIG_BUMP = {"kind": "gaussian_bump", "params": {"width": 1e200}, "N": 16, "n": 1}


@pytest.mark.parametrize("argv,message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_two(argv, message, tmp_path, capsys):
    names = ("grid", "bad_grid", "big_grid", "limit_grid", "corpus", "bad_corpus", "big_bump",
             "missing", "out")
    paths = {k: str(tmp_path / k) for k in names}
    write_constant_grid(paths["grid"], N=16)
    write_big_grid(paths["big_grid"])
    write_constant_grid(paths["limit_grid"], value=1.7e308)
    (tmp_path / "big_bump").write_text(json.dumps([BIG_BUMP]))
    lines = (tmp_path / "grid").read_text().splitlines()
    lines[5] = "abc"
    (tmp_path / "bad_grid").write_text("\n".join(lines) + "\n")
    record = {"kind": "harmonic", "params": {"xi0": 1}, "N": 16, "n": 1}
    (tmp_path / "corpus").write_text(json.dumps([record]))
    (tmp_path / "bad_corpus").write_text(json.dumps([{**record, "params": {"xi0": "x"}}]))
    code, out, err = run([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


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


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QALPHA_OUT_DIR", str(tmp_path))
    code, out, _ = run(["kernel", "--pairs", "10", "--seed", "2"], capsys)
    assert code == 0
    assert (tmp_path / "kernel.csv").exists()


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
CORPUS_FILES = ("corpus", "missing", "dir", "bad_bytes", "bad_json", "not_list", "no_kind",
                "bad_kind", "bad_N", "bad_params", "bad_n", "bad_seed", "bad_param_value",
                "big_bump")


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
        "not_list": json.dumps({"kind": "constant"}),
    }
    record = {"kind": "harmonic", "params": {"xi0": 3}, "N": 16, "n": 1}
    for name, change in {"corpus": {}, "bad_kind": {"kind": "sawtooth"}, "bad_N": {"N": "x"},
                         "bad_params": {"params": [3]}, "bad_n": {"n": 3},
                         "bad_seed": {"seed": -1}, "bad_param_value": {"params": {"xi0": "x"}},
                         "no_kind": {"kind": None}}.items():
        texts[name] = json.dumps([{k: v for k, v in {**record, **change}.items() if v is not None}])
    texts["big_bump"] = json.dumps([BIG_BUMP])
    for name, text in texts.items():
        paths[name].write_text(text)
    paths["bad_bytes"].write_bytes(b"\xff\xfe 1 8\n")
    return {k: str(v) for k, v in paths.items()}


@st.composite
def command_lines(draw):
    """argparse-valid argvs with file names as {placeholders}."""
    def opt(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    out = "--out={out}/" + draw(st.sampled_from(["r.json", "r.csv", "k.csv", "bands.csv"]))
    corpus = opt("--corpus", st.sampled_from(CORPUS_FILES).map(lambda k: "{" + k + "}"))
    grid = "--input={" + draw(st.sampled_from(GRID_FILES)) + "}"
    alpha, m, n = opt("--alpha", NUMBERS), opt("--m", NUMBERS), opt("--n", st.sampled_from("12"))
    K, jmin = opt("--K", INTEGERS), opt("--jmin", INTEGERS)
    pairs, seed = opt("--pairs", st.integers(-1, 20)), opt("--seed", INTEGERS)
    sizes = ["--sizes", *draw(st.sampled_from([["16"], ["32"], ["16", "32"], ["12"], ["8"]]))]
    return draw(st.sampled_from([
        ["norm", draw(st.sampled_from(NORM_KINDS)), grid, *alpha, *K, *jmin,
         *opt("--lam", NUMBERS), *opt("--level-max", INTEGERS), *opt("--format", st.just("csv")),
         *(["--shifted"] if draw(st.booleans()) else []), out],
        ["decompose", grid, *jmin, *opt("--family", st.just("cosine")), out],
        ["kernel", *alpha, *m, *n, *pairs, *seed, out],
        ["verify", draw(st.sampled_from(VERIFY_CHECKS)), *alpha, *m, *n, *K, *pairs, *seed,
         *sizes, *corpus, out],
        ["gen", *n, "--size", draw(st.sampled_from(["8", "12", "16"])), *corpus, "--out={out}"],
    ]))


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
