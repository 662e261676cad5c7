import json
import subprocess
import sys

import numpy as np
import pytest

from qalpha import GridFunction, write_grid
from qalpha.cli import main


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
    code, out, err = run(["kernel", "--size", "12"], capsys)
    assert code == 2
    assert "power of two" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "decay", "--m", "nan", "--pairs", "10"],
        ["verify", "lemma23", "--m", "inf", "--sizes", "64"],
        ["kernel", "--m", "inf", "--pairs", "10"],
    ],
)
def test_non_finite_m_exits_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: dilation factor must be finite")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_norm_qalpha_constant_zero(tmp_path, capsys):
    grid = tmp_path / "constant.grid"
    write_constant_grid(grid)
    code, out, _ = run(
        ["norm", "qalpha", "--alpha", "0.5", "--n", "1", "--size", "8", "--input", str(grid)],
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
