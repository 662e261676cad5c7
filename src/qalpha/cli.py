"""Batch entry point: generate corpora, compute norms, run verifications.

Exit codes: 0 success, 2 configuration error, 1 internal invariant
violation.  Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import verify as verify_mod
from .errors import ConfigError, InvariantViolation
from .filterbank import build_profiles, decompose, profiles_to_csv
from .grid import Cube, _validate_size, enumerate_cubes, read_grid, write_grid
from .norms import _check_values, campanato, dyadic_lp, lp_morrey, morrey_besov, q_alpha

NORM_KINDS = ("qalpha", "campanato", "lpmorrey", "dyadiclp", "mb")
VERIFY_CHECKS = ("equivalence", "fubini", "lemma23", "decay", "embedding")


def _out_dir() -> Path:
    return Path(os.environ.get("QALPHA_OUT_DIR", "."))


def _resolve_out(cfg: argparse.Namespace, default_name: str) -> Path:
    if cfg.out:
        return Path(cfg.out)
    return _out_dir() / default_name


def _load_corpus(cfg: argparse.Namespace, N: int) -> list[corpus_mod.CorpusSpec]:
    if cfg.corpus:
        specs = corpus_mod.load_corpus_file(cfg.corpus)
        return [s.with_size(N) for s in specs]
    return corpus_mod.default_corpus(cfg.n, N)


def _validate(cfg: argparse.Namespace) -> argparse.Namespace:
    """Checks argparse cannot express."""
    if getattr(cfg, "n", 1) not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {cfg.n}")
    for N in getattr(cfg, "sizes", [cfg.size] if "size" in cfg else []):
        _validate_size(N)
    if getattr(cfg, "seed", 0) < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if getattr(cfg, "workers", 1) < 1:
        raise ConfigError(f"worker count must be at least 1, got {cfg.workers}")
    return cfg


def _cmd_gen(cfg: argparse.Namespace) -> int:
    N = cfg.size
    out_dir = Path(cfg.out) if cfg.out else _out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in _load_corpus(cfg, N):
        f = corpus_mod.generate(spec)
        path = out_dir / f"{spec.ident}_n{spec.n}_N{spec.N}.grid"
        write_grid(f, path)
        print(f"wrote {path}")
    return 0


def _cmd_norm(cfg: argparse.Namespace) -> int:
    f = read_grid(cfg.input)
    _check_values(f)  # before `decompose`, whose FFT can overflow on such values
    level_max = cfg.level_max if cfg.level_max is not None else f.L - 3
    cubes = enumerate_cubes(f.L, level_max, n=f.n, shifted=cfg.shifted)
    if cfg.kind == "qalpha":
        report = q_alpha(f, cfg.alpha, cubes)
    elif cfg.kind == "campanato":
        lam = cfg.lam if cfg.lam is not None else f.n - 2 * cfg.alpha
        report = campanato(f, lam, cubes)
    elif cfg.kind == "lpmorrey":
        report = lp_morrey(f, cfg.alpha, cubes, decompose(f, j_min=cfg.jmin))
    elif cfg.kind == "dyadiclp":
        root = Cube((0.0,) * f.n, 1.0)
        value = dyadic_lp(f, cfg.alpha, root, cfg.K, decompose(f, j_min=0))
        print(f"dyadiclp alpha={cfg.alpha} K={cfg.K} value={value!r}")
        if cfg.out:
            Path(cfg.out).write_text(f"{value!r}\n")
        return 0
    else:  # mb
        dec = decompose(f, j_min=0)
        report = morrey_besov(f, cfg.alpha, f.n - 2 * cfg.alpha, 2, 2, cubes, dec)
        print(f"mb alpha={cfg.alpha} value={report.value!r}")
        if cfg.out:
            verify_mod.write_json(report, cfg.out)
        return 0
    print(f"{cfg.kind} value={report.value!r} argmax={report.argmax_cube}")
    if cfg.out:
        if cfg.format == "json":
            verify_mod.write_json(report, cfg.out)
        else:
            verify_mod.write_csv(report.csv_rows(), cfg.out)
    return 0


def _cmd_decompose(cfg: argparse.Namespace) -> int:
    f = read_grid(cfg.input)
    _check_values(f)  # the energies below square the bands
    dec = decompose(f, j_min=cfg.jmin, family=cfg.family)
    residual = float(
        abs(dec.reconstruction() - f.values).max()
        / max(abs(f.values).max(), 1e-300)
    )
    print(f"bands j={dec.j_min}..{dec.j_max}, reconstruction residual {residual:.3e}")
    out = _resolve_out(cfg, "bands.csv")
    with open(out, "w") as fh:
        fh.write("band,l2_energy\n")
        low = f.h**f.n * float((dec.lowpass.values**2).sum())
        fh.write(f"lowpass,{low!r}\n")
        for j in dec.js:
            e = f.h**f.n * float((dec.band(j).values ** 2).sum())
            fh.write(f"{j},{e!r}\n")
    print(f"wrote {out}")
    if cfg.format == "csv" and cfg.out:
        profiles = build_profiles(f.L, cfg.jmin, n=f.n, family=cfg.family)
        ppath = Path(str(out) + ".profiles")
        profiles_to_csv(profiles, ppath)
        print(f"wrote {ppath}")
    return 0


def _cmd_kernel(cfg: argparse.Namespace) -> int:
    record = verify_mod.kernel_decay_check(cfg.alpha, cfg.m, cfg.n, cfg.pairs, cfg.seed)
    out = _resolve_out(cfg, "kernel.csv")
    verify_mod.write_kernel_csv(record, out)
    print(
        f"kernel decay: {cfg.pairs} pairs, slope {record.slope:.4f} "
        f"(expected {-(2 * cfg.alpha + cfg.n):.4f}); wrote {out}"
    )
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    N = cfg.sizes[0]
    if cfg.check == "fubini":
        worst = 0.0
        for spec in _load_corpus(cfg, N):
            f = corpus_mod.generate(spec)
            dec = decompose(f, j_min=0)
            for cube in enumerate_cubes(f.L, min(2, f.L - 3), n=f.n):
                level = round(-math.log2(cube.edge))
                K = min(cfg.K, f.L - level - 3)  # identity holds at any depth
                d = verify_mod.fubini_identity_check(f, cfg.alpha, cube, K, dec)
                worst = max(worst, d)
        print(f"fubini max relative discrepancy {worst:.3e}")
        if worst >= 1e-12:
            raise InvariantViolation(f"rearrangement identity violated: {worst:.3e}")
        return 0
    if cfg.check == "equivalence":
        report = verify_mod.equivalence_report(
            _load_corpus(cfg, N), cfg.alpha, list(cfg.sizes), workers=cfg.workers
        )
        print(
            f"equivalence alpha={cfg.alpha}: c_low={report.c_low:.6g} "
            f"c_high={report.c_high:.6g} spread={report.spread:.6g}"
        )
        if cfg.out:
            if cfg.format == "json":
                verify_mod.write_json(report, cfg.out)
            else:
                verify_mod.write_csv(report.csv_rows(), cfg.out)
        return 0
    if cfg.check == "lemma23":
        root = Cube((0.0,) * cfg.n, 1.0)
        for spec in _load_corpus(cfg, N):
            f = corpus_mod.generate(spec)
            rec = verify_mod.lemma23_check(f, cfg.alpha, cfg.m, root, cfg.K)
            print(f"{spec.ident}: ratio={rec.ratio:.6g}")
        return 0
    if cfg.check == "decay":
        record = verify_mod.kernel_decay_check(cfg.alpha, cfg.m, cfg.n, cfg.pairs, cfg.seed)
        print(
            f"decay slope {record.slope:.4f} expected {-(2 * cfg.alpha + cfg.n):.4f}; "
            f"max ring counts kind1/m^n={record.max_kind1_over_mn:.4g} "
            f"kind2={record.max_kind2}"
        )
        if cfg.out:
            verify_mod.write_json(record, cfg.out)
        return 0
    # embedding
    report = verify_mod.embedding_check(_load_corpus(cfg, N), cfg.alpha)
    print(f"embedding max ratio q/mb = {report.max_ratio:.6g}")
    if report.violations:
        raise InvariantViolation(f"embedding violated for {report.violations}")
    if cfg.out:
        verify_mod.write_json(report, cfg.out)
    return 0


_FLAGS = {
    "--alpha": dict(type=float, default=0.5, help="smoothness exponent alpha"),
    "--n": dict(type=int, default=1, help="dimension (1 or 2)"),
    "--out": dict(help="output file (or directory for gen)"),
    "--format": dict(choices=("json", "csv"), default="json", help="report format"),
    "--corpus": dict(help="corpus JSON file (default: built-in corpus)"),
    "--input": dict(required=True, help="input .grid file; it fixes n and N"),
    "--jmin": dict(type=int, default=0, help="lowest band index"),
    "--K": dict(type=int, default=3, help="refinement truncation depth"),
    "--m": dict(type=float, default=2.0, help="cube dilation factor (2 to 16)"),
    "--seed": dict(type=int, default=7, help="sampler seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qalpha",
        description="Numerical laboratory for increment-kernel and band-energy norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p = command("gen", "generate corpus functions to .grid files", "--n", "--out", "--corpus")
    p.add_argument("--size", type=int, default=64, help="grid size N (power of two)")

    p = command("norm", "compute one norm of a grid file",
                "--alpha", "--out", "--format", "--input", "--K", "--jmin")
    p.add_argument("kind", choices=NORM_KINDS, help="which functional to evaluate")
    p.add_argument("--lam", type=float, help="campanato exponent lambda (default n-2*alpha)")
    p.add_argument("--level-max", type=int, help="deepest cube level (default L-3)")
    p.add_argument("--shifted", action="store_true", help="add the half-shifted cube family")

    p = command("decompose", "band decomposition energies of a grid file",
                "--out", "--format", "--input", "--jmin")
    p.add_argument(
        "--family",
        choices=("exp", "cosine"),
        default="exp",
        help="cutoff profile family (for probing profile independence)",
    )

    p = command("kernel", "sample pair kernels and ring counts to CSV",
                "--alpha", "--n", "--out", "--m", "--seed")
    p.add_argument("--pairs", type=int, default=100, help="number of sampled pairs")

    p = command("verify", "run a verification check",
                "--alpha", "--n", "--out", "--format", "--corpus", "--m", "--K", "--seed")
    p.add_argument("check", choices=VERIFY_CHECKS, help="which check to run")
    p.add_argument(
        "--sizes", type=int, nargs="+", default=[64], help="grid sizes N (powers of two, ascending)"
    )
    p.add_argument("--pairs", type=int, default=400, help="pairs for the decay check")
    p.add_argument("--workers", type=int, default=1, help="parallel worker count")
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "norm": _cmd_norm,
    "decompose": _cmd_decompose,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](_validate(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
