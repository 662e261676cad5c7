"""Batch entry point: generate corpora, compute norms, run verifications.

Exit codes: 0 success, 2 configuration error, 1 internal invariant
violation.  Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import verify as verify_mod
from .errors import ConfigError, InvariantViolation
from .filterbank import _FAMILIES, build_profiles, decompose, profiles_to_csv
from .grid import (_DIMENSIONS, _EDGE_LEVELS, Cube, _validate_size, enumerate_cubes, read_grid,
                   write_grid)
from .norms import campanato, dyadic_lp, lp_morrey, morrey_besov, q_alpha


def _resolve_out(cfg: argparse.Namespace, default_name: str = "") -> Path:
    """--out, or else `default_name` in $QALPHA_OUT_DIR (default "."), the
    directory itself when no name is given."""
    return Path(cfg.out or Path(os.environ.get("QALPHA_OUT_DIR", ".")) / default_name)


def _write_report(cfg: argparse.Namespace, report, table) -> None:
    """With --out, the report as JSON, or its table as CSV under --format csv."""
    if cfg.out and getattr(cfg, "format", "json") == "csv":
        verify_mod.write_csv(table, cfg.out)
    elif cfg.out:
        verify_mod.write_json(report, cfg.out)


def _load_corpus(cfg: argparse.Namespace, N: int) -> list[corpus_mod.CorpusSpec]:
    if cfg.corpus:
        specs = corpus_mod.load_corpus_file(cfg.corpus)
        return [s.with_size(N) for s in specs]
    return corpus_mod.default_corpus(cfg.n, N)


def _validate(cfg: argparse.Namespace) -> argparse.Namespace:
    """Checks argparse cannot express."""
    for N in getattr(cfg, "sizes", [cfg.size] if "size" in cfg else []):
        _validate_size(N)
    if getattr(cfg, "seed", 0) < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if getattr(cfg, "workers", 1) < 1:
        raise ConfigError(f"worker count must be at least 1, got {cfg.workers}")
    if getattr(cfg, "format", "json") == "csv" and not cfg.out and cfg.command != "decompose":
        raise ConfigError("--format csv writes a table and needs --out")
    return cfg


def _cmd_gen(cfg: argparse.Namespace) -> int:
    N = cfg.size
    out_dir = _resolve_out(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in _load_corpus(cfg, N):
        path = out_dir / f"{spec.ident}_n{spec.n}_N{spec.N}.grid"
        write_grid(corpus_mod.generate(spec), path)  # not held while the next is built
        print(f"wrote {path}")
    return 0


def _cmd_norm(cfg: argparse.Namespace) -> int:
    f = read_grid(cfg.input)
    if cfg.kind == "dyadiclp":
        root = Cube((0.0,) * f.n, 1.0)
        value = dyadic_lp(f, cfg.alpha, root, cfg.K, decompose(f, j_min=0))
        print(f"dyadiclp alpha={cfg.alpha} K={cfg.K} value={value!r}")
        if cfg.out:
            Path(cfg.out).write_text(f"{value!r}\n")
        return 0
    level_max = cfg.level_max if cfg.level_max is not None else f.L - _EDGE_LEVELS
    cubes = enumerate_cubes(f.L, level_max, n=f.n, shifted=cfg.shifted)
    if cfg.kind == "qalpha":
        report = q_alpha(f, cfg.alpha, cubes)
    elif cfg.kind == "campanato":
        lam = cfg.lam if cfg.lam is not None else f.n - 2 * cfg.alpha
        if cfg.lam is None and not 0 <= lam <= f.n:
            raise ConfigError(f"default lambda = n - 2*alpha = {lam} from --alpha {cfg.alpha} "
                              f"lies outside [0, n]=[0, {f.n}]; pass --lam")
        report = campanato(f, lam, cubes)
    elif cfg.kind == "lpmorrey":
        report = lp_morrey(f, cfg.alpha, cubes, decompose(f, j_min=0))
    else:  # mb
        dec = decompose(f, j_min=0)
        report = morrey_besov(f, cfg.alpha, f.n - 2 * cfg.alpha, 2, 2, cubes, dec)
        print(f"mb alpha={cfg.alpha} value={report.value!r}")
        _write_report(cfg, report, report.rows)
        return 0
    print(f"{cfg.kind} value={report.value!r} argmax={report.argmax_cube}")
    _write_report(cfg, report, report.table)
    return 0


def _cmd_decompose(cfg: argparse.Namespace) -> int:
    f = read_grid(cfg.input)
    dec = decompose(f, j_min=cfg.jmin, family=cfg.family)
    energies = []  # of each block, as the reconstruction adds it
    recon = dec.reconstruction(lambda b: energies.append(f.h**f.n * float((b.values**2).sum())))
    residual = float(abs(recon - f.values).max() / max(abs(f.values).max(), 1e-300))
    print(f"bands j={dec.j_min}..{dec.j_max}, reconstruction residual {residual:.3e}")
    out = _resolve_out(cfg, "bands.csv")
    rows = zip(("lowpass", *dec.js), energies)
    verify_mod.write_csv([{"band": j, "l2_energy": e} for j, e in rows], out)
    print(f"wrote {out}")
    if cfg.format == "csv":
        profiles = build_profiles(f.L, cfg.jmin, n=f.n, family=cfg.family)
        ppath = Path(str(out) + ".profiles")
        profiles_to_csv(profiles, ppath)
        print(f"wrote {ppath}")
    return 0


def _cmd_kernel(cfg: argparse.Namespace) -> int:
    record = verify_mod.kernel_decay_check(cfg.alpha, cfg.m, cfg.n, cfg.pairs, cfg.seed)
    out = _resolve_out(cfg, "kernel.csv")
    verify_mod.write_csv(record.rows, out)
    print(
        f"kernel decay: {cfg.pairs} pairs, slope {record.slope:.4f} "
        f"(expected {record.expected_slope:.4f}); wrote {out}"
    )
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.check == "decay":
        record = verify_mod.kernel_decay_check(cfg.alpha, cfg.m, cfg.n, cfg.pairs, cfg.seed)
        print(
            f"decay slope {record.slope:.4f} expected {record.expected_slope:.4f}; "
            f"max ring counts kind1/m^n={record.max_kind1_over_mn:.4g} "
            f"kind2={record.max_kind2}"
        )
        _write_report(cfg, record, record.rows)
        return 0
    N = cfg.sizes[0]  # the other checks read grid sizes
    if cfg.check == "fubini":
        worst = 0.0
        for spec in _load_corpus(cfg, N):
            f = corpus_mod.generate(spec)
            dec = decompose(f, j_min=0)
            dec = replace(dec, bands=tuple(dec.bands))  # each cube reads every band
            family = enumerate_cubes(f.L, min(2, f.L - _EDGE_LEVELS), n=f.n)
            for cube, level in zip(family, family.level.tolist()):
                K = min(cfg.K, f.L - level - _EDGE_LEVELS)  # identity holds at any depth
                d = verify_mod.fubini_identity_check(f, cfg.alpha, cube, K, dec)
                worst = max(worst, d)
            del dec, f  # before the next function is built
        print(f"fubini max relative discrepancy {worst:.3e}")
        if worst >= 1e-12:
            raise InvariantViolation(f"rearrangement identity violated: {worst:.3e}")
        return 0
    if cfg.check == "equivalence":
        report = verify_mod.equivalence_report(
            _load_corpus(cfg, N), cfg.alpha, list(cfg.sizes), workers=cfg.workers
        )
        spread = math.inf if report.spread is None else report.spread
        print(
            f"equivalence alpha={cfg.alpha}: c_low={report.c_low:.6g} "
            f"c_high={report.c_high:.6g} spread={spread:.6g}"
        )
        _write_report(cfg, report, report.rows)
        return 0
    if cfg.check == "lemma23":
        for spec in _load_corpus(cfg, N):
            f = corpus_mod.generate(spec)
            root = Cube((0.0,) * f.n, 1.0)  # a corpus file fixes n, whatever --n says
            rec = verify_mod.lemma23_check(f, cfg.alpha, cfg.m, root, cfg.K)
            print(f"{spec.ident}: ratio={rec.ratio:.6g}")
        return 0
    # embedding
    report = verify_mod.embedding_check(_load_corpus(cfg, N), cfg.alpha)
    print(f"embedding max ratio q/mb = {report.max_ratio:.6g}")
    if report.violations:
        raise InvariantViolation(f"embedding violated for {report.violations}")
    _write_report(cfg, report, report.rows)
    return 0


_FLAGS = {
    "--alpha": dict(type=float, default=0.5, help="smoothness exponent alpha"),
    "--n": dict(type=int, choices=_DIMENSIONS, default=1, help="dimension"),
    "--size": dict(type=int, default=64, help="grid size N (power of two)"),
    "--sizes": dict(type=int, nargs=1, default=(64,), help="grid size N (power of two)"),
    "--out": dict(help="output file (or directory for gen)"),
    "--format": dict(choices=("json", "csv"), default="json", help="report format"),
    "--corpus": dict(help="corpus JSON file (default: built-in corpus)"),
    "--input": dict(required=True, help="input .grid file; it fixes n and N"),
    "--jmin": dict(type=int, default=0, help="lowest band index"),
    "--family": dict(choices=tuple(_FAMILIES), default="exp", help="cutoff profile family"),
    "--K": dict(type=int, default=3, help="refinement truncation depth"),
    "--lam": dict(type=float, help="campanato exponent lambda (default n-2*alpha)"),
    "--level-max": dict(type=int, help=f"deepest cube level (default L-{_EDGE_LEVELS})"),
    "--shifted": dict(action="store_true", help="add the half-shifted cube family"),
    "--m": dict(type=float, default=2.0, help="cube dilation factor (2 to 16)"),
    "--pairs": dict(type=int, default=100, help="number of sampled pairs"),
    "--seed": dict(type=int, default=7, help="sampler seed"),
    "--workers": dict(type=int, default=1, help="parallel worker count"),
}

# Each command, `norm` kind and `verify` check with the flags it reads;
# `norm` and `verify` nest theirs as subcommands.  A leaf may end with the
# changes it makes to its flags' `_FLAGS` entries.
_TABLE = {
    "gen": (_cmd_gen, "generate corpus functions to .grid files", "--n --size --corpus --out"),
    "norm": (_cmd_norm, "compute one norm of a grid file", {
        "qalpha": ("Q_alpha norm", "--input --alpha --level-max --shifted --format --out"),
        "campanato": ("mean-oscillation norm",
                      "--input --alpha --lam --level-max --shifted --format --out"),
        "lpmorrey": ("LP Morrey norm", "--input --alpha --level-max --shifted --format --out"),
        "dyadiclp": ("dyadic LP sum on the unit cube", "--input --alpha --K --out"),
        "mb": ("Morrey-Besov band-supremum norm", "--input --alpha --level-max --shifted --out"),
    }),
    "decompose": (_cmd_decompose, "band decomposition energies of a grid file",
                  "--input --jmin --family --format --out"),
    "kernel": (_cmd_kernel, "sample pair kernels and ring counts to CSV",
               "--alpha --m --n --pairs --seed --out"),
    "verify": (_cmd_verify, "run a verification check", {
        "equivalence": ("ratio table of LP Morrey to Q_alpha",
                        "--alpha --n --corpus --sizes --workers --format --out",
                        {"--sizes": dict(nargs="+", help="grid sizes N (ascending)")}),
        "fubini": ("exact rearrangement of the dyadic LP sum", "--alpha --n --corpus --sizes --K"),
        "lemma23": ("dilated-oscillation bound", "--alpha --n --corpus --sizes --m --K"),
        "decay": ("kernel decay and ring counts of sampled pairs",
                  "--alpha --m --n --pairs --seed --out", {"--pairs": dict(default=400)}),
        "embedding": ("Q_alpha against Morrey-Besov", "--alpha --n --corpus --sizes --out"),
    }),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 2 with one line, like any bad input
        raise ConfigError(message)


def _add_flags(parser: argparse.ArgumentParser, flags: str, changes: dict | None = None) -> None:
    for flag in flags.split():
        parser.add_argument(flag, **{**_FLAGS[flag], **(changes or {}).get(flag, {})})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qalpha",
        description="Numerical laboratory for increment-kernel and band-energy norms.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, row) in _TABLE.items():
        p = commands.add_parser(name, help=help)
        if isinstance(row, str):
            _add_flags(p, row)
            continue
        leaves = p.add_subparsers(dest="kind" if name == "norm" else "check", required=True)
        for leaf, (leaf_help, flags, *changes) in row.items():
            _add_flags(leaves.add_parser(leaf, help=leaf_help), flags, *changes)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _TABLE[args.command][0](_validate(args))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        where = exc.filename or "an output file"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
