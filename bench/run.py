#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the qalpha verify pipeline.

    python3 bench/run.py --workload increment --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes
    python3 bench/run.py --write-spec              # refresh BENCHMARK.json

One run builds the workload's inputs from --seed, then repeats whole passes
over the workload's operations until the passes have taken --seconds, and
checks every output afterwards.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Run it from the root of a
source checkout: the program is imported from ./src, nothing is installed.
See bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one process, one thread

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_SECONDS = 25
SETUP_REPEATS = 7
DEV_SEED = 1
HELD_OUT_SEED = 7919  # kept for confirming a claimed gain, never for tuning

WORKLOADS = {
    "increment": "verify equivalence 1-D to N=4096 and 2-D to N=64, lemma23, embedding: "
                 "the O(P^2) q_alpha pair sum over aligned and wrapped cubes",
    "band-energy": "gen, campanato, lpmorrey, mb, decompose on 2-D N=512 and 1-D N=65536 grid "
                   "files, fubini at 2-D N=256, nine bad-input probes; never calls q_alpha",
    "kernel-decay": "verify decay n=2 m=2,3 and kernel n=1, 2000 pairs each: dyadic tree sets "
                    "and ring counts, no grid",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

_SELF_TIMED = [
    "corpus.generate", "filterbank.decompose", "grid.cube_lattice", "grid.l2_on_cube",
    "grid.cube_mean", "grid.enumerate_cubes", "grid.read_grid", "grid.write_grid",
    "norms.q_alpha", "norms.campanato", "norms.lp_morrey", "norms.morrey_besov",
    "norms.dyadic_lp", "norms.dyadic_lp_rearranged", "cubes.sample_pairs", "cubes.gamma_set",
    "cubes.allowed_cubes", "cubes.classify_allowed", "cubes.kernel_sum", "cubes.count_summary",
    "verify.equivalence_report", "verify.lemma23_check", "verify.embedding_check",
    "verify.kernel_decay_check", "verify.fubini_identity_check", "verify.write_report",
    "cli.main",
]
_COUNTS = [
    ("corpus.generate.calls", "count"), ("corpus.generate.points", "count"),
    ("filterbank.decompose.calls", "count"), ("filterbank.decompose.fft_points", "count"),
    ("grid.cube_lattice.calls", "count"), ("grid.cube_lattice.points", "count"),
    ("grid.l2_on_cube.calls", "count"), ("grid.l2_on_cube.points", "count"),
    ("grid.cube_mean.calls", "count"), ("grid.enumerate_cubes.cubes", "count"),
    ("grid.io_bytes", "bytes"), ("norms.q_alpha.calls", "count"),
    ("norms.q_alpha.pairs", "count"), ("norms.cube_values", "count"),
    ("cubes.gamma_set.members", "count"), ("cubes.allowed_cubes.members", "count"),
    ("verify.report_bytes", "bytes"), ("cli.main.calls", "count"),
]
PER_LAYER = (
    [{"name": f"{m}.self_s", "unit": "s", "better": "lower"} for m in _SELF_TIMED]
    + [{"name": n, "unit": u, "better": "lower"} for n, u in _COUNTS]
    + [{"name": "trace.unattributed_s", "unit": "s", "better": "lower"},
       {"name": "trace.overhead_s", "unit": "s", "better": "lower"}]
)


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


# ---------------------------------------------------------------------------
# set-up


def _set_up(workload: str, seed: int, workdir: Path):
    """Import qalpha from this checkout's src/ and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import qalpha  # noqa: F401
    import qalpha.cli  # noqa: F401
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.BUILDERS[workload](str(workdir), seed)


def _time_setups(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import qalpha and build the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        child_dir = workdir / f"setup{i}"
        argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
                "--seed", str(seed), "--workdir", str(child_dir)]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)  # a timeout would poll
        times.append(time.perf_counter() - t0)
        shutil.rmtree(child_dir)
    return times


# ---------------------------------------------------------------------------
# passes


@dataclass
class Outcome:
    """What one CLI call left behind."""

    code: int | None
    stdout: str
    stderr: str
    error: str | None  # exception that escaped `main`, with its traceback
    warnings: int


def _run_op(op) -> Outcome:
    cli = sys.modules["qalpha.cli"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(op.argv)  # looked up per call, so a traced pass sees the wrapper
        except Exception:
            code, error = None, traceback.format_exc()
    return Outcome(code, out.getvalue(), err.getvalue(), error, len(caught))


def _succeeded(op, res) -> bool:
    if op.probe:  # the input contract: exit 2, one line on stderr, no traceback
        lines = res.stderr.strip().splitlines()
        return (res.error is None and res.code == 2 and res.warnings == 0
                and len(lines) == 1 and "Traceback" not in res.stderr)
    return res.error is None and res.code == 0


def _fingerprint(op, res) -> str:
    h = hashlib.sha256(f"{res.code}\n{res.stdout}".encode())
    for path in op.outputs:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs one pass at a time, tallies its operations, and checks the last one."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_prints: dict[str, str] = {}
        self.last: list = []

    def body(self):
        self.last = [_run_op(op) for op in self.ops]

    def tally(self):
        """Outside the timed pass: exit status, and outputs equal to pass 1's."""
        for op, res in zip(self.ops, self.last):
            self.attempted += 1
            ok = _succeeded(op, res)
            if ok and not op.probe:
                fp = _fingerprint(op, res)
                if self.first_prints.setdefault(op.name, fp) != fp:
                    ok = False
                    self.errors.append(f"{op.name}: output differs from the first pass")
            elif not ok and not op.probe:
                detail = res.error or res.stderr or f"exit {res.code}"
                self.errors.append(f"{op.name}: {detail.strip().splitlines()[-1]}")
            self.failed += not ok

    def check(self, passes: int):
        """Correctness checks on the last pass's outputs; a failure fails every pass."""
        for op, res in zip(self.ops, self.last):
            if op.check is None or not _succeeded(op, res):
                continue
            try:
                errs = op.check(op, res)
            except Exception:
                errs = [traceback.format_exc().strip().splitlines()[-1]]
            if errs:
                self.failed += passes
                self.errors += [f"{op.name}: {e}" for e in errs]


def _more(spent: float, last: float, seconds: float) -> bool:
    """Whether one more round as long as the last ends nearer to `seconds` than stopping."""
    return spent + last / 2 < seconds


def run_untraced(ops, seconds: float):
    runner = Runner(ops)
    times = []
    while not times or _more(sum(times), times[-1], seconds):
        t0 = time.perf_counter()
        runner.body()
        times.append(time.perf_counter() - t0)
        runner.tally()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check(len(times))
    return runner, times, peak_rss_mb


def run_traced(ops, seconds: float, spans_path: Path):
    from tracing import ROOT as UNATTRIBUTED, Tracer

    runner = Runner(ops)
    tracer = Tracer()
    plain, traced, layer_runs = [], [], []
    # two traced passes at least, so the per-pass counts can be compared
    while len(traced) < 2 or _more(sum(plain) + sum(traced), plain[-1] + traced[-1], seconds):
        t0 = time.perf_counter()
        runner.body()
        plain.append(time.perf_counter() - t0)
        runner.tally()
        tracer.install()
        try:
            elapsed, layers = tracer.run_pass(runner.body)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        layer_runs.append(layers)
        runner.tally()
    runner.check(len(plain) + len(traced))
    counts = layer_runs[0]["counts"]
    if any(run["counts"] != counts for run in layer_runs):
        runner.errors.append("trace counts differ between passes of one run")
    metrics = {}
    for m in PER_LAYER:
        name = m["name"]
        if name.endswith(".self_s"):
            value = median([run["self_s"].get(name[: -len(".self_s")], 0.0) for run in layer_runs])
        elif name == "trace.unattributed_s":
            value = median([run["self_s"][UNATTRIBUTED] for run in layer_runs])
        elif name == "trace.overhead_s":
            value = median(traced) - median(plain)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    tracer.write_spans(str(spans_path))
    attributed = 1 - metrics["trace.unattributed_s"]["value"] / median(traced)
    print(f"traced pass_s {median(traced):.4f} s (untraced {median(plain):.4f} s); "
          f"layer spans cover {attributed:.1%} of it; spans in {spans_path}")
    return runner, metrics


def run_one(args) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_times = [] if args.trace else _time_setups(args.workload, args.seed, workdir)
        ops = _set_up(args.workload, args.seed, workdir)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
            runner, metrics = run_traced(ops, args.seconds, spans_path)
        else:
            runner, times, peak = run_untraced(ops, args.seconds)
            metrics = {
                "setup_s": {"value": median(setup_times), "unit": "s"},
                "pass_s": {"value": median(times), "unit": "s"},
                "peak_rss_mb": {"value": peak, "unit": "MiB"},
            }
            print(f"{len(times)} passes: " + " ".join(f"{t:.3f}" for t in times) + " s; "
                  f"setups: " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes = sum(op.probe for op in ops)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass "
          f"({probes} input-contract probes); attempted {runner.attempted}, failed {runner.failed}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:36s} {shown} {m['unit']}")
    for e in runner.errors:
        print(f"  FAILED {e}")
    correct = not runner.errors
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, one child process at a time."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            print(proc.stdout, end="")
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=DEV_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (SRC / "qalpha" / "__init__.py").is_file():
        print(f"error: no qalpha sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        _set_up(args.workload, args.seed, args.workdir)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
