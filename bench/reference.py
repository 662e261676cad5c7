#!/usr/bin/env python3
"""Reference figures for bench/README.md: machine, per-layer table, --workers.

    python3 bench/reference.py

Times each layer at the configurations of the ROADMAP Baseline section and
at its larger sizes (spectral_noise, slope 0.9, seed 42; shifted cube family,
levels 0..L-3), then the two `verify equivalence` operations of the
`increment` workload (seed 1) with --workers 1 and --workers 2.  Every figure
is the median of REPEATS runs in this one process.  This is a record of the
machine it runs on, not a gate.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qalpha import corpus, filterbank, norms, verify  # noqa: E402
from qalpha.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402

REPEATS = 3


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine() -> list[str]:
    cpu = llc = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        last = caches[-1]
        llc = f"L{(last / 'level').read_text().strip()} {(last / 'size').read_text().strip()}"
    return [f"nproc {os.cpu_count()}", f"CPU {cpu}", f"last-level cache {llc}",
            f"Python {platform.python_version()}", f"numpy {np.__version__}"]


def _layers(n: int, N: int) -> dict:
    spec = corpus.CorpusSpec("spectral_noise", N, n, (("slope", 0.9),), seed=42)
    f = corpus.generate(spec)
    cubes = verify.standard_cubes(f, shifted=True)
    dec = filterbank.decompose(f, j_min=0)
    return {
        "generate": lambda: corpus.generate(spec),
        "q_alpha": lambda: norms.q_alpha(f, 0.5, cubes),
        "campanato": lambda: norms.campanato(f, n - 1.0, cubes),
        "lp_morrey": lambda: norms.lp_morrey(f, 0.5, cubes, dec),
        "morrey_besov": lambda: norms.morrey_besov(f, 0.5, n - 1.0, 2, 2, cubes, dec),
        "decompose": lambda: filterbank.decompose(f, j_min=0),
    }


def layer_table(configs, names) -> list[str]:
    head = " | ".join(f"{n}-D N={N}" for n, N in configs)
    rows = [f"| layer | {head} |", "|---|" + "---:|" * len(configs)]
    cells: dict[str, list[str]] = {name: [] for name in names}
    for n, N in configs:
        layers = _layers(n, N)
        for name in names:
            cells[name].append(f"{_median_time(layers[name]):.3f}")
    rows += [f"| `{name}` | " + " | ".join(v) + " |" for name, v in cells.items()]
    return rows


def workers_table() -> list[str]:
    workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = [op for op in workloads.build_increment(str(workdir), 1)
               if op.name.startswith("equivalence")]
        rows = ["| operation | --workers 1 | --workers 2 |", "|---|---:|---:|"]
        for op in ops:
            cells = []
            for w in ("1", "2"):
                def call():
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli_main([*op.argv, "--workers", w]) != 0:
                            raise RuntimeError(f"{op.name} --workers {w} failed")
                cells.append(f"{_median_time(call):.3f}")
            rows.append(f"| {op.name} | " + " | ".join(cells) + " |")
        return rows
    finally:
        shutil.rmtree(workdir)


def main() -> int:
    print("\n".join(machine()), end="\n\n")
    baseline = ["q_alpha", "campanato", "lp_morrey", "morrey_besov", "decompose"]
    print("\n".join(layer_table([(1, 4096), (2, 64), (2, 128)], baseline)), end="\n\n")
    larger = ["generate", "campanato", "lp_morrey", "morrey_besov", "decompose"]
    print("\n".join(layer_table([(1, 65536), (2, 512)], larger)), end="\n\n")
    print("\n".join(workers_table()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
