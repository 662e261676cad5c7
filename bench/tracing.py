"""Spans around calls into each layer of `qalpha`, recorded from outside.

The tracer replaces a layer function by a wrapper in every `qalpha` module
that binds it, which is where the calling module looks the name up (for
example `qalpha.verify.q_alpha` and `qalpha.norms.l2_on_cube`).  The
program's source is not touched, and `uninstall` puts the originals back.

Each span records its name, start, end and parent, plus the call's arguments
and result, in memory.  Counts are taken from those only after the pass, so
the time spent counting falls outside every span.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import oracle


def _l2_points(a, _):
    f, I = a["f"], a["I"]
    return {"grid.l2_on_cube.points": oracle.lattice_count(f.N, I.corner, I.edge)}


def _q_alpha(a, _):
    N = a["f"].N
    sizes = [oracle.lattice_count(N, I.corner, I.edge) for I in a["cubes"]]
    return {"norms.q_alpha.pairs": sum(P * (P - 1) for P in sizes), "norms.cube_values": len(sizes)}


def _cube_values(count):
    return lambda a, r: {"norms.cube_values": count(a)}


def _file_bytes(metric: str):
    return lambda a, _: {metric: os.path.getsize(a["path"])}


@dataclass(frozen=True)
class Layer:
    """One traced function: where it is defined, its metric name, and its counts
    as a function of (bound arguments, result) giving {metric name: count}."""

    module: str
    function: str
    metric: str
    count: Callable[[dict, object], dict] | None = None


LAYERS = (
    Layer("corpus", "generate", "corpus.generate",
          lambda a, r: {"corpus.generate.points": r.values.size}),
    Layer("filterbank", "decompose", "filterbank.decompose",
          lambda a, r: {"filterbank.decompose.fft_points": a["f"].values.size * (len(r.bands) + 2)}),
    Layer("grid", "cube_lattice", "grid.cube_lattice",
          lambda a, r: {"grid.cube_lattice.points": r[1].size}),
    Layer("grid", "l2_on_cube", "grid.l2_on_cube", _l2_points),
    Layer("grid", "cube_mean", "grid.cube_mean"),
    Layer("grid", "enumerate_cubes", "grid.enumerate_cubes",
          lambda a, r: {"grid.enumerate_cubes.cubes": len(r)}),
    Layer("grid", "read_grid", "grid.read_grid", _file_bytes("grid.io_bytes")),
    Layer("grid", "write_grid", "grid.write_grid", _file_bytes("grid.io_bytes")),
    Layer("norms", "q_alpha", "norms.q_alpha", _q_alpha),
    Layer("norms", "campanato", "norms.campanato", _cube_values(lambda a: len(a["cubes"]))),
    Layer("norms", "lp_morrey", "norms.lp_morrey", _cube_values(lambda a: len(a["cubes"]))),
    Layer("norms", "morrey_besov", "norms.morrey_besov",
          _cube_values(lambda a: len(a["decomposition"].js) * len(a["cubes"]))),
    Layer("norms", "dyadic_lp", "norms.dyadic_lp",
          _cube_values(lambda a: sum(2 ** (k * a["f"].n) for k in range(a["K"] + 1)))),
    Layer("norms", "dyadic_lp_rearranged", "norms.dyadic_lp_rearranged", _cube_values(lambda a: 1)),
    Layer("cubes", "sample_pairs", "cubes.sample_pairs"),
    Layer("cubes", "gamma_set", "cubes.gamma_set",
          lambda a, r: {"cubes.gamma_set.members": len(r)}),
    Layer("cubes", "allowed_cubes", "cubes.allowed_cubes",
          lambda a, r: {"cubes.allowed_cubes.members": len(r)}),
    Layer("cubes", "classify_allowed", "cubes.classify_allowed"),
    Layer("cubes", "kernel_sum", "cubes.kernel_sum"),
    Layer("cubes", "count_summary", "cubes.count_summary"),
    Layer("verify", "equivalence_report", "verify.equivalence_report"),
    Layer("verify", "lemma23_check", "verify.lemma23_check"),
    Layer("verify", "embedding_check", "verify.embedding_check"),
    Layer("verify", "kernel_decay_check", "verify.kernel_decay_check"),
    Layer("verify", "fubini_identity_check", "verify.fubini_identity_check"),
    Layer("verify", "write_json", "verify.write_report", _file_bytes("verify.report_bytes")),
    Layer("verify", "write_csv", "verify.write_report", _file_bytes("verify.report_bytes")),
    Layer("verify", "write_kernel_csv", "verify.write_report", _file_bytes("verify.report_bytes")),
    Layer("cli", "main", "cli.main"),
)

ROOT = "trace.unattributed"  # the pass itself: time outside every layer span
_RAISED = object()  # result slot of a call that raised: it has nothing to count


class Tracer:
    """Install wrappers, record spans per pass, and reduce them to metrics."""

    def __init__(self):
        self.layers = LAYERS
        self.clock = time.perf_counter
        self.names: list[str] = [ROOT] + [layer.metric for layer in LAYERS]
        self._patched: list[tuple[object, str, object]] = []
        self._signatures: dict[int, inspect.Signature] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, layer index, args, result]
        self._stack: list[int] = [-1]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qalpha" or name.startswith("qalpha."))]
        for li, layer in enumerate(self.layers):
            original = getattr(sys.modules[f"qalpha.{layer.module}"], layer.function)
            self._signatures[li] = inspect.signature(original)
            wrapper = self._wrap(li, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, li: int, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        name_id = li + 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1], li, (args, kwargs), _RAISED]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                span[6] = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return span[6]

        return wrapper

    # -- passes -------------------------------------------------------------

    def run_pass(self, body: Callable[[], None]) -> tuple[float, dict]:
        """Run `body` inside a root span; return its duration and its metrics."""
        first = len(self.spans)
        root = [0, 0.0, 0.0, -1, -1, None, None]
        self._stack.append(first)
        self.spans.append(root)
        root[1] = self.clock()
        try:
            body()
        finally:
            root[2] = self.clock()
            self._stack.pop()
        return root[2] - root[1], self._reduce(first)

    def _reduce(self, first: int) -> dict:
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans[1:]:
            child[span[3] - first] += span[2] - span[1]
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for i, span in enumerate(spans):
            name = self.names[span[0]]
            self_s[name] += (span[2] - span[1]) - child[i]
            if span[4] < 0:
                continue
            layer = self.layers[span[4]]
            counts[f"{layer.metric}.calls"] += 1
            if layer.count is not None and span[6] is not _RAISED:
                args, kwargs = span[5]
                bound = self._signatures[span[4]].bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, value in layer.count(bound.arguments, span[6]).items():
                    counts[metric] += value
            span[5] = span[6] = None  # the spans stay; arguments and results go
        return {"self_s": dict(self_s), "counts": dict(counts)}

    def write_spans(self, path: str) -> None:
        """One line per span: name, start, end, parent index (-1 for a pass)."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for span in self.spans:
                fh.write(f"{self.names[span[0]]},{span[1]!r},{span[2]!r},{span[3]}\n")
