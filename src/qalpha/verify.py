"""Experiment harness: norm-equivalence, identity and decay checks.

Every check returns a report dataclass whose fields are exactly the keys of
its JSON file, each passed in by the check that builds it.  `write_json`
writes any report, and `write_csv` any sequence of dict table rows, with one
cell rule; the norm reports of `norms` go through the same two writers.
"Verified" for a comparison statement means: the relevant ratio stays
bounded over the test population and stable under refinement of the
truncation parameter; no continuum constants are certified.  Reports are
deterministic functions of (corpus specs, alpha, sizes, seeds).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .corpus import CorpusSpec, generate
from .cubes import _check_dilation, _kernel_sums, _norms, ring_counts, sample_pairs, tree_sets
from .errors import ConfigError
from .filterbank import BandDecomposition, decompose
from .grid import (
    _EDGE_LEVELS,
    Cube,
    CubeFamily,
    GridFunction,
    _corner_blocks,
    _corners_edges,
    cube_sums,
    dilate,
    enumerate_cubes,
    per_cube,
)
from .norms import (
    CubeTable,
    _centered,
    _check_alpha,
    _refinement_level,
    dyadic_lp,
    dyadic_lp_rearranged,
    lp_morrey,
    morrey_besov,
    q_alpha,
)

__all__ = [
    "EquivalenceReport",
    "Lemma23Record",
    "DecayRecord",
    "EmbeddingReport",
    "equivalence_report",
    "fubini_identity_check",
    "lemma23_check",
    "kernel_decay_check",
    "embedding_check",
    "write_json",
    "write_csv",
]

EPS_FLOOR = 1e-300
ZERO_NORM = 1e-10


def standard_cubes(f: GridFunction, shifted: bool = True):  # public for bench/ until ROADMAP item 6
    return enumerate_cubes(f.L, f.L - _EDGE_LEVELS, n=f.n, shifted=shifted)


# ---------------------------------------------------------------------------
# norm equivalence


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    alpha: float
    sizes: tuple[int, ...]
    rows: tuple[dict, ...]  # spec_id, N, q_alpha, lp_morrey, ratio, excluded
    per_doubling_ratio_change: dict[str, tuple[float, ...]]
    drift_flags: dict[str, bool]
    c_low: float
    c_high: float
    spread: float | None  # c_high / c_low, None (JSON null) when c_low is 0


def _one_equivalence_row(spec: CorpusSpec, N: int, alpha: float) -> dict:
    f = generate(spec.with_size(N))
    cubes = standard_cubes(f)
    qv = q_alpha(f, alpha, cubes).value
    lv = lp_morrey(f, alpha, cubes, decompose(f, j_min=0)).value
    excluded = qv < ZERO_NORM and lv < ZERO_NORM
    ratio = None if excluded else lv / qv
    return {"spec_id": spec.ident, "N": N, "q_alpha": qv, "lp_morrey": lv, "ratio": ratio,
            "excluded": excluded}


def equivalence_report(
    corpus: list[CorpusSpec],
    alpha: float,
    sizes: list[int],
    workers: int = 1,
) -> EquivalenceReport:
    """Two-sided ratio table lp_morrey/q_alpha per (function, N).

    Flags a function when its ratio drifts monotonically by more than 20%
    per grid doubling (unconverged discretization or outside the space).
    alpha outside (0,1) is allowed for degeneracy diagnostics; the two-sided
    comparison is only expected to be stable inside the regime.
    """
    _check_alpha(alpha, positive=True)
    if sorted(sizes) != list(sizes) or len(set(sizes)) != len(sizes):
        raise ConfigError("sizes must be strictly ascending")
    tasks = [(spec, N) for spec in corpus for N in sizes]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(lambda t: _one_equivalence_row(t[0], t[1], alpha), tasks))

    trends: dict[str, tuple[float, ...]] = {}
    drift_flags: dict[str, bool] = {}
    for spec in corpus:
        ratios = [r["ratio"] for r in rows if r["spec_id"] == spec.ident and not r["excluded"]]
        if len(ratios) < 2:
            continue
        changes = tuple(b / a - 1.0 for a, b in zip(ratios, ratios[1:]))
        trends[spec.ident] = changes
        monotone = all(c > 0 for c in changes) or all(c < 0 for c in changes)
        drift_flags[spec.ident] = monotone and any(abs(c) > 0.20 for c in changes)

    final = [r["ratio"] for r in rows if r["N"] == sizes[-1] and not r["excluded"]]
    c_low, c_high = (min(final), max(final)) if final else (0.0, 0.0)
    spread = c_high / c_low if c_low > 0 else None
    return EquivalenceReport(alpha, tuple(sizes), tuple(rows), trends, drift_flags,
                             c_low, c_high, spread)


# ---------------------------------------------------------------------------
# exact rearrangement identity


def fubini_identity_check(
    f: GridFunction,
    alpha: float,
    I: Cube,
    K: int,
    decomposition: BandDecomposition,
) -> float:
    """Relative discrepancy between the refinement sum and its exchanged form."""
    a = dyadic_lp(f, alpha, I, K, decomposition)
    b = dyadic_lp_rearranged(f, alpha, I, K, decomposition)
    return abs(a - b) / max(a, EPS_FLOOR)


# ---------------------------------------------------------------------------
# refinement bound (dilated-cube oscillation sum)


@dataclass(frozen=True)
class Lemma23Record:
    alpha: float
    m: float
    K: int
    lhs: float
    q_alpha: float
    ratio: float


def _oscillation_pair_sums(f: GridFunction, corner: np.ndarray, edge: float) -> np.ndarray:
    """Per cube I of the corners (cubes, n) and one edge, h^(2n) * sum over
    (x, y) in (I x I) of |f(x)-f(y)|^2, periodic values.

    Uses the exact rewrite sum_{x,y}(f(x)-f(y))^2 = 2 P sum (f - mean)^2 with
    P the number of lattice points of I (multiplicity kept when I wraps).
    """
    h2n = f.h ** (2 * f.n)
    return per_cube(f, _corner_blocks(f, corner, edge),
                    lambda v, b: h2n * 2.0 * v[0].size * cube_sums(_centered(v) ** 2))


def lemma23_check(
    f: GridFunction,
    alpha: float,
    m: float,
    I: Cube,
    K: int,
) -> Lemma23Record:
    """Ratio of the dilated-cube oscillation sum to m^(2a+2n) * q_alpha^2:

        sum_{k<=K} 2^((2a-n)k) sum_{J in D_k(I)} |J|^-2
            * h^(2n) * sumsum_{mJ x mJ} |f(x)-f(y)|^2 .
    """
    _check_dilation(m)
    _check_alpha(alpha, f)
    if not alpha > -f.n / 2:
        raise ConfigError(f"alpha={alpha} <= -n/2 is the divergent regime")
    _refinement_level(f, I, K)
    total = 0.0
    for k in range(K + 1):
        edge = I.edge / 2**k
        index = np.indices((2**k,) * f.n).reshape(f.n, -1).T  # D_k(I), row-major
        dilated = dilate(np.array(I.corner) + index * edge, edge, m)
        layer = edge ** (-2 * f.n) * float(_oscillation_pair_sums(f, *dilated).sum())
        total += 2.0 ** ((2 * alpha - f.n) * k) * layer
    q_value = q_alpha(f, alpha, standard_cubes(f)).value
    denom = m ** (2 * alpha + 2 * f.n) * q_value**2
    ratio = 0.0 if total == 0.0 else total / max(denom, EPS_FLOOR)
    return Lemma23Record(alpha, m, K, total, q_value, ratio)


# ---------------------------------------------------------------------------
# kernel decay


@dataclass(frozen=True)
class DecayRecord:
    alpha: float
    m: float
    n: int
    seed: int
    rows: tuple[dict, ...]
    slope: float
    max_kind1_over_mn: float
    max_kind2: int
    expected_slope: float  # -(2 alpha + n)


def kernel_decay_check(
    alpha: float,
    m: float,
    n: int,
    pair_count: int,
    seed: int,
) -> DecayRecord:
    """Sample pairs in the unit cube, enumerate tree sets, and regress log k on log |x-y|."""
    _check_alpha(alpha)
    if pair_count < 2:
        raise ConfigError(f"the decay slope fit needs at least 2 pairs, got {pair_count}")
    root = Cube((0.0,) * n, 1.0)
    x, y = sample_pairs(root, pair_count, seed)
    sets = tree_sets(root, x, y, m)
    edges = [root.edge * 2.0**-k for k in range(sets.first.shape[1])]
    k_full = _kernel_sums(edges, sets.counts(), alpha, n)
    minimal, maxima = ring_counts(sets)
    k_allowed = _kernel_sums(edges, minimal, alpha, n)
    dist = _norms(x - y)  # bit for bit math.sqrt(sum((a - b) ** 2 ...)) per pair
    expo = 2 * alpha + n
    columns = zip(x.tolist(), y.tolist(), dist.tolist(), k_full, k_allowed, maxima.tolist())
    rows = [
        {
            "x": a,
            "y": b,
            "dist": d,
            "k_full": full,
            "k_allowed": allowed,
            "k_full_scaled": full * d**expo,
            "count_kind1_max": kind1,
            "count_kind2_max": kind2,
        }
        for a, b, d, full, allowed, (kind1, kind2) in columns
    ]
    max1, max2 = maxima.max(axis=0).tolist()
    slope = float(np.polyfit(np.log(dist), np.log(k_full), 1)[0])
    return DecayRecord(alpha, m, n, seed, tuple(rows), slope, max1 / m**n, max2, -expo)


def write_kernel_csv(record: DecayRecord, path) -> None:  # traced by bench/ until ROADMAP item 6
    write_csv(record.rows, path)


# ---------------------------------------------------------------------------
# embedding


@dataclass(frozen=True, eq=False)
class EmbeddingReport:
    alpha: float
    rows: tuple[dict, ...]
    max_ratio: float
    violations: tuple[str, ...]


def embedding_check(
    corpus: list[CorpusSpec],
    alpha: float,
) -> EmbeddingReport:
    """Per function the ratio q_alpha / morrey_besov (embedding direction)."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    rows = []
    violations = []
    max_ratio = 0.0
    for spec in corpus:
        f = generate(spec)
        cubes = standard_cubes(f)
        qv = q_alpha(f, alpha, cubes).value
        dec = decompose(f, j_min=0)
        mbv = morrey_besov(f, alpha, f.n - 2 * alpha, 2, 2, cubes, dec).value
        ratio = None  # both norms 0 (excluded), or only mb 0 (a violation)
        if mbv >= ZERO_NORM:
            ratio = qv / mbv
            max_ratio = max(max_ratio, ratio)
        elif qv >= ZERO_NORM:
            violations.append(spec.ident)
        rows.append({"spec_id": spec.ident, "q_alpha": qv, "mb": mbv, "ratio": ratio})
    return EmbeddingReport(alpha, tuple(rows), max_ratio, tuple(violations))


# ---------------------------------------------------------------------------
# serialization helpers


def _fields(obj):
    """A sequence (a norm report's `CubeTable`) as a list, and a dataclass as
    {field name: value}; nested values are left as they are."""
    if isinstance(obj, Sequence):
        return list(obj)
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def write_json(report, path) -> None:
    """Any report as JSON: each dataclass in it, nested rows and cubes too, as
    {field name: value}, and a norm report's table as a list of rows."""
    with open(path, "w") as fh:
        json.dump(report, fh, default=_fields, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    """The one CSV cell rule: a list or tuple is its items' reprs joined by
    ';', None an empty cell, a str itself, a Cube its corner and edge
    columns, and anything else its repr."""
    if isinstance(value, (list, tuple)):
        return ";".join(map(repr, value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, Cube):
        return f"{_cell(value.corner)},{value.edge!r}"
    return repr(value)


def write_csv(rows, path) -> None:
    """Dict table rows as CSV under a header of the first row's keys, where a
    Cube cell heads its corner and edge columns; a norm report's `CubeTable`
    is written from its arrays, under the same cell rule."""
    with open(path, "w") as fh:
        if isinstance(rows, CubeTable) and len(rows):
            n = rows.cubes.n if isinstance(rows.cubes, CubeFamily) else rows.cubes[0].n
            corner, edge = _corners_edges(rows.cubes, n)
            fh.write("corner,edge,value\n")
            for c, e, v in zip(corner.tolist(), edge.tolist(), rows.values.tolist()):
                fh.write(f"{_cell(c)},{e!r},{v!r}\n")
            return
        for i, row in enumerate(rows):
            if i == 0:
                header = ("corner,edge" if isinstance(v, Cube) else k for k, v in row.items())
                fh.write(",".join(header) + "\n")
            fh.write(",".join(map(_cell, row.values())) + "\n")
