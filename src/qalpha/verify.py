"""Experiment harness: norm-equivalence, identity and decay checks.

Every check returns a plain report object that serializes to JSON and CSV.
"Verified" for a comparison statement means: the relevant ratio stays
bounded over the test population and stable under refinement of the
truncation parameter; no continuum constants are certified.  Reports are
deterministic functions of (corpus specs, alpha, sizes, seeds).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusSpec, generate
from .cubes import (
    _check_dilation,
    gamma_set,
    kernel_sum,
    level_kernel_sum,
    ring_counts,
    sample_pairs,
)
from .errors import ConfigError
from .filterbank import decompose
from .grid import Cube, GridFunction, cube_blocks, cube_sums, enumerate_cubes, per_cube
from .norms import (
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
    "EquivalenceRow",
    "Lemma23Record",
    "DecayRecord",
    "EmbeddingReport",
    "equivalence_report",
    "fubini_identity_check",
    "lemma23_check",
    "kernel_decay_check",
    "embedding_check",
    "write_json",
    "write_kernel_csv",
]

EPS_FLOOR = 1e-300
ZERO_NORM = 1e-10


def standard_cubes(f: GridFunction, shifted: bool = True, level_max: int | None = None):
    if level_max is None:
        level_max = f.L - 3
    return enumerate_cubes(f.L, level_max, n=f.n, shifted=shifted)


# ---------------------------------------------------------------------------
# norm equivalence


@dataclass(frozen=True)
class EquivalenceRow:
    spec_id: str
    N: int
    q_value: float
    lp_value: float
    ratio: float | None
    excluded: bool = False

    def to_dict(self) -> dict:
        return {
            "spec_id": self.spec_id,
            "N": self.N,
            "q_alpha": self.q_value,
            "lp_morrey": self.lp_value,
            "ratio": self.ratio,
            "excluded": self.excluded,
        }


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    alpha: float
    sizes: tuple[int, ...]
    rows: tuple[EquivalenceRow, ...]
    trends: dict[str, tuple[float, ...]]
    drift_flags: dict[str, bool]
    c_low: float
    c_high: float

    @property
    def spread(self) -> float:
        return self.c_high / self.c_low if self.c_low > 0 else math.inf

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "sizes": list(self.sizes),
            "rows": [r.to_dict() for r in self.rows],
            "per_doubling_ratio_change": {k: list(v) for k, v in self.trends.items()},
            "drift_flags": self.drift_flags,
            "c_low": self.c_low,
            "c_high": self.c_high,
            "spread": self.spread,
        }

    def csv_rows(self):
        yield ["spec_id", "N", "q_alpha", "lp_morrey", "ratio", "excluded"]
        for r in self.rows:
            yield [
                r.spec_id,
                str(r.N),
                repr(r.q_value),
                repr(r.lp_value),
                "" if r.ratio is None else repr(r.ratio),
                str(r.excluded),
            ]


def _one_equivalence_row(spec: CorpusSpec, N: int, alpha: float, shifted: bool) -> EquivalenceRow:
    f = generate(spec.with_size(N))
    cubes = standard_cubes(f, shifted=shifted)
    dec = decompose(f, j_min=0)
    qr = q_alpha(f, alpha, cubes)
    lr = lp_morrey(f, alpha, cubes, dec)
    if qr.value < ZERO_NORM and lr.value < ZERO_NORM:
        return EquivalenceRow(spec.ident, N, qr.value, lr.value, None, excluded=True)
    return EquivalenceRow(spec.ident, N, qr.value, lr.value, lr.value / qr.value)


def equivalence_report(
    corpus: list[CorpusSpec],
    alpha: float,
    sizes: list[int],
    shifted: bool = True,
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
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(lambda t: _one_equivalence_row(t[0], t[1], alpha, shifted), tasks)
            )
    else:
        rows = [_one_equivalence_row(spec, N, alpha, shifted) for spec, N in tasks]

    trends: dict[str, tuple[float, ...]] = {}
    drift_flags: dict[str, bool] = {}
    for spec in corpus:
        ratios = [r.ratio for r in rows if r.spec_id == spec.ident and r.ratio is not None]
        if len(ratios) < 2:
            continue
        changes = tuple(b / a - 1.0 for a, b in zip(ratios, ratios[1:]))
        trends[spec.ident] = changes
        monotone = all(c > 0 for c in changes) or all(c < 0 for c in changes)
        drift_flags[spec.ident] = monotone and any(abs(c) > 0.20 for c in changes)

    max_n = max(sizes)
    final = [r.ratio for r in rows if r.N == max_n and r.ratio is not None]
    c_low = min(final) if final else 0.0
    c_high = max(final) if final else 0.0
    return EquivalenceReport(
        alpha, tuple(sizes), tuple(rows), trends, drift_flags, c_low, c_high
    )


# ---------------------------------------------------------------------------
# exact rearrangement identity


def fubini_identity_check(
    f: GridFunction,
    alpha: float,
    I: Cube,
    K: int,
    decomposition=None,
) -> float:
    """Relative discrepancy between the refinement sum and its exchanged form."""
    dec = decomposition if decomposition is not None else decompose(f, j_min=0)
    a = dyadic_lp(f, alpha, I, K, dec)
    b = dyadic_lp_rearranged(f, alpha, I, K, dec)
    return abs(a - b) / max(a, EPS_FLOOR)


# ---------------------------------------------------------------------------
# refinement bound (dilated-cube oscillation sum)


@dataclass(frozen=True)
class Lemma23Record:
    alpha: float
    m: float
    K: int
    lhs: float
    q_value: float
    ratio: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "m": self.m,
            "K": self.K,
            "lhs": self.lhs,
            "q_alpha": self.q_value,
            "ratio": self.ratio,
        }


def _oscillation_pair_sums(f: GridFunction, cubes: list[Cube]) -> np.ndarray:
    """Per cube h^(2n) * sum over (x, y) in (I x I) of |f(x)-f(y)|^2, periodic values.

    Uses the exact rewrite sum_{x,y}(f(x)-f(y))^2 = 2 P sum (f - mean)^2 with
    P the number of lattice points of I (multiplicity kept when I wraps).
    """
    h2n = f.h ** (2 * f.n)
    return per_cube(
        f, cube_blocks(f, cubes), lambda v, b: h2n * 2.0 * v[0].size * cube_sums(_centered(v) ** 2)
    )


def lemma23_check(
    f: GridFunction,
    alpha: float,
    m: float,
    I: Cube,
    K: int,
    q_value: float | None = None,
    shifted: bool = True,
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
        dilated = [
            Cube(tuple(c + i * edge for c, i in zip(I.corner, idx)), edge).dilate(m)
            for idx in np.ndindex(*(2**k,) * f.n)
        ]
        layer = edge ** (-2 * f.n) * float(_oscillation_pair_sums(f, dilated).sum())
        total += 2.0 ** ((2 * alpha - f.n) * k) * layer
    if q_value is None:
        q_value = q_alpha(f, alpha, standard_cubes(f, shifted=shifted)).value
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

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "m": self.m,
            "n": self.n,
            "seed": self.seed,
            "slope": self.slope,
            "expected_slope": -(2 * self.alpha + self.n),
            "max_kind1_over_mn": self.max_kind1_over_mn,
            "max_kind2": self.max_kind2,
            "rows": list(self.rows),
        }


def kernel_decay_check(
    alpha: float,
    m: float,
    n: int,
    pair_count: int,
    seed: int,
    root: Cube | None = None,
) -> DecayRecord:
    """Sample pairs, enumerate tree sets, and regress log k on log |x-y|."""
    if pair_count < 2:
        raise ConfigError(f"the decay slope fit needs at least 2 pairs, got {pair_count}")
    if root is None:
        root = Cube((0.0,) * n, 1.0)
    pairs = sample_pairs(root, pair_count, seed)
    tree_sets = (gamma_set(root, x, y, m) for x, y in pairs)
    rows = []
    for (x, y), (gamma, counts, kind1, kind2) in zip(pairs, ring_counts(tree_sets)):
        k_full = kernel_sum(gamma, alpha, n)
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        rows.append(
            {
                "x": list(x),
                "y": list(y),
                "dist": dist,
                "k_full": k_full,
                "k_allowed": level_kernel_sum(root.edge, counts, alpha, n),
                "k_full_scaled": k_full * dist ** (2 * alpha + n),
                "count_kind1_max": kind1,
                "count_kind2_max": kind2,
            }
        )
    max1 = max(r["count_kind1_max"] for r in rows) / m**n
    max2 = max(r["count_kind2_max"] for r in rows)
    logs_d = np.log([r["dist"] for r in rows])
    logs_k = np.log([r["k_full"] for r in rows])
    slope = float(np.polyfit(logs_d, logs_k, 1)[0])
    return DecayRecord(alpha, m, n, seed, tuple(rows), slope, max1, max2)


def write_kernel_csv(record: DecayRecord, path) -> None:
    with open(path, "w") as fh:
        fh.write("x,y,dist,k_full,k_allowed,k_full_scaled,count_kind1_max,count_kind2_max\n")
        for r in record.rows:
            fh.write(
                ";".join(repr(v) for v in r["x"])
                + ","
                + ";".join(repr(v) for v in r["y"])
                + ","
                + ",".join(
                    repr(r[k])
                    for k in (
                        "dist",
                        "k_full",
                        "k_allowed",
                        "k_full_scaled",
                        "count_kind1_max",
                        "count_kind2_max",
                    )
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# embedding


@dataclass(frozen=True, eq=False)
class EmbeddingReport:
    alpha: float
    rows: tuple[dict, ...]
    max_ratio: float
    violations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "rows": list(self.rows),
            "max_ratio": self.max_ratio,
            "violations": list(self.violations),
        }


def embedding_check(
    corpus: list[CorpusSpec],
    alpha: float,
    N: int | None = None,
    shifted: bool = True,
) -> EmbeddingReport:
    """Per function the ratio q_alpha / morrey_besov (embedding direction)."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    rows = []
    violations = []
    max_ratio = 0.0
    for spec in corpus:
        s = spec if N is None else spec.with_size(N)
        f = generate(s)
        cubes = standard_cubes(f, shifted=shifted)
        dec = decompose(f, j_min=0)
        qv = q_alpha(f, alpha, cubes).value
        mbv = morrey_besov(f, alpha, f.n - 2 * alpha, 2, 2, cubes, dec).value
        if qv < ZERO_NORM and mbv < ZERO_NORM:
            rows.append({"spec_id": s.ident, "q_alpha": qv, "mb": mbv, "ratio": None})
            continue
        if mbv < ZERO_NORM <= qv:
            violations.append(s.ident)
            rows.append({"spec_id": s.ident, "q_alpha": qv, "mb": mbv, "ratio": None})
            continue
        ratio = qv / mbv
        max_ratio = max(max_ratio, ratio)
        rows.append({"spec_id": s.ident, "q_alpha": qv, "mb": mbv, "ratio": ratio})
    return EmbeddingReport(alpha, tuple(rows), max_ratio, tuple(violations))


# ---------------------------------------------------------------------------
# serialization helpers


def write_json(report, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(rows_iter, path) -> None:
    with open(path, "w") as fh:
        for row in rows_iter:
            fh.write(",".join(row) + "\n")
