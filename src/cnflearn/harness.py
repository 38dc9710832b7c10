"""Experiment driver: synthetic benchmarks, dataset runs, bound checks, reports.

Synthetic trials follow the online protocol: sample a target hypothesis,
stream uniform random side information, label it with the target (through
the feature map of the predictor that runs, if any) and score the
predictor on the trace with `score_trace`. Where the algorithm's class
states a guarantee (`bound_bits`), the harness hard-asserts it at d', the
dimension the class learns over, on every trial; a violation raises
BoundViolation because it falsifies the implementation, not the data.

Trials are independent: trial i of a run seeded s uses the RNG stream
derived from SeedSequence([s, i]), so reports are reproducible and trials
could run in any order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import BoundViolation, Example, OnlinePredictor, cumulative_loss, pack_rows, per_chunk, unpack_rows
from .madnb import Madnb
from .oracles import (
    conjunction_holds,
    count_consistent,
    counting_side_info,
    hybrid_column_penalty,
    independent_set_count,
    upow,
)
from .predictors import (
    ExactMixture,
    HeuristicMixture,
    HybridPredictor,
    Memorizer,
    PracticalPredictor,
    exact_mixture_joint,
)
from .reductions import (
    ClauseBasis,
    ConjunctionMap,
    DisjunctionMap,
    ReducedPredictor,
    build_basis,
)

__all__ = [
    "ALGORITHMS",
    "CheckResult",
    "Dataset",
    "DatasetConfig",
    "REDUCTIONS",
    "RunReport",
    "SyntheticConfig",
    "build_predictor",
    "emit_report",
    "ingest_dataset",
    "parse_report",
    "run_bounds_table",
    "run_dataset",
    "run_oracle_checks",
    "run_synthetic",
    "sample_hypothesis",
]

# CLI tokens are part of the external interface and are kept stable even
# though the classes behind them carry descriptive names. No class here
# subclasses another, so wrapping one's methods never wraps another's.
ALGORITHMS: Dict[str, type] = {
    "bayes-exact": ExactMixture,
    "xi-plus": HeuristicMixture,
    "memorize": Memorizer,
    "alg1": HybridPredictor,
    "alg2": PracticalPredictor,
    "madnb": Madnb,
}

REDUCTIONS = ("none", "conj", "disj", "kcnf")


def _check_run(algorithm: str, reduction: str, k: Optional[int]) -> None:
    """Reject an unknown algorithm or reduction, or a clause width that does
    not match the reduction: kcnf needs k >= 1, and k means nothing to the others."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}")
    if reduction not in REDUCTIONS:
        raise ValueError(f"unknown reduction {reduction!r}; choose from {list(REDUCTIONS)}")
    if reduction == "kcnf":
        if k is None or k < 1:
            raise ValueError("the kcnf reduction needs a clause width k >= 1")
    elif k is not None:
        raise ValueError("k only applies to the kcnf reduction")


@dataclass(frozen=True)
class SyntheticConfig:
    algorithm: str
    d: int
    n: int
    repeats: int
    seed: int
    reduction: str = "none"
    k: Optional[int] = None

    def __post_init__(self):
        _check_run(self.algorithm, self.reduction, self.k)
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class DatasetConfig:
    path: str
    label_column: str
    positive_label: str
    shuffle_seed: Optional[int] = None


@dataclass(frozen=True)
class Dataset:
    """Ingested examples: an (n, d) uint8 matrix of sides and n labels."""

    sides: np.ndarray
    labels: np.ndarray
    features: Tuple[Tuple[str, str], ...]

    @property
    def d(self) -> int:
        return len(self.features)

    @property
    def n(self) -> int:
        return self.sides.shape[0]

    @property
    def examples(self) -> Tuple[Example, ...]:
        """The rows as (side, label) pairs, each label a Python int."""
        return tuple(map(Example, self.sides, self.labels.tolist()))


@dataclass(frozen=True)
class RunReport:
    algorithm: str
    reduction: str
    k: Optional[int]
    d: int
    d_prime: int
    n: int
    repeats: int
    seed: Optional[int]
    source: Optional[str]
    max_bits: float
    mean_bits: float
    bound_bits: Optional[float]
    infinite_losses: int
    correct: int
    mistakes: int
    accuracy: float
    trial_bits: Tuple[float, ...]
    wall_time: float = field(compare=False)


def _round6(x: Optional[float]) -> Optional[float]:
    if x is None:
        return None
    return float(f"{float(x):.6g}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def sample_hypothesis(rng, d: int) -> frozenset:
    """Draw a target index set: theta uniform, then each index w.p. theta."""
    return frozenset(int(i) for i in np.flatnonzero(_sample_mask(rng, d)))


def _sample_mask(rng, d: int) -> np.ndarray:
    theta = rng.random()
    return np.asarray(rng.random(d) < theta)


def build_predictor(
    algorithm: str,
    d: int,
    reduction: str = "none",
    k: Optional[int] = None,
) -> Tuple[OnlinePredictor, int]:
    """Predictor for original d-bit sides, plus the effective dimension."""
    make, _, d_prime = _predictor_maker(algorithm, d, reduction, k)
    return make(), d_prime


def _predictor_maker(
    algorithm: str,
    d: int,
    reduction: str = "none",
    k: Optional[int] = None,
) -> Tuple[Callable[[], OnlinePredictor], Optional[ClauseBasis], int]:
    """A maker of fresh `build_predictor` predictors, the map from original
    sides to the features they learn over (None when they learn over the
    sides themselves), and the number d' of those features. The map, a
    clause basis, is built once, here, and shared by every predictor the
    maker returns, which only ever reads it."""
    base = ALGORITHMS[algorithm]
    if reduction == "none":
        return lambda: base(d), None, d
    if reduction == "conj":
        mapping = ConjunctionMap(d)
    elif reduction == "disj":
        mapping = DisjunctionMap(d)
    else:
        mapping = build_basis(d, k)
    return lambda: ReducedPredictor(base(mapping.d_prime), mapping), mapping, mapping.d_prime


def _trial_stream(rng, config: SyntheticConfig, mapping: Optional[ClauseBasis], d_prime: int):
    """Sides and labels for one trial; labels realizable by construction.

    The target is a monotone conjunction over the d' mapped features, so
    the trace is realizable for the predictor behind the map.
    """
    target = np.flatnonzero(_sample_mask(rng, d_prime))
    sides = rng.integers(0, 2, size=(config.n, config.d), dtype=np.uint8)
    words = pack_rows(sides)
    truth, part = ~np.zeros(words.shape[1], dtype=np.uint64), per_chunk(words.shape[1])
    for start in range(0, target.size, part):  # a chunk of the target's words at a time, not all of them
        cols = target[start : start + part]
        truth &= np.bitwise_and.reduce(words[cols] if mapping is None else mapping.columns(words, cols), axis=0)
    labels = unpack_rows(truth[None], config.n)[:, 0]
    return sides, labels ^ np.uint8(mapping is not None and mapping.flip)


def _check_bound(
    algorithm: str, total: float, bound: Optional[float], d_prime: int, trial: int
) -> None:
    if bound is None:
        return
    if not total <= bound * (1.0 + 1e-12) + 1e-6:
        raise BoundViolation(
            f"{algorithm} lost {total:.6g} bits on a realizable trial, "
            f"guaranteed at most {bound:.6g} (d'={d_prime}, trial {trial})"
        )


def run_synthetic(config: SyntheticConfig) -> RunReport:
    started = time.perf_counter()
    trial_bits: List[float] = []
    correct = 0
    make, mapping, d_prime = _predictor_maker(config.algorithm, config.d, config.reduction, config.k)
    bound = ALGORITHMS[config.algorithm].bound_bits(d_prime, config.n)
    for trial in range(config.repeats):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial]))
        sides, labels = _trial_stream(rng, config, mapping, d_prime)
        log_p, hit = make().score_trace(sides, labels)
        total = 0.0 - float(log_p.sum())
        _check_bound(config.algorithm, total, bound, d_prime, trial)
        trial_bits.append(total)
        correct += int(np.count_nonzero(hit))
    return _report(
        config.algorithm, config.reduction, config.k, config.d, d_prime, config.n,
        config.seed, None, trial_bits, correct, started,
    )


def _report(
    algorithm: str, reduction: str, k: Optional[int], d: int, d_prime: int, n: int,
    seed: Optional[int], source: Optional[str], trial_bits: Sequence[float], correct: int,
    started: float,
) -> RunReport:
    """The report of a run of n steps per trial, started at `started`, whose
    trials lost `trial_bits` and which predicted `correct` steps right in all."""
    scored = n * len(trial_bits)
    return RunReport(
        algorithm=algorithm,
        reduction=reduction,
        k=k,
        d=d,
        d_prime=d_prime,
        n=n,
        repeats=len(trial_bits),
        seed=seed,
        source=source,
        max_bits=_round6(max(trial_bits)),
        mean_bits=_round6(sum(trial_bits) / len(trial_bits)),
        bound_bits=_round6(ALGORITHMS[algorithm].bound_bits(d_prime, n)),
        infinite_losses=sum(map(math.isinf, trial_bits)),
        correct=correct,
        mistakes=scored - correct,
        accuracy=_round6(correct / scored if scored else 0.0),
        trial_bits=tuple(map(_round6, trial_bits)),
        wall_time=time.perf_counter() - started,
    )


def ingest_dataset(config: DatasetConfig) -> Dataset:
    """Read a delimited text file into indicator-encoded examples.

    The first row is a header. Every (column, observed value) pair of the non-label
    columns becomes one Boolean feature, in header order with values sorted within a
    column, so the dimension is fixed by a full pass before any example is built. The
    label column must take exactly two distinct values, one of which is `positive_label`.
    Cells are read column by column, from one transpose of the parsed rows.
    """
    try:
        with open(config.path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read dataset {config.path!r}: {exc}") from exc
    if not text.strip():
        raise ValueError(f"dataset {config.path!r} is empty")
    try:
        dialect = csv.Sniffer().sniff(text[:8192], delimiters=",;\t|")
    except csv.Error:
        dialect = csv.excel
    rows = [row for row in csv.reader(io.StringIO(text), dialect) if row]
    del text
    header = rows[0]
    if len(set(header)) != len(header):
        raise ValueError("dataset header contains duplicate column names")
    if config.label_column not in header:
        raise ValueError(
            f"label column {config.label_column!r} not in header {header}"
        )
    label_at = header.index(config.label_column)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} cells, header has {len(header)}")

    n = len(rows) - 1
    columns = list(zip(*rows[1:])) or [()] * len(header)
    del rows
    label_values = sorted(set(columns[label_at]))
    if len(label_values) != 2:
        raise ValueError(
            f"label column must take exactly two values, found {label_values}"
        )
    if config.positive_label not in label_values:
        raise ValueError(
            f"positive label {config.positive_label!r} not among {label_values}"
        )

    # each feature column's values, sorted, become consecutive features,
    # and every row sets the one bit of its value in each column
    feature_cols = [j for j in range(len(header)) if j != label_at]
    values = [sorted(set(columns[j])) for j in feature_cols]
    features = [(header[j], value) for j, vs in zip(feature_cols, values) for value in vs]
    bits = np.zeros((n, len(features)), dtype=np.uint8)
    offset = 0
    for j, vs in zip(feature_cols, values):
        code = {value: offset + i for i, value in enumerate(vs)}
        np.put_along_axis(bits, np.fromiter(map(code.__getitem__, columns[j]), np.intp, n)[:, None], 1, axis=1)
        offset += len(vs)
    labels = np.fromiter(map(config.positive_label.__eq__, columns[label_at]), np.uint8, n)
    if config.shuffle_seed is not None:
        order = np.random.default_rng(config.shuffle_seed).permutation(n)
        bits, labels = bits[order], labels[order]
    return Dataset(bits, labels, tuple(features))


def run_dataset(
    config: DatasetConfig,
    algorithm: str,
    reduction: str = "none",
    k: Optional[int] = None,
) -> RunReport:
    """Stream an ingested dataset through one predictor, Table-style row out.

    Real data is not realizable, so the bound field, the algorithm class's
    `bound_bits` at d', is reported but not asserted.
    """
    _check_run(algorithm, reduction, k)
    dataset = ingest_dataset(config)
    started = time.perf_counter()
    predictor, d_prime = build_predictor(algorithm, dataset.d, reduction, k)
    log_p, hit = predictor.score_trace(dataset.sides, dataset.labels)
    return _report(
        algorithm, reduction, k, dataset.d, d_prime, dataset.n, config.shuffle_seed,
        config.path, [0.0 - float(log_p.sum())], int(np.count_nonzero(hit)), started,
    )


SYNTHETIC_CSV_HEADER = "algo,d,d_prime,k,n,repeats,seed,max_bits,mean_bits,bound_bits,infinite_losses"
DATASET_CSV_HEADER = "algo,d,d_prime,k,n,accuracy,correct,mistakes,total_bits,bound_bits"
BOUNDS_CSV_HEADER = "d,algo,n,repeats,seed,max_bits,mean_bits,bound_bits"

# Reports name each `RunReport` field as declared, but `algorithm` as "algo".
# Only the loss fields may be infinite, which JSON writes as "inf", so a
# `source` named "inf" stays a string.
_RENAMED = {"algorithm": "algo"}
_BITS_FIELDS = ("max_bits", "mean_bits", "trial_bits")


def _named_fields(report: RunReport) -> Dict[str, object]:
    """The report's fields, in declaration order, under their report names."""
    return {_RENAMED.get(f.name, f.name): getattr(report, f.name) for f in fields(RunReport)}


def _csv_cells(report: RunReport, header: str) -> List[str]:
    """One cell per column of `header`; total_bits is the first trial's loss."""
    named = _named_fields(report)
    named["total_bits"] = report.trial_bits[0]
    return [_fmt(named[column]) for column in header.split(",")]


def emit_report(report: RunReport, fmt: str = "csv") -> str:
    """Serialize a report; deterministic order, floats at 6 significant digits."""
    if fmt == "csv":
        header = SYNTHETIC_CSV_HEADER if report.source is None else DATASET_CSV_HEADER
        return header + "\n" + ",".join(_csv_cells(report, header)) + "\n"
    if fmt == "json":
        payload = {
            name: _json_bits(value) if name in _BITS_FIELDS else value
            for name, value in _named_fields(report).items()
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}; choose csv or json")


def _json_bits(bits):
    """Strict JSON has no infinity: an infinite loss is the string "inf"."""
    if isinstance(bits, tuple):
        return [_json_bits(b) for b in bits]
    if math.isinf(bits):
        return "inf" if bits > 0 else "-inf"
    return bits


def _parse_bits(value):
    if isinstance(value, list):
        return tuple(_parse_bits(b) for b in value)
    return float(value) if value in ("inf", "-inf") else value


def parse_report(text: str) -> RunReport:
    """Inverse of emit_report(..., 'json')."""
    data = json.loads(text)
    values = {}
    for f in fields(RunReport):
        value = data[_RENAMED.get(f.name, f.name)]
        values[f.name] = _parse_bits(value) if f.name in _BITS_FIELDS else value
    return RunReport(**values)


def run_bounds_table(
    d_list: Sequence[int], n: int, repeats: int, seed: int
) -> Tuple[List[RunReport], str]:
    """Empirical max loss vs guarantee for both bounded predictors per d.

    The guarantee column is printed as its nearest integer, matching how
    the bounds are usually quoted; run_synthetic has already asserted the
    exact value on every trial by the time a row is emitted.
    """
    reports = []
    lines = [BOUNDS_CSV_HEADER]
    for d in d_list:
        for algorithm in ("alg1", "alg2"):
            report = run_synthetic(
                SyntheticConfig(algorithm=algorithm, d=d, n=n, repeats=repeats, seed=seed)
            )
            reports.append(report)
            cells = _csv_cells(report, BOUNDS_CSV_HEADER)
            cells[-1] = str(int(round(report.bound_bits)))
            lines.append(",".join(cells))
    return reports, "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_counting_identities(rng, d_cap: int, trials: int) -> List[CheckResult]:
    results = []

    worst_int = True
    for _ in range(trials):
        d = int(rng.integers(2, d_cap + 1))
        trace = [(rng.integers(0, 2, size=d), 0) for _ in range(int(rng.integers(1, 7)))]
        sets = [np.flatnonzero(side) for side, _ in trace]
        if count_consistent(trace, d) + upow(sets, d) != 2 ** d:
            worst_int = False
    results.append(
        CheckResult(
            "consistent-count-complement",
            worst_int,
            f"{trials} random all-negative traces, d <= {d_cap}, exact",
        )
    )

    worst = 0.0
    ok = True
    for _ in range(max(10, trials // 4)):
        d = int(rng.integers(2, min(d_cap, 10) + 1))
        trace = [(rng.integers(0, 2, size=d), 0) for _ in range(int(rng.integers(1, 5)))]
        alive = count_consistent(trace, d)
        joint = exact_mixture_joint(trace, d)
        expect = math.log2(alive) - d if alive else -math.inf
        if math.isinf(joint) or math.isinf(expect):
            ok = ok and joint == expect
        else:
            worst = max(worst, abs(joint - expect))
    ok = ok and worst <= 1e-9
    results.append(
        CheckResult(
            "mixture-vs-counting",
            ok,
            f"uniform mixture joint vs consistent count, worst |diff| {worst:.2e}",
        )
    )

    ok = True
    for _ in range(max(10, trials // 2)):
        v = int(rng.integers(1, min(d_cap, 12) + 1))
        possible = [(a, b) for a in range(v) for b in range(a + 1, v)]
        edges = [e for e in possible if rng.random() < 0.4]
        complements = [[u for u in range(v) if u not in e] for e in edges]
        if independent_set_count(v, edges) + upow(complements, v) != 2 ** v:
            ok = False
    results.append(
        CheckResult(
            "independent-set-complement",
            ok,
            f"random graphs up to {min(d_cap, 12)} vertices, exact",
        )
    )
    return results


def _check_counting_targets(d_max: int) -> CheckResult:
    ok = True
    detail = []
    for d in range(1, min(d_max, 4) + 1):
        rows = counting_side_info(d)
        seen = set()
        worst = 0.0
        for target in range(1 << d):
            # row t-1 is the bits of t-1, so its side mask is t-1
            labels = [int(conjunction_holds(target, side)) for side in range(1 << d)]
            seen.add(tuple(labels))
            total = cumulative_loss(ExactMixture(d), zip(rows, labels)).total_bits
            worst = max(worst, abs(total - d))
        ok = ok and len(seen) == 1 << d and worst <= 1e-9
        detail.append(f"d={d}: {len(seen)} targets, |loss-d| <= {worst:.1e}")
    return CheckResult("counting-construction", ok, "; ".join(detail))


def _check_penalty_window() -> CheckResult:
    ok = True
    for d in range(2, 65):
        penalty = hybrid_column_penalty(d)
        if not (math.isfinite(penalty) and d - math.log2(d) - 1 <= penalty <= d):
            ok = False
    return CheckResult(
        "column-penalty-window", ok, "d - log2(d) - 1 <= penalty <= d for d in 2..64"
    )


def run_oracle_checks(d_cap: int = 10, trials: int = 100, seed: int = 0) -> List[CheckResult]:
    if not 2 <= d_cap <= 16:
        raise ValueError(f"d must lie in [2, 16], got {d_cap}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    results = _check_counting_identities(rng, d_cap, trials)
    results.append(_check_counting_targets(d_cap))
    results.append(_check_penalty_window())
    return results
