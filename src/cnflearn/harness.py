"""Experiment driver: synthetic benchmarks, dataset runs, bound checks, reports.

Synthetic trials follow the online protocol: sample a target hypothesis,
stream uniform random side information, label it with the target (through
the feature map of the predictor that runs, if any) and score the
predictor on the trace with `score_trace`. For the predictors with
realizable-trace guarantees the harness hard-asserts the guarantee, at the
built predictor's dimension, on every trial; a violation raises
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
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import BoundViolation, Example, OnlinePredictor, row_blocks
from .madnb import Madnb
from .oracles import (
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
)
from .reductions import (
    DEFAULT_FEATURE_BUDGET,
    ClauseMap,
    ConjunctionMap,
    DisjunctionMap,
    ExpandedHybrid,
    ExpandedPractical,
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


def _check_reduction(reduction: str, k: Optional[int]) -> None:
    """Reject a reduction that is unknown or does not match the clause width:
    kcnf needs k >= 1, and k means nothing to the others."""
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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        _check_reduction(self.reduction, self.k)
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
    examples: Tuple[Example, ...]
    features: Tuple[Tuple[str, str], ...]

    @property
    def d(self) -> int:
        return len(self.features)

    @property
    def n(self) -> int:
        return len(self.examples)


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


def _bound_bits(algorithm: str, d_prime: int, n: int) -> Optional[float]:
    if algorithm == "alg1":
        return 2.0 * d_prime * d_prime
    if algorithm == "alg2":
        return (d_prime + 1.0) * math.log2(n + 1.0)
    if algorithm == "bayes-exact":
        return float(d_prime)
    return None


def build_predictor(
    algorithm: str,
    d: int,
    reduction: str = "none",
    k: Optional[int] = None,
    max_features: int = DEFAULT_FEATURE_BUDGET,
) -> Tuple[OnlinePredictor, int]:
    """Predictor for original d-bit sides, plus the effective dimension."""
    make, d_prime = _predictor_maker(algorithm, d, reduction, k, max_features)
    return make(), d_prime


def _predictor_maker(
    algorithm: str,
    d: int,
    reduction: str = "none",
    k: Optional[int] = None,
    max_features: int = DEFAULT_FEATURE_BUDGET,
) -> Tuple[Callable[[], OnlinePredictor], int]:
    """A maker of fresh `build_predictor` predictors, plus the effective
    dimension. A clause basis is built once, here, and shared by every
    predictor the maker returns, which only ever reads it."""
    base = ALGORITHMS[algorithm]
    if reduction == "none":
        return lambda: base(d), d
    if reduction == "conj":
        mapping = ConjunctionMap(d)
    elif reduction == "disj":
        mapping = DisjunctionMap(d)
    else:
        basis = build_basis(d, k, max_features)
        if algorithm == "alg2":
            return lambda: ExpandedPractical(basis), basis.d_prime
        if algorithm == "alg1":
            return lambda: ExpandedHybrid(basis), basis.d_prime
        mapping = ClauseMap(basis)
    return lambda: ReducedPredictor(base(mapping.d_prime), mapping), mapping.d_prime


def _feature_map(predictor: OnlinePredictor):
    """The map from original sides to the features the predictor learns
    over, or None when it learns over the sides themselves."""
    if isinstance(predictor, ReducedPredictor):
        return predictor.mapping
    return None


def _trial_stream(rng, config: SyntheticConfig, mapping):
    """Sides and labels for one trial; labels realizable by construction.

    The target is a monotone conjunction over the mapped features, so the
    trace is realizable for the predictor behind the map.
    """
    d_prime = config.d if mapping is None else mapping.d_prime
    mask = _sample_mask(rng, d_prime)
    sides = rng.integers(0, 2, size=(config.n, config.d), dtype=np.uint8)
    labels = np.zeros(config.n, dtype=bool)
    for rows in row_blocks(config.n, d_prime):
        features = sides[rows] if mapping is None else mapping.features_matrix(sides[rows])
        labels[rows] = features[:, mask].all(axis=1)
    if mapping is not None and mapping.flip:
        labels = ~labels
    return sides, labels.astype(np.uint8)


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
    correct_total = 0
    infinite = 0
    make, d_prime = _predictor_maker(config.algorithm, config.d, config.reduction, config.k)
    bound = _bound_bits(config.algorithm, d_prime, config.n)
    for trial in range(config.repeats):
        predictor = make()
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial]))
        sides, labels = _trial_stream(rng, config, _feature_map(predictor))
        log_p, correct = predictor.score_trace(sides, labels)
        total = 0.0 - float(log_p.sum())
        _check_bound(config.algorithm, total, bound, d_prime, trial)
        trial_bits.append(total)
        correct_total += int(np.count_nonzero(correct))
        if math.isinf(total):
            infinite += 1

    scored = config.n * config.repeats
    return RunReport(
        algorithm=config.algorithm,
        reduction=config.reduction,
        k=config.k,
        d=config.d,
        d_prime=d_prime,
        n=config.n,
        repeats=config.repeats,
        seed=config.seed,
        source=None,
        max_bits=_round6(max(trial_bits)),
        mean_bits=_round6(sum(trial_bits) / config.repeats),
        bound_bits=_round6(bound),
        infinite_losses=infinite,
        correct=correct_total,
        mistakes=scored - correct_total,
        accuracy=_round6(correct_total / scored if scored else 0.0),
        trial_bits=tuple(_round6(b) for b in trial_bits),
        wall_time=time.perf_counter() - started,
    )


def ingest_dataset(config: DatasetConfig) -> Dataset:
    """Read a delimited text file into indicator-encoded examples.

    The first row is a header. Every (column, observed value) pair of the
    non-label columns becomes one Boolean feature, in header order with
    values sorted within a column, so the dimension is fixed by a full
    pass before any example is built. The label column must take exactly
    two distinct values, one of which is `positive_label`.
    """
    try:
        with open(config.path, newline="", encoding="utf-8") as handle:
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

    body = rows[1:]
    label_values = sorted({row[label_at] for row in body})
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
    values = [sorted(set(map(itemgetter(j), body))) for j in feature_cols]
    features = [(header[j], value) for j, vs in zip(feature_cols, values) for value in vs]
    bits = np.zeros((len(body), len(features)), dtype=np.uint8)
    rows = np.arange(len(body))
    offset = 0
    for j, vs in zip(feature_cols, values):
        code = {value: offset + i for i, value in enumerate(vs)}
        bits[rows, np.fromiter(map(code.__getitem__, map(itemgetter(j), body)), np.int64, len(body))] = 1
        offset += len(vs)
    labels = [int(row[label_at] == config.positive_label) for row in body]
    examples = [Example(side, label) for side, label in zip(bits, labels)]
    if config.shuffle_seed is not None:
        order = np.random.default_rng(config.shuffle_seed).permutation(len(examples))
        examples = [examples[i] for i in order]
    return Dataset(tuple(examples), tuple(features))


def run_dataset(
    config: DatasetConfig,
    algorithm: str,
    reduction: str = "none",
    k: Optional[int] = None,
    max_features: int = DEFAULT_FEATURE_BUDGET,
) -> RunReport:
    """Stream an ingested dataset through one predictor, Table-style row out.

    Real data is not realizable, so the bound field is reported for the
    algorithms that have one but is not asserted.
    """
    _check_reduction(reduction, k)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    dataset = ingest_dataset(config)
    started = time.perf_counter()
    predictor, d_prime = build_predictor(
        algorithm, dataset.d, reduction, k, max_features
    )
    n = dataset.n
    total = 0.0
    correct = 0
    # blocks are sized by the stacked width; a reduced predictor maps
    # each one in blocks of its own feature width
    for rows in row_blocks(n, dataset.d):
        block = dataset.examples[rows]
        log_p, hit = predictor.score_trace(
            np.stack([ex.side for ex in block]), [ex.label for ex in block]
        )
        total -= float(log_p.sum())
        correct += int(np.count_nonzero(hit))
    return RunReport(
        algorithm=algorithm,
        reduction=reduction,
        k=k,
        d=dataset.d,
        d_prime=d_prime,
        n=n,
        repeats=1,
        seed=config.shuffle_seed,
        source=config.path,
        max_bits=_round6(total),
        mean_bits=_round6(total),
        bound_bits=_round6(_bound_bits(algorithm, d_prime, n)),
        infinite_losses=int(math.isinf(total)),
        correct=correct,
        mistakes=n - correct,
        accuracy=_round6(correct / n if n else 0.0),
        trial_bits=(_round6(total),),
        wall_time=time.perf_counter() - started,
    )


SYNTHETIC_CSV_HEADER = "algo,d,d_prime,k,n,repeats,seed,max_bits,mean_bits,bound_bits,infinite_losses"
DATASET_CSV_HEADER = "algo,d,d_prime,k,n,accuracy,correct,mistakes,total_bits,bound_bits"


def emit_report(report: RunReport, fmt: str = "csv") -> str:
    """Serialize a report; deterministic order, floats at 6 significant digits."""
    if fmt == "csv":
        if report.source is None:
            cells = [
                report.algorithm,
                report.d,
                report.d_prime,
                report.k,
                report.n,
                report.repeats,
                report.seed,
                report.max_bits,
                report.mean_bits,
                report.bound_bits,
                report.infinite_losses,
            ]
            return SYNTHETIC_CSV_HEADER + "\n" + ",".join(_fmt(c) for c in cells) + "\n"
        cells = [
            report.algorithm,
            report.d,
            report.d_prime,
            report.k,
            report.n,
            report.accuracy,
            report.correct,
            report.mistakes,
            report.trial_bits[0],
            report.bound_bits,
        ]
        return DATASET_CSV_HEADER + "\n" + ",".join(_fmt(c) for c in cells) + "\n"
    if fmt == "json":
        payload = {
            "algo": report.algorithm,
            "reduction": report.reduction,
            "k": report.k,
            "d": report.d,
            "d_prime": report.d_prime,
            "n": report.n,
            "repeats": report.repeats,
            "seed": report.seed,
            "source": report.source,
            "max_bits": _json_bits(report.max_bits),
            "mean_bits": _json_bits(report.mean_bits),
            "bound_bits": report.bound_bits,
            "infinite_losses": report.infinite_losses,
            "correct": report.correct,
            "mistakes": report.mistakes,
            "accuracy": report.accuracy,
            "trial_bits": [_json_bits(b) for b in report.trial_bits],
            "wall_time": report.wall_time,
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}; choose csv or json")


def _json_bits(bits: float):
    """Strict JSON has no infinity: an infinite loss is the string "inf"."""
    if math.isinf(bits):
        return "inf" if bits > 0 else "-inf"
    return bits


def _parse_bits(value) -> float:
    return float(value) if value in ("inf", "-inf") else value


def parse_report(text: str) -> RunReport:
    """Inverse of emit_report(..., 'json')."""
    data = json.loads(text)
    return RunReport(
        algorithm=data["algo"],
        reduction=data["reduction"],
        k=data["k"],
        d=data["d"],
        d_prime=data["d_prime"],
        n=data["n"],
        repeats=data["repeats"],
        seed=data["seed"],
        source=data["source"],
        max_bits=_parse_bits(data["max_bits"]),
        mean_bits=_parse_bits(data["mean_bits"]),
        bound_bits=data["bound_bits"],
        infinite_losses=data["infinite_losses"],
        correct=data["correct"],
        mistakes=data["mistakes"],
        accuracy=data["accuracy"],
        trial_bits=tuple(_parse_bits(b) for b in data["trial_bits"]),
        wall_time=data["wall_time"],
    )


BOUNDS_CSV_HEADER = "d,algo,n,repeats,seed,max_bits,mean_bits,bound_bits"


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
            lines.append(
                ",".join(
                    [
                        str(d),
                        algorithm,
                        str(n),
                        str(repeats),
                        str(seed),
                        _fmt(report.max_bits),
                        _fmt(report.mean_bits),
                        str(int(round(report.bound_bits))),
                    ]
                )
            )
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
        sets = [
            [int(i) for i in np.flatnonzero(rng.integers(0, 2, size=d))]
            for _ in range(int(rng.integers(1, 7)))
        ]
        trace = [(_indicator(s, d), 0) for s in sets]
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
        sets = [
            [int(i) for i in np.flatnonzero(rng.integers(0, 2, size=d))]
            for _ in range(int(rng.integers(1, 5)))
        ]
        trace = [(_indicator(s, d), 0) for s in sets]
        alive = count_consistent(trace, d)
        mix = ExactMixture(d)
        for side, label in trace:
            mix.update(side, label)
        joint = mix.log_joint()
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


def _indicator(indices, d: int) -> List[int]:
    side = [0] * d
    for i in indices:
        side[i] = 1
    return side


def _check_counting_targets(d_max: int) -> CheckResult:
    ok = True
    detail = []
    for d in range(1, min(d_max, 4) + 1):
        rows = counting_side_info(d)
        seen = set()
        worst = 0.0
        for target in range(1 << d):
            labels = [
                int(all(row[i] for i in range(d) if target >> i & 1)) for row in rows
            ]
            seen.add(tuple(labels))
            mix = ExactMixture(d)
            total = 0.0
            for row, label in zip(rows, labels):
                total += mix.predict(row).loss_bits(label)
                mix.update(row, label)
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
