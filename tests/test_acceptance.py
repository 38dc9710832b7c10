"""Acceptance gate: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Tolerances are pinned here on purpose; loosening one is a
product decision, not a test fix. The dataset criteria skip loudly when
the mushroom file is absent (this sandbox cannot download it; see README
for where to put it).
"""

import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cnflearn.core import cumulative_loss
from cnflearn.harness import DatasetConfig, run_dataset
from cnflearn.madnb import Madnb, factored_joint_log2, nb_mixture_log2
from cnflearn.oracles import (
    count_consistent,
    counting_side_info,
    hybrid_column_penalty,
    independent_set_count,
    upow,
)
from cnflearn.predictors import (
    ExactMixture,
    HybridPredictor,
    PracticalPredictor,
    exact_mixture_joint,
    positive_trace_log2,
)
from cnflearn.reductions import ExpandedPractical, build_basis


def realizable_trace(rng, d, n):
    target = rng.random(d) < rng.random()
    sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    labels = sides[:, target].all(axis=1).astype(np.uint8)
    return sides, labels


def indicator(indices, d):
    side = [0] * d
    for i in indices:
        side[int(i)] = 1
    return side


def test_criterion_1_predictive_equivalence():
    # 200 realizable traces, d in 2..10, n <= 64: the column-state
    # predictor must match the full 2^d enumeration under its own tilted
    # prior to 1e-9 in the log domain, and the positive-trace closed form
    # must match enumeration at the uniform prior to 1e-12.
    rng = np.random.default_rng(1001)
    for _ in range(200):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(1, 65))
        sides, labels = realizable_trace(rng, d, n)
        alpha = 2.0 ** (-d / 2.0 ** d)
        fast = HybridPredictor(d)
        enumerated = ExactMixture(d, alpha=alpha)
        negatives = set()
        for side, label in zip(sides, labels):
            pred = fast.predict(side)
            if side.tobytes() in negatives:
                assert pred.log_p0 == 0.0
            else:
                assert abs(pred.log_p1 - enumerated.predict(side).log_p1) <= 1e-9
            fast.update(side, label)
            if label:
                enumerated.update(side, 1)
            else:
                negatives.add(side.tobytes())
        positives = [side for side, label in zip(sides, labels) if label]
        closed_form = positive_trace_log2(0.5, positives, d)
        brute = exact_mixture_joint([(side, 1) for side in positives], d)
        assert abs(closed_form - brute) <= 1e-12


# `bounds-table --d-list 2,4,8 --n 8192 --repeats 1000 --seed 0`, byte for byte
BOUNDS_TABLE_CSV = """\
d,algo,n,repeats,seed,max_bits,mean_bits,bound_bits
2,alg1,8192,1000,0,3.54311,2.39722,8
2,alg2,8192,1000,0,18.5851,13.9479,39
4,alg1,8192,1000,0,10.6078,6.48892,32
4,alg2,8192,1000,0,23.077,15.7371,65
8,alg1,8192,1000,0,44.3549,23.9935,128
8,alg2,8192,1000,0,40.382,20.6726,117
"""


def test_criterion_2_bound_suite_cli(tmp_path):
    # the published-bound table run: zero guarantee violations across
    # 1000 trials of 8192 steps per (d, algorithm), under two minutes,
    # with the d=8 guarantee columns printing 128 and 117 exactly, and
    # every cell as pinned above
    out = tmp_path / "table.csv"
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "cnflearn.cli", "bounds-table",
            "--d-list", "2,4,8", "--n", "8192", "--repeats", "1000",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 120.0, f"bound suite took {elapsed:.1f}s"
    assert out.read_text() == BOUNDS_TABLE_CSV


def test_criterion_3_counting_identities():
    rng = np.random.default_rng(3003)
    for _ in range(100):
        d = int(rng.integers(2, 13))
        families = [
            [int(i) for i in np.flatnonzero(rng.integers(0, 2, size=d))]
            for _ in range(int(rng.integers(1, 8)))
        ]
        trace = [(indicator(f, d), 0) for f in families]
        assert count_consistent(trace, d) + upow(families, d) == 2 ** d
    for _ in range(50):
        v = int(rng.integers(1, 13))
        edges = [
            (a, b)
            for a in range(v)
            for b in range(a + 1, v)
            if rng.random() < 0.35
        ]
        complements = [[u for u in range(v) if u not in e] for e in edges]
        assert independent_set_count(v, edges) + upow(complements, v) == 2 ** v


def test_criterion_4_penalty_margin():
    for d in range(2, 65):
        penalty = hybrid_column_penalty(d)
        assert math.isfinite(penalty)
        assert d - math.log2(d) - 1 <= penalty <= d


def test_criterion_5_counting_construction():
    for d in range(1, 5):
        rows = counting_side_info(d)
        generated = set()
        for target in range(1 << d):
            labels = [
                int(all(row[i] for i in range(d) if target >> i & 1)) for row in rows
            ]
            generated.add(tuple(labels))
            mixture = ExactMixture(d)
            total = 0.0
            for row, label in zip(rows, labels):
                total += mixture.predict(row).loss_bits(label)
                mixture.update(row, label)
            assert abs(total - d) <= 1e-9
        assert len(generated) == 1 << d


def test_criterion_6_model_average_identity():
    rng = np.random.default_rng(6006)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 65))
        trace = [
            ([int(b) for b in rng.integers(0, 2, size=d)], int(rng.integers(0, 2)))
            for _ in range(n)
        ]
        brute = nb_mixture_log2(trace, d)
        factored = factored_joint_log2(trace, d)
        assert abs(factored - brute) <= 1e-9 * max(1.0, abs(brute))


def _clause_truth_table(d, literals):
    table = 0
    for x in range(1 << d):
        for lit in literals:
            value = (x >> lit) & 1 if lit < d else 1 - ((x >> (lit - d)) & 1)
            if value:
                table |= 1 << x
                break
    return table


def _and_closure(tables, full):
    closed = {full}
    frontier = [full]
    while frontier:
        grown = []
        for have in frontier:
            for table in tables:
                candidate = have & table
                if candidate not in closed:
                    closed.add(candidate)
                    grown.append(candidate)
        frontier = grown
    return closed


def test_criterion_7_clause_expansion_completeness():
    # every function expressible with width-<=k clauses over d variables
    # must be an AND of canonical basis clauses, and the schedule
    # predictor through the expansion must stay within its guarantee on
    # every one of them, streaming all 2^d inputs
    for d in (1, 2, 3, 4):
        inputs = [
            np.array([(x >> i) & 1 for i in range(d)], dtype=np.uint8)
            for x in range(1 << d)
        ]
        n = 1 << d
        full = (1 << n) - 1
        for k in (1, 2):
            basis = build_basis(d, k)
            canonical = _and_closure(
                [_clause_truth_table(d, basis.clause(j)) for j in range(basis.d_prime)],
                full,
            )
            syntactic = _and_closure(
                [
                    _clause_truth_table(d, literals)
                    for literals in itertools.product(range(2 * d), repeat=k)
                ],
                full,
            )
            assert canonical == syntactic
            bound = (basis.d_prime + 1) * math.log2(n + 1)
            for table in canonical:
                predictor = ExpandedPractical(basis)
                total = 0.0
                for x, side in enumerate(inputs):
                    label = (table >> x) & 1
                    total += predictor.predict(side).loss_bits(label)
                    predictor.update(side, label)
                assert math.isfinite(total)
                assert total <= bound + 1e-9


MUSHROOM_COLUMNS = [
    "class", "cap-shape", "cap-surface", "cap-color", "bruises", "odor",
    "gill-attachment", "gill-spacing", "gill-size", "gill-color",
    "stalk-shape", "stalk-root", "stalk-surface-above-ring",
    "stalk-surface-below-ring", "stalk-color-above-ring",
    "stalk-color-below-ring", "veil-type", "veil-color", "ring-number",
    "ring-type", "spore-print-color", "population", "habitat",
]


@pytest.fixture(scope="module")
def mushroom_file(tmp_path_factory):
    data_dir = Path(__file__).resolve().parent.parent / "data"
    for name in ("agaricus-lepiota.data", "mushroom.csv", "agaricus-lepiota.csv"):
        path = data_dir / name
        if not path.exists():
            continue
        first = path.read_text(encoding="utf-8").splitlines()[0].split(",")
        if "class" in first:
            return str(path)
        if len(first) != len(MUSHROOM_COLUMNS):
            pytest.skip(
                f"{path} has {len(first)} columns, expected the 23-column "
                "mushroom table"
            )
        prepared = tmp_path_factory.mktemp("mushroom") / "mushroom.csv"
        prepared.write_text(
            ",".join(MUSHROOM_COLUMNS) + "\n" + path.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        return str(prepared)
    pytest.skip(
        "mushroom dataset not present and not downloadable from this sandbox; "
        "place the UCI agaricus-lepiota.data file under data/ to enable the "
        "dataset reproduction criteria (see README)"
    )


def test_criterion_8_dataset_reproduction(mushroom_file):
    config = DatasetConfig(mushroom_file, "class", "e")
    expanded = run_dataset(config, "alg2", "kcnf", 2)
    assert abs(expanded.accuracy * 100.0 - 93.27) <= 2.0
    flat = run_dataset(config, "alg2")
    assert flat.accuracy * 100.0 < 60.0
    averaged = run_dataset(config, "madnb")
    assert averaged.trial_bits[0] < 6000.0


@pytest.mark.long
def test_criterion_8_dataset_reproduction_wide(mushroom_file):
    # width-3 expansion: ~2.1M clause features, allowed minutes
    report = run_dataset(DatasetConfig(mushroom_file, "class", "e"), "alg2", "kcnf", 3)
    assert abs(report.accuracy * 100.0 - 98.6) <= 1.5


def test_criterion_9_robustness():
    # one million fuzz steps split across the two always-positive
    # predictors; labels are pure coin flips, so nothing is realizable
    rng = np.random.default_rng(9009)
    per_episode = 2500
    episodes = 200
    sides = [np.array(row, dtype=np.uint8) for row in rng.integers(0, 2, (per_episode, 4))]
    steps = 0
    for build in (lambda: PracticalPredictor(4), lambda: Madnb(4)):
        for _ in range(episodes):
            labels = rng.integers(0, 2, per_episode)
            predictor = build()
            for side, label in zip(sides, labels):
                pred = predictor.predict(side)
                assert pred.log_p0 > -math.inf and pred.log_p1 > -math.inf
                predictor.update(side, int(label))
                steps += 1
    assert steps == 1_000_000

    contradictory = [([1, 0, 1], t % 2) for t in range(32)]
    ledger = cumulative_loss(HybridPredictor(3), contradictory)
    assert ledger.is_infinite
    assert ledger.steps == 32
