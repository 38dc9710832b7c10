import importlib
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnflearn import core, harness, predictors
from cnflearn.cli import main
from cnflearn.core import BLOCK_BITS, BoundViolation, NumericalError
from cnflearn.harness import (
    ALGORITHMS,
    DatasetConfig,
    SyntheticConfig,
    _check_bound,
    _predictor_maker,
    _trial_stream,
    build_predictor,
    emit_report,
    ingest_dataset,
    parse_report,
    run_bounds_table,
    run_dataset,
    run_oracle_checks,
    run_synthetic,
    sample_hypothesis,
)
from cnflearn.predictors import HybridPredictor, PracticalPredictor
from cnflearn.reductions import (
    ClauseBasis,
    ExpandedHybrid,
    ExpandedPractical,
    ReducedPredictor,
    basis_size,
)


# every reduction at d = 3, where d' <= 18 fits bayes-exact
EVERY_MAP = [("none", None), ("conj", None), ("disj", None), ("kcnf", 1), ("kcnf", 2)]


class _ForcedTheta:
    def __init__(self, theta):
        self.theta = theta

    def random(self, size=None):
        if size is None:
            return self.theta
        return np.full(size, 0.5)


class TestSampleHypothesis:
    def test_theta_zero_gives_empty_set(self):
        assert sample_hypothesis(_ForcedTheta(0.0), 6) == frozenset()

    def test_theta_one_gives_full_set(self):
        assert sample_hypothesis(_ForcedTheta(1.0), 6) == frozenset(range(6))

    def test_mean_size_near_half_dimension(self):
        d = 6
        rng = np.random.default_rng(2024)
        draws = 100_000
        total = sum(len(sample_hypothesis(rng, d)) for _ in range(draws))
        # Var|S| = d/6 + d^2/12 with theta uniform
        sigma_mean = math.sqrt((d / 6 + d * d / 12) / draws)
        assert abs(total / draws - d / 2) <= 3 * sigma_mean


class TestConfigValidation:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            SyntheticConfig(algorithm="gradient", d=3, n=10, repeats=1, seed=0)
        with pytest.raises(ValueError, match="unknown reduction 'dnf'; choose from"):
            SyntheticConfig(algorithm="alg2", d=3, n=10, repeats=1, seed=0, reduction="dnf")

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="d must"):
            SyntheticConfig(algorithm="alg2", d=0, n=10, repeats=1, seed=0)
        with pytest.raises(ValueError, match="n must"):
            SyntheticConfig(algorithm="alg2", d=3, n=-1, repeats=1, seed=0)
        with pytest.raises(ValueError, match="repeats"):
            SyntheticConfig(algorithm="alg2", d=3, n=10, repeats=0, seed=0)
        with pytest.raises(ValueError, match="seed"):
            SyntheticConfig(algorithm="alg2", d=3, n=10, repeats=1, seed=-4)

    def test_k_requires_kcnf(self):
        with pytest.raises(ValueError, match="kcnf"):
            SyntheticConfig(algorithm="alg2", d=3, n=10, repeats=1, seed=0, k=2)
        with pytest.raises(ValueError, match="clause width"):
            SyntheticConfig(
                algorithm="alg2", d=3, n=10, repeats=1, seed=0, reduction="kcnf"
            )


def test_no_algorithm_class_subclasses_another():
    # wrapping one class's predict/update must never wrap another's
    for a, b in itertools.permutations(ALGORITHMS.values(), 2):
        assert not issubclass(a, b), (a.__name__, b.__name__)


class TestBuildPredictor:
    """What the benchmark reads off `build_predictor`'s predictors: their
    clause basis and how many clauses survive."""

    # alg1, alg2 and xi-plus keep the same survivors, Valiant's elimination
    EXPANDED = {"alg1": ExpandedHybrid, "alg2": ExpandedPractical, "xi-plus": ExpandedPractical}

    @pytest.mark.parametrize("algorithm", sorted(EXPANDED))
    @pytest.mark.parametrize("d,k", [(4, 2), (5, 3)])
    def test_kcnf_predictor_reports_its_basis_and_survivors(self, algorithm, d, k):
        predictor, d_prime = build_predictor(algorithm, d, "kcnf", k)
        assert isinstance(predictor, ReducedPredictor)
        assert predictor.basis.d_prime == d_prime == basis_size(d, k)
        reference = self.EXPANDED[algorithm](predictor.basis)
        assert predictor.surviving_count == reference.surviving_count == d_prime
        rng = np.random.default_rng(109)
        sides = rng.integers(0, 2, size=(40, d), dtype=np.uint8)
        labels = (rng.random(40) < 0.1).astype(np.uint8)
        predictor.score_trace(sides, labels)
        for side, label in zip(sides, labels.tolist()):
            reference.predict(side)
            reference.update(side, label)
        assert 0 < predictor.surviving_count == reference.surviving_count < d_prime

    @pytest.mark.parametrize(
        "algorithm,reduction,k",
        [("alg2", "bogus", 2), ("alg2", "kcnf", None), ("nope", "none", None), ("alg2", "conj", 3)],
    )
    def test_rejects_a_run_as_the_configs_do(self, algorithm, reduction, k):
        with pytest.raises(ValueError) as checked:
            harness._check_run(algorithm, reduction, k)
        with pytest.raises(ValueError) as raised:
            build_predictor(algorithm, 4, reduction, k)
        assert str(raised.value) == str(checked.value)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("reduction", ["conj", "disj"])
    def test_conj_and_disj_predictors_have_no_basis(self, algorithm, reduction):
        predictor, d_prime = build_predictor(algorithm, 4, reduction)
        assert isinstance(predictor, ReducedPredictor)
        assert predictor.basis is None and d_prime == 8

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("reduction,k", [("conj", None), ("kcnf", 2)])
    def test_surviving_count_is_the_columns_the_inner_predictor_reads(self, algorithm, reduction, k):
        # d = 3 gives d' = 6 and 18, which bayes-exact fits
        predictor, d_prime = build_predictor(algorithm, 3, reduction, k)
        fixed = {"madnb": d_prime, "bayes-exact": d_prime, "memorize": 0}
        assert predictor.surviving_count == fixed.get(algorithm, d_prime)
        predictor.update(np.ones(3, dtype=np.uint8), 1)
        if algorithm in fixed:
            assert predictor.surviving_count == fixed[algorithm]
        else:
            assert 0 < predictor.surviving_count < d_prime

    # bayes-exact is unmapped only: d' = 50 at kcnf2 is past its brute-force cap
    @pytest.mark.parametrize(
        "algorithm,reduction,k",
        [(a, "none", None) for a in sorted(ALGORITHMS)]
        + [(a, "kcnf", 2) for a in sorted(ALGORITHMS) if a != "bayes-exact"],
    )
    def test_numpy_integer_dimension_predicts_as_int(self, algorithm, reduction, k):
        rng = np.random.default_rng(113)
        sides = rng.integers(0, 2, size=(40, 5), dtype=np.uint8)
        labels = sides[:, 0] & sides[:, 3]  # a conjunction, so bayes-exact fits
        scores = []
        for d in (np.int64(5), 5):
            predictor, _ = build_predictor(algorithm, d, reduction, k)
            scores.append(predictor.score_trace(sides[:30], labels[:30]))
            scores.append([predictor.predict(side) for side in sides[30:]])
        assert np.array_equal(scores[0], scores[2]) and scores[1] == scores[3]

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("reduction,k", EVERY_MAP)
    def test_each_step_method_gets_the_side_as_validated(self, algorithm, reduction, k, monkeypatch):
        # the predictor behind a map reads a side itself: no wrapper reads it first
        predictor, _ = build_predictor(algorithm, 3, reduction, k)
        inner = getattr(predictor, "inner", predictor)
        validated, received = [], []
        as_bits = core.as_bits
        monkeypatch.setattr(core, "as_bits", lambda side, d: validated.append(as_bits(side, d)) or validated[-1])
        for name in ("_predict", "_tie_label", "_update"):
            spied = getattr(inner, name)
            monkeypatch.setattr(inner, name, lambda bits, *rest, spied=spied: received.append(bits) or spied(bits, *rest))
        step = (predictor.predict, predictor.tie_label, lambda side: predictor.update(side, side[0]))
        for side in itertools.product((0, 1), repeat=3):  # labels x0, which every map realizes
            for call in step:
                validated.clear()
                received.clear()
                call(list(side))
                assert len(validated) == 1 and received
                assert all(bits is validated[0] for bits in received)

    def test_numpy_integer_dimension_past_the_penalty_expansion(self):
        side = np.zeros(1024, dtype=np.uint8)
        wide, plain = build_predictor("alg1", np.int64(1024))[0], build_predictor("alg1", 1024)[0]
        assert wide.log2_one_minus_alpha == plain.log2_one_minus_alpha
        assert wide.predict(side) == plain.predict(side)

    @pytest.mark.parametrize(
        "algorithm,reduction,k",
        [(a, "kcnf", 2) for a in ("alg1", "alg2", "xi-plus", "madnb")]
        + [(a, r, None) for r in ("conj", "disj") for a in ("alg1", "alg2", "bayes-exact")],
    )
    def test_no_step_writes_the_shared_map(self, algorithm, reduction, k):
        """Two predictors from one maker, stepped interleaved, each run as it
        runs alone, and the map they share is left as it was but for its
        clause matrix and rank table, built on first read, and the survivor
        form it reads feature rows through, built on the first `zeros` and
        rewritten for each side."""
        d, n = 6, 40
        make, mapping, d_prime = _predictor_maker(algorithm, d, reduction, k)
        fields = lambda: {name: value for name, value in vars(mapping).items() if name not in ("_lexicographic", "_bytes")}
        before = arrays_copied(fields())
        config = SyntheticConfig(algorithm, d, n, 1, 0, reduction, k)
        streams = [_trial_stream(np.random.default_rng(seed), config, mapping, d_prime) for seed in (1, 2)]

        def steps(predictor, sides, labels):
            """predict, tie_label and update on each row, pausing after each;
            the last value is each step's prediction and tie label."""
            record = []
            for side, label in zip(sides, labels.tolist()):
                pred = predictor.predict(side)
                yield
                tie = predictor.tie_label(side)
                yield
                predictor.update(side, label)
                record.append((pred.log_p0, pred.log_p1, tie))
                yield
            yield record

        alone, shared = ([make() for _ in streams] for _ in range(2))
        want = [list(steps(predictor, *stream))[-1] for predictor, stream in zip(alone, streams)]
        got = list(zip(*(steps(predictor, *stream) for predictor, stream in zip(shared, streams))))[-1]
        assert list(got) == want
        for predictor, reference in zip(shared, alone):
            assert_same_state(predictor, reference)
        assert unchanged(fields(), before)


class TestRunSynthetic:
    def test_zero_steps_cost_zero_bits(self):
        report = run_synthetic(
            SyntheticConfig(algorithm="alg2", d=4, n=0, repeats=3, seed=1)
        )
        assert report.trial_bits == (0.0, 0.0, 0.0)
        assert report.max_bits == 0.0 and report.mean_bits == 0.0
        assert report.correct == 0 and report.mistakes == 0

    def test_reproducible_and_seed_sensitive(self):
        config = SyntheticConfig(algorithm="alg1", d=5, n=64, repeats=4, seed=11)
        first = run_synthetic(config)
        second = run_synthetic(config)
        assert first == second  # wall_time excluded from equality
        other = run_synthetic(
            SyntheticConfig(algorithm="alg1", d=5, n=64, repeats=4, seed=12)
        )
        assert other.trial_bits != first.trial_bits

    def test_aggregates_are_consistent(self):
        for algo in ("bayes-exact", "xi-plus", "memorize", "madnb"):
            report = run_synthetic(
                SyntheticConfig(algorithm=algo, d=4, n=40, repeats=5, seed=2)
            )
            assert report.max_bits >= report.mean_bits
            assert report.max_bits == max(report.trial_bits)
            assert report.correct + report.mistakes == 40 * 5
            assert report.infinite_losses == 0

    def test_exact_mixture_bound_reported_and_held(self):
        report = run_synthetic(
            SyntheticConfig(algorithm="bayes-exact", d=6, n=80, repeats=6, seed=3)
        )
        assert report.bound_bits == 6.0
        assert report.max_bits <= 6.0 + 1e-9

    # the guarantee each class states, at the dimension it learns over
    LITERAL_BOUNDS = {
        "bayes-exact": lambda d, n: d,
        "alg1": lambda d, n: 2 * d ** 2,
        "alg2": lambda d, n: (d + 1) * math.log2(n + 1),
    }

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("reduction,k", EVERY_MAP)
    def test_bound_is_the_class_guarantee_at_d_prime(self, monkeypatch, algorithm, reduction, k):
        check_bound, checked = harness._check_bound, []

        def recorded(algorithm, total, bound, d_prime, trial):
            checked.append(bound)
            check_bound(algorithm, total, bound, d_prime, trial)

        monkeypatch.setattr(harness, "_check_bound", recorded)
        report = run_synthetic(SyntheticConfig(algorithm, 3, 64, 2, 0, reduction, k))
        literal = self.LITERAL_BOUNDS.get(algorithm)
        want = None if literal is None else literal(report.d_prime, 64)
        # asserted exactly on both trials, reported to 6 significant digits
        assert checked == [want, want]
        assert report.bound_bits == (None if want is None else float(f"{want:.6g}"))

    def test_reduction_dimensions(self):
        base = dict(algorithm="alg2", n=16, repeats=1, seed=0)
        assert run_synthetic(SyntheticConfig(d=3, reduction="conj", **base)).d_prime == 6
        assert run_synthetic(SyntheticConfig(d=3, reduction="disj", **base)).d_prime == 6
        kcnf = run_synthetic(SyntheticConfig(d=3, reduction="kcnf", k=2, **base))
        assert kcnf.d_prime == basis_size(3, 2)

    def test_disj_bound_is_taken_at_the_built_dimension(self):
        # alg1 behind the disj map learns over 2d features, so its bound
        # is 2 * (2d)^2; at d' = d this seed's trials exceeded 2 * d^2
        report = run_synthetic(
            SyntheticConfig("alg1", 4, 64, 100, 1, reduction="disj")
        )
        assert report.d_prime == 8 and report.bound_bits == 128.0
        assert report.max_bits > 2.0 * 4 * 4

    def test_clause_basis_built_once_per_run(self, monkeypatch):
        build_basis = harness.build_basis
        built = []

        def counted(*args):
            built.append(args)
            return build_basis(*args)

        monkeypatch.setattr(harness, "build_basis", counted)
        config = SyntheticConfig("alg2", 16, 64, 20, 0, reduction="kcnf", k=3)
        report = run_synthetic(config)
        assert len(built) == 1
        # the report of the per-trial build, which gave every trial its own basis
        assert emit_report(report) == (
            "algo,d,d_prime,k,n,repeats,seed,max_bits,mean_bits,bound_bits,infinite_losses\n"
            "alg2,16,4992,3,64,20,0,6.02237,6.02237,30069.7,0\n"
        )

    def test_labelling_a_trial_takes_the_target_in_chunks(self):
        # seed 0 draws theta = 0.64, so the target holds 52,347 of the
        # 82,240 clauses at d = 40, k = 3; ANDing all of their 64-word
        # columns at once peaks at 52.4 MiB, in BLOCK_BITS-word chunks at 1.6
        config = SyntheticConfig("alg2", 40, 4096, 1, 0, "kcnf", 3)
        _, mapping, d_prime = _predictor_maker("alg2", 40, "kcnf", 3)
        mapping.clause_matrix  # built on first read, as the run's first trial does
        tracemalloc.start()
        try:
            _trial_stream(np.random.default_rng(0), config, mapping, d_prime)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_hybrid_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="d >= 2"):
            run_synthetic(SyntheticConfig(algorithm="alg1", d=1, n=8, repeats=1, seed=0))

    @pytest.mark.parametrize(
        "algorithm,reduction,k,trial_bits,correct,d_prime,bound_bits",
        [
            ("alg1", "none", None, (1.37532, 3.12757, 6.38173), 188, 3, 18.0),
            ("alg1", "conj", None, (0.00287479, 0.00287479, 23.9426), 189, 6, 72.0),
            ("alg1", "disj", None, (0.00287479, 0.00287479, 23.9426), 189, 6, 72.0),
            ("alg1", "kcnf", 2, (1.34138e-25, 1.34138e-25, 244.101), 187, 18, 648.0),
            ("alg2", "none", None, (6.02237, 9.60733, 9.02237), 188, 3, 24.0895),
            ("alg2", "conj", None, (6.02237, 6.02237, 8.60733), 189, 6, 42.1566),
            ("alg2", "disj", None, (6.02237, 6.02237, 8.60733), 189, 6, 42.1566),
            ("alg2", "kcnf", 2, (6.02237, 6.02237, 16.9516), 187, 18, 114.425),
        ],
    )
    def test_reports_through_each_map_are_pinned(
        self, algorithm, reduction, k, trial_bits, correct, d_prime, bound_bits
    ):
        # trials labelled through the map the predictor runs behind, flipped for disj
        report = run_synthetic(SyntheticConfig(algorithm, 3, 64, 3, 0, reduction, k))
        assert report.trial_bits == trial_bits
        assert (report.correct, report.d_prime, report.bound_bits) == (correct, d_prime, bound_bits)


def sequential(predictor, sides, labels):
    """Reference for score_trace: predict/update one step at a time."""
    log_p, correct = [], []
    for side, label in zip(sides, labels):
        lp = predictor.predict(side).log_prob(label)
        log_p.append(lp)
        correct.append(lp > -1.0 or (lp == -1.0 and predictor.tie_label(side) == label))
        predictor.update(side, label)
    return np.array(log_p, dtype=np.float64), np.array(correct, dtype=bool)


def assert_same_scores(got, want):
    (got_bits, got_correct), (want_bits, want_correct) = got, want
    assert got_bits.shape == want_bits.shape
    # infinite steps must agree exactly, finite ones to 1e-9 bits
    assert np.array_equal(np.isinf(got_bits), np.isinf(want_bits))
    assert np.array_equal(got_bits[np.isinf(got_bits)], want_bits[np.isinf(want_bits)])
    finite = np.isfinite(want_bits)
    assert np.allclose(got_bits[finite], want_bits[finite], rtol=0.0, atol=1e-9)
    assert abs(got_bits[finite].sum() - want_bits[finite].sum()) <= 1e-9
    assert np.array_equal(got_correct, want_correct)


STATE_FIELDS = ("_t", "_neg", "_mask", "_totals", "_ones", "_alive", "_store")


def assert_same_state(got, want):
    """The two predictors carry the same state into their next step."""
    got, want = getattr(got, "inner", got), getattr(want, "inner", want)
    fields = [name for name in STATE_FIELDS if hasattr(want, name)]
    assert fields
    for name in STATE_FIELDS:
        # a field renamed on one side only must fail, not be skipped
        assert hasattr(got, name) == hasattr(want, name), name
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, name


def arrays_copied(value):
    """`value` with its arrays copied, in lists, tuples and dicts too; any other object as it is."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (list, tuple)):
        return type(value)(map(arrays_copied, value))
    if isinstance(value, dict):
        return {key: arrays_copied(item) for key, item in value.items()}
    return value


def unchanged(value, copied):
    """`value` still equals what `arrays_copied` took of it: arrays by dtype and contents."""
    if isinstance(value, np.ndarray) or isinstance(copied, np.ndarray):
        return type(value) is type(copied) and value.dtype == copied.dtype and np.array_equal(value, copied)
    if isinstance(value, (list, tuple)):
        return type(value) is type(copied) and len(value) == len(copied) and all(map(unchanged, value, copied))
    if isinstance(value, dict):
        return value.keys() == copied.keys() and all(unchanged(value[key], copied[key]) for key in value)
    return value is copied or value == copied


@pytest.fixture(scope="module")
def datagen():
    """The benchmark's seeded table generator, perfbench/datagen.py."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("datagen")


@pytest.fixture(scope="module")
def table_prefix(datagen):
    """The 64-row prefix of the benchmark's seed-0 mushroom-shaped table,
    as indicator sides over all 117 values and 0/1 labels."""
    sides, labels = datagen.indicator_matrix(datagen.csv_prefix(datagen.mushroom_csv(0), 64))
    assert sides.shape == (64, 117)
    return sides, labels


@pytest.fixture(scope="module")
def table(datagen):
    """The benchmark's whole seed-0 mushroom-shaped table, as indicator
    sides over all 117 values and 0/1 labels."""
    return datagen.indicator_matrix(datagen.mushroom_csv(0))


def block_rows(width):
    """The rows of an alg1, alg2 or xi-plus `score_trace` block that reads
    `width` surviving columns: whole 64-row words, about BLOCK_BITS words
    with 64 a word for the per-row arrays, at most BLOCK_BITS rows."""
    return 64 * max(1, BLOCK_BITS // (width + 64))


def switching_run(make, sides, labels, cut1, cut2):
    """predict/update before cut1, score_trace up to cut2, then predict/update."""
    predictor = make()
    head = sequential(predictor, sides[:cut1], labels[:cut1])
    middle = predictor.score_trace(sides[cut1:cut2], labels[cut1:cut2])
    tail = sequential(predictor, sides[cut2:], labels[cut2:])
    return tuple(np.concatenate(parts) for parts in zip(head, middle, tail))


REDUCTION_CASES = [
    ("none", None), ("conj", None), ("disj", None), ("kcnf", 1), ("kcnf", 2), ("kcnf", 3),
]


@st.composite
def traces(draw):
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS)))
    reduction, k = draw(st.sampled_from(REDUCTION_CASES))
    # bayes-exact enumerates 2**d' hypotheses, so it gets the smallest d
    d = 2 if algorithm == "bayes-exact" and reduction != "none" else draw(st.integers(2, 4))
    n = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    coin_flip = draw(st.booleans())
    cut1 = draw(st.integers(0, n))
    cut2 = draw(st.integers(cut1, n))
    return algorithm, reduction, k, d, n, seed, coin_flip, cut1, cut2


@st.composite
def word_edge_traces(draw):
    """Survivor traces whose lengths sit at the edges of the 64-row words;
    1,000 rows of d <= 4 bits, mapped or not, are one block of 16 words."""
    algorithm = draw(st.sampled_from(["alg1", "alg2", "xi-plus"]))
    reduction, k = draw(st.sampled_from(REDUCTION_CASES))
    d = draw(st.integers(2, 4))
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 127, 129, 1000]))
    # mostly-1 sides and a run of negatives first put kills in later words
    ones = draw(st.sampled_from([0.5, 0.9, 0.99]))
    quiet = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return algorithm, reduction, k, d, n, ones, quiet, seed


class TestScoreTraceMatchesSequentialLoop:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(word_edge_traces())
    def test_survivor_words_at_the_edges(self, case):
        algorithm, reduction, k, d, n, ones, quiet, seed = case
        rng = np.random.default_rng(seed)
        sides = (rng.random((n, d)) < ones).astype(np.uint8)
        labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        labels[:quiet] = 0
        make = lambda: build_predictor(algorithm, d, reduction, k)[0]
        reference, predictor = make(), make()
        want = sequential(reference, sides, labels)
        assert_same_scores(predictor.score_trace(sides, labels), want)
        assert_same_state(predictor, reference)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(traces())
    def test_every_algorithm_and_reduction(self, case):
        algorithm, reduction, k, d, n, seed, coin_flip, cut1, cut2 = case
        make = lambda: build_predictor(algorithm, d, reduction, k)[0]
        config = SyntheticConfig(algorithm, d, n, 1, seed, reduction, k)
        rng = np.random.default_rng(seed)
        # at most 16 distinct sides, so sides repeat, and coin-flip labels
        # relabel memorised negatives (+inf steps for alg1)
        sides, labels = _trial_stream(rng, config, *_predictor_maker(algorithm, d, reduction, k)[1:])
        if coin_flip:
            labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        reference, predictor = make(), make()
        try:
            want = sequential(reference, sides, labels)
        except (RuntimeError, NumericalError) as exc:
            # bayes-exact has no hypothesis left on non-realizable labels;
            # the batched path must fail at the same step
            with pytest.raises(type(exc)):
                predictor.score_trace(sides, labels)
            assert_same_state(predictor, reference)
            return
        assert_same_scores(predictor.score_trace(sides, labels), want)
        assert_same_state(predictor, reference)
        assert_same_scores(switching_run(make, sides, labels, cut1, cut2), want)

    @pytest.mark.parametrize(
        "algorithm,reduction",
        # a conj case is named by its algorithm alone, an unmapped one with "-none";
        # disj flips the labels the predictor behind it sees
        [pytest.param(a, "conj", id=a) for a in ("alg1", "alg2", "memorize", "madnb")]
        + [pytest.param(a, "none", id=f"{a}-none") for a in ("alg1", "alg2", "memorize", "madnb")]
        + [pytest.param(a, "disj", id=f"{a}-disj") for a in ("alg1", "alg2", "memorize", "madnb")],
    )
    def test_trace_crossing_block_boundaries(self, algorithm, reduction):
        # survivor blocks count their words, so only wide sides make them short
        d = 2048 if algorithm in ("alg1", "alg2") else 40
        predictor, d_prime = build_predictor(algorithm, d, reduction)
        n = 2 * getattr(predictor, "inner", predictor)._block_rows(d_prime) + 17
        rng = np.random.default_rng(5)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        sides[1::3] = sides[::3][: len(sides[1::3])]  # repeats, some relabelled
        labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        labels[: n // 2] = sides[: n // 2, :3].all(axis=1)
        reference = build_predictor(algorithm, d, reduction)[0]
        want = sequential(reference, sides, labels)
        assert_same_scores(predictor.score_trace(sides, labels), want)
        assert_same_state(predictor, reference)

    @pytest.mark.parametrize("reduction,k", [("none", None), ("conj", None), ("disj", None), ("kcnf", 2)])
    def test_alg1_finds_memorised_steps_once_per_trace(self, reduction, k, monkeypatch):
        # each d gives about 4,096 features, so the survivor blocks are 960 rows
        d = {"none": 4096, "kcnf": 46}.get(reduction, 2048)
        calls, blocks = [], []
        memorise, score_columns = predictors.memorise_negatives, HybridPredictor._score_columns

        def counted(sides, labels, neg):
            calls.append(labels.shape[0])
            return memorise(sides, labels, neg)

        def recorded(self, sides, columns, labels):
            blocks.append(labels.shape[0])
            return score_columns(self, sides, columns, labels)

        monkeypatch.setattr(predictors, "memorise_negatives", counted)
        monkeypatch.setattr(HybridPredictor, "_score_columns", recorded)
        predictor, d_prime = build_predictor("alg1", d, reduction, k)
        n = 2 * block_rows(d_prime) + 17
        rng = np.random.default_rng(17)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        sides[1::3] = sides[::3][: len(sides[1::3])]  # repeats, some relabelled
        labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        want = sequential(build_predictor("alg1", d, reduction, k)[0], sides, labels)
        assert_same_scores(predictor.score_trace(sides, labels), want)
        assert calls == [n] and len(blocks) >= 2 and sum(blocks) == n

    def test_unmapped_trace_arrives_in_row_blocks(self, monkeypatch):
        d, n = 16384, 700
        blocks = []
        score_columns = PracticalPredictor._score_columns

        def recorded(self, sides, columns, labels):
            blocks.append((len(columns), labels.shape[0]))
            return score_columns(self, sides, columns, labels)

        monkeypatch.setattr(PracticalPredictor, "_score_columns", recorded)
        rng = np.random.default_rng(4)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        sides[:, d // 2 :] = 1  # half the columns survive every positive
        labels = sides[:, :2].all(axis=1).astype(np.uint8)
        reference = PracticalPredictor(d)
        want = sequential(reference, sides, labels)
        predictor = PracticalPredictor(d)
        assert_same_scores(predictor.score_trace(sides, labels), want)
        assert_same_state(predictor, reference)
        # each block but the last holds the whole words its columns' width allows
        assert len(blocks) >= 2 and sum(rows for _, rows in blocks) == n
        assert blocks[0] == (d, block_rows(d))
        assert all(rows == block_rows(width) for width, rows in blocks[:-1])
        assert blocks[-1][1] <= block_rows(blocks[-1][0])

    # bayes-exact enumerates 2**d' hypotheses, which no map of 117 bits allows
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2", "xi-plus", "memorize", "madnb"])
    @pytest.mark.parametrize("reduction,k", [("conj", None), ("disj", None), ("kcnf", 2)])
    def test_generated_table_prefix_bit_for_bit(self, algorithm, reduction, k, table_prefix):
        # madnb behind kcnf2 reads 27,378-wide feature rows, built from each side's zero set
        sides, labels = table_prefix
        make = lambda: build_predictor(algorithm, sides.shape[1], reduction, k)[0]
        reference, predictor = make(), make()
        want = sequential(reference, sides, labels)
        got = predictor.score_trace(sides, labels)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert_same_state(predictor, reference)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_kcnf_trace_crossing_survivor_blocks(self, algorithm, monkeypatch):
        d, n = 46, 3000  # 4,232 clauses, in 960-row blocks while all survive
        predictor, d_prime = build_predictor(algorithm, d, "kcnf", 2)
        reference = build_predictor(algorithm, d, "kcnf", 2)[0]
        blocks = []
        columns = ClauseBasis.columns

        def recorded(self, words, cols):
            values = columns(self, words, cols)
            blocks.append((64 * values.shape[1], values.shape[0]))  # (rows, width)
            return values

        monkeypatch.setattr(ClauseBasis, "columns", recorded)
        rng = np.random.default_rng(9)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        sides[:, 6:] = 1  # every clause with one of these literals survives
        # the 2-CNF (x0 or x1) and x2, with the first positive well inside
        # the first block, and some positives relabelled 0 later on
        labels = ((sides[:, 0] | sides[:, 1]) & sides[:, 2]).astype(np.uint8)
        labels[:100] = 0
        labels[2000::97] = 0
        want = sequential(reference, sides, labels)
        assert_same_scores(predictor.score_trace(sides, labels), want)
        assert_same_state(predictor, reference)
        assert 0 < predictor.surviving_count < d_prime
        # each block but the last is sized by the survivors left before it
        assert len(blocks) >= 3
        assert blocks[0] == (block_rows(d_prime), d_prime)
        assert blocks[1][1] < d_prime
        assert all(rows == block_rows(width) for rows, width in blocks[:-1])

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_kcnf3_survivors_carry_across_both_paths(self, algorithm):
        d, n = 6, 400
        make = lambda: build_predictor(algorithm, d, "kcnf", 3)[0]
        rng = np.random.default_rng(13)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        # the 3-CNF (x0 or x1 or not x2) and (x3 or x4), some labels flipped
        labels = (sides[:, 0] | sides[:, 1] | (1 - sides[:, 2])) & (sides[:, 3] | sides[:, 4])
        labels[::29] ^= 1
        reference, predictor = make(), make()
        want = sequential(reference, sides, labels)
        head = sequential(predictor, sides[:60], labels[:60])
        survivors = predictor.surviving_count
        middle = predictor.score_trace(sides[60:250], labels[60:250])
        assert 0 < predictor.surviving_count < survivors < basis_size(d, 3)
        tail = sequential(predictor, sides[250:], labels[250:])
        assert_same_scores(tuple(np.concatenate(parts) for parts in zip(head, middle, tail)), want)
        assert_same_state(predictor, reference)

    @pytest.mark.parametrize("d", [63, 64, 100])
    def test_alg1_wide_sides_with_infinite_steps(self, d):
        rng = np.random.default_rng(d)
        pool = rng.integers(0, 2, size=(12, d), dtype=np.uint8)
        pool[:6, :-8] = pool[0, :-8]  # half the sides differ only in the last 8 bits
        sides = pool[rng.integers(0, 12, size=300)]
        labels = rng.integers(0, 2, size=300, dtype=np.uint8)
        want = sequential(HybridPredictor(d), sides, labels)
        assert np.isinf(want[0]).any()
        assert_same_scores(HybridPredictor(d).score_trace(sides, labels), want)
        assert_same_scores(
            switching_run(lambda: HybridPredictor(d), sides, labels, 100, 200), want
        )

    @pytest.mark.parametrize("d", [2, 1024])
    @pytest.mark.parametrize("algorithm", ["alg1", "xi-plus"])
    def test_label0_prices_at_the_count_edges(self, algorithm, d):
        make = lambda: build_predictor(algorithm, d)[0]
        # all-ones sides switch off no column: m = 0 on every row, so label 0
        # costs +inf until alg1 memorises the side
        ones = np.ones((4, d), dtype=np.uint8)
        # an all-zero side switches off every surviving column: m = d; its
        # label 1 then switches them all off
        mixed = np.ones((5, d), dtype=np.uint8)
        mixed[[0, 2]] = 0
        mixed[3, : d // 2] = 0
        cases = [
            (ones, np.array([1, 0, 1, 0], dtype=np.uint8)),
            (mixed, np.array([0, 1, 0, 1, 1], dtype=np.uint8)),
            (np.zeros((0, d), dtype=np.uint8), np.zeros(0, dtype=np.uint8)),
        ]
        for sides, labels in cases:
            reference, predictor = make(), make()
            want = sequential(reference, sides, labels)
            got = predictor.score_trace(sides, labels)
            assert_same_scores(got, want)
            assert_same_state(predictor, reference)
        assert np.isneginf(sequential(make(), *cases[0])[0][1])

    @pytest.mark.parametrize("reduction,k", [("none", None), ("conj", None), ("disj", None), ("kcnf", 2)])
    def test_alg1_second_block_reads_the_negative_store(self, reduction, k, monkeypatch):
        # each d gives about 4,096 features, so the survivor blocks are 960 rows
        d = {"none": 4096, "kcnf": 46}.get(reduction, 2048)
        predictor, d_prime = build_predictor("alg1", d, reduction, k)
        n = block_rows(d_prime) + 300
        stored = []
        score_columns = HybridPredictor._score_columns

        def recorded(self, sides, columns, labels):
            stored.append(len(self._neg))
            return score_columns(self, sides, columns, labels)

        monkeypatch.setattr(HybridPredictor, "_score_columns", recorded)
        rng = np.random.default_rng(21)
        sides = np.ones((n, d), dtype=np.uint8)
        sides[:, :8] = rng.integers(0, 2, size=(n, 8), dtype=np.uint8)  # 256 sides, so they repeat
        labels = sides[:, :2].all(axis=1).astype(np.uint8)
        labels[-300::7] = 1  # stored negatives relabelled 1 cost +inf
        if reduction == "disj":
            labels ^= 1  # the predictor behind the map sees the labels above
        reference = build_predictor("alg1", d, reduction, k)[0]
        want = sequential(reference, sides, labels)
        assert np.isinf(want[0][-300:]).any()
        assert_same_scores(predictor.score_trace(sides, labels), want)
        assert_same_state(predictor, reference)
        # the store holds the trace's negatives before the first block
        assert stored == [len(getattr(reference, "inner", reference)._neg)] * 2

    def test_label_arrays_follow_the_bit_rule(self):
        sides = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="labels"):
            HybridPredictor(3).score_trace(sides, np.array([0, 2], dtype=np.uint8))
        for labels in (np.array([False, True]), np.array([0, 1], dtype=np.int64)):
            want = sequential(HybridPredictor(3), sides, labels)
            assert_same_scores(HybridPredictor(3).score_trace(sides, labels), want)

    def test_rejects_bad_matrices(self):
        predictor = HybridPredictor(3)
        with pytest.raises(ValueError, match="two-dimensional"):
            predictor.score_trace([1, 0, 1], [1])
        with pytest.raises(ValueError, match="expected 3 bits"):
            predictor.score_trace(np.zeros((2, 4), dtype=np.uint8), [0, 1])
        with pytest.raises(ValueError, match="0 or 1"):
            predictor.score_trace(np.full((2, 3), 2, dtype=np.uint8), [0, 1])
        with pytest.raises(ValueError, match="labels"):
            predictor.score_trace(np.zeros((2, 3), dtype=np.uint8), [0, 2])
        with pytest.raises(ValueError, match="expected 2 labels"):
            predictor.score_trace(np.zeros((2, 3), dtype=np.uint8), [0])


class TestSurvivorBlocks:
    """alg1, alg2 and xi-plus size a `score_trace` block by the packed words
    it holds: a word per surviving column per 64 rows, about BLOCK_BITS in
    all, and never more than BLOCK_BITS rows."""

    def recorded_blocks(self, algorithm, d, reduction, k, sides, labels, monkeypatch):
        """(width, words, rows) of each block the predictor scores, as its
        reader packs the block's surviving columns."""
        blocks = []
        predictor = build_predictor(algorithm, d, reduction, k)[0]
        reader = getattr(predictor, "inner", predictor)._reader
        values = reader.values

        def recorded(sides, columns):
            words = values(sides, columns)
            blocks.append((len(columns), words.shape[1], sides.shape[0]))
            return words

        monkeypatch.setattr(reader, "values", recorded)
        predictor.score_trace(sides, labels)
        return blocks

    def assert_sized_by_words(self, blocks, n):
        assert len(blocks) >= 2 and sum(rows for _, _, rows in blocks) == n
        assert all(rows == block_rows(width) for width, _, rows in blocks[:-1])
        for width, words, rows in blocks:
            assert words == -(-rows // 64) and width * words <= BLOCK_BITS and rows <= BLOCK_BITS

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2", "xi-plus"])
    @pytest.mark.parametrize("d", [1, 1024])
    def test_unmapped_blocks(self, algorithm, d, monkeypatch):
        d = max(d, 2) if algorithm == "alg1" else d  # the hybrid construction needs d >= 2
        n = 2 * block_rows(d) + 17
        rng = np.random.default_rng(d)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        sides[:, d // 2 :] = 1  # half the columns survive every positive
        labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        blocks = self.recorded_blocks(algorithm, d, "none", None, sides, labels, monkeypatch)
        assert blocks[0][::2] == (d, block_rows(d))
        self.assert_sized_by_words(blocks, n)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2", "xi-plus"])
    def test_kcnf2_blocks_on_the_generated_table(self, algorithm, table, monkeypatch):
        sides, labels = table
        blocks = self.recorded_blocks(algorithm, sides.shape[1], "kcnf", 2, sides, labels, monkeypatch)
        # 27,378 clauses survive before the first row, in 128-row blocks;
        # 64-row blocks took 127 to cover the table
        assert blocks[0] == (27378, 2, 128) and len(blocks) == 5
        self.assert_sized_by_words(blocks, labels.shape[0])

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2", "xi-plus"])
    def test_kcnf2_trace_in_bounded_memory(self, algorithm, table):
        # about 1.2-1.6 MiB with 64-row blocks and 1.7-2.1 MiB with these,
        # the clause matrix built beforehand as by the first block
        sides, labels = table
        predictor = build_predictor(algorithm, sides.shape[1], "kcnf", 2)[0]
        predictor.basis.clause_matrix
        tracemalloc.start()
        try:
            predictor.score_trace(sides, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBoundCheck:
    def test_violation_raises(self):
        with pytest.raises(BoundViolation, match="alg1"):
            _check_bound("alg1", 33.0, 32.0, 4, 0)
        with pytest.raises(BoundViolation):
            _check_bound("alg2", math.inf, 100.0, 4, 7)

    def test_equality_and_none_pass(self):
        _check_bound("alg1", 32.0, 32.0, 4, 0)
        _check_bound("madnb", 1e9, None, 4, 0)


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngestDataset:
    def test_tiny_file_one_hot(self, tmp_path):
        path = write_csv(tmp_path, "t.csv", "a,class\nx,p\ny,e\n")
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        assert ds.features == (("a", "x"), ("a", "y"))
        assert [tuple(ex.side) for ex in ds.examples] == [(1, 0), (0, 1)]
        assert [ex.label for ex in ds.examples] == [0, 1]

    def test_dimension_counts_attribute_value_pairs(self, tmp_path):
        path = write_csv(
            tmp_path, "t.csv", "a,b,class\nx,?,p\ny,u,e\nx,u,e\n"
        )
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        # '?' is an ordinary categorical value
        assert ds.d == 4
        assert ("b", "?") in ds.features

    def test_file_order_preserved_without_seed(self, tmp_path):
        path = write_csv(tmp_path, "t.csv", "a,class\nx,p\ny,e\nz,p\n")
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        assert [ex.label for ex in ds.examples] == [0, 1, 0]

    def test_shuffle_is_seeded_permutation(self, tmp_path):
        rows = "".join(f"v{i},{'e' if i % 3 else 'p'}\n" for i in range(30))
        path = write_csv(tmp_path, "t.csv", "a,class\n" + rows)
        plain = ingest_dataset(DatasetConfig(path, "class", "e"))
        once = ingest_dataset(DatasetConfig(path, "class", "e", shuffle_seed=5))
        again = ingest_dataset(DatasetConfig(path, "class", "e", shuffle_seed=5))
        key = lambda ex: (ex.side.tobytes(), ex.label)
        assert list(map(key, once.examples)) == list(map(key, again.examples))
        assert list(map(key, once.examples)) != list(map(key, plain.examples))
        assert sorted(map(key, once.examples)) == sorted(map(key, plain.examples))

    def test_columns_encode_in_header_order_with_sorted_values(self, tmp_path):
        rng = np.random.default_rng(3)
        table = [[rng.choice(list("zqam?")) for _ in range(4)] for _ in range(40)]
        text = "b,class,a,c\n" + "".join(
            f"{b},{'e' if i % 3 else 'p'},{a},{c}\n" for i, (b, a, c, _) in enumerate(table)
        )
        ds = ingest_dataset(DatasetConfig(write_csv(tmp_path, "t.csv", text), "class", "e"))
        column = {"b": 0, "a": 1, "c": 2}
        want_features = [
            (name, value) for name, j in column.items() for value in sorted({row[j] for row in table})
        ]
        assert ds.features == tuple(want_features)
        for i, (row, ex) in enumerate(zip(table, ds.examples)):
            want = [int(row[column[name]] == value) for name, value in want_features]
            assert ex.side.dtype == np.uint8 and ex.side.tolist() == want
            assert ex.label == int(i % 3 != 0) and type(ex.label) is int

    @pytest.mark.parametrize("shuffle_seed", [None, 5])
    def test_matrix_is_the_stacked_examples(self, tmp_path, shuffle_seed):
        rows = "".join(f"v{i % 7},w{i % 3},{'e' if i % 4 else 'p'}\n" for i in range(30))
        path = write_csv(tmp_path, "t.csv", "a,b,class\n" + rows)
        ds = ingest_dataset(DatasetConfig(path, "class", "e", shuffle_seed=shuffle_seed))
        assert ds.sides.dtype == np.uint8 and ds.sides.shape == (ds.n, ds.d) == (30, 10)
        assert np.array_equal(ds.sides, np.stack([ex.side for ex in ds.examples]))
        assert np.array_equal(ds.labels, [ex.label for ex in ds.examples])
        assert all(type(ex.label) is int for ex in ds.examples)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        text = "class,a\np,x\ne,y\ne,x\n"
        plain = ingest_dataset(DatasetConfig(write_csv(tmp_path, "t.csv", text), "class", "e"))
        marked = ingest_dataset(DatasetConfig(write_csv(tmp_path, "m.csv", "\ufeff" + text), "class", "e"))
        assert marked.features == plain.features == (("a", "x"), ("a", "y"))
        assert np.array_equal(marked.sides, plain.sides)
        assert np.array_equal(marked.labels, plain.labels)

    def test_sniffs_tab_delimiter(self, tmp_path):
        path = write_csv(tmp_path, "t.tsv", "a\tclass\nx\tp\ny\te\n")
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        assert ds.d == 2 and ds.n == 2

    def test_header_only_file_has_no_label_values(self, tmp_path, capsys):
        path = write_csv(tmp_path, "t.csv", "a,class\n")
        with pytest.raises(ValueError, match=r"exactly two values, found \[\]"):
            ingest_dataset(DatasetConfig(path, "class", "e"))
        code = main(["dataset", "--path", path, "--label-column", "class", "--positive-label", "e", "--algo", "alg2"])
        assert code == 2 and "exactly two values, found []" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_csv(tmp_path, "t.csv", "a,class\n\nx,p\n\n\ny,e\n\n")
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        assert ds.n == 2 and ds.sides.tolist() == [[1, 0], [0, 1]] and ds.labels.tolist() == [0, 1]

    def test_quoted_cells_stay_one_token(self, tmp_path):
        path = write_csv(tmp_path, "t.csv", 'a,class\n"x,1",p\n"y\nz",e\n"x,1",e\n')
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        assert ds.features == (("a", "x,1"), ("a", "y\nz"))
        assert ds.sides.tolist() == [[1, 0], [0, 1], [1, 0]] and ds.labels.tolist() == [0, 1, 1]

    def test_numeric_looking_values_sort_as_strings(self, tmp_path):
        path = write_csv(tmp_path, "t.csv", "a,class\n9,p\n10,e\n2,e\n")
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        assert ds.features == (("a", "10"), ("a", "2"), ("a", "9"))
        assert ds.sides.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]

    def test_generated_table_matches_the_benchmark_encoding(self, tmp_path, datagen):
        # perfbench encodes the same table on its own, by numpy string compares
        text = datagen.mushroom_csv(0)
        ds = ingest_dataset(DatasetConfig(write_csv(tmp_path, "m.csv", text), "class", "e"))
        sides, labels = datagen.indicator_matrix(text)
        assert ds.sides.shape == (8124, 117)
        assert ds.sides.dtype == sides.dtype and np.array_equal(ds.sides, sides)
        assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)

    def test_diagnostic_failures(self, tmp_path):
        ok = "a,class\nx,p\ny,e\n"
        path = write_csv(tmp_path, "t.csv", ok)
        with pytest.raises(ValueError, match="label column"):
            ingest_dataset(DatasetConfig(path, "target", "e"))
        with pytest.raises(ValueError, match="positive label"):
            ingest_dataset(DatasetConfig(path, "class", "edible"))
        with pytest.raises(ValueError, match="cannot read"):
            ingest_dataset(DatasetConfig(str(tmp_path / "absent.csv"), "class", "e"))
        three = write_csv(tmp_path, "u.csv", "a,class\nx,p\ny,e\nz,q\n")
        with pytest.raises(ValueError, match="exactly two"):
            ingest_dataset(DatasetConfig(three, "class", "e"))
        one = write_csv(tmp_path, "v.csv", "a,class\nx,e\ny,e\n")
        with pytest.raises(ValueError, match="exactly two"):
            ingest_dataset(DatasetConfig(one, "class", "e"))
        ragged = write_csv(tmp_path, "w.csv", "a,class\nx,p,extra\ny,e\n")
        with pytest.raises(ValueError, match="cells"):
            ingest_dataset(DatasetConfig(ragged, "class", "e"))
        dup = write_csv(tmp_path, "x.csv", "a,a,class\nx,y,p\nu,v,e\n")
        with pytest.raises(ValueError, match="duplicate"):
            ingest_dataset(DatasetConfig(dup, "class", "e"))


class TestRunDataset:
    def sample_file(self, tmp_path):
        rows = ["color,size,class"]
        rng = np.random.default_rng(7)
        for _ in range(40):
            color = ["r", "g", "b"][rng.integers(3)]
            size = ["s", "l"][rng.integers(2)]
            label = "e" if (color == "r" or size == "l") else "p"
            rows.append(f"{color},{size},{label}")
        return write_csv(tmp_path, "d.csv", "\n".join(rows) + "\n")

    def test_counts_add_up(self, tmp_path):
        path = self.sample_file(tmp_path)
        report = run_dataset(DatasetConfig(path, "class", "e"), "alg2")
        assert report.correct + report.mistakes == report.n == 40
        assert report.accuracy == pytest.approx(report.correct / 40, abs=1e-6)
        assert report.d == 5 and report.d_prime == 5
        assert report.repeats == 1 and report.source == path

    def test_kcnf_reduction_learns_disjunctive_rule(self, tmp_path):
        path = self.sample_file(tmp_path)
        flat = run_dataset(DatasetConfig(path, "class", "e"), "alg2")
        expanded = run_dataset(DatasetConfig(path, "class", "e"), "alg2", "kcnf", 2)
        assert expanded.d_prime == basis_size(5, 2)
        # the labelling rule is a width-2 disjunction, so the expanded
        # class fits it while the monotone class cannot
        assert expanded.mistakes < flat.mistakes

    def test_feature_budget_refusal(self, tmp_path, capsys):
        # 30 two-valued columns are 60 indicators: 8,083,120 clauses at
        # k = 4, past the default budget of 4,000,000
        rows = [",".join([f"c{j}" for j in range(30)] + ["class"])]
        rows += [",".join(["a"] * 30 + ["e"]), ",".join(["b"] * 30 + ["p"])]
        path = write_csv(tmp_path, "wide.csv", "\n".join(rows) + "\n")
        message = "basis for d=60, k=4 has 8083120 clauses, over the budget of 4000000"
        with pytest.raises(ValueError, match=message):
            run_dataset(DatasetConfig(path, "class", "e"), "alg2", "kcnf", 4)
        code = main(["dataset", "--path", path, "--label-column", "class", "--positive-label", "e",
                     "--algo", "alg2", "--reduction", "kcnf", "--k", "4"])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")

    def test_blocks_match_sequential_loop(self, tmp_path):
        # eight three-valued columns the label ignores widen the sides to 32
        # indicators, 2,048 clauses, so the survivor blocks are 1,984 rows
        rows = ["color,size,shape," + ",".join(f"n{j}" for j in range(8)) + ",class"]
        rng, noise = np.random.default_rng(8), np.random.default_rng(9).choice(list("uvw"), size=(3000, 8))
        for extra in noise:
            color, size, shape = rng.choice(list("rgb")), rng.choice(list("sl")), rng.choice(list("xyz"))
            noisy = rng.random() < 0.05
            label = "e" if (color == "r" or size == "l") != noisy else "p"
            rows.append(f"{color},{size},{shape},{','.join(extra)},{label}")
        path = write_csv(tmp_path, "big.csv", "\n".join(rows) + "\n")
        config = DatasetConfig(path, "class", "e")
        report = run_dataset(config, "alg2", "kcnf", 2)
        predictor, d_prime = build_predictor("alg2", report.d, "kcnf", 2)
        assert report.n > block_rows(d_prime)  # more than one block
        examples = ingest_dataset(config).examples
        log_p, correct = sequential(
            predictor, [ex.side for ex in examples], [ex.label for ex in examples]
        )
        assert report.trial_bits[0] == pytest.approx(-log_p.sum(), rel=1e-5)  # 6 digits
        assert report.correct == int(correct.sum())

    def test_bound_field_reported_not_asserted(self, tmp_path):
        path = self.sample_file(tmp_path)
        report = run_dataset(DatasetConfig(path, "class", "e"), "madnb")
        assert report.bound_bits is None
        report = run_dataset(DatasetConfig(path, "class", "e"), "alg1")
        assert report.bound_bits == 2.0 * 5 * 5

    def test_unknown_algorithm_lists_the_choices(self, tmp_path):
        # the same message as SyntheticConfig's, from the same check
        path = self.sample_file(tmp_path)
        with pytest.raises(ValueError, match="unknown algorithm 'alg3'; choose from"):
            run_dataset(DatasetConfig(path, "class", "e"), "alg3")


INFINITE_LOSS_CSV = "a,class\nx,p\ny,e\nx,e\ny,p\nx,p\n"


class TestReports:
    def config(self):
        return SyntheticConfig(algorithm="alg2", d=4, n=32, repeats=3, seed=21)

    def test_json_round_trip(self):
        report = run_synthetic(self.config())
        assert parse_report(emit_report(report, "json")) == report

    def test_infinite_loss_round_trips_as_strict_json(self, tmp_path):
        # the negative side "x" recurs labelled 1, which alg1 prices at zero
        path = write_csv(tmp_path, "t.csv", INFINITE_LOSS_CSV)
        report = run_dataset(DatasetConfig(path, "class", "e"), "alg1")
        assert math.isinf(report.max_bits) and report.infinite_losses == 1
        text = emit_report(report, "json")

        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        assert json.loads(text, parse_constant=no_constants)["max_bits"] == "inf"
        assert parse_report(text) == report

    def test_json_text_round_trips_byte_for_byte(self, tmp_path):
        path = write_csv(tmp_path, "t.csv", INFINITE_LOSS_CSV)
        reports = [
            run_synthetic(self.config()),
            run_dataset(DatasetConfig(path, "class", "e"), "memorize", "kcnf", 2),
            run_dataset(DatasetConfig(path, "class", "e"), "alg1"),
        ]
        assert math.isinf(reports[-1].max_bits)
        for report in reports:
            text = emit_report(report, "json")
            assert emit_report(parse_report(text), "json") == text

    def test_json_keys_are_the_report_fields_in_order(self):
        keys = list(json.loads(emit_report(run_synthetic(self.config()), "json")))
        assert keys == [
            "algo", "reduction", "k", "d", "d_prime", "n", "repeats", "seed", "source",
            "max_bits", "mean_bits", "bound_bits", "infinite_losses", "correct",
            "mistakes", "accuracy", "trial_bits", "wall_time",
        ]

    def test_source_named_inf_stays_a_string(self):
        report = replace(run_synthetic(self.config()), source="inf")
        parsed = parse_report(emit_report(report, "json"))
        assert parsed.source == "inf" and parsed == report

    def test_emission_is_deterministic(self):
        report = run_synthetic(self.config())
        assert emit_report(report, "csv") == emit_report(report, "csv")
        assert emit_report(report, "json") == emit_report(report, "json")

    def test_synthetic_csv_schema(self):
        report = run_synthetic(self.config())
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == (
            "algo,d,d_prime,k,n,repeats,seed,max_bits,mean_bits,bound_bits,infinite_losses"
        )
        cells = lines[1].split(",")
        assert cells[0] == "alg2" and cells[3] == "" and cells[-1] == "0"

    def test_dataset_csv_schema(self, tmp_path):
        path = write_csv(tmp_path, "t.csv", "a,class\nx,p\ny,e\n")
        report = run_dataset(DatasetConfig(path, "class", "e"), "memorize")
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == "algo,d,d_prime,k,n,accuracy,correct,mistakes,total_bits,bound_bits"
        assert lines[1].startswith("memorize,2,2,,2,")

    def test_unknown_format_rejected(self):
        report = run_synthetic(self.config())
        with pytest.raises(ValueError, match="format"):
            emit_report(report, "xml")


class TestBoundsTable:
    def test_rows_match_individual_runs(self):
        reports, table = run_bounds_table([3], n=64, repeats=3, seed=5)
        assert reports[0] == run_synthetic(
            SyntheticConfig(algorithm="alg1", d=3, n=64, repeats=3, seed=5)
        )
        assert reports[1] == run_synthetic(
            SyntheticConfig(algorithm="alg2", d=3, n=64, repeats=3, seed=5)
        )
        lines = table.splitlines()
        assert lines[0] == "d,algo,n,repeats,seed,max_bits,mean_bits,bound_bits"
        assert lines[1].split(",")[-1] == "18"  # 2 * 3^2
        assert lines[2].split(",")[-1] == "24"  # 4 * log2(65) = 24.08 -> 24

    def test_each_trial_is_drawn_once(self, monkeypatch):
        """alg1 and alg2 score the one draw of each trial of a d."""
        draws = []
        trial_stream = harness._trial_stream

        def counted(rng, config, mapping, d_prime):
            draws.append(config.d)
            return trial_stream(rng, config, mapping, d_prime)

        monkeypatch.setattr(harness, "_trial_stream", counted)
        run_bounds_table([2, 3], n=64, repeats=3, seed=5)
        assert draws == [2, 2, 2, 3, 3, 3]
        draws.clear()
        run_synthetic(SyntheticConfig(algorithm="alg2", d=3, n=64, repeats=3, seed=5))
        assert draws == [3, 3, 3]

    @pytest.mark.parametrize(
        "cls,message",
        [
            (HybridPredictor, "alg1 lost 4100.35 bits on a realizable trial, guaranteed at most 32 (d'=4, trial 0)"),
            (PracticalPredictor, "alg2 lost 4105.93 bits on a realizable trial, guaranteed at most 30.1118 (d'=4, trial 0)"),
        ],
    )
    def test_violation_names_the_algorithm_and_trial(self, monkeypatch, cls, message):
        """An algorithm charged 64 bits a step too many breaks its bound on trial 0."""
        score_trace = cls.score_trace

        def overpaid(self, sides, labels):
            log_p, correct = score_trace(self, sides, labels)
            return log_p - 64.0, correct

        monkeypatch.setattr(cls, "score_trace", overpaid)
        with pytest.raises(BoundViolation) as raised:
            run_bounds_table([4], n=64, repeats=2, seed=0)
        assert str(raised.value) == message


class TestOracleChecks:
    def test_all_suites_pass(self):
        results = run_oracle_checks(d_cap=8, trials=40, seed=1)
        assert len(results) == 5
        assert all(result.passed for result in results)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="d must"):
            run_oracle_checks(d_cap=1)
        with pytest.raises(ValueError, match="trials"):
            run_oracle_checks(trials=0)
