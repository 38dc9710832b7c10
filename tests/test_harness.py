import math

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnflearn import harness
from cnflearn.core import BLOCK_BITS, BoundViolation, NumericalError
from cnflearn.harness import (
    ALGORITHMS,
    DatasetConfig,
    SyntheticConfig,
    _check_bound,
    _feature_map,
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
from cnflearn.predictors import HybridPredictor
from cnflearn.reductions import ClauseMap, basis_size


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

    def test_hybrid_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="d >= 2"):
            run_synthetic(SyntheticConfig(algorithm="alg1", d=1, n=8, repeats=1, seed=0))


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


STATE_FIELDS = (
    "_surv", "surviving_count", "_t", "_neg", "_mask", "_totals", "_ones", "_gain", "_alive", "_store",
)


def assert_same_state(got, want):
    """The two predictors carry the same state into their next step."""
    got, want = getattr(got, "inner", got), getattr(want, "inner", want)
    fields = [name for name in STATE_FIELDS if hasattr(want, name)]
    assert fields or hasattr(want, "_cols")
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, name
    if hasattr(want, "_cols"):
        assert np.array_equal(got._cols.cols, want._cols.cols)


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


class TestScoreTraceMatchesSequentialLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(traces())
    def test_every_algorithm_and_reduction(self, case):
        algorithm, reduction, k, d, n, seed, coin_flip, cut1, cut2 = case
        make = lambda: build_predictor(algorithm, d, reduction, k)[0]
        config = SyntheticConfig(algorithm, d, n, 1, seed, reduction, k)
        rng = np.random.default_rng(seed)
        # at most 16 distinct sides, so sides repeat, and coin-flip labels
        # relabel memorised negatives (+inf steps for alg1)
        sides, labels = _trial_stream(rng, config, _feature_map(make()))
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

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2", "memorize", "madnb"])
    def test_trace_crossing_block_boundaries(self, algorithm):
        predictor, d_prime = build_predictor(algorithm, 40, "conj")
        n = 2 * (BLOCK_BITS // d_prime) + 17
        rng = np.random.default_rng(5)
        sides = rng.integers(0, 2, size=(n, 40), dtype=np.uint8)
        sides[1::3] = sides[::3][: len(sides[1::3])]  # repeats, some relabelled
        labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        labels[: n // 2] = sides[: n // 2, :3].all(axis=1)
        want = sequential(build_predictor(algorithm, 40, "conj")[0], sides, labels)
        assert_same_scores(predictor.score_trace(sides, labels), want)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_kcnf_trace_crossing_survivor_blocks(self, algorithm, monkeypatch):
        d, n = 10, 3000
        predictor, d_prime = build_predictor(algorithm, d, "kcnf", 2)
        reference = build_predictor(algorithm, d, "kcnf", 2)[0]
        blocks = []
        columns = ClauseMap.columns

        def recorded(self, sides, cols):
            values = columns(self, sides, cols)
            blocks.append(values.shape)
            return values

        monkeypatch.setattr(ClauseMap, "columns", recorded)
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
        assert blocks[0] == (BLOCK_BITS // d_prime, d_prime)
        assert blocks[1][1] < d_prime
        assert all(rows == BLOCK_BITS // width for rows, width in blocks[:-1])

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

    def test_sniffs_tab_delimiter(self, tmp_path):
        path = write_csv(tmp_path, "t.tsv", "a\tclass\nx\tp\ny\te\n")
        ds = ingest_dataset(DatasetConfig(path, "class", "e"))
        assert ds.d == 2 and ds.n == 2

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

    def test_feature_budget_refusal(self, tmp_path):
        path = self.sample_file(tmp_path)
        with pytest.raises(ValueError, match="budget"):
            run_dataset(DatasetConfig(path, "class", "e"), "alg2", "kcnf", 2, max_features=10)

    def test_blocks_match_sequential_loop(self, tmp_path):
        rows = ["color,size,shape,class"]
        rng = np.random.default_rng(8)
        for _ in range(3000):
            color, size, shape = rng.choice(list("rgb")), rng.choice(list("sl")), rng.choice(list("xyz"))
            noisy = rng.random() < 0.05
            rows.append(f"{color},{size},{shape},{'e' if (color == 'r' or size == 'l') != noisy else 'p'}")
        path = write_csv(tmp_path, "big.csv", "\n".join(rows) + "\n")
        config = DatasetConfig(path, "class", "e")
        report = run_dataset(config, "alg2", "kcnf", 2)
        predictor, d_prime = build_predictor("alg2", report.d, "kcnf", 2)
        assert report.n > BLOCK_BITS // d_prime  # more than one block
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


class TestReports:
    def config(self):
        return SyntheticConfig(algorithm="alg2", d=4, n=32, repeats=3, seed=21)

    def test_json_round_trip(self):
        report = run_synthetic(self.config())
        assert parse_report(emit_report(report, "json")) == report

    def test_infinite_loss_round_trips_as_strict_json(self, tmp_path):
        # the negative side "x" recurs labelled 1, which alg1 prices at zero
        path = write_csv(tmp_path, "t.csv", "a,class\nx,p\ny,e\nx,e\ny,p\nx,p\n")
        report = run_dataset(DatasetConfig(path, "class", "e"), "alg1")
        assert math.isinf(report.max_bits) and report.infinite_losses == 1
        text = emit_report(report, "json")

        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        assert json.loads(text, parse_constant=no_constants)["max_bits"] == "inf"
        assert parse_report(text) == report

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
