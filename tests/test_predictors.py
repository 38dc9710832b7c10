import math

import numpy as np
import pytest

from cnflearn.core import Prediction, cumulative_loss, log1mexp2
from cnflearn.oracles import count_consistent, counting_side_info, hybrid_column_penalty
from cnflearn.predictors import (
    ExactMixture,
    HeuristicMixture,
    HybridPredictor,
    Memorizer,
    PracticalPredictor,
    _side_groups,
    exact_mixture_joint,
    map_index_set,
    positive_trace_log2,
)


def realizable_trace(rng, d, n):
    """Labels generated by a random conjunction on uniform side info."""
    target = rng.random(d) < rng.random()
    sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    labels = sides[:, target].all(axis=1).astype(int)
    return sides, labels


class TestExactMixture:
    def test_single_positive_example(self):
        mix = ExactMixture(2)
        pred = mix.predict([1, 0])
        assert math.isclose(pred.prob(1), 0.5)
        assert exact_mixture_joint([([1, 0], 1)], 2) == -1.0

    def test_two_negatives_leave_one_hypothesis(self):
        trace = [([1, 0], 0), ([0, 1], 0)]
        assert math.isclose(exact_mixture_joint(trace, 2), -2.0)
        mix = ExactMixture(2)
        for side, label in trace:
            mix.update(side, label)
        assert mix.consistent_count == 1

    def test_consistent_count_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            sides, labels = realizable_trace(rng, d, int(rng.integers(1, 30)))
            trace = list(zip(sides, labels))
            mix = ExactMixture(d)
            for side, label in trace:
                mix.update(side, label)
            assert mix.consistent_count == count_consistent(trace, d)

    def test_per_step_losses_telescope_to_joint(self):
        rng = np.random.default_rng(5)
        for alpha in (0.5, 0.2, 0.9):
            d = 6
            sides, labels = realizable_trace(rng, d, 40)
            mix = ExactMixture(d, alpha=alpha)
            bits = 0.0
            for side, label in zip(sides, labels):
                bits += mix.predict(side).loss_bits(int(label))
                mix.update(side, label)
            assert math.isclose(bits, -mix.log_joint(), rel_tol=0, abs_tol=1e-9)

    def test_realizable_loss_at_most_d(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            sides, labels = realizable_trace(rng, d, 60)
            ledger = cumulative_loss(ExactMixture(d), zip(sides, labels))
            assert ledger.total_bits <= d + 1e-9

    def test_exactly_d_bits_on_counting_rows(self):
        # every conjunction target over the full row enumeration is pinned
        # down completely, costing exactly d bits
        for d in (1, 2, 3, 4):
            rows = counting_side_info(d)
            targets = set()
            for s in range(1 << d):
                labels = tuple(
                    int(all(r[i] for i in range(d) if s >> i & 1)) for r in rows
                )
                targets.add(labels)
                ledger = cumulative_loss(ExactMixture(d), zip(rows, labels))
                assert math.isclose(ledger.total_bits, d, rel_tol=0, abs_tol=1e-9)
            assert len(targets) == 1 << d

    def test_contradiction_then_predict_raises(self):
        mix = ExactMixture(2)
        mix.update([1, 1], 1)
        mix.update([1, 1], 0)
        assert mix.consistent_count == 0
        with pytest.raises(RuntimeError):
            mix.predict([1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactMixture(21)
        with pytest.raises(ValueError):
            ExactMixture(3, alpha=1.0)


class TestPositiveTraceForm:
    def test_half_alpha_single_side(self):
        assert positive_trace_log2(0.5, [[1, 0]], 2) == -1.0

    def test_three_quarters_alpha(self):
        # (1-a) + a*col per column: (0.25 + 0.75)*(0.25) = 1/4
        assert math.isclose(positive_trace_log2(0.75, [[1, 0]], 2), -2.0)

    def test_exact_match_with_enumeration_at_half(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(1, 11))
            sides = rng.integers(0, 2, size=(int(rng.integers(1, 20)), d))
            closed = positive_trace_log2(0.5, list(sides), d)
            brute = exact_mixture_joint([(s, 1) for s in sides], d)
            assert closed == brute or abs(closed - brute) <= 1e-12

    def test_matches_enumeration_for_general_alpha(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            alpha = float(rng.uniform(0.05, 0.95))
            sides = rng.integers(0, 2, size=(int(rng.integers(1, 15)), d))
            closed = positive_trace_log2(alpha, list(sides), d)
            brute = exact_mixture_joint([(s, 1) for s in sides], d, alpha=alpha)
            assert math.isclose(closed, brute, rel_tol=0, abs_tol=1e-9)

    def test_rejects_bad_alpha_and_dimension(self):
        for alpha, d in ((0.0, 2), (1.0, 2), (0.5, 0)):
            with pytest.raises(ValueError):
                positive_trace_log2(alpha, [], d)


class TestMapIndexSet:
    def test_large_alpha_keeps_surviving_columns(self):
        est = map_index_set(0.9, [[1, 1, 0], [1, 0, 0]], 3)
        assert est.indices == frozenset({0})
        assert est.unique

    def test_small_alpha_prefers_empty(self):
        est = map_index_set(0.1, [[1, 1, 0], [1, 0, 0]], 3)
        assert est.indices == frozenset()
        assert est.unique

    def test_half_alpha_flags_ties(self):
        est = map_index_set(0.5, [[1, 1, 0], [1, 0, 0]], 3)
        assert est.indices == frozenset({0})
        assert not est.unique
        # all columns ruled out: only the empty set is consistent
        pinned = map_index_set(0.5, [[0, 0, 0]], 3)
        assert pinned.indices == frozenset()
        assert pinned.unique


class TestHeuristicMixture:
    def test_fresh_prediction(self):
        h = HeuristicMixture(2)
        assert math.isclose(h.predict([1, 0]).prob(1), 0.5)

    def test_can_assign_zero_to_negative(self):
        h = HeuristicMixture(2)
        h.update([1, 0], 1)
        pred = h.predict([1, 1])
        assert pred.log_p1 == 0.0
        assert pred.loss_bits(0) == math.inf

    def test_linear_loss_on_repeated_negatives(self):
        trace = [([1, 0], 0)] * 25
        ledger = cumulative_loss(HeuristicMixture(2), trace)
        assert math.isclose(ledger.total_bits, 25.0)

    def test_ratio_matches_positive_restricted_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            d = int(rng.integers(1, 8))
            sides, labels = realizable_trace(rng, d, 30)
            h = HeuristicMixture(d)
            positives = []
            for side, label in zip(sides, labels):
                got = h.predict(side).log_p1
                want = exact_mixture_joint(
                    [(s, 1) for s in positives] + [(side, 1)], d
                ) - exact_mixture_joint([(s, 1) for s in positives], d)
                assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)
                h.update(side, label)
                if label:
                    positives.append(side)


class TestMemorizer:
    def test_unseen_then_seen(self):
        m = Memorizer(2)
        assert m.predict([1, 0]).prob(1) == 0.5
        m.update([1, 0], 1)
        assert m.predict([1, 0]).prob(1) == 1.0

    def test_contradictory_relabel_keeps_first(self):
        m = Memorizer(2)
        m.update([1, 0], 1)
        m.update([1, 0], 0)
        assert m.predict([1, 0]).prob(1) == 1.0

    def test_realizable_loss_is_one_bit_per_distinct_side(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            sides, labels = realizable_trace(rng, d, 80)
            ledger = cumulative_loss(Memorizer(d), zip(sides, labels))
            distinct = len({tuple(s) for s in sides})
            assert math.isclose(ledger.total_bits, distinct)
            assert ledger.total_bits <= 2 ** d


class TestHybridPredictor:
    def test_fresh_prediction_value(self):
        h = HybridPredictor(2)
        pred = h.predict([1, 0])
        assert math.isclose(pred.prob(1), 1.0 - 2.0 ** -0.5, rel_tol=1e-12)

    def test_seen_negative_is_certain(self):
        h = HybridPredictor(2)
        h.update([1, 0], 0)
        pred = h.predict([1, 0])
        assert pred.log_p0 == 0.0
        assert pred.loss_bits(0) == 0.0

    @pytest.mark.parametrize("d", [2, 1024])
    def test_memorised_negative_predict_finds_no_zero_set(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        side = rng.integers(0, 2, d, dtype=np.uint8)
        h = HybridPredictor(d)
        h.update(np.ones(d, dtype=np.uint8), 1)
        h.update(side, 0)
        # an unmapped side's zero set in the survivor form is one elementwise op on it
        assert np.array_equal(h._reader.zeros(side), np.uint8(1) << side)
        reads = []
        count = HybridPredictor._count

        def recorded(self, bits):
            reads.append(bits)
            return count(self, bits)

        monkeypatch.setattr(HybridPredictor, "_count", recorded)
        assert h.predict(side) == Prediction.certain(0)
        assert reads == []  # the negative store answered first
        h.predict(1 - side)
        assert len(reads) == 1

    def test_alpha_parameter_matches_penalty_oracle(self):
        for d in (2, 5, 16, 64, 256, 1024, 1500):
            assert HybridPredictor(d).log2_one_minus_alpha == -hybrid_column_penalty(d)

    def test_predictions_match_tilted_enumeration(self):
        # the positive branch must equal the ratio of the alpha-prior
        # mixture restricted to the positive subsequence
        rng = np.random.default_rng(41)
        for _ in range(12):
            d = int(rng.integers(2, 9))
            alpha = 2.0 ** (-d / 2.0 ** d)
            sides, labels = realizable_trace(rng, d, 25)
            h = HybridPredictor(d)
            positives, negatives = [], set()
            for side, label in zip(sides, labels):
                pred = h.predict(side)
                if tuple(side) in negatives:
                    assert pred.log_p0 == 0.0
                else:
                    want = exact_mixture_joint(
                        [(s, 1) for s in positives] + [(side, 1)], d, alpha=alpha
                    ) - exact_mixture_joint([(s, 1) for s in positives], d, alpha=alpha)
                    assert math.isclose(pred.log_p1, want, rel_tol=0, abs_tol=1e-9)
                h.update(side, label)
                if label:
                    positives.append(side)
                else:
                    negatives.add(tuple(side))

    def test_realizable_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            sides, labels = realizable_trace(rng, d, 200)
            ledger = cumulative_loss(HybridPredictor(d), zip(sides, labels))
            assert ledger.total_bits <= 2.0 * d * d + 1e-9

    def test_contradictory_data_gives_inf_not_crash(self):
        trace = [([1, 1], 1), ([1, 1], 0), ([1, 1], 1), ([1, 1], 0)]
        ledger = cumulative_loss(HybridPredictor(2), trace)
        assert ledger.is_infinite
        assert ledger.steps == 4

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            HybridPredictor(1)


class TestPracticalPredictor:
    def test_first_step_is_a_tie_resolved_structurally(self):
        p = PracticalPredictor(2)
        pred = p.predict([1, 1])
        assert math.isclose(pred.prob(1), 0.5)
        assert p.tie_label([1, 1]) == 1
        assert p.tie_label([0, 1]) == 0

    def test_schedule_after_two_positives(self):
        p = PracticalPredictor(2)
        p.update([1, 1], 1)
        p.update([1, 0], 1)
        assert p.surviving == frozenset({0})
        assert p.step == 3
        pred = p.predict([0, 1])  # surviving coordinate is off
        assert math.isclose(pred.prob(1), 0.25)
        assert math.isclose(pred.prob(0), 0.75)

    def test_never_zero_probability(self):
        rng = np.random.default_rng(47)
        p = PracticalPredictor(4)
        for _ in range(300):
            side = rng.integers(0, 2, 4)
            pred = p.predict(side)
            assert math.isfinite(pred.log_p0) and math.isfinite(pred.log_p1)
            p.update(side, int(rng.integers(0, 2)))

    def test_per_step_loss_capped_by_schedule(self):
        rng = np.random.default_rng(53)
        d = 5
        sides, labels = realizable_trace(rng, d, 150)
        p = PracticalPredictor(d)
        expensive = 0
        for t, (side, label) in enumerate(zip(sides, labels), start=1):
            loss = p.predict(side).loss_bits(int(label))
            assert loss <= math.log2(t + 1) + 1e-12
            if int(label) != p.tie_label(side):
                expensive += 1
            p.update(side, label)
        assert expensive <= d

    def test_realizable_bound(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 300))
            sides, labels = realizable_trace(rng, d, n)
            ledger = cumulative_loss(PracticalPredictor(d), zip(sides, labels))
            assert ledger.total_bits <= (d + 1) * math.log2(n + 1) + 1e-9


def tight_trace(d, n):
    """All-positive trace of the empty conjunction: n - d all-ones sides,
    then d sides that each switch off one more survivor."""
    sides = np.ones((n, d), dtype=np.uint8)
    sides[n - d :] = np.arange(d) >= np.arange(1, d + 1)[:, None]
    return sides, np.ones(n, dtype=np.uint8)


@pytest.mark.parametrize("d,n", [(2, 64), (8, 8192)])
class TestTightTraces:
    """The realizable trace that meets each bound, so a predictor that paid
    more than the correct loss fails here."""

    def test_alg2_mistakes_and_loss_meet_the_bound(self, d, n):
        sides, labels = tight_trace(d, n)
        want = math.log2(n - d + 1) + sum(math.log2(t + 1) for t in range(n - d + 1, n + 1))
        assert 0.0 <= (d + 1) * math.log2(n + 1) - want < 0.1
        batched = PracticalPredictor(d)
        log_p, correct = batched.score_trace(sides, labels)
        assert np.count_nonzero(~correct) == d
        assert math.isclose(-log_p.sum(), want, rel_tol=0, abs_tol=1e-9)
        assert batched.surviving == frozenset()
        p, loss, mistakes = PracticalPredictor(d), 0.0, 0
        for side, label in zip(sides, labels.tolist()):
            mistakes += p.tie_label(side) != label
            loss += p.predict(side).loss_bits(label)
            p.update(side, label)
        assert mistakes == d
        assert math.isclose(loss, want, rel_tol=0, abs_tol=1e-9)
        assert p.surviving == frozenset()

    def test_alg1_pays_the_column_penalty_once_per_survivor(self, d, n):
        sides, labels = tight_trace(d, n)
        penalty = hybrid_column_penalty(d)
        batched, p = HybridPredictor(d), HybridPredictor(d)
        loss = cumulative_loss(p, zip(sides, labels.tolist())).total_bits
        for got in (-batched.score_trace(sides, labels)[0].sum(), loss):
            assert math.isclose(got, d * penalty, rel_tol=0, abs_tol=1e-9)
            assert got <= d * (penalty + 1)
        assert not batched.survivor_mask().any() and not p.survivor_mask().any()


def test_hybrid_alpha_log_identity():
    # log2(1-alpha) recovered from the linear side where it is representable
    for d in (2, 3, 8, 16):
        alpha = 2.0 ** (-d / 2.0 ** d)
        assert math.isclose(
            HybridPredictor(d).log2_one_minus_alpha, math.log2(1.0 - alpha), rel_tol=1e-10
        )
        assert -hybrid_column_penalty(d) == log1mexp2(-d / 2.0 ** d)


@pytest.mark.parametrize("d", [8, 63, 64, 117])
def test_side_groups_match_distinct_sides(d):
    rng = np.random.default_rng(d)
    sides = rng.integers(0, 2, size=(500, d), dtype=np.uint8)
    for copies in (sides[1::4], sides[2::4]):
        copies[:] = sides[::4][: len(copies)]
    sides[2::4, -1] ^= 1  # copies that differ only in the last bit
    want = np.unique(sides, axis=0, return_inverse=True)[1].reshape(-1)
    order, starts = _side_groups(sides)
    assert sorted(order.tolist()) == list(range(len(sides)))
    got = np.empty(len(sides), dtype=np.int64)
    got[order] = np.cumsum(np.isin(np.arange(len(sides)), starts)) - 1
    # the same partition of the rows, each group in one run of `order`
    assert starts[0] == 0 and len(starts) == want.max() + 1
    assert len(set(zip(got.tolist(), want.tolist()))) == want.max() + 1


def test_alg1_scores_a_wide_column_major_matrix():
    # a clause expansion comes back column-major; its rows still key the store
    rng = np.random.default_rng(3)
    sides = np.asfortranarray(rng.integers(0, 2, size=(40, 100), dtype=np.uint8)[rng.integers(0, 5, 40)])
    labels = rng.integers(0, 2, size=40, dtype=np.uint8)
    reference, want = HybridPredictor(100), []
    for side, label in zip(sides, labels.tolist()):
        want.append(reference.predict(side).log_prob(label))
        reference.update(side, label)
    assert HybridPredictor(100).score_trace(sides, labels)[0].tolist() == want
