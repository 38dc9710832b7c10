import functools
import itertools
import math
import random

import numpy as np
import pytest

from cnflearn import madnb
from cnflearn.core import BLOCK_BITS, NumericalError, cumulative_loss
from cnflearn.madnb import (
    _BLOCK_SCALE,
    Madnb,
    factored_joint_log2,
    kt_next_prob,
    log2_kt,
    nb_joint_log2,
    nb_mixture_log2,
)


def random_trace(rng, d, n):
    return [
        ([rng.randint(0, 1) for _ in range(d)], rng.randint(0, 1))
        for _ in range(n)
    ]


class TestKtEstimator:
    def test_empty_sequence_has_probability_one(self):
        assert log2_kt(0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_next_prob_add_half_rule(self):
        # counts (zeros=2, ones=1): p(1) = (1 + 1/2) / 4
        assert kt_next_prob(2, 1, 1) == 0.375
        assert kt_next_prob(2, 1, 0) == 0.625
        assert kt_next_prob(0, 0, 0) == 0.5
        assert kt_next_prob(0, 0, 1) == 0.5

    def test_joint_is_product_of_next_probs(self):
        rng = random.Random(3)
        for _ in range(50):
            seq = [rng.randint(0, 1) for _ in range(rng.randint(1, 30))]
            total = 0.0
            zeros = ones = 0
            for sym in seq:
                total += math.log2(kt_next_prob(zeros, ones, sym))
                zeros += 1 - sym
                ones += sym
            assert log2_kt(zeros, ones) == pytest.approx(total, abs=1e-9)

    def test_chain_rule_identity(self):
        for zeros, ones in itertools.product(range(6), repeat=2):
            step = log2_kt(zeros, ones + 1) - log2_kt(zeros, ones)
            assert step == pytest.approx(
                math.log2(kt_next_prob(zeros, ones, 1)), abs=1e-12
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            log2_kt(-1, 0)
        with pytest.raises(ValueError, match="symbol"):
            kt_next_prob(1, 1, 2)


class TestNbJoint:
    def test_single_step_one_feature(self):
        # one step, d=1: both structures give 1/2 * 1/2
        trace = [([0], 1)]
        assert 2 ** nb_joint_log2([], trace, 1) == pytest.approx(0.25, abs=1e-12)
        assert 2 ** nb_joint_log2([0], trace, 1) == pytest.approx(0.25, abs=1e-12)

    def test_structures_diverge_on_longer_traces(self):
        trace = [([0], 0), ([1], 1), ([0], 0)]
        assert nb_joint_log2([], trace, 1) != pytest.approx(
            nb_joint_log2([0], trace, 1), abs=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="cap"):
            nb_joint_log2([], [], 21)
        with pytest.raises(ValueError, match="indices"):
            nb_joint_log2([3], [([0, 1], 1)], 2)
        with pytest.raises(ValueError, match="label"):
            nb_joint_log2([], [([0], 2)], 1)


class TestProductIdentity:
    def test_factored_form_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            d = rng.randint(1, 8)
            trace = random_trace(rng, d, rng.randint(1, 12))
            brute = nb_mixture_log2(trace, d)
            assert factored_joint_log2(trace, d) == pytest.approx(brute, abs=1e-12)

    def test_mixture_bounded_by_best_structure(self):
        rng = random.Random(12)
        for _ in range(20):
            d = rng.randint(1, 5)
            trace = random_trace(rng, d, rng.randint(1, 8))
            best = max(
                nb_joint_log2([i for i in range(d) if mask >> i & 1], trace, d)
                for mask in range(1 << d)
            )
            mix = nb_mixture_log2(trace, d)
            assert mix <= best + 1e-12
            assert mix >= best - d - 1e-12


class TestMadnb:
    def test_first_prediction_is_a_coin_flip(self):
        predictor = Madnb(3)
        p = predictor.predict([1, 0, 1])
        assert p.prob(0) == 0.5
        assert p.prob(1) == 0.5

    def test_predictive_matches_brute_mixture_ratio(self):
        rng = random.Random(13)
        for d in (1, 2, 3):
            trace = random_trace(rng, d, 10)
            predictor = Madnb(d)
            past = []
            for side, label in trace:
                p = predictor.predict(side)
                joints = [nb_mixture_log2(past + [(side, y)], d) for y in (0, 1)]
                norm = math.log2(2 ** joints[0] + 2 ** joints[1])
                assert p.log_prob(0) == pytest.approx(joints[0] - norm, abs=1e-9)
                assert p.log_prob(1) == pytest.approx(joints[1] - norm, abs=1e-9)
                predictor.update(side, label)
                past.append((side, label))

    def test_never_assigns_zero_probability(self):
        rng = random.Random(14)
        predictor = Madnb(2)
        # adversarial: same side with alternating labels, then constants
        trace = [([1, 1], t % 2) for t in range(20)]
        trace += [([0, 0], 0)] * 20
        total = 0.0
        for side, label in trace:
            p = predictor.predict(side)
            assert p.prob(0) > 0.0 and p.prob(1) > 0.0
            total += p.loss_bits(label)
            predictor.update(side, label)
        assert math.isfinite(total)

    def test_feature_permutation_invariance(self):
        rng = random.Random(15)
        d = 4
        trace = random_trace(rng, d, 12)
        perm = [2, 0, 3, 1]
        permuted = [([side[j] for j in perm], label) for side, label in trace]
        assert cumulative_loss(Madnb(d), trace) == pytest.approx(
            cumulative_loss(Madnb(d), permuted), abs=1e-12
        )

    def test_label_flip_symmetry(self):
        rng = random.Random(16)
        trace = random_trace(rng, 3, 10)
        flipped = [(side, 1 - label) for side, label in trace]
        a = Madnb(3)
        b = Madnb(3)
        for (side, label), (_, flabel) in zip(trace, flipped):
            pa = a.predict(side)
            pb = b.predict(side)
            assert pa.log_prob(1) == pytest.approx(pb.log_prob(0), abs=1e-12)
            a.update(side, label)
            b.update(side, flabel)

    def test_differs_from_mixture_of_per_structure_predictives(self):
        # Normalising the averaged joint is not the same as averaging the
        # per-structure predictives. Frozen witness: d=1, trace
        # (side 0, label 0) then (side 1, label 1). The sequential product
        # comes out to 1/6 while the averaged-predictive route gives 13/80.
        trace = [([0], 0), ([1], 1)]
        predictor = Madnb(1)
        product = 0.0
        for side, label in trace:
            product += predictor.predict(side).log_prob(label)
            predictor.update(side, label)
        product = 2 ** product

        averaged = 0.0
        for subset in ([], [0]):
            per_structure = 0.0
            past = []
            for side, label in trace:
                joints = [
                    nb_joint_log2(subset, past + [(side, y)], 1) for y in (0, 1)
                ]
                norm = math.log2(2 ** joints[0] + 2 ** joints[1])
                per_structure += joints[label] - norm
                past.append((side, label))
            averaged += 0.5 * 2 ** per_structure

        assert product == pytest.approx(1 / 6, abs=1e-12)
        assert averaged == pytest.approx(13 / 80, abs=1e-12)
        assert abs(product - averaged) > 1e-3


def loop_scores(predictor, sides, labels):
    """Reference for score_trace: predict/update one row at a time, up to
    the first NumericalError, whose message is returned with the scores."""
    log_p = []
    try:
        for side, label in zip(sides, labels):
            log_p.append(predictor.predict(side).log_prob(int(label)))
            predictor.update(side, int(label))
    except NumericalError as exc:
        return np.array(log_p), str(exc)
    return np.array(log_p), None


def assert_same_counts(got, want):
    for name in ("_totals", "_ones", "_gain"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestMadnbScoreTrace:
    def test_trace_crossing_block_boundaries(self):
        d = 40
        n = 3 * (BLOCK_BITS // (_BLOCK_SCALE * d)) + 17
        rng = np.random.default_rng(21)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        labels = (sides[:, 0] & sides[:, 1]) ^ (rng.random(n) < 0.1)
        loop, batched = Madnb(d), Madnb(d)
        for side, label in zip(sides[:5], labels[:5]):  # a non-empty start
            loop.update(side, int(label))
            batched.update(side, int(label))
        want, error = loop_scores(loop, sides[5:], labels[5:])
        assert error is None
        log_p, correct = batched.score_trace(sides[5:], labels[5:])
        assert np.allclose(log_p, want, rtol=0.0, atol=1e-9)
        assert np.array_equal(correct, want > -1.0)
        assert_same_counts(batched, loop)

    def test_failed_check_raises_at_the_loop_step(self, monkeypatch):
        # a NaN log-ratio for the state after `bad` updates fails the sum
        # check; both paths must raise there, holding the rows before it
        d, bad = 40, BLOCK_BITS // (_BLOCK_SCALE * 40) + 100
        real = madnb._label_log_ratio

        def poisoned(totals, *rest):
            return np.where(totals[2] == bad, np.nan, real(totals, *rest))

        monkeypatch.setattr(madnb, "_label_log_ratio", poisoned)
        rng = np.random.default_rng(22)
        sides = rng.integers(0, 2, size=(3 * bad, d), dtype=np.uint8)
        labels = rng.integers(0, 2, size=3 * bad, dtype=np.uint8)
        loop, batched = Madnb(d), Madnb(d)
        want, error = loop_scores(loop, sides, labels)
        assert len(want) == bad and "must sum to 1" in error
        with pytest.raises(NumericalError) as raised:
            batched.score_trace(sides, labels)
        assert str(raised.value) == error
        assert_same_counts(batched, loop)

    def test_long_wide_coin_flip_trace_agrees_with_loop(self):
        # the two joints grow to about n*d = 2e7 bits, far past where float64
        # spacing exceeds the 1e-9 sum check; only their log-ratio is priced,
        # so neither path may fail, and L must hold against a 40-digit
        # evaluation of the joints themselves
        d, n = 1024, 20000
        rng = np.random.default_rng(0)
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        checked = (n // 2, n - 2, n - 1)
        loop, batched = Madnb(d), Madnb(d)
        want, ratios = [], {}
        for t, (side, label) in enumerate(zip(sides, labels.tolist())):
            p = loop.predict(side)
            want.append(p.log_prob(label))
            if t in checked:
                ratios[t] = p.log_p1 - p.log_p0
            loop.update(side, label)
        log_p, correct = batched.score_trace(sides, labels)
        assert np.allclose(log_p, want, rtol=0.0, atol=1e-9)
        assert np.array_equal(correct, np.array(want) > -1.0)
        assert_same_counts(batched, loop)
        for t in checked:
            reference = reference_log_ratio(sides[:t], labels[:t], sides[t])
            assert abs(ratios[t] - reference) <= 1e-9, t


def reference_log_ratio(sides, labels, side):
    """log2 NB*(side, 1) - log2 NB*(side, 0) from the two joints, in mpmath
    at 40 digits, for the counts of the rows before `side`."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    lgamma = functools.lru_cache(maxsize=None)(mp.loggamma)

    def log_kt(zeros, ones):
        return (lgamma(zeros + mp.mpf(0.5)) + lgamma(ones + mp.mpf(0.5))
                - mp.log(mp.pi) - lgamma(zeros + ones + 1))

    cls = [int((labels == y).sum()) for y in (0, 1)]
    ones = sides.sum(axis=0, dtype=np.int64).tolist()
    cond = [sides[labels == y].sum(axis=0, dtype=np.int64).tolist() for y in (0, 1)]
    joints = []
    for label in (0, 1):
        total = log_kt(cls[0] + 1 - label, cls[1] + label)
        counts = [cls[0] + 1 - label, cls[1] + label]
        for i, bit in enumerate(side.tolist()):
            n_marg = cls[0] + cls[1] + 1
            marg = log_kt(n_marg - ones[i] - bit, ones[i] + bit)
            pair = mp.mpf(0)
            for y in (0, 1):
                o = cond[y][i] + (bit if y == label else 0)
                pair += log_kt(counts[y] - o, o)
            total += mp.log((mp.exp(marg) + mp.exp(pair)) / 2)
        joints.append(total)
    return float((joints[1] - joints[0]) / mp.log(2))
