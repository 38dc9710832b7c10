import math

import numpy as np
import pytest

from cnflearn.core import (
    LossLedger,
    OnlinePredictor,
    Prediction,
    as_bits,
    cumulative_loss,
    log1mexp2,
    log1mexp2_arr,
    logsumexp2,
)


class TestLog1mexp2:
    def test_exact_half(self):
        assert log1mexp2(-1.0) == -1.0  # 1 - 2**-1 = 1/2

    def test_matches_direct_formula_in_safe_range(self):
        # direct evaluation is fine away from the two hard ends
        for x in np.linspace(-30.0, -1e-4, 257):
            direct = math.log2(1.0 - 2.0 ** x)
            assert math.isclose(log1mexp2(float(x)), direct, rel_tol=0, abs_tol=1e-12)

    def test_near_zero_asymptotics(self):
        # 1 - 2**x ~ -x*ln2 as x -> 0-, so log2(1-2**x) ~ log2(-x) + log2(ln 2)
        for x in (-1e-12, -1e-15, -1e-18, -3.5e-18):
            expect = math.log2(-x) + math.log2(math.log(2.0))
            assert math.isclose(log1mexp2(x), expect, rel_tol=1e-9)

    def test_extremes(self):
        assert log1mexp2(0.0) == -math.inf
        assert log1mexp2(-0.0) == -math.inf
        assert log1mexp2(-math.inf) == 0.0
        assert log1mexp2(-1e6) == 0.0  # below double resolution of 1

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            log1mexp2(0.5)

    def test_array_version_agrees(self):
        xs = np.array([-0.0, -1e-18, -0.5, -1.0, -2.0, -50.0, -math.inf])
        arr = log1mexp2_arr(xs)
        for x, got in zip(xs, arr):
            assert got == log1mexp2(float(x)) or math.isclose(
                got, log1mexp2(float(x)), rel_tol=0, abs_tol=1e-15
            )
        with pytest.raises(ValueError):
            log1mexp2_arr(np.array([-1.0, 0.25]))


class TestLogsumexp2:
    def test_empty_is_minus_inf(self):
        assert logsumexp2([]) == -math.inf

    def test_known_sum(self):
        # 2**-1 + 2**-2 + 2**-2 = 1
        assert abs(logsumexp2([-1.0, -2.0, -2.0])) <= 1e-12

    def test_large_offsets_do_not_overflow(self):
        assert math.isclose(logsumexp2([3000.0, 3000.0]), 3001.0)
        assert math.isclose(logsumexp2([-3000.0, -3000.0]), -2999.0)

    def test_all_minus_inf(self):
        assert logsumexp2([-math.inf, -math.inf]) == -math.inf


class TestPrediction:
    def test_from_p1(self):
        p = Prediction.from_p1(0.25)
        assert math.isclose(p.prob(1), 0.25)
        assert math.isclose(p.prob(0), 0.75)
        assert math.isclose(p.loss_bits(1), 2.0)
        with pytest.raises(ValueError, match="p1 must lie in"):
            Prediction.from_p1(1.5)

    def test_certain(self):
        p = Prediction.certain(0)
        assert p.log_p0 == 0.0 and p.log_p1 == -math.inf
        assert p.loss_bits(1) == math.inf
        assert p.loss_bits(0) == 0.0

    def test_from_log_p1_complement(self):
        p = Prediction.from_log_p1(-3.0)
        assert math.isclose(p.prob(0) + p.prob(1), 1.0, abs_tol=1e-12)
        q = Prediction.from_log_p1(-1e-18)  # p1 barely below 1
        assert q.log_p0 < -50.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Prediction(-1.0, -2.0)
        with pytest.raises(ValueError):
            Prediction(0.0, 0.0)

    def test_flip(self):
        p = Prediction.from_p1(0.25).flip()
        assert math.isclose(p.prob(1), 0.75)


class TestAsBits:
    def test_accepts_lists_tuples_bools(self):
        assert as_bits([1, 0, 1]).dtype == np.uint8
        assert as_bits((0, 1)).tolist() == [0, 1]
        assert as_bits(np.array([True, False])).tolist() == [1, 0]
        # a uint8 side passes uncopied, a strided one too
        side = np.array([1, 7, 0, 7], dtype=np.uint8)[::2]
        assert as_bits(side, 2) is side

    def test_rejects_bad_values(self):
        uint8 = [np.array([0, 1, 2], np.uint8), np.array([255], np.uint8)]
        for bad in [[2, 0], [0.5, 0.5], [-1, 1], [256, 0]] + uint8:
            with pytest.raises(ValueError, match="side information bits must be 0 or 1"):
                as_bits(bad)

    def test_rejects_wrong_length_and_shape(self):
        for d in (3, 0):
            with pytest.raises(ValueError, match=f"expected {d} bits"):
                as_bits(np.array([1, 0], np.uint8), d=d)
        with pytest.raises(ValueError):
            as_bits([1, 0], d=3)
        with pytest.raises(ValueError):
            as_bits([[1, 0]])


class TestLossLedger:
    def test_accumulates(self):
        ledger = LossLedger()
        ledger.add(1.5)
        ledger.add(0.0)
        assert ledger.steps == 2
        assert ledger.total_bits == 1.5
        assert not ledger.is_infinite

    def test_infinity_propagates(self):
        ledger = LossLedger()
        ledger.add(math.inf)
        ledger.add(1.0)
        assert ledger.is_infinite
        assert ledger.steps == 2

    def test_rejects_negative_and_nan(self):
        ledger = LossLedger()
        with pytest.raises(ValueError):
            ledger.add(-0.001)
        with pytest.raises(ValueError):
            ledger.add(math.nan)


class _Uniform(OnlinePredictor):
    def _predict(self, bits):
        return Prediction(-1.0, -1.0)

    def _update(self, bits, label):
        pass


class TestPredictorContract:
    def test_label_validation(self):
        p = _Uniform(3)
        for bad in (2, -1, None, 0.5):
            with pytest.raises(ValueError):
                p.update([1, 1, 1], bad)
        p.update([1, 1, 1], True)  # bools are fine

    def test_dimension_validation(self):
        p = _Uniform(3)
        with pytest.raises(ValueError):
            p.predict([1, 0])
        with pytest.raises(ValueError):
            _Uniform(0)

    def test_cumulative_loss_counts_bits(self):
        trace = [([1, 0, 1], 1), ([0, 0, 0], 0), ([1, 1, 1], 1)]
        ledger = cumulative_loss(_Uniform(3), trace)
        assert ledger.steps == 3
        assert math.isclose(ledger.total_bits, 3.0)
