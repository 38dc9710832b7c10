import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cnflearn.core import (
    BLOCK_BITS,
    LossLedger,
    NumericalError,
    OnlinePredictor,
    Prediction,
    as_bits,
    cumulative_loss,
    log1mexp2,
    log1mexp2_arr,
    logsumexp2,
    per_chunk,
)


class TestPerChunk:
    # each chunking site's own formula, which `per_chunk` must give exactly
    COSTS = [1, 2, 3, 4, 7, 40, 63, 64, 65, 117, 1000, 1023, 1024, 1025, 4096, 16383, 16384, 16385,
             27378, 65535, 65536, 65537, 80000, 10 ** 6]

    @pytest.mark.parametrize("cost", COSTS)
    def test_gives_each_former_chunk_size(self, cost):
        # score_trace rows for `cost` columns read, in whole 64-row words
        assert per_chunk(cost, 64) == 64 * max(1, BLOCK_BITS // 64 // max(1, cost))
        # madnb rows for `cost` features, at 4 values a feature
        assert per_chunk(4 * cost) == max(1, BLOCK_BITS // (4 * cost))
        # synthetic labelling: target columns of `cost` words each
        assert per_chunk(cost) == max(1, BLOCK_BITS // cost)
        if cost <= BLOCK_BITS // 64:  # a block holds at most this many words
            # the survivor columns counted at once, of `cost` words each
            assert per_chunk(64 * cost) == BLOCK_BITS // 64 // cost

    def test_no_columns_take_one_unit(self):
        assert per_chunk(0, 64) == 64 * (BLOCK_BITS // 64)
        assert per_chunk(0) == BLOCK_BITS

    def test_a_costly_item_still_takes_one_unit(self):
        assert per_chunk(BLOCK_BITS + 1, 64) == 64
        assert per_chunk(BLOCK_BITS + 1) == 1


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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_flip_is_the_checked_swapped_pair(self, data):
        kind = data.draw(st.sampled_from(["p1", "certain", "edge"]))
        if kind == "certain":
            p = Prediction.certain(data.draw(st.integers(0, 1)))
        elif kind == "p1":
            p = Prediction.from_p1(data.draw(st.floats(0.0, 1.0)))
        else:  # p0 + p1 off 1 by up to the check's 1e-9, either way round
            p1 = data.draw(st.floats(0.0, 1.0))
            p0 = 1.0 - p1 + data.draw(st.sampled_from([-1e-9, 1e-9]) | st.floats(-1e-9, 1e-9))
            pair = (math.log2(p0) if p0 > 0.0 else -math.inf, math.log2(p1) if p1 > 0.0 else -math.inf)
            try:
                p = Prediction(*pair[:: data.draw(st.sampled_from([1, -1]))])
            except NumericalError:
                reject()
        swapped = Prediction(p.log_p1, p.log_p0)
        assert p.flip() == swapped and hash(p.flip()) == hash(swapped)
        assert p.flip().flip() == p and hash(p.flip().flip()) == hash(p)


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
