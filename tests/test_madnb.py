import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflearn import madnb
from cnflearn.core import BLOCK_BITS, NumericalError, cumulative_loss
from cnflearn.harness import build_predictor
from cnflearn.madnb import (
    _BLOCK_SCALE,
    Madnb,
    factored_joint_log2,
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

    def test_joint_is_product_of_next_probs(self):
        rng = random.Random(3)
        for _ in range(50):
            seq = [rng.randint(0, 1) for _ in range(rng.randint(1, 30))]
            total = 0.0
            zeros = ones = 0
            for sym in seq:
                # the add-half rule: p(sym) = (count of sym + 1/2) / (count + 1)
                total += math.log2(((ones if sym else zeros) + 0.5) / (zeros + ones + 1))
                zeros += 1 - sym
                ones += sym
            assert log2_kt(zeros, ones) == pytest.approx(total, abs=1e-9)

    def test_chain_rule_identity(self):
        for zeros, ones in itertools.product(range(6), repeat=2):
            step = log2_kt(zeros, ones + 1) - log2_kt(zeros, ones)
            assert step == pytest.approx(
                math.log2((ones + 0.5) / (zeros + ones + 1)), abs=1e-12
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            log2_kt(-1, 0)


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
        with pytest.raises(ValueError, match="expected 2 feature bits"):
            nb_joint_log2([], [([0, 1, 1], 1)], 2)
        with pytest.raises(ValueError, match="enumeration cap of 16"):
            nb_mixture_log2([], 17)
        # each reference reads a row through the predictors' own checks: a
        # side bit or label outside {0, 1} is refused, never cast to one
        references = (functools.partial(nb_joint_log2, [0]), nb_mixture_log2, factored_joint_log2)
        bad_rows = (([0.5], 1), ([-1], 1), ([2], 1), ([1], 1.5))
        for reference, row in itertools.product(references, bad_rows):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                reference([([0], 0), row], 1)


class TestCountTables:
    """The log-gamma and log2 tables that `Madnb` prices its counts from."""

    ROWS = (
        lambda c: math.lgamma(c + 0.5),
        lambda c: math.lgamma(c + 1.0),
        lambda c: math.log2(c + 0.5),
        lambda c: math.log2(c + 1.0),
    )

    def test_references_never_read_the_tables(self, monkeypatch):
        def refuse(top):
            raise AssertionError("a reference read a count table")

        monkeypatch.setattr(madnb, "_count_tables", refuse)
        trace = random_trace(random.Random(13), 4, 300)
        assert math.isfinite(nb_joint_log2([1, 3], trace, 4))
        assert math.isfinite(nb_mixture_log2(trace, 4))
        assert math.isfinite(factored_joint_log2(trace, 4))

    def test_each_entry_is_its_math_value_as_the_table_grows(self, monkeypatch):
        monkeypatch.setattr(madnb, "_COUNTS", np.empty((4, 0), dtype=np.float64))
        for n in (0, 255, 256, 1000, 5000):
            tables = madnb._count_tables(n)
            assert tables.shape[0] == len(self.ROWS) and tables.shape[1] > n
            for values, expected in zip(tables, self.ROWS):
                assert values.tolist() == [expected(c) for c in range(values.size)]

    def test_a_filled_table_is_returned_as_is(self, monkeypatch):
        monkeypatch.setattr(madnb, "_COUNTS", np.empty((4, 0), dtype=np.float64))
        tables = madnb._count_tables(300)
        size = tables.shape[1]
        assert madnb._count_tables(0) is tables
        assert madnb._count_tables(size - 1) is tables
        assert madnb._count_tables(size) is not tables


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
    for name in ("_totals", "_ones"):
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

    @pytest.mark.parametrize("reduction,k,d", [("none", None, 40), ("conj", None, 40), ("kcnf", 2, 6)])
    def test_blocks_hold_the_rows_their_width_allows(self, reduction, k, d, monkeypatch):
        blocks = []
        predictor, d_prime = build_predictor("madnb", d, reduction, k)
        reader = getattr(predictor, "inner", predictor)._reader
        values = reader.values

        def recorded(sides, columns):
            block = values(sides, columns)
            blocks.append(block.shape)
            return block

        monkeypatch.setattr(reader, "values", recorded)
        rows = max(1, BLOCK_BITS // (_BLOCK_SCALE * d_prime))
        rng = np.random.default_rng(23)
        sides = rng.integers(0, 2, size=(2 * rows + 17, d), dtype=np.uint8)
        labels = rng.integers(0, 2, size=2 * rows + 17, dtype=np.uint8)
        predictor.score_trace(sides, labels)
        # each block read once, in order: the loop over blocks is score_trace's alone
        assert blocks == [(rows, d_prime), (rows, d_prime), (17, d_prime)]

    @pytest.mark.parametrize("reduction,k", [("none", None), ("kcnf", 2)])
    def test_empty_trace_leaves_the_counts(self, reduction, k):
        predictor = build_predictor("madnb", 3, reduction, k)[0]
        rng = np.random.default_rng(24)
        sides = rng.integers(0, 2, size=(5, 3), dtype=np.uint8)
        predictor.score_trace(sides, np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        counts = getattr(predictor, "inner", predictor)
        totals, ones = counts._totals.copy(), counts._ones.copy()
        log_p, correct = predictor.score_trace(sides[:0], np.zeros(0, dtype=np.uint8))
        assert log_p.shape == correct.shape == (0,)
        assert log_p.dtype == np.float64 and correct.dtype == bool
        assert np.array_equal(counts._totals, totals) and np.array_equal(counts._ones, ones)

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


# total bits and (log_p0, log_p1) at SAMPLED_STEPS of 2,048 seeded steps of
# the public predict/update loop; a change to how a step is priced must keep
# each within a relative 1e-12
SAMPLED_STEPS = (0, 1, 7, 63, 255, 1023, 2000, 2047)
PINNED_STEPS = [
    ('coin', 'none', 8, 2063.340711796151, [(-1.0, -1.0), (-0.8590170418800971, -1.156267163051803), (-4.419184433467103, -0.06905902206342418), (-0.8108090774331275, -1.2177997078645144), (-0.6074453123777442, -1.5410214499013954), (-1.0195532969638423, -0.9807081751195412), (-1.0063570104680168, -0.9936708778655082), (-1.0083495985692907, -0.9916984468090076)]),
    ('coin', 'none', 117, 2153.638039277809, [(-1.0, -1.0), (-8.348297104184436, -0.004433572821863961), (-4.649250552347018, -0.05866936107285733), (-2.751322384827847, -0.23194646682580303), (-0.7213257723020706, -1.3457103969802495), (-1.060262667154092, -0.9421539514871854), (-0.9971304538759984, -1.0028752650793287), (-1.096553851274345, -0.9095047552470662)]),
    ('coin', 'none', 1024, 2828.2546699547224, [(-1.0, -1.0), (-6.704504547531346e-47, -153.91425610950398), (-6.802224237691681, -0.012985361120580538), (-1.4608109176456747, -0.6512891173780788), (-2.5941306870124365, -0.2612077394500686), (-1.2811367063654941, -0.7648150316024835), (-0.9011814189698344, -1.1060882321297263), (-1.3184731388251407, -0.7392735034000604)]),
    ('realizable', 'none', 8, 226.7002276933081, [(-1.0, -1.0), (-0.8590170418800971, -1.156267163051803), (-0.06592991567638223, -4.484528747400284), (-0.05962496493748171, -4.626415857542859), (-5.14684356847665e-05, -14.774744647125598), (-3.782983074001118e-06, -18.540812512331744), (-1.984061213717245, -0.4203898009104881), (-0.0020533860125093325, -9.457572366134587)]),
    ('realizable', 'none', 117, 372.6245113245254, [(-1.0, -1.0), (-8.348297104184436, -0.004433572821863961), (-3.8248954482534208, -0.10557472480732727), (-2.1587428640182407, -0.3657809598907105), (-0.0058256962199968905, -7.955032051191893), (-0.00517486173492397, -8.125616998730147), (-0.002428424015594128, -9.215744353572564), (-6.827196158335847e-07, -21.010970174669023)]),
    ('realizable', 'none', 1024, 1609.697634429905, [(-1.0, -1.0), (-153.914256109504, -6.704504547531215e-47), (-76.51952005235857, -1.331998541772452e-23), (-2.14069105372772e-06, -19.362259412788458), (-0.32326135733162975, -2.3166073323622207), (-0.0074582368851588985, -7.599443549459334), (-0.0022555341657979943, -9.322209138252845), (-0.0016880428870709153, -9.740043038574756)]),
    ('coin', 'conj', 8, 2087.8989427983306, [(-1.0, -1.0), (-1.5786110175075014, -0.5881487591297574), (-7.570357826393769, -0.007610527336347185), (-0.7727452125169038, -1.2698693680397366), (-0.37193782151200266, -2.1376087786934215), (-1.0379218982147953, -0.9630494191736727), (-0.9997080455981984, -1.000292013495805), (-1.0060971786129407, -0.9939284811341272)]),
    ('realizable', 'conj', 8, 48.20877018284913, [(-1.0, -1.0), (-1.5786110175075014, -0.5881487591297574), (-0.04655624726574053, -4.9768633151050246), (-0.009576522992490528, -7.2398343276149175), (-5.232514736535179e-09, -28.03861475994244), (-2.8339126241559876e-11, -35.5671801392828), (-4.806444200984959, -0.05250116134743257), (-8.930741776345015e-06, -17.301559398852167)]),
]


@pytest.mark.parametrize("kind,reduction,d,total,sampled", PINNED_STEPS)
def test_step_outputs_are_pinned(kind, reduction, d, total, sampled):
    rng = np.random.default_rng(d)
    sides = rng.integers(0, 2, size=(2048, d), dtype=np.uint8)
    if kind == "coin":
        labels = rng.integers(0, 2, size=2048, dtype=np.uint8)
    else:  # realizable: the monotone conjunction x0 & x1
        labels = sides[:, 0] & sides[:, 1]
    predictor = build_predictor("madnb", d, reduction, None)[0]
    bits, got = 0.0, []
    for t, (side, label) in enumerate(zip(sides, labels.tolist())):
        p = predictor.predict(side)
        bits -= p.log_prob(label)
        if t in SAMPLED_STEPS:
            got.append((p.log_p0, p.log_p1))
        predictor.update(side, label)
    assert bits == pytest.approx(total, rel=1e-12, abs=0.0)
    for step, pair, want in zip(SAMPLED_STEPS, got, sampled):
        assert pair == pytest.approx(want, rel=1e-12, abs=0.0), step


@st.composite
def count_states(draw):
    """A consistent state and a side: per label a row count and each feature's
    ones among those rows, the all-rows counts their sums; counts reach 255
    and 256, where the count tables first grow."""
    d = draw(st.integers(1, 12))
    count = st.sampled_from([0, 1, 255, 256]) | st.integers(0, 300)
    totals = [draw(count), draw(count)]
    ones = [[draw(st.integers(0, total)) for _ in range(d)] for total in totals]
    side = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    totals = np.array(totals + [sum(totals)], dtype=np.int64)
    ones = np.array(ones + [[a + b for a, b in zip(*ones)]], dtype=np.int64)
    return totals, ones, np.array(side, dtype=np.uint8)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(count_states())
def test_a_step_prices_as_a_one_row_block(state):
    totals, ones, side = state
    top = int(totals[2])
    step = madnb._label_log_ratio(totals, ones, side, top)
    block = madnb._label_log_ratio(totals[:, None], ones[:, None], side[None], top)
    assert np.shape(step) == () and block.shape == (1,)
    assert np.float64(step).tobytes() == block[0].tobytes()
