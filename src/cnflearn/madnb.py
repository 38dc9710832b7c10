"""Model-averaging discriminative naive Bayes over binary features.

The model class indexes naive Bayes structures by the subset S of features
that depend on the class label; features outside S keep a single
class-independent marginal. Every sequence probability is a
Krichevsky-Trofimov estimator, so the joint for one S factorises over
features, and the uniform average over all 2**d subsets collapses to a
product with one mixed term per feature:

    NB*(x, a) = KT(x) * prod_i [ KT(a_i)/2 + KT0(a_i|x)*KT1(a_i|x)/2 ]

The predictor normalises NB* over the two candidate labels at each step.
That is not the same thing as Bayes-mixing the per-subset predictives,
because normalisation does not commute with averaging; see the tests.

Counters are plain integers and every log-probability is recomputed from
closed-form lgamma tables, so there is no drift to track.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from .core import NumericalError, OnlinePredictor, Prediction, logsumexp2, row_blocks
from .oracles import BRUTE_FORCE_CAP

LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
# Madnb.score_trace takes row blocks of BLOCK_BITS / (_BLOCK_SCALE * d) rows
_BLOCK_SCALE = 4

__all__ = [
    "Madnb",
    "factored_joint_log2",
    "kt_next_prob",
    "log2_kt",
    "nb_joint_log2",
    "nb_mixture_log2",
]


class _LgammaTable:
    """lgamma(c + offset) for integer c >= 0, grown geometrically."""

    def __init__(self, offset: float):
        self.offset = offset
        self._values = np.empty(0, dtype=np.float64)
        self._filled = 0

    def ensure(self, n: int) -> np.ndarray:
        if n >= self._filled:
            size = max(256, 1 << (n + 1).bit_length())
            grown = np.empty(size, dtype=np.float64)
            grown[: self._filled] = self._values[: self._filled]
            for c in range(self._filled, size):
                grown[c] = math.lgamma(c + self.offset)
            self._values = grown
            self._filled = size
        return self._values


_HALF = _LgammaTable(0.5)
_INTS = _LgammaTable(1.0)


def log2_kt(zeros: int, ones: int) -> float:
    """log2 KT probability of a binary sequence with the given counts."""
    if zeros < 0 or ones < 0:
        raise ValueError("counts must be non-negative")
    return (
        math.lgamma(zeros + 0.5)
        + math.lgamma(ones + 0.5)
        - _LN_PI
        - math.lgamma(zeros + ones + 1)
    ) / LN2


def _log2_kt_arr(zeros: np.ndarray, ones: np.ndarray) -> np.ndarray:
    n = zeros + ones
    half = _HALF.ensure(int(max(zeros.max(), ones.max())) if n.size else 0)
    ints = _INTS.ensure(int(n.max()) if n.size else 0)
    return (half[zeros] + half[ones] - _LN_PI - ints[n]) / LN2


def kt_next_prob(zeros: int, ones: int, symbol: int) -> float:
    """Add-half predictive probability of the next symbol."""
    if symbol not in (0, 1):
        raise ValueError(f"symbol must be 0 or 1, got {symbol!r}")
    count = ones if symbol else zeros
    return (count + 0.5) / (zeros + ones + 1)


def _trace_counts(trace, d: int):
    """Label, marginal and class-conditional counts for a whole trace."""
    cls = np.zeros(2, dtype=np.int64)
    marg = np.zeros((d, 2), dtype=np.int64)
    cond = np.zeros((2, d, 2), dtype=np.int64)
    idx = np.arange(d)
    for side, label in trace:
        bits = np.asarray(side, dtype=np.int64)
        if bits.shape != (d,):
            raise ValueError(f"expected {d} feature bits, got shape {bits.shape}")
        label = int(label)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        cls[label] += 1
        marg[idx, bits] += 1
        cond[label, idx, bits] += 1
    return cls, marg, cond


def nb_joint_log2(feature_set: Iterable[int], trace, d: int) -> float:
    """log2 joint probability of a trace under one naive Bayes structure.

    Features in `feature_set` use class-conditional KT estimators; the
    rest use a single class-independent marginal KT estimator, which is
    what makes the uniform mixture factorise.
    """
    if d > BRUTE_FORCE_CAP:
        raise ValueError(f"dimension {d} exceeds the brute-force cap of {BRUTE_FORCE_CAP}")
    chosen = set(int(i) for i in feature_set)
    if chosen and (min(chosen) < 0 or max(chosen) >= d):
        raise ValueError(f"feature indices must lie in [0, {d})")
    cls, marg, cond = _trace_counts(trace, d)
    total = log2_kt(int(cls[0]), int(cls[1]))
    for i in range(d):
        if i in chosen:
            total += log2_kt(int(cond[0, i, 0]), int(cond[0, i, 1]))
            total += log2_kt(int(cond[1, i, 0]), int(cond[1, i, 1]))
        else:
            total += log2_kt(int(marg[i, 0]), int(marg[i, 1]))
    return total


def nb_mixture_log2(trace, d: int) -> float:
    """log2 of the uniform average of nb_joint over all 2**d subsets.

    Deliberately brute force: enumerates every subset rather than using
    the product form, so it can serve as the reference the product form
    is checked against.
    """
    if d > 16:
        raise ValueError(f"dimension {d} exceeds the enumeration cap of 16")
    cls, marg, cond = _trace_counts(trace, d)
    class_term = log2_kt(int(cls[0]), int(cls[1]))
    marg_terms = [log2_kt(int(marg[i, 0]), int(marg[i, 1])) for i in range(d)]
    pair_terms = [
        log2_kt(int(cond[0, i, 0]), int(cond[0, i, 1]))
        + log2_kt(int(cond[1, i, 0]), int(cond[1, i, 1]))
        for i in range(d)
    ]
    joints = []
    for mask in range(1 << d):
        t = class_term - d
        for i in range(d):
            t += pair_terms[i] if mask >> i & 1 else marg_terms[i]
        joints.append(t)
    return logsumexp2(joints)


def factored_joint_log2(trace, d: int) -> float:
    """log2 NB* of a trace via the per-feature product form, O(n*d)."""
    cls, marg, cond = _trace_counts(trace, d)
    class_term = log2_kt(int(cls[0]), int(cls[1]))
    marg_t = _log2_kt_arr(marg[:, 0], marg[:, 1])
    pair_t = _log2_kt_arr(cond[0, :, 0], cond[0, :, 1]) + _log2_kt_arr(
        cond[1, :, 0], cond[1, :, 1]
    )
    mixed = np.logaddexp2(marg_t, pair_t) - 1.0
    return class_term + float(mixed.sum())


class Madnb(OnlinePredictor):
    """Sequential predictor that normalises NB* over the candidate label.

    Never assigns probability zero: every KT factor is strictly positive,
    so both candidate joints are finite and the normalised prediction
    stays strictly inside (0, 1).
    """

    def __init__(self, d: int):
        super().__init__(d)
        self._cls = np.zeros(2, dtype=np.int64)
        self._marg = np.zeros((d, 2), dtype=np.int64)
        self._cond = np.zeros((2, d, 2), dtype=np.int64)
        self._idx = np.arange(d)
        # per-feature log2 KT of the current conditional counts, cached so
        # predict only recomputes the branch the candidate label touches
        self._kt_cond = np.stack([self._fresh_kt(0), self._fresh_kt(1)])

    def _fresh_kt(self, label: int) -> np.ndarray:
        return _log2_kt_arr(self._cond[label, :, 0], self._cond[label, :, 1])

    def _predict(self, bits: np.ndarray) -> Prediction:
        s = bits.astype(np.int64)
        marg_next = _log2_kt_arr(self._marg[:, 0] + (1 - s), self._marg[:, 1] + s)
        # row y: this feature's symbol lands in the y-conditional counter,
        # the other conditional keeps its cached value
        cond_next = _log2_kt_arr(self._cond[:, :, 0] + (1 - s), self._cond[:, :, 1] + s)
        pair = cond_next + self._kt_cond[::-1]
        feat = (np.logaddexp2(marg_next, pair) - 1.0).sum(axis=1)
        c0, c1 = int(self._cls[0]), int(self._cls[1])
        log_nb0 = log2_kt(c0 + 1, c1) + float(feat[0])
        log_nb1 = log2_kt(c0, c1 + 1) + float(feat[1])
        norm = float(np.logaddexp2(log_nb0, log_nb1))
        return Prediction(log_nb0 - norm, log_nb1 - norm)

    def _update(self, bits: np.ndarray, label: int) -> None:
        s = bits.astype(np.int64)
        self._cls[label] += 1
        self._marg[self._idx, s] += 1
        self._cond[label, self._idx, s] += 1
        self._kt_cond[label] = self._fresh_kt(label)

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised `OnlinePredictor.score_trace` by prefix sums of the counts.

        Every count before a row is the state plus an exclusive cumulative
        sum over the rows before it, and each row is priced with
        `_predict`'s arithmetic on the same lgamma tables, so the results
        equal the loop's. A row whose prediction fails the normalisation
        check raises `NumericalError` as `_predict` does, with the rows
        before it absorbed.
        """
        sides, labels = self._check_trace(sides, labels)
        log_p = np.empty(labels.shape[0], dtype=np.float64)
        # about six (rows, d) arrays of 8-byte values are live per block
        for rows in row_blocks(labels.shape[0], _BLOCK_SCALE * self.d):
            log_p[rows] = self._score_block(sides[rows], labels[rows])
        return log_p, log_p > -1.0

    def _score_block(self, sides: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """log2 p of each realised label in one block, then absorb the block."""
        n, d = sides.shape
        steps = np.arange(n)
        done = int(self._cls.sum())  # rows absorbed before the block
        cls1 = int(self._cls[1]) + np.cumsum(labels, dtype=np.int64) - labels
        cls = (done + steps - cls1, cls1)  # label counts before each row
        half = _HALF.ensure(done + n)
        ints = _INTS.ensure(done + n)
        sums = np.zeros((n + 1, d), dtype=np.int64)  # row t: a column sum over rows < t
        ones = np.empty((n, d), dtype=np.int64)
        scratch = np.empty((n, d), dtype=np.float64)

        def log2_kt_into(out: np.ndarray, total: np.ndarray) -> None:
            # _log2_kt_arr of (total - ones, ones), in its order of operations;
            # leaves the zero counts in `ones`
            np.take(half, ones, out=out, mode="clip")
            np.subtract(total[:, None], ones, out=ones)
            np.take(half, ones, out=scratch, mode="clip")
            out += scratch
            out -= _LN_PI
            out -= ints[total][:, None]
            out /= LN2

        # the marginal counts with each row's own symbol added
        np.cumsum(sides, axis=0, dtype=np.int64, out=sums[1:])
        np.add(sums[1:], self._marg[:, 1], out=ones)
        marg_next = np.empty((n, d), dtype=np.float64)
        log2_kt_into(marg_next, done + steps + 1)
        # row 0 of kt[y]: the cached log2 KT of the y-conditional counts;
        # row t + 1: the same with row t's symbol counted under label y,
        # which is the cache after row t when row t is labelled y
        kt = np.empty((2, n + 1, d), dtype=np.float64)
        for y in (0, 1):
            np.cumsum(sides * (labels == y)[:, None], axis=0, dtype=np.int64, out=sums[1:])
            np.add(sums[:-1], sides, out=ones)
            ones += self._cond[y, :, 1]
            kt[y, 0] = self._kt_cond[y]
            log2_kt_into(kt[y, 1:], cls[y] + 1)

        log_nb = np.empty((2, n), dtype=np.float64)
        for y in (0, 1):
            other = labels == 1 - y
            # the row of kt[1 - y] holding the cache before each row
            last = np.maximum.accumulate(np.where(other, steps + 1, 0))
            cached = np.concatenate([[0], last[:-1]])
            np.take(kt[1 - y], cached, axis=0, out=scratch, mode="clip")
            scratch += kt[y, 1:]
            np.logaddexp2(marg_next, scratch, out=scratch)
            scratch -= 1.0
            scratch.sum(axis=1, out=log_nb[y])
        log_nb[0] += _log2_kt_arr(cls[0] + 1, cls[1])
        log_nb[1] += _log2_kt_arr(cls[0], cls[1] + 1)
        norm = np.logaddexp2(log_nb[0], log_nb[1])
        log_p0, log_p1 = log_nb[0] - norm, log_nb[1] - norm

        # rows well inside the check pass it; the rest take `Prediction`'s
        # own check, whose arithmetic may differ from exp2's in the last bit
        total = np.exp2(log_p0) + np.exp2(log_p1)
        for t in np.flatnonzero(~(np.abs(total - 1.0) <= 0.5e-9)):
            try:
                Prediction(float(log_p0[t]), float(log_p1[t]))
            except NumericalError:
                self._absorb(sides[:t], labels[:t])
                raise
        self._absorb(sides, labels)
        return np.where(labels == 1, log_p1, log_p0)

    def _absorb(self, sides: np.ndarray, labels: np.ndarray) -> None:
        """`_update` over every row in order, by column sums."""
        for y in (0, 1):
            rows = sides[labels == y]
            ones = rows.sum(axis=0, dtype=np.int64)
            self._cls[y] += rows.shape[0]
            self._marg[:, 1] += ones
            self._marg[:, 0] += rows.shape[0] - ones
            self._cond[y, :, 1] += ones
            self._cond[y, :, 0] += rows.shape[0] - ones
            self._kt_cond[y] = self._fresh_kt(y)
