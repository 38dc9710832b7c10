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

Both joints grow to about n*d bits, so only their log-ratio is priced. It
is a sum of O(1) per-feature increments:

    L = log2((c1 + 1/2) / (c0 + 1/2)) + sum_i [ sp(r1_i) - sp(r0_i) ]

with sp(r) = log2(1 + 2**r) and r_y = g_i + log2 q_y(x_i) - log2 q(x_i):
g_i = log2 KT0 + log2 KT1 - log2 KT of feature i so far, q the add-half
predictives of its y-conditional and marginal counts. p = (-sp(L), -sp(-L)).

Counters are plain integers and every log-probability is recomputed from
closed-form tables, so there is no drift to track. The tables serve `Madnb`
alone: the brute-force references price every count through the scalar
`log2_kt`, one `math.lgamma` call per term.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from .core import (
    LN2, NumericalError, OnlinePredictor, Prediction, _check_label, as_bits, logsumexp2, per_chunk
)
from .oracles import BRUTE_FORCE_CAP

_LN_PI = math.log(math.pi)
# Madnb's blocks hold per_chunk(_BLOCK_SCALE * d) rows, as a dozen (rows, d) int64 arrays live per block
_BLOCK_SCALE = 4

__all__ = [
    "Madnb",
    "factored_joint_log2",
    "log2_kt",
    "nb_joint_log2",
    "nb_mixture_log2",
]


_COUNTS = np.empty((4, 0), dtype=np.float64)  # the rows of `_count_tables`


def _count_tables(top: int) -> np.ndarray:
    """lgamma(c + 1/2), lgamma(c + 1), log2(c + 1/2) and log2(c + 1) for each integer
    c >= 0 up to at least top, grown geometrically; read by `_label_log_ratio`."""
    global _COUNTS
    filled = _COUNTS.shape[1]
    if top >= filled:
        new = range(filled, max(256, 1 << (top + 1).bit_length()))
        terms = ((math.lgamma, 0.5), (math.lgamma, 1.0), (math.log2, 0.5), (math.log2, 1.0))
        grown = np.fromiter((fn(c + shift) for fn, shift in terms for c in new), dtype=np.float64, count=4 * len(new))
        _COUNTS = np.concatenate((_COUNTS, grown.reshape(4, -1)), axis=1)
    return _COUNTS


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


def _trace_counts(trace, d: int):
    """Label, marginal and class-conditional counts for a whole trace."""
    cls = np.zeros(2, dtype=np.int64)
    marg = np.zeros((d, 2), dtype=np.int64)
    cond = np.zeros((2, d, 2), dtype=np.int64)
    idx = np.arange(d)
    for side, label in trace:
        bits = as_bits(side)
        if bits.shape != (d,):
            raise ValueError(f"expected {d} feature bits, got shape {bits.shape}")
        label = _check_label(label)
        cls[label] += 1
        marg[idx, bits] += 1
        cond[label, idx, bits] += 1
    return cls, marg, cond


def _kt_terms(trace, d: int):
    """log2 KT of the labels, and per feature of its marginal and of its two class-conditionals summed."""
    cls, marg, cond = _trace_counts(trace, d)
    marg_kt, kt0, kt1 = ([log2_kt(zeros, ones) for zeros, ones in counts.tolist()] for counts in (marg, *cond))
    return log2_kt(*cls.tolist()), marg_kt, [a + b for a, b in zip(kt0, kt1)]


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
    class_term, marg_terms, pair_terms = _kt_terms(trace, d)
    joints = []
    for mask in range(1 << d):
        t = class_term - d
        for i in range(d):
            t += pair_terms[i] if mask >> i & 1 else marg_terms[i]
        joints.append(t)
    return logsumexp2(joints)


def factored_joint_log2(trace, d: int) -> float:
    """log2 NB* of a trace via the per-feature product form, O(n*d)."""
    class_term, marg_terms, pair_terms = _kt_terms(trace, d)
    mixed = np.logaddexp2(marg_terms, pair_terms) - 1.0
    return class_term + float(mixed.sum())


def _gain(totals, ones, zeros, half, ints) -> np.ndarray:
    """Per feature, log2 KT(label-0 rows) + log2 KT(label-1 rows) - log2 KT(all rows),
    in `_label_log_ratio`'s shapes, from each feature's `ones` and `zeros` and the
    lgamma(c + 1/2) and lgamma(c + 1) count tables `half` and `ints`."""
    kt = half[ones]
    kt += half[zeros]
    gain = kt[0] + kt[1]
    gain -= kt[2]
    rows = ints[totals]
    gain += (rows[2] - rows[0] - rows[1] - _LN_PI)[..., None]
    gain /= LN2
    return gain


def _label_log_ratio(totals, ones, sides, top: int):
    """L = log2 NB*(x, 1) - log2 NB*(x, 0) for each row x of `sides`, from the
    counts before it: `totals` of the rows labelled 0, labelled 1 and all rows, and
    `ones` each feature's ones among them. A step passes one state, (3,) and (3, d),
    and its row (d,); a block the states before its B rows, (3, B) and (3, B, d),
    and the rows (B, d). `top` is the largest count, the last state's all rows."""
    # the gain first, so its temporaries are freed before q's are made: at
    # d = 28,800 the other order let glibc's heap shrink and regrow, and
    # each one-row block page-faulted about 3 MB afresh
    half, ints, log2_half, log2_next = _count_tables(top)
    counts = totals[..., None] - ones  # each feature's zeros
    gain = _gain(totals, ones, counts, half, ints)
    # log2 of the add-half predictive of x_i under label 0, label 1 and all
    # rows; validated sides hold only 0 and 1, so they view as booleans
    counts = np.where(sides.view(bool), ones, counts)  # x_i's count; the zeros are freed
    q = log2_half[counts]
    q -= log2_next[totals][..., None]
    # sp(r1) - sp(r0) = log2(1 + (2**(r1 - r0) - 1) / (1 + 2**-r0)), where
    # r0 = gain + q0 - q2 and r1 - r0 = q1 - q0; no term can overflow
    z = np.expm1((q[1] - q[0]) * LN2)
    neg_r0 = q[2] - q[0]
    neg_r0 -= gain
    z /= np.exp2(neg_r0, out=neg_r0) + 1.0
    prior = log2_half[totals]
    return prior[1] - prior[0] + np.log1p(z).sum(axis=-1) / LN2


def _softplus_tail(ratio):
    """log2(1 + 2**-|L|): sp(L) is max(L, 0) plus this, and so is sp(-L)."""
    return np.log1p(np.exp2(-np.abs(ratio))) / LN2


class Madnb(OnlinePredictor):
    """Sequential predictor that normalises NB* over the candidate label.

    Never assigns probability zero: the label log-ratio is finite, so the
    normalised prediction stays strictly inside (0, 1).
    """

    def __init__(self, d: int):
        super().__init__(d)
        # rows labelled 0, rows labelled 1 and all rows; each feature's ones
        # among them (its zeros are the rest)
        self._totals = np.zeros(3, dtype=np.int64)
        self._ones = np.zeros((3, d), dtype=np.int64)

    def _predict(self, bits: np.ndarray) -> Prediction:
        bits = self._reader.read(bits)
        ratio = float(_label_log_ratio(self._totals, self._ones, bits, int(self._totals[2])))
        tail = float(_softplus_tail(ratio))
        return Prediction(-(max(ratio, 0.0) + tail), -(max(-ratio, 0.0) + tail))

    def _update(self, bits: np.ndarray, label: int) -> None:
        bits = self._reader.read(bits)
        self._totals[label] += 1
        self._totals[2] += 1
        self._ones[label] += bits
        self._ones[2] += bits

    def _block_rows(self, width: int) -> int:
        return per_chunk(_BLOCK_SCALE * width)

    def _score_columns(self, sides, columns, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised `OnlinePredictor._score_columns` by prefix sums of the counts.

        Every count before a row is the state plus an exclusive cumulative
        sum over the rows before it, and each row is priced with
        `_predict`'s functions, so the results equal the loop's. A row
        whose prediction fails the normalisation check raises
        `NumericalError` as `_predict` does, with the rows before it
        absorbed.
        """
        values = self._reader.values(sides, columns)
        n, d = values.shape
        if not n:  # an empty trace is one empty block, which holds no counts before a row
            return np.empty(0), np.empty(0, dtype=bool)
        # entry t of the counts: the state plus the rows before row t; the
        # last entry is the state after the block
        totals = np.zeros((3, n + 1), dtype=np.int64)
        ones = np.zeros((3, n + 1, d), dtype=np.int64)
        np.cumsum(labels, dtype=np.int64, out=totals[1, 1:])
        totals[2] = np.arange(n + 1)
        np.cumsum(values * labels[:, None], axis=0, dtype=np.int64, out=ones[1, 1:])
        np.cumsum(values, axis=0, dtype=np.int64, out=ones[2, 1:])
        np.subtract(totals[2], totals[1], out=totals[0])
        np.subtract(ones[2], ones[1], out=ones[0])
        totals += self._totals[:, None]
        ones += self._ones[:, None]
        ratio = _label_log_ratio(totals[:, :-1], ones[:, :-1], values, int(totals[2, -2]))
        tail = _softplus_tail(ratio)
        log_p0 = -(np.maximum(ratio, 0.0) + tail)
        log_p1 = -(np.maximum(-ratio, 0.0) + tail)

        # rows well inside the check pass it; the rest take `Prediction`'s
        # own check, whose arithmetic may differ from exp2's in the last bit
        total = np.exp2(log_p0) + np.exp2(log_p1)
        for t in np.flatnonzero(~(np.abs(total - 1.0) <= 0.5e-9)):
            try:
                Prediction(float(log_p0[t]), float(log_p1[t]))
            except NumericalError:
                self._totals, self._ones = totals[:, t].copy(), ones[:, t].copy()
                raise
        self._totals, self._ones = totals[:, n].copy(), ones[:, n].copy()
        log_p = np.where(labels == 1, log_p1, log_p0)
        return log_p, log_p > -1.0
