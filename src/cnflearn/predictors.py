"""Online predictors for monotone conjunctions over binary side information.

The hypothesis class is the set of conjunctions h_S(a) = AND of a[i] for i
in S, one per subset S of the d coordinates. The predictors differ in how
they trade computation against worst-case log loss on realizable traces:

* ExactMixture       full Bayes over all 2**d index sets, O(2**d) per step
* HeuristicMixture   product-form Bayes on positive examples only; cheap,
                     but can assign probability zero (unbounded loss)
* Memorizer          lookup table; at most 2**d bits on realizable data
* HybridPredictor    memorizes negatives, runs a tilted product mixture on
                     positives; at most 2*d**2 bits on realizable data
* PracticalPredictor surviving-coordinate conjunction with a t/(t+1)
                     confidence schedule; at most (d+1)*log2(n+1) bits
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .core import (
    LN2,
    BitVector,
    OnlinePredictor,
    Prediction,
    UnrealizableTrace,
    as_bits,
    log1mexp2,
    log1mexp2_arr,
    logsumexp2,
    pack_key,
)
from .oracles import BRUTE_FORCE_CAP

__all__ = [
    "ColumnMixture",
    "ExactMixture",
    "HeuristicMixture",
    "HybridPredictor",
    "MapEstimate",
    "Memorizer",
    "PracticalPredictor",
    "exact_mixture_joint",
    "hybrid_log2_one_minus_alpha",
    "map_index_set",
    "positive_trace_log2",
]


def hybrid_log2_one_minus_alpha(d: int) -> float:
    """log2(1 - alpha) for the hybrid predictor's alpha = 2**(-d/2**d).

    Never forms 1 - alpha linearly, which underflows around d = 55. Past
    d = 1024 the exponent -d/2**d itself leaves double range, where the
    first-order expansion log2(d) - d + log2(ln 2) is exact to double
    precision.
    """
    if d < 2:
        raise ValueError(f"the hybrid construction needs d >= 2, got {d}")
    if d >= 1024:
        return math.log2(d) - d + math.log2(LN2)
    return log1mexp2(-d / 2.0 ** d)


class ExactMixture(OnlinePredictor):
    """Bayes mixture over every monotone conjunction, by full enumeration.

    The prior on an index set S is alpha**|S| * (1-alpha)**(d-|S|);
    alpha = 1/2 gives the uniform prior, under which cumulative loss on a
    realizable trace never exceeds d bits. Time and memory are O(2**d) per
    step, so construction refuses d beyond `cap`.
    """

    def __init__(self, d: int, alpha: float = 0.5, cap: int = BRUTE_FORCE_CAP):
        super().__init__(d)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
        if self.d > cap:
            raise ValueError(f"dimension {d} exceeds the brute-force cap of {cap}")
        self.alpha = float(alpha)
        self._masks = np.arange(1 << self.d, dtype=np.int64)
        sizes = np.bitwise_count(self._masks).astype(np.float64)
        log2_a = math.log2(alpha)
        log2_1ma = log1mexp2(log2_a)
        self._log_prior = sizes * log2_a + (self.d - sizes) * log2_1ma
        self._alive = np.ones(1 << self.d, dtype=bool)
        self._full = (1 << self.d) - 1
        self._pow2 = np.left_shift(np.int64(1), np.arange(self.d, dtype=np.int64))

    def _side_int(self, bits: np.ndarray) -> int:
        return int(bits.astype(np.int64) @ self._pow2)

    def _satisfied(self, bits: np.ndarray) -> np.ndarray:
        # h_S(a) = 1 iff S is contained in the on-coordinates of a
        off = self._full ^ self._side_int(bits)
        return (self._masks & off) == 0

    @property
    def consistent_count(self) -> int:
        return int(np.count_nonzero(self._alive))

    def log_joint(self) -> float:
        """log2 of the mixture probability of everything absorbed so far."""
        return logsumexp2(self._log_prior[self._alive])

    def _predict(self, bits: np.ndarray) -> Prediction:
        sat = self._satisfied(bits)
        log_z1 = logsumexp2(self._log_prior[self._alive & sat])
        log_z0 = logsumexp2(self._log_prior[self._alive & ~sat])
        if log_z1 == -math.inf and log_z0 == -math.inf:
            raise UnrealizableTrace(
                "no consistent hypothesis remains; the trace was not realizable"
            )
        norm = float(np.logaddexp2(log_z0, log_z1))
        return Prediction(log_z0 - norm, log_z1 - norm)

    def _update(self, bits: np.ndarray, label: int) -> None:
        self._alive &= self._satisfied(bits) == bool(label)


def exact_mixture_joint(trace, d: int, alpha: float = 0.5) -> float:
    """log2 of the mixture probability of a whole labelled trace."""
    mix = ExactMixture(d, alpha=alpha)
    for side, label in trace:
        mix.update(side, label)
    return mix.log_joint()


class ColumnMixture:
    """Column-survival form of the conjunction mixture on positive examples.

    On a trace whose labels are all 1, the mixture probability factorises
    over coordinates, and the whole state collapses to one bit per column:
    whether every positive side so far had that coordinate on. Joint and
    one-step-ahead quantities then depend only on log2(1 - alpha) and on
    column counts, so that is all this class stores.
    """

    def __init__(self, d: int, log2_one_minus_alpha: float):
        if not d >= 1:
            raise ValueError(f"dimension must be positive, got {d}")
        if not log2_one_minus_alpha < 0.0:
            raise ValueError("log2(1 - alpha) must be negative")
        self.d = int(d)
        self.log2_one_minus_alpha = float(log2_one_minus_alpha)
        self.cols = np.ones(self.d, dtype=np.uint8)

    def violations(self, bits: np.ndarray) -> int:
        """Number of surviving columns the given side would switch off."""
        return int(np.count_nonzero(self.cols & (1 - bits)))

    def absorb(self, bits: np.ndarray) -> None:
        self.cols &= bits

    @property
    def log_joint(self) -> float:
        zeros = self.d - int(self.cols.sum())
        return zeros * self.log2_one_minus_alpha

    def log_ratio_next_positive(self, bits: np.ndarray) -> float:
        """log2 of the predictive probability that the next label is 1."""
        return self.violations(bits) * self.log2_one_minus_alpha


def _columns_before(cols: np.ndarray, sides: np.ndarray, labels: np.ndarray):
    """Column state before each row, starting from `cols`, and after the last.

    Row t of the first result is `cols` ANDed with every positive side
    before step t: the prefix-AND that the column state runs through.
    """
    running = np.logical_and.accumulate(sides.astype(bool) | (labels[:, None] != 1), axis=0)
    cols = cols.astype(bool)
    states = np.vstack([cols[None, :], cols & running])
    return states[:-1], states[-1]


def practical_steps(cols: np.ndarray, features: np.ndarray, labels: np.ndarray, t: int):
    """`PracticalPredictor` over a block of feature rows, from column state
    `cols` at step t.

    Returns the per-step log2 probability of the realised label, the
    per-step correctness and the column state after the block.
    """
    before, after = _columns_before(cols, features, labels)
    structural = (features.astype(bool) | ~before).all(axis=1)
    t = t + np.arange(labels.shape[0], dtype=np.float64)
    # an exact 1/2 tie (t = 1) is scored by the structural label, so a
    # hit is exactly a correct step
    hit = structural == labels.astype(bool)
    log_p = np.where(hit, np.log2(t), 0.0) - np.log2(t + 1.0)
    return log_p, hit, after


def hybrid_column_steps(
    cols: np.ndarray, features: np.ndarray, labels: np.ndarray, log2_one_minus_alpha: float
):
    """`HybridPredictor`'s column pricing over a block of feature rows, from
    column state `cols`, ignoring the negative store.

    Returns the per-step log2 probability of the realised label and the
    column state after the block.
    """
    before, after = _columns_before(cols, features, labels)
    violations = np.count_nonzero(before & (features == 0), axis=1)
    vl = violations * log2_one_minus_alpha
    return np.where(labels == 1, vl, log1mexp2_arr(vl)), after


def memorise_negatives(log_p: np.ndarray, sides: np.ndarray, labels: np.ndarray, neg: set) -> None:
    """Apply `HybridPredictor`'s negative store to a trace priced by columns.

    A step is memorised when its side is already in `neg` or was seen with
    label 0 earlier in the trace; its entry of `log_p` becomes the certain
    prediction of 0. Every negative side of the trace is then added to `neg`.
    """
    n = labels.shape[0]
    group = _side_groups(sides)
    steps = np.arange(n)
    # first negative step of each distinct side, n where there is none
    first = np.full(n, n)
    negative = steps[labels == 0]
    np.minimum.at(first, group[negative], negative)
    memorised = first[group] < steps
    if neg:
        row = np.empty(int(group.max(initial=-1)) + 1, dtype=np.int64)
        row[group] = steps  # one row of each distinct side
        stored = np.array([pack_key(sides[i]) in neg for i in row], dtype=bool)
        memorised |= stored[group]
    log_p[memorised] = np.where(labels[memorised] == 1, -math.inf, 0.0)
    neg.update(pack_key(sides[i]) for i in first[first < n])


def _side_groups(sides: np.ndarray) -> np.ndarray:
    """Index of each row's distinct side, from 0; equal exactly where the rows are."""
    d = sides.shape[1]
    if d <= 63:
        # pack each row into one int64 key and find distinct keys in 1-D
        keys = sides.astype(np.int64) @ np.left_shift(np.int64(1), np.arange(d, dtype=np.int64))
        return np.unique(keys, return_inverse=True)[1]
    return np.unique(sides, axis=0, return_inverse=True)[1].reshape(-1)


def positive_trace_log2(alpha: float, sides: Sequence[BitVector], d: int) -> float:
    """Closed-form log2 mixture probability of an all-positive trace.

    Equals exact_mixture_joint on the same sides with labels all 1, for any
    alpha in (0, 1), but runs in O(n*d) instead of O(n*2**d).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    state = ColumnMixture(d, log1mexp2(math.log2(alpha)))
    for side in sides:
        state.absorb(as_bits(side, d))
    return state.log_joint


@dataclass(frozen=True)
class MapEstimate:
    indices: FrozenSet[int]
    unique: bool


def map_index_set(alpha: float, sides: Sequence[BitVector], d: int) -> MapEstimate:
    """Posterior-mode index set given positive examples under the alpha prior.

    alpha > 1/2 favours large sets, so the mode is the full surviving-column
    set and is unique; alpha < 1/2 favours small sets, so the mode is the
    empty set. At alpha = 1/2 every consistent set ties; the maximal one is
    returned and `unique` is set accordingly.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    cols = np.ones(d, dtype=np.uint8)
    for side in sides:
        cols &= as_bits(side, d)
    surviving = frozenset(int(i) for i in np.flatnonzero(cols))
    if alpha > 0.5:
        return MapEstimate(surviving, True)
    if alpha < 0.5:
        return MapEstimate(frozenset(), True)
    return MapEstimate(surviving, len(surviving) == 0)


class HeuristicMixture(OnlinePredictor):
    """Positive-examples-only mixture at alpha = 1/2.

    Ignores negative examples entirely and predicts from the column state.
    Can output p0 = 0 (after seeing only positives) and pays a constant
    bit per repeated negative, so its loss is unbounded in n.
    """

    def __init__(self, d: int):
        super().__init__(d)
        self._cols = ColumnMixture(d, -1.0)  # log2(1 - 1/2)

    def _predict(self, bits: np.ndarray) -> Prediction:
        return Prediction.from_log_p1(-float(self._cols.violations(bits)))

    def _update(self, bits: np.ndarray, label: int) -> None:
        if label:
            self._cols.absorb(bits)


class Memorizer(OnlinePredictor):
    """Lookup table: stored label with certainty, 1/2 on unseen sides.

    On a contradictory relabel of a seen side the first stored label is
    kept. At most one bit per distinct side on realizable data, so at most
    2**d bits total.
    """

    def __init__(self, d: int):
        super().__init__(d)
        self._store: dict = {}

    def _predict(self, bits: np.ndarray) -> Prediction:
        label = self._store.get(pack_key(bits))
        if label is None:
            return Prediction(-1.0, -1.0)
        return Prediction.certain(label)

    def _update(self, bits: np.ndarray, label: int) -> None:
        self._store.setdefault(pack_key(bits), label)

    def __len__(self) -> int:
        return len(self._store)


class HybridPredictor(OnlinePredictor):
    """Negative-memorizing conjunction predictor with a tilted positive mixture.

    Sides seen with label 0 are stored and predicted 0 with certainty ever
    after. Everything else is predicted from the column state under
    alpha = 2**(-d/2**d): the probability of label 1 is (1-alpha)**m where
    m counts surviving columns the side switches off. Cumulative loss on a
    realizable trace is at most 2*d**2 bits for d >= 2; on contradictory
    data a step can cost +inf but the state remains well defined.
    """

    def __init__(self, d: int):
        if d < 2:
            raise ValueError(f"HybridPredictor needs d >= 2, got {d}")
        super().__init__(d)
        self._neg: set = set()
        self._cols = ColumnMixture(d, hybrid_log2_one_minus_alpha(d))

    @property
    def log2_one_minus_alpha(self) -> float:
        return self._cols.log2_one_minus_alpha

    def _predict(self, bits: np.ndarray) -> Prediction:
        if pack_key(bits) in self._neg:
            return Prediction.certain(0)
        return Prediction.from_log_p1(self._cols.log_ratio_next_positive(bits))

    def _update(self, bits: np.ndarray, label: int) -> None:
        if label:
            self._cols.absorb(bits)
        else:
            self._neg.add(pack_key(bits))

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised `OnlinePredictor.score_trace`; exact on any labels.

        Steps are priced from the column state before them, then the
        memorised ones are overridden by the negative store.
        """
        sides, labels = self._check_trace(sides, labels)
        log_p, after = hybrid_column_steps(
            self._cols.cols, sides, labels, self.log2_one_minus_alpha
        )
        self._cols.cols = after.astype(np.uint8)
        memorise_negatives(log_p, sides, labels, self._neg)
        # this predictor has no tie label, so an exact 1/2 tie is a mistake
        return log_p, log_p > -1.0


class PracticalPredictor(OnlinePredictor):
    """Surviving-coordinate conjunction with a t/(t+1) confidence schedule.

    Maintains the set of coordinates that were on in every positive example
    so far and evaluates their conjunction c on the current side. Assigns
    probability t/(t+1) to label c and 1/(t+1) to the other, where t counts
    all steps from 1, so no prediction is ever zero. Cumulative loss on a
    realizable trace is at most (d+1)*log2(n+1) bits, and the expensive
    branch (realized label != c) occurs at most d times when labels are
    realizable.
    """

    def __init__(self, d: int):
        super().__init__(d)
        self._mask = np.ones(d, dtype=np.uint8)
        self._t = 1

    @property
    def surviving(self) -> FrozenSet[int]:
        return frozenset(int(i) for i in np.flatnonzero(self._mask))

    @property
    def step(self) -> int:
        return self._t

    def _structural(self, bits: np.ndarray) -> int:
        return 0 if np.any(self._mask & (1 - bits)) else 1

    def tie_label(self, side: BitVector) -> Optional[int]:
        return self._structural(as_bits(side, self.d))

    def _predict(self, bits: np.ndarray) -> Prediction:
        c = self._structural(bits)
        log_hi = math.log2(self._t) - math.log2(self._t + 1)
        log_lo = -math.log2(self._t + 1)
        if c:
            return Prediction(log_lo, log_hi)
        return Prediction(log_hi, log_lo)

    def _update(self, bits: np.ndarray, label: int) -> None:
        if label:
            self._mask &= bits
        self._t += 1

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised `OnlinePredictor.score_trace` by a prefix-AND."""
        sides, labels = self._check_trace(sides, labels)
        log_p, hit, after = practical_steps(self._mask, sides, labels, self._t)
        self._mask = after.astype(np.uint8)
        self._t += labels.shape[0]
        return log_p, hit
