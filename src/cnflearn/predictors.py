"""Online predictors for monotone conjunctions over binary side information.

The hypothesis class is the set of conjunctions h_S(a) = AND of a[i] for i
in S, one per subset S of the d coordinates. The predictors trade time
against worst-case loss on realizable traces, stated by `bound_bits(d, n)`:

* ExactMixture       full Bayes over all 2**d index sets, O(2**d) per step
* HeuristicMixture   product-form Bayes on positive examples only; cheap,
                     but can assign probability zero (unbounded loss)
* Memorizer          lookup table; at most 2**d bits at the unmapped d,
                     not stated, so reports leave it empty
* HybridPredictor    memorizes negatives, runs a tilted product mixture on
                     positives; at most 2*d**2 bits on realizable data
* PracticalPredictor surviving-coordinate conjunction with a t/(t+1)
                     confidence schedule; at most (d+1)*log2(n+1) bits

HeuristicMixture, HybridPredictor and PracticalPredictor share one state,
`SurvivingColumns`: the coordinates on in every positive side so far, as
one word per variable subset (`SubsetWords`). They step through a side's
zero set, mapped or not, and score a trace block on the 64-row words of
the surviving columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import FrozenSet, Sequence, Tuple

import numpy as np

from .core import (
    BitVector,
    OnlinePredictor,
    Prediction,
    Unmapped,
    UnrealizableTrace,
    as_bits,
    log1mexp2,
    log1mexp2_arr,
    logsumexp2,
    pack_key,
    pack_keys,
    pack_rows,
    per_chunk,
    unpack_rows,
)
from .oracles import BRUTE_FORCE_CAP, hybrid_column_penalty

__all__ = [
    "ColumnPricedPredictor",
    "ExactMixture",
    "HeuristicMixture",
    "HybridPredictor",
    "MapEstimate",
    "Memorizer",
    "PracticalPredictor",
    "SurvivingColumns",
    "SubsetWords",
    "exact_mixture_joint",
    "map_index_set",
    "positive_trace_log2",
]


class ExactMixture(OnlinePredictor):
    """Bayes mixture over every monotone conjunction, by full enumeration.

    The prior on an index set S is alpha**|S| * (1-alpha)**(d-|S|);
    alpha = 1/2 gives the uniform prior, under which cumulative loss on a
    realizable trace never exceeds d bits. Time and memory are O(2**d) per
    step, so construction refuses d beyond `BRUTE_FORCE_CAP`.
    """

    bound_bits = staticmethod(lambda d, n: float(d))  # at the uniform prior, alpha = 1/2

    def __init__(self, d: int, alpha: float = 0.5):
        super().__init__(d)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
        if self.d > BRUTE_FORCE_CAP:
            raise ValueError(f"dimension {d} exceeds the brute-force cap of {BRUTE_FORCE_CAP}")
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


def memorise_negatives(sides: np.ndarray, labels: np.ndarray, neg: set) -> np.ndarray:
    """The steps of a trace that `HybridPredictor`'s negative store predicts.

    A step is memorised when its side is already in `neg` or was seen with
    label 0 earlier in the trace. Every negative side of the trace is then
    added to `neg`. Each distinct side is looked up once, in one call per trace.
    """
    n = labels.shape[0]
    order, starts = _side_groups(sides)
    # first negative step of each distinct side, n where there is none
    first = np.minimum.reduceat(np.where(labels[order] == 0, order, n), starts)
    size = np.diff(starts, append=n)
    memorised = np.repeat(first, size) < order
    if neg:
        stored = np.array([key in neg for key in pack_keys(sides[order[starts]])], dtype=bool)
        memorised |= np.repeat(stored, size)
    neg.update(pack_keys(sides[first[first < n]]))
    out = np.empty(n, dtype=bool)
    out[order] = memorised
    return out


def _side_groups(sides: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows in an order that puts equal sides next to each other, and
    where in that order each group of equal sides starts."""
    d = sides.shape[1]
    if d <= 63:
        # pack each row into one integer key, as narrow as d allows
        keys = sides @ (1 << np.arange(d, dtype=np.uint64)).astype(np.min_scalar_type((1 << d) - 1))
    else:
        # wider rows: pack each into bytes and compare those as one opaque key
        packed = np.ascontiguousarray(np.packbits(sides, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    # NumPy radix-sorts keys of up to 16 bits when asked for a stable sort;
    # on wider keys its quicksort is the faster one
    order = np.argsort(keys, kind="stable" if keys.itemsize <= 2 else "quicksort")
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new)


def _positive_columns(alpha: float, sides: Sequence[BitVector], d: int) -> np.ndarray:
    """The columns on in every side, the survivors of an all-positive trace."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    cols = np.ones(d, dtype=np.uint8)
    for side in sides:
        cols &= as_bits(side, d)
    return cols


def positive_trace_log2(alpha: float, sides: Sequence[BitVector], d: int) -> float:
    """Closed-form log2 mixture probability of an all-positive trace.

    Equals exact_mixture_joint on the same sides with labels all 1, for any
    alpha in (0, 1), but runs in O(n*d) instead of O(n*2**d).
    """
    if not d >= 1:
        raise ValueError(f"dimension must be positive, got {d}")
    cols = _positive_columns(alpha, sides, d)
    return (d - int(cols.sum())) * log1mexp2(math.log2(alpha))


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
    cols = _positive_columns(alpha, sides, d)
    surviving = frozenset(int(i) for i in np.flatnonzero(cols))
    if alpha > 0.5:
        return MapEstimate(surviving, True)
    if alpha < 0.5:
        return MapEstimate(frozenset(), True)
    return MapEstimate(surviving, len(surviving) == 0)


class SubsetWords(Unmapped):
    """Survivors as one word per variable subset: of the clause basis a
    predictor reads through, or unmapped a single variable. On each subset
    a side has a sign pattern p, and it switches off the feature that bit p
    of the subset's word stands for; the bit is set while that feature
    survives.

    A step reads the unmapped side (`read`); its zero set in this form
    (`zeros`) is per word the index of the byte with bit p (`slice(None)`
    in one-byte words) and that byte with only bit p set, so the predictor
    reads or clears one bit per word with an AND. A surviving column is a
    set bit of the state, at 8 * byte + bit, and `rows` gives its feature in
    the map's order; a block reads as those features' words (`values`),
    `column_words(words, rows)` on the block's `pack_rows` words. `full` is
    the state of a fresh predictor.
    """

    def __init__(self, full: np.ndarray, zeros, rows, column_words):
        self.full = full
        self.zeros = zeros
        self.rows = rows
        self.column_words = column_words

    def count(self, mask: np.ndarray, byte, words: np.ndarray) -> int:
        # int(): a NumPy count would make the float arithmetic after it slow
        return int(np.count_nonzero(mask[byte] & words))

    def clear(self, mask: np.ndarray, byte, words: np.ndarray) -> None:
        mask[byte] &= ~words

    def surviving(self, mask: np.ndarray) -> np.ndarray:
        # NumPy finds nonzero bools several times faster than nonzero bytes
        return np.flatnonzero(np.unpackbits(mask, bitorder="little").view(bool))

    def drop(self, mask: np.ndarray, columns: np.ndarray) -> None:
        np.bitwise_and.at(mask, columns >> 3, ~(np.uint8(1) << (columns & 7).astype(np.uint8)))

    def values(self, sides: np.ndarray, columns: np.ndarray) -> np.ndarray:
        return self.column_words(pack_rows(sides), self.rows(columns))


class SurvivingColumns(OnlinePredictor):
    """Valiant's elimination state `_mask`: the features on in every positive
    side so far, in the `SubsetWords` form of its reader, which a map hands
    over (`read_through`); unmapped, built only then, a subset is a variable
    and a side's one-hot bytes are 1 << bit (bit 1 stands for no feature).

    A positive step switches the side's zero set off. Subclasses price a
    step from how many survivors its zero set holds (`SubsetWords.count`)
    and a block of rows from the words of its surviving columns
    (`_zeros_before`, in `_score_columns`).
    """

    @cached_property
    def _reader(self) -> SubsetWords:
        one_hot = lambda bits: (slice(None), bits + 1)
        return SubsetWords(np.ones(self.d, np.uint8), one_hot, lambda cols: cols >> 3, getitem)

    @cached_property
    def _mask(self) -> np.ndarray:
        return self._reader.full.copy()

    def read_through(self, mapping) -> SubsetWords:
        """Start the survivors afresh in the form `mapping` hands over."""
        self._reader = mapping.survivors()
        self._mask = self._reader.full.copy()
        return self._reader

    def survivor_mask(self) -> np.ndarray:
        """The surviving features as a 0/1 mask in the map's feature order."""
        mask = np.zeros(self.d, dtype=np.uint8)
        mask[self._reader.rows(self.read_columns())] = 1
        return mask

    def _update(self, bits: np.ndarray, label: int) -> None:
        if label:
            self._reader.clear(self._mask, *self._reader.zeros(bits))

    def read_columns(self) -> np.ndarray:
        return self._reader.surviving(self._mask)

    def _zeros_before(self, columns: np.ndarray, values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The `pack_rows` words of a block's surviving `columns`, bit t set
        where row t is 0 on the column and it survives before t: through its
        first kill, a positive row 0 on it, so kill ^ (kill - 1), the bits up
        to its lowest set one, on its first nonzero kill word, all-ones before
        and 0 after. The columns that die leave `_mask`; rows past the block
        never kill. `values`, fresh from `SubsetWords.values`, is inverted in
        place, so at most three (columns, words) arrays are alive."""
        zeros = np.invert(values, out=values)
        kill = zeros & pack_rows(labels[:, None])
        dead = np.logical_or.accumulate(kill != 0, axis=1)
        kill ^= kill - 1
        zeros &= kill
        zeros[:, 1:][dead[:, :-1]] = 0
        self._reader.drop(self._mask, columns[dead[:, -1]])
        return zeros


class ColumnPricedPredictor(SurvivingColumns):
    """Prices label 1 at (1-alpha)**m, where m counts the surviving columns
    the side switches off.

    On positive examples the conjunction mixture under the alpha prior
    factorises over columns, so the survivor state is all it needs.
    """

    def __init__(self, d: int, log2_one_minus_alpha: float):
        super().__init__(d)
        self.log2_one_minus_alpha = float(log2_one_minus_alpha)

    def _predict(self, bits: np.ndarray) -> Prediction:
        m = self._reader.count(self._mask, *self._reader.zeros(bits))
        return Prediction.from_log_p1(m * self.log2_one_minus_alpha)

    def _score_columns(self, sides, columns, values, labels) -> Tuple[np.ndarray, np.ndarray]:
        return self._price(self._switched_off(columns, values, labels), labels)

    def _switched_off(self, columns, values, labels) -> np.ndarray:
        """m for each row: how many columns that survive before it the row is 0 on."""
        zeros, n = self._zeros_before(columns, values, labels), labels.shape[0]
        m, part = np.zeros(n, dtype=np.intp), per_chunk(64 * zeros.shape[1])
        for i in range(0, len(zeros), part):  # a chunk of columns a part, whose counts fit 16 bits
            m += unpack_rows(zeros[i : i + part], n).sum(axis=1, dtype=np.uint16)
        return m

    def _price(self, m: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Score each row from its count m; m = -1 stands for the certain
        prediction of 0. m takes at most len(columns) + 1 values, so each is
        priced once."""
        log_p1 = np.arange(m.max(initial=0) + 1) * self.log2_one_minus_alpha
        log_p0 = np.append(log1mexp2_arr(log_p1), 0.0)
        log_p1 = np.append(log_p1, -math.inf)
        log_p = np.where(labels == 1, log_p1[m], log_p0[m])
        # there is no tie label, so an exact 1/2 tie is a mistake
        return log_p, log_p > -1.0


class HeuristicMixture(ColumnPricedPredictor):
    """Positive-examples-only mixture at alpha = 1/2.

    Ignores negative examples entirely and predicts from the column state.
    Can output p0 = 0 (after seeing only positives) and pays a constant
    bit per repeated negative, so its loss is unbounded in n.
    """

    def __init__(self, d: int):
        super().__init__(d, -1.0)  # log2(1 - 1/2)


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

    # Behind a map the store keys the unmapped side, exact as every map is injective: no zero set or column.
    def read_through(self, mapping) -> Unmapped:
        return Unmapped()

    def read_columns(self) -> np.ndarray:
        return np.empty(0, dtype=np.intp)


class HybridPredictor(ColumnPricedPredictor):
    """Negative-memorizing conjunction predictor with a tilted positive mixture.

    Sides seen with label 0 are stored and predicted 0 with certainty ever
    after. Everything else is priced from the column state under
    alpha = 2**(-d/2**d). Cumulative loss on a realizable trace is at most
    2*d**2 bits for d >= 2; on contradictory data a step can cost +inf but
    the state remains well defined. Behind a feature map the store keys the
    unmapped side, which is exact because every map here is injective.
    """

    bound_bits = staticmethod(lambda d, n: 2.0 * d * d)

    def __init__(self, d: int):
        super().__init__(d, -hybrid_column_penalty(int(d)))
        self._neg: set = set()

    def _predict(self, bits: np.ndarray) -> Prediction:
        # the store answers before the side's zero set is found
        if pack_key(bits) in self._neg:
            return Prediction.certain(0)
        return super()._predict(bits)

    def _update(self, bits: np.ndarray, label: int) -> None:
        super()._update(bits, label)
        if not label:
            self._neg.add(pack_key(bits))

    def _start_trace(self, sides: np.ndarray, labels: np.ndarray) -> None:
        self._memorised = memorise_negatives(sides, labels, self._neg)

    def _score_columns(self, sides, columns, values, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Column pricing, except for the steps that the negative store, keyed by `sides`, predicts 0
        with certainty: found once per trace (`_start_trace`), as they hang only on the rows before them."""
        m = self._switched_off(columns, values, labels)
        memorised, self._memorised = self._memorised[: len(m)], self._memorised[len(m) :]
        m[memorised] = -1
        return self._price(m, labels)


class PracticalPredictor(SurvivingColumns):
    """Surviving-coordinate conjunction with a t/(t+1) confidence schedule.

    Maintains the set of coordinates that were on in every positive example
    so far and evaluates their conjunction c on the current side. Assigns
    probability t/(t+1) to label c and 1/(t+1) to the other, where t counts
    all steps from 1, so no prediction is ever zero. Cumulative loss on a
    realizable trace is at most (d+1)*log2(n+1) bits, and the expensive
    branch (realized label != c) occurs at most d times when labels are
    realizable.
    """

    bound_bits = staticmethod(lambda d, n: (d + 1.0) * math.log2(n + 1.0))

    def __init__(self, d: int):
        super().__init__(d)
        self._t = 1

    @property
    def surviving(self) -> FrozenSet[int]:
        return frozenset(int(i) for i in np.flatnonzero(self.survivor_mask()))

    @property
    def step(self) -> int:
        return self._t

    def _tie_label(self, bits: np.ndarray) -> int:
        return 0 if self._reader.count(self._mask, *self._reader.zeros(bits)) else 1

    def _predict(self, bits: np.ndarray) -> Prediction:
        log_hi = math.log2(self._t) - math.log2(self._t + 1)
        log_lo = -math.log2(self._t + 1)
        if self._tie_label(bits):
            return Prediction(log_lo, log_hi)
        return Prediction(log_hi, log_lo)

    def _update(self, bits: np.ndarray, label: int) -> None:
        super()._update(bits, label)
        self._t += 1

    def _score_columns(self, sides, columns, values, labels) -> Tuple[np.ndarray, np.ndarray]:
        misses = np.bitwise_or.reduce(self._zeros_before(columns, values, labels), axis=0)
        structural = unpack_rows(misses[None], labels.shape[0])[:, 0] == 0
        t = self._t + np.arange(labels.shape[0], dtype=np.float64)
        self._t += labels.shape[0]
        # an exact 1/2 tie (t = 1) is scored by the structural label, so a
        # hit is exactly a correct step
        hit = structural == labels.astype(bool)
        return np.where(hit, np.log2(t), 0.0) - np.log2(t + 1.0), hit
