"""Shared primitives for online probabilistic prediction under log loss.

Probabilities live in the base-2 log domain throughout the package: a
prediction is the pair (log2 p0, log2 p1), per-step losses are bits, and a
cumulative loss of +inf is a representable outcome rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

LN2 = math.log(2.0)

BitVector = Union[Sequence[int], np.ndarray]

__all__ = [
    "BLOCK_BITS",
    "BitVector",
    "BoundViolation",
    "Example",
    "LossLedger",
    "NumericalError",
    "OnlinePredictor",
    "Prediction",
    "Unmapped",
    "UnrealizableTrace",
    "as_bits",
    "cumulative_loss",
    "log1mexp2",
    "log1mexp2_arr",
    "logsumexp2",
    "pack_key",
    "pack_keys",
]

# Every loop that works in chunks, `OnlinePredictor.score_trace` among them, takes
# about this many values a chunk (`per_chunk`), so no whole feature matrix is held at once.
BLOCK_BITS = 1 << 16


def per_chunk(cost: int, unit: int = 1) -> int:
    """Items of `cost` values each in a chunk of about BLOCK_BITS values, in whole `unit`s, at least one."""
    return unit * max(1, BLOCK_BITS // unit // max(1, cost))


class BoundViolation(RuntimeError):
    """A predictor exceeded a loss bound that holds by construction.

    Raised by the experiment harness; it means the implementation is wrong,
    not the data.
    """


class UnrealizableTrace(RuntimeError):
    """No hypothesis of the predictor's class fits the trace seen so far.

    Raised by predictors that cannot continue on contradictory data; it
    means the input does not fit the algorithm, not that the code is wrong.
    """


class NumericalError(ValueError):
    """An internal computation lost the precision its result needs.

    Raised when a computed distribution fails its normalisation check; it
    means the arithmetic broke down, not that the input was bad.
    """


def log1mexp2(x: float) -> float:
    """log2(1 - 2**x) for x <= 0, stable over the whole range.

    The two branches keep the argument of the final log well conditioned:
    expm1 handles x near 0 (where 2**x is close to 1) and log1p handles
    very negative x (where 2**x is close to 0). Switchover at x = -1.
    """
    if x > 0.0:
        raise ValueError(f"log1mexp2 needs x <= 0, got {x}")
    if x == 0.0:
        return -math.inf
    if x == -math.inf:
        return 0.0
    if x > -1.0:
        return math.log(-math.expm1(x * LN2)) / LN2
    return math.log1p(-(2.0 ** x)) / LN2


def log1mexp2_arr(x: np.ndarray) -> np.ndarray:
    """Vectorised log1mexp2. Entries must be <= 0; 0 maps to -inf."""
    x = np.asarray(x, dtype=np.float64)
    if x.size and float(np.max(x)) > 0.0:
        raise ValueError("log1mexp2_arr needs all entries <= 0")
    near = x > -1.0
    out = np.empty_like(x)
    with np.errstate(divide="ignore"):
        out[near] = np.log(-np.expm1(x[near] * LN2)) / LN2
        out[~near] = np.log1p(-np.exp2(x[~near])) / LN2
    return out


def logsumexp2(values) -> float:
    """log2 of a sum of 2**v terms, guarded against overflow."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return -math.inf
    m = float(np.max(arr))
    if m == -math.inf:
        return -math.inf
    return m + math.log2(float(np.exp2(arr - m).sum()))


def as_bits(values: BitVector, d: Optional[int] = None) -> np.ndarray:
    """Validate a side-information vector and return it as a uint8 array."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"side information must be one-dimensional, got shape {arr.shape}")
    # deleting a side's 0 and 1 bytes checks it faster than its max (`_checked_bits`), unlike a matrix
    if arr.dtype == np.uint8 and d in (None, arr.shape[0]) and not arr.tobytes().translate(None, b"\x00\x01"):
        return arr
    return _checked_bits(arr, d)


def as_bit_matrix(values, d: int) -> np.ndarray:
    """Validate an (n, d) matrix of side-information rows, as `as_bits` does one."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"side information matrix must be two-dimensional, got shape {arr.shape}")
    return _checked_bits(arr, d)


def _checked_bits(arr: np.ndarray, d: Optional[int], what: str = "side information bits") -> np.ndarray:
    """`arr` as uint8, which it is already when it passes uncopied; every
    entry must be 0 or 1."""
    if d is not None and arr.shape[-1] != d:
        raise ValueError(f"expected {d} bits, got {arr.shape[-1]}")
    if arr.dtype == np.uint8:
        if int(arr.max(initial=0)) > 1:
            raise ValueError(f"{what} must be 0 or 1")
        return arr
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if arr.size and not bool(np.isin(arr, (0, 1)).all()):
        raise ValueError(f"{what} must be 0 or 1")
    return arr.astype(np.uint8)


def pack_key(bits: np.ndarray) -> bytes:
    """Hashable key for a validated bit vector."""
    return bits.tobytes()


def pack_keys(rows: np.ndarray) -> list:
    """`pack_key` of each row of a validated bit matrix, cut from one buffer."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).reshape(-1).tolist()


def pack_rows(sides: np.ndarray) -> np.ndarray:
    """n validated rows as (columns, words) uint64, bit t % 64 of word t // 64
    a column's value on row t; bits past row n are 0, in at least one word."""
    n = sides.shape[0]
    # NumPy packs contiguous rows several times faster than strided ones
    padded = np.zeros((sides.shape[1], 64 * max(1, -(-n // 64))), dtype=np.uint8)
    padded[:, :n] = sides.T
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """The (n, columns) 0/1 bytes of `pack_rows` words, as a transposed view."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").T


class Unmapped:
    """The reader of an unmapped predictor: a step's input is the side, a block's its rows."""

    read = staticmethod(lambda bits: bits)
    values = staticmethod(lambda sides, columns: sides)


@dataclass(frozen=True)
class Prediction:
    """A distribution over a binary label, stored as (log2 p0, log2 p1)."""

    log_p0: float
    log_p1: float

    def __post_init__(self):
        total = 2.0 ** self.log_p0 + 2.0 ** self.log_p1
        if not abs(total - 1.0) <= 1e-9:
            raise NumericalError(
                f"prediction must sum to 1, got p0+p1 = {total!r} "
                f"(log_p0={self.log_p0!r}, log_p1={self.log_p1!r})"
            )

    @classmethod
    def from_log_p1(cls, log_p1: float) -> "Prediction":
        return cls(log1mexp2(log_p1), log_p1)

    @classmethod
    def from_p1(cls, p1: float) -> "Prediction":
        if not 0.0 <= p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {p1}")
        log_p1 = math.log2(p1) if p1 > 0.0 else -math.inf
        log_p0 = math.log2(1.0 - p1) if p1 < 1.0 else -math.inf
        return cls(log_p0, log_p1)

    @classmethod
    def certain(cls, label: int) -> "Prediction":
        return cls(-math.inf, 0.0) if label else cls(0.0, -math.inf)

    def log_prob(self, label: int) -> float:
        return self.log_p1 if label else self.log_p0

    def prob(self, label: int) -> float:
        return 2.0 ** self.log_prob(label)

    def loss_bits(self, label: int) -> float:
        return -self.log_prob(label)

    def flip(self) -> "Prediction":
        """The same distribution over the complemented label."""
        return Prediction(self.log_p1, self.log_p0)


class Example(NamedTuple):
    side: BitVector
    label: int


@dataclass
class LossLedger:
    """Running cumulative log loss in bits. +inf propagates, never aborts."""

    steps: int = 0
    total_bits: float = 0.0

    def add(self, loss_bits: float) -> None:
        if not loss_bits >= 0.0:  # also rejects NaN
            raise ValueError(f"per-step loss must be >= 0 bits, got {loss_bits}")
        self.steps += 1
        self.total_bits += loss_bits

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.total_bits)


def _check_label(label) -> int:
    if isinstance(label, (bool, np.bool_)):
        return int(label)
    if label in (0, 1):
        return int(label)
    raise ValueError(f"label must be 0 or 1, got {label!r}")


def _check_labels(labels, n: int) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {arr.shape}")
    return _checked_bits(arr, None, "labels")


class OnlinePredictor:
    """Contract for sequential binary predictors over d-bit side information.

    A predictor owns mutable state. `predict` must not change state;
    `update` folds one labelled example in. A step is three methods on a
    validated side: `_predict`, `_update` and `_tie_label`. The reader
    (`_reader`: `Unmapped`, or behind a map what `read_through` returns)
    gives a step's input, `read(bits)`, and a `score_trace` block's,
    `values(sides, columns)`. Behind a map `_tie_label` takes the side
    unread, right only because alg2, the one predictor with a tie label,
    reads a side unchanged. Subclasses implement `_predict` and `_update`,
    and may batch `score_trace` by overriding `_score_columns` and `_block_rows`.
    """

    _reader = Unmapped()
    # the most bits a d-dimensional predictor loses on a realizable n-step trace; None: no bound
    bound_bits = staticmethod(lambda d, n: None)

    def __init__(self, d: int):
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"dimension must be a positive integer, got {d!r}")
        self.d = int(d)

    def predict(self, side: BitVector) -> Prediction:
        return self._predict(as_bits(side, self.d))

    def update(self, side: BitVector, label: int) -> None:
        self._update(as_bits(side, self.d), _check_label(label))

    def tie_label(self, side: BitVector) -> Optional[int]:
        """Point label to score when the prediction is an exact 1/2 tie.

        None means a tie is counted against the predictor.
        """
        return self._tie_label(as_bits(side, self.d))

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Predict then update on each (row, label) in order.

        Returns the per-step log2 probability of the realised label and
        the per-step correctness: probability above 1/2, or an exact 1/2
        tie whose `tie_label` is the realised label. Leaves the predictor
        in the state that `predict`/`update` over the same rows would.

        This is the one loop over row blocks. The columns read are read
        again before each block, whose rows `_block_rows` sizes from their width.
        """
        sides = as_bit_matrix(sides, self.d)
        labels = _check_labels(labels, sides.shape[0])
        self._start_trace(sides, labels)
        parts = []  # an empty trace is one empty block
        start = 0
        while not parts or start < labels.shape[0]:
            columns = self.read_columns()
            rows = slice(start, start + self._block_rows(len(columns)))
            block = sides[rows]
            values = self._reader.values(block, columns)
            parts.append(self._score_columns(block, columns, values, labels[rows]))
            start = rows.stop
        # a trace of one block is returned as scored, without a copy
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def _predict(self, bits: np.ndarray) -> Prediction:
        raise NotImplementedError

    def _update(self, bits: np.ndarray, label: int) -> None:
        raise NotImplementedError

    def _tie_label(self, bits: np.ndarray) -> Optional[int]:
        return None

    def _start_trace(self, sides: np.ndarray, labels: np.ndarray) -> None:
        """What a predictor does once per `score_trace`, given the whole validated trace first."""

    def read_through(self, mapping):
        """This predictor's reader behind `mapping`; by default the map, which
        reads a side as its feature row and a block as its features' bytes."""
        return mapping

    def _block_rows(self, width: int) -> int:
        """Rows of a `score_trace` block of `width` columns: whole 64-row words, about BLOCK_BITS values."""
        return per_chunk(width, 64)

    def read_columns(self) -> Sequence[int]:
        """The feature columns `_score_columns` needs the values of, as an
        index array, or by default every column as a `range`, which costs
        no memory at any width."""
        return range(self.d)

    def _score_columns(
        self, sides: np.ndarray, columns: np.ndarray, values: np.ndarray, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """`score_trace` on a block of validated rows, given the unmapped
        `sides` and their `values` as read for the `read_columns()` columns.

        The default loops `_predict`/`_update` over the rows of `values`,
        each a step's input; a predictor batches by overriding it.
        """
        log_p = np.empty(labels.shape[0], dtype=np.float64)
        correct = np.empty(labels.shape[0], dtype=bool)
        for t, (bits, label) in enumerate(zip(values, labels.tolist())):
            lp = self._predict(bits).log_prob(label)
            log_p[t] = lp
            correct[t] = lp > -1.0 or (lp == -1.0 and self._tie_label(bits) == label)
            self._update(bits, label)
        return log_p, correct


def cumulative_loss(predictor: OnlinePredictor, trace: Iterable) -> LossLedger:
    """Run a predictor through (side, label) pairs, accumulating bits.

    A zero-probability step adds +inf to the ledger and the run continues
    as long as the predictor's update remains defined.
    """
    ledger = LossLedger()
    for side, label in trace:
        pred = predictor.predict(side)
        ledger.add(pred.loss_bits(label))
        predictor.update(side, label)
    return ledger
