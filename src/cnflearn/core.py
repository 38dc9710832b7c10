"""Shared primitives for online probabilistic prediction under log loss.

Probabilities live in the base-2 log domain throughout the package: a
prediction is the pair (log2 p0, log2 p1), per-step losses are bits, and a
cumulative loss of +inf is a representable outcome rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

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
    "UnrealizableTrace",
    "as_bits",
    "cumulative_loss",
    "log1mexp2",
    "log1mexp2_arr",
    "logsumexp2",
    "pack_key",
    "row_blocks",
]

# Batched scoring works through traces in row blocks of about this many
# feature bits, so no whole mapped matrix is ever held at once.
BLOCK_BITS = 1 << 16


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
    return _checked_bits(arr, d)


def as_bit_matrix(values, d: int) -> np.ndarray:
    """Validate an (n, d) matrix of side-information rows, as `as_bits` does one."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"side information matrix must be two-dimensional, got shape {arr.shape}")
    return _checked_bits(arr, d)


def _checked_bits(arr: np.ndarray, d: Optional[int]) -> np.ndarray:
    if d is not None and arr.shape[-1] != d:
        raise ValueError(f"expected {d} bits, got {arr.shape[-1]}")
    if arr.dtype == np.uint8:
        if arr.size and int(arr.max(initial=0)) > 1:
            raise ValueError("side information bits must be 0 or 1")
        return arr
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if arr.size and not bool(np.isin(arr, (0, 1)).all()):
        raise ValueError("side information bits must be 0 or 1")
    return arr.astype(np.uint8)


def pack_key(bits: np.ndarray) -> bytes:
    """Hashable key for a validated bit vector."""
    return bits.tobytes()


def row_blocks(n: int, width: int) -> Iterator[slice]:
    """Consecutive row slices covering n rows, each about BLOCK_BITS wide."""
    rows = max(1, BLOCK_BITS // max(1, width))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


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
    if arr.dtype != bool and arr.size and not bool(np.isin(arr, (0, 1)).all()):
        raise ValueError("labels must be 0 or 1")
    return arr.astype(np.uint8)


class OnlinePredictor:
    """Contract for sequential binary predictors over d-bit side information.

    A predictor owns mutable state. `predict` must not change state;
    `update` folds one labelled example in. Subclasses implement `_predict`
    and `_update` on validated uint8 arrays.
    """

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
        return None

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Predict then update on each (row, label) in order.

        Returns the per-step log2 probability of the realised label and
        the per-step correctness: probability above 1/2, or an exact 1/2
        tie whose `tie_label` is the realised label. Leaves the predictor
        in the state that `predict`/`update` over the same rows would.
        """
        sides, labels = self._check_trace(sides, labels)
        log_p = np.empty(labels.shape[0], dtype=np.float64)
        correct = np.empty(labels.shape[0], dtype=bool)
        for t, (bits, label) in enumerate(zip(sides, labels.tolist())):
            lp = self._predict(bits).log_prob(label)
            log_p[t] = lp
            correct[t] = lp > -1.0 or (lp == -1.0 and self.tie_label(bits) == label)
            self._update(bits, label)
        return log_p, correct

    def _check_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        sides = as_bit_matrix(sides, self.d)
        return sides, _check_labels(labels, sides.shape[0])

    def _predict(self, bits: np.ndarray) -> Prediction:
        raise NotImplementedError

    def _update(self, bits: np.ndarray, label: int) -> None:
        raise NotImplementedError

    # Behind a feature map (`ReducedPredictor`) a step arrives as `zeros`,
    # the indices of the features that are 0 on the side, next to the
    # unmapped `side`. The defaults rebuild the feature row; predictors
    # that read a side only through its zero set override them.

    def _predict_zeros(self, side: np.ndarray, zeros: np.ndarray) -> Prediction:
        return self._predict(self._feature_row(zeros))

    def _update_zeros(self, side: np.ndarray, zeros: np.ndarray, label: int) -> None:
        self._update(self._feature_row(zeros), label)

    def _tie_zeros(self, zeros: np.ndarray) -> Optional[int]:
        return self.tie_label(self._feature_row(zeros))

    def _feature_row(self, zeros: np.ndarray) -> np.ndarray:
        row = np.ones(self.d, dtype=np.uint8)
        row[zeros] = 0
        return row

    def read_columns(self):
        """The feature columns `_score_columns` needs the values of: an index
        array, or slice(None) for every column."""
        return slice(None)

    def _score_columns(
        self, sides: np.ndarray, columns: np.ndarray, values: np.ndarray, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """`score_trace` on a block of mapped rows, given the unmapped `sides`
        and the `values` of the `read_columns()` columns on them."""
        return self.score_trace(values, labels)


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
