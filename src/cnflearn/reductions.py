"""Reductions of richer Boolean target classes to monotone conjunctions.

A k-CNF over d variables is a conjunction of clauses, so learning one is
learning a monotone conjunction over an expanded feature space with one
bit per clause. The canonical clause basis here contains every clause of
1..k distinct literals with no complementary pair: duplicated literals in
a clause collapse, tautologies are constant and dropped, and reordered
duplicates are the same clause. That keeps the basis at
sum_s C(d,s)*2**s features instead of the (2d)**k syntactic tuples.

Literals are numbered 0..2d-1: literal i < d is variable i, literal i >= d
is the negation of variable i-d. Clauses are sorted tuples of literal ids
and the basis is ordered lexicographically, which makes the k=1 basis
coincide with the plain conjunction transform (side then negated side).

The basis carries a rank table from (variable subset, sign pattern) to
basis row. A side falsifies one clause per subset, signed by its own bits,
so an expanded predictor's step touches sum_s C(d,s) clauses, not d'.

General conjunctions (negations allowed) only need the k=1 feature map;
disjunctions reduce through De Morgan by flipping side bits and labels.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, product
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    BLOCK_BITS,
    BitVector,
    OnlinePredictor,
    Prediction,
    as_bits,
    pack_key,
    row_blocks,
)
from .predictors import (
    hybrid_column_steps,
    hybrid_log2_one_minus_alpha,
    memorise_negatives,
    practical_steps,
)

DEFAULT_FEATURE_BUDGET = 4_000_000

__all__ = [
    "ClauseBasis",
    "ClauseMap",
    "ConjunctionMap",
    "DEFAULT_FEATURE_BUDGET",
    "DisjunctionMap",
    "ExpandedHybrid",
    "ExpandedPractical",
    "ReducedPredictor",
    "basis_size",
    "build_basis",
    "expand_matrix",
]


def basis_size(d: int, k: int) -> int:
    """Number of canonical clauses: choose s variables, sign each."""
    return sum(math.comb(d, s) * 2 ** s for s in range(1, k + 1))


class ClauseBasis:
    """Canonical clause basis for k-CNF over d variables.

    `clause_matrix` has one row per clause, padded to width k by repeating
    the first literal (a duplicate literal never changes a disjunction).

    `rank` maps slots to rows: the clause on the i-th s-variable subset in
    `combinations` order, with sign bits p (1 = negated, first variable
    highest), has slot sum_{r<s} C(d,r)*2**r + i * 2**s + p.
    """

    def __init__(self, d: int, k: int, clause_matrix: np.ndarray, rank: np.ndarray, subsets):
        self.d = d
        self.k = k
        self.clause_matrix = clause_matrix
        self.rank = rank
        # per size: the first slot of each subset, and its variables by column
        self._subsets = subsets

    @property
    def d_prime(self) -> int:
        return self.clause_matrix.shape[0]

    @property
    def syntactic_tuple_count(self) -> int:
        """Ordered literal tuples the canonical basis stands in for."""
        return (2 * self.d) ** self.k

    def clause(self, j: int) -> Tuple[int, ...]:
        row = self.clause_matrix[j]
        return tuple(sorted({int(x) for x in row}))

    def clauses(self) -> List[Tuple[int, ...]]:
        return [self.clause(j) for j in range(self.d_prime)]

    def falsified(self, bits: np.ndarray) -> np.ndarray:
        """Basis rows of the clauses false on a side: on each variable subset,
        the one whose sign bits are the side's own bits there."""
        x = bits.astype(np.min_scalar_type(2 ** len(self._subsets) - 1))
        slots = []
        for first_slot, columns in self._subsets:
            signs = x[columns[0]]
            for column in columns[1:]:
                signs = (signs << 1) | x[column]
            slots.append(first_slot + signs)
        return self.rank[np.concatenate(slots)].astype(np.intp)

    def __repr__(self) -> str:
        return f"ClauseBasis(d={self.d}, k={self.k}, d_prime={self.d_prime})"


def build_basis(d: int, k: int, max_features: int = DEFAULT_FEATURE_BUDGET) -> ClauseBasis:
    """Enumerate the canonical clause basis, refusing runaway expansions.

    Sorting the slot-ordered clauses with -1 padding gives tuple order.
    """
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    size = basis_size(d, k)
    if size > max_features:
        raise ValueError(
            f"basis for d={d}, k={k} has {size} clauses, over the budget "
            f"of {max_features}"
        )
    matrix = np.full((size, k), -1, dtype=np.int32)
    subsets = []
    offset = 0
    for s in range(1, min(d, k) + 1):
        count = math.comb(d, s)
        variables = np.fromiter(chain.from_iterable(combinations(range(d), s)), np.int32).reshape(-1, s)
        signs = np.array(list(product((0, d), repeat=s)), dtype=np.int32)
        block = matrix[offset : offset + count * 2 ** s, :s]
        block[...] = (variables[:, None, :] + signs).reshape(-1, s)
        block.sort(axis=1)
        subsets.append((offset + (np.arange(count, dtype=np.intp) << s), variables.T.astype(np.intp)))
        offset += count * 2 ** s
    order = np.lexsort(matrix.T[::-1])
    matrix = matrix[order]
    np.copyto(matrix, matrix[:, :1], where=matrix < 0)
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    return ClauseBasis(d, k, matrix, rank, subsets)


def expand_matrix(basis: ClauseBasis, sides: np.ndarray) -> np.ndarray:
    """Row-wise clause truth values: an (n, d) matrix to (n, d_prime)."""
    return _clause_values(basis.clause_matrix, sides).view(np.uint8)


def _clause_values(clause_matrix: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Truth of each clause (a row of literal ids) on each row of `sides`."""
    lits = np.concatenate([sides, 1 - sides], axis=1).astype(bool)
    values = lits[:, clause_matrix[:, 0]]
    for j in range(1, clause_matrix.shape[1]):
        values |= lits[:, clause_matrix[:, j]]
    return values


class ConjunctionMap:
    """Feature map for general conjunctions with negated literals."""

    flip = False

    def __init__(self, d: int):
        self.d = d
        self.d_prime = 2 * d

    def features(self, bits: np.ndarray) -> np.ndarray:
        return np.concatenate([bits, 1 - bits])

    def features_matrix(self, sides: np.ndarray) -> np.ndarray:
        return np.concatenate([sides, 1 - sides], axis=1).astype(np.uint8)


class DisjunctionMap(ConjunctionMap):
    """Feature map for disjunctions: flip the side, then treat as conjunction.

    The label is flipped too, so predictions must be unmapped by swapping
    the two probabilities; `flip` signals that to the wrapper.
    """

    flip = True

    def features(self, bits: np.ndarray) -> np.ndarray:
        return np.concatenate([1 - bits, bits])

    def features_matrix(self, sides: np.ndarray) -> np.ndarray:
        return np.concatenate([1 - sides, sides], axis=1).astype(np.uint8)


class ClauseMap:
    """Feature map through a k-CNF clause basis."""

    flip = False

    def __init__(self, basis: ClauseBasis):
        self.basis = basis
        self.d = basis.d
        self.d_prime = basis.d_prime

    def features(self, bits: np.ndarray) -> np.ndarray:
        values = np.ones(self.d_prime, dtype=np.uint8)
        values[self.basis.falsified(bits)] = 0
        return values

    def features_matrix(self, sides: np.ndarray) -> np.ndarray:
        return expand_matrix(self.basis, sides)


class ReducedPredictor(OnlinePredictor):
    """Run any predictor over mapped features, unmapping its predictions."""

    def __init__(self, inner: OnlinePredictor, mapping):
        super().__init__(mapping.d)
        if inner.d != mapping.d_prime:
            raise ValueError(
                f"inner predictor has dimension {inner.d}, map produces "
                f"{mapping.d_prime} features"
            )
        self.inner = inner
        self.mapping = mapping

    @property
    def d_prime(self) -> int:
        return self.mapping.d_prime

    def _predict(self, bits: np.ndarray) -> Prediction:
        pred = self.inner._predict(self.mapping.features(bits))
        return pred.flip() if self.mapping.flip else pred

    def _update(self, bits: np.ndarray, label: int) -> None:
        inner_label = 1 - label if self.mapping.flip else label
        self.inner._update(self.mapping.features(bits), inner_label)

    def tie_label(self, side: BitVector) -> Optional[int]:
        bits = as_bits(side, self.d)
        tie = self.inner.tie_label(self.mapping.features(bits))
        if tie is None:
            return None
        return 1 - tie if self.mapping.flip else tie

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Map the trace block by block and score it with the inner predictor.

        A flipped map flips the inner labels; the wrapper's probability of
        a label is the inner one's of the flipped label, and its tie label
        is flipped the same way, so both results carry over unchanged.
        """
        sides, labels = self._check_trace(sides, labels)
        if self.mapping.flip:
            labels = 1 - labels
        log_p = np.empty(labels.shape[0], dtype=np.float64)
        correct = np.empty(labels.shape[0], dtype=bool)
        for rows in row_blocks(labels.shape[0], self.d_prime):
            features = self.mapping.features_matrix(sides[rows])
            log_p[rows], correct[rows] = self.inner.score_trace(features, labels[rows])
        return log_p, correct


class _SurvivingClauses(OnlinePredictor):
    """Shared machinery: track basis clauses true on every positive so far.

    A step only looks at the clauses its side falsifies, sum_s C(d,s) of
    them, whatever the survivor count. Behaviour is identical to running
    the plain predictor on the full expansion.
    """

    def __init__(self, basis: ClauseBasis):
        super().__init__(basis.d)
        self.basis = basis
        self._surv = np.ones(basis.d_prime, dtype=bool)
        self.surviving_count = basis.d_prime
        self._cached = (None, None)

    @property
    def d_prime(self) -> int:
        return self.basis.d_prime

    def _violated(self, bits: np.ndarray) -> np.ndarray:
        """Basis rows of the surviving clauses false on the given side."""
        key = pack_key(bits)
        cached_key, cached = self._cached
        if cached_key == key:
            return cached
        rows = self.basis.falsified(bits)
        rows = rows[self._surv[rows]]
        self._cached = (key, rows)
        return rows

    def _drop(self, rows: np.ndarray) -> None:
        self._surv[rows] = False
        self.surviving_count -= rows.shape[0]
        self._cached = (None, None)

    def _survivor_blocks(self, sides: np.ndarray):
        """Consecutive row blocks of `sides` with the truth of each surviving
        clause on each row, about BLOCK_BITS values per block.

        The caller shrinks the survivors by each block before taking the
        next, so each block is sized by the survivors left.
        """
        start = 0
        while start < sides.shape[0]:
            rows = slice(start, start + max(1, BLOCK_BITS // max(1, self.surviving_count)))
            yield rows, _clause_values(self.basis.clause_matrix[self._surv], sides[rows])
            start = rows.stop


class ExpandedPractical(_SurvivingClauses):
    """Practical predictor over a clause basis, fed original side vectors.

    Equivalent to PracticalPredictor(d_prime) on expanded features, but
    never materialises the expansion.
    """

    def __init__(self, basis: ClauseBasis):
        super().__init__(basis)
        self._t = 1

    def _structural(self, bits: np.ndarray) -> int:
        return 0 if self._violated(bits).shape[0] else 1

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
            self._drop(self._violated(bits))
        self._t += 1

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised `OnlinePredictor.score_trace`: `PracticalPredictor`'s
        prefix-AND over the surviving clauses, block by block."""
        sides, labels = self._check_trace(sides, labels)
        log_p = np.empty(labels.shape[0], dtype=np.float64)
        hit = np.empty(labels.shape[0], dtype=bool)
        for rows, values in self._survivor_blocks(sides):
            alive = np.ones(values.shape[1], dtype=bool)
            log_p[rows], hit[rows], after = practical_steps(alive, values, labels[rows], self._t)
            self._drop(np.flatnonzero(self._surv)[~after])
            self._t += values.shape[0]
        return log_p, hit


class ExpandedHybrid(_SurvivingClauses):
    """Hybrid predictor over a clause basis, fed original side vectors.

    Negative sides are keyed by the original vector, which is equivalent
    to keying the expansion because the basis embeds every literal.
    """

    def __init__(self, basis: ClauseBasis):
        super().__init__(basis)
        self._neg: set = set()
        self.log2_one_minus_alpha = hybrid_log2_one_minus_alpha(basis.d_prime)

    def _predict(self, bits: np.ndarray) -> Prediction:
        if pack_key(bits) in self._neg:
            return Prediction.certain(0)
        m = self._violated(bits).shape[0]
        return Prediction.from_log_p1(m * self.log2_one_minus_alpha)

    def _update(self, bits: np.ndarray, label: int) -> None:
        if label:
            self._drop(self._violated(bits))
        else:
            self._neg.add(pack_key(bits))

    def score_trace(self, sides, labels) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised `OnlinePredictor.score_trace`: `HybridPredictor`'s
        column pricing over the surviving clauses, block by block, then its
        negative store over the original sides."""
        sides, labels = self._check_trace(sides, labels)
        log_p = np.empty(labels.shape[0], dtype=np.float64)
        for rows, values in self._survivor_blocks(sides):
            alive = np.ones(values.shape[1], dtype=bool)
            log_p[rows], after = hybrid_column_steps(
                alive, values, labels[rows], self.log2_one_minus_alpha
            )
            self._drop(np.flatnonzero(self._surv)[~after])
        memorise_negatives(log_p, sides, labels, self._neg)
        return log_p, log_p > -1.0
