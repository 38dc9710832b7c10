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

General conjunctions (negations allowed) only need the k=1 feature map;
disjunctions reduce through De Morgan by flipping side bits and labels.

Every map gives a side's zero set, the features that are 0 on it, and
the values of chosen feature columns on a block of sides. `ReducedPredictor`
is the one reduction path: it hands the inner predictor each step as a
zero set and each trace block as the columns the predictor reads. alg1,
alg2 and xi-plus step through zero sets with or without a map, as in
Valiant's elimination, and read only their surviving columns. A side
falsifies one clause per variable subset, signed by its own bits, which
the basis finds through a rank table, so behind a clause basis their step
touches sum_s C(d,s) clauses, not d'. `ExpandedPractical` and
`ExpandedHybrid` are alg2 and alg1 behind the `ClauseMap` of a basis.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, product
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    BitVector,
    OnlinePredictor,
    Prediction,
    as_bits,
    pack_key,
)
from .predictors import HybridPredictor, PracticalPredictor

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
    return ClauseMap(basis).features_matrix(sides)


class _FeatureMap:
    """A map from d-bit sides to d_prime features, given by two methods:
    `zeros(bits)`, the features that are 0 on a side, and
    `columns(sides, cols)`, chosen feature columns on a block of sides."""

    def features(self, bits: np.ndarray) -> np.ndarray:
        values = np.ones(self.d_prime, dtype=np.uint8)
        values[self.zeros(bits)] = 0
        return values

    def features_matrix(self, sides: np.ndarray) -> np.ndarray:
        return self.columns(sides, slice(None))


class ConjunctionMap(_FeatureMap):
    """Feature map for general conjunctions with negated literals: feature
    i < d is variable i, feature d + i its negation."""

    flip = False

    def __init__(self, d: int):
        self.d = d
        self.d_prime = 2 * d
        # each feature's variable, and whether it reads that variable negated
        self._variable = np.tile(np.arange(d), 2)
        self._negated = np.repeat(np.array([self.flip, not self.flip], dtype=np.uint8), d)
        # the feature of each variable that a 0 bit sets to 0, and a 1 bit
        self._zero_if_off = np.arange(d) + d * self.flip
        self._zero_if_on = np.arange(d) + d * (not self.flip)

    def zeros(self, bits: np.ndarray) -> np.ndarray:
        return np.where(bits, self._zero_if_on, self._zero_if_off)

    def columns(self, sides: np.ndarray, cols) -> np.ndarray:
        return sides[:, self._variable[cols]] ^ self._negated[cols]


class DisjunctionMap(ConjunctionMap):
    """Feature map for disjunctions: flip the side, then treat as conjunction.

    The label is flipped too, so predictions must be unmapped by swapping
    the two probabilities; `flip` signals that to the wrapper.
    """

    flip = True


class ClauseMap(_FeatureMap):
    """Feature map through a k-CNF clause basis."""

    flip = False

    def __init__(self, basis: ClauseBasis):
        self.basis = basis
        self.d = basis.d
        self.d_prime = basis.d_prime

    def zeros(self, bits: np.ndarray) -> np.ndarray:
        return self.basis.falsified(bits)

    def columns(self, sides: np.ndarray, cols) -> np.ndarray:
        """Truth of the chosen clauses, each the OR of its literal columns."""
        clauses = self.basis.clause_matrix[cols]
        lits = np.concatenate([sides, 1 - sides], axis=1).astype(bool)
        values = lits[:, clauses[:, 0]]
        for j in range(1, clauses.shape[1]):
            values |= lits[:, clauses[:, j]]
        return values.view(np.uint8)


class ReducedPredictor(OnlinePredictor):
    """Run any predictor over mapped features, unmapping its predictions.

    The inner predictor sees a step as the side's zero set (`zeros`) and a
    trace as the values of the columns it reads (`columns`), so a predictor
    that reads only those never builds a d_prime-wide row.
    """

    def __init__(self, inner: OnlinePredictor, mapping):
        super().__init__(mapping.d)
        if inner.d != mapping.d_prime:
            raise ValueError(
                f"inner predictor has dimension {inner.d}, map produces "
                f"{mapping.d_prime} features"
            )
        self.inner = inner
        self.mapping = mapping
        self._cached = (None, None)

    def _zeros(self, bits: np.ndarray) -> np.ndarray:
        """The side's zero set; predict, tie_label and update of one step
        map the side once."""
        key = pack_key(bits)
        if self._cached[0] != key:
            self._cached = (key, self.mapping.zeros(bits))
        return self._cached[1]

    def _predict(self, bits: np.ndarray) -> Prediction:
        pred = self.inner._predict_zeros(bits, self._zeros(bits))
        return pred.flip() if self.mapping.flip else pred

    def _update(self, bits: np.ndarray, label: int) -> None:
        inner_label = 1 - label if self.mapping.flip else label
        self.inner._update_zeros(bits, self._zeros(bits), inner_label)

    def tie_label(self, side: BitVector) -> Optional[int]:
        tie = self.inner._tie_zeros(self._zeros(as_bits(side, self.d)))
        if tie is None:
            return None
        return 1 - tie if self.mapping.flip else tie

    # A trace is the inner predictor's columns read through the map. A flipped
    # map flips the inner labels, which carries log_p and ties over unchanged.
    def read_columns(self):
        return self.inner.read_columns()

    def _column_values(self, sides: np.ndarray, columns) -> np.ndarray:
        return self.mapping.columns(sides, columns)

    def _score_columns(self, sides, columns, values, labels) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner._score_columns(sides, columns, values, 1 - labels if self.mapping.flip else labels)


class _ExpandedBasis(ReducedPredictor):
    """A column predictor behind the `ClauseMap` of a basis."""

    inner_class: type

    def __init__(self, basis: ClauseBasis):
        super().__init__(self.inner_class(basis.d_prime), ClauseMap(basis))
        self.basis = basis

    @property
    def surviving_count(self) -> int:
        """Clauses true on every positive so far."""
        return len(self.inner.read_columns())


class ExpandedPractical(_ExpandedBasis):
    """`PracticalPredictor` over a clause basis, fed original side vectors."""

    inner_class = PracticalPredictor


class ExpandedHybrid(_ExpandedBasis):
    """`HybridPredictor` over a clause basis, fed original side vectors."""

    inner_class = HybridPredictor
