"""Reductions of richer Boolean target classes to monotone conjunctions.

A k-CNF over d variables is a conjunction of clauses, so learning one is
learning a monotone conjunction over an expanded feature space with one
bit per clause. The canonical clause basis here contains every clause of
1..k distinct literals with no complementary pair: duplicated literals in
a clause collapse, tautologies are constant and dropped, and reordered
duplicates are the same clause. That keeps the basis at
sum_s C(d,s)*2**s features instead of the (2d)**k syntactic tuples.
`ClauseBasis(d, k)`, or `build_basis`, builds it in one pass over the sizes
and refuses more than `DEFAULT_FEATURE_BUDGET` clauses before it allocates.

Literals are numbered 0..2d-1: literal i < d is variable i, literal i >= d
is the negation of variable i-d. Clauses are sorted tuples of literal ids
and the basis is ordered lexicographically, which makes the k=1 basis
coincide with the plain conjunction transform (side then negated side).

`ClauseMap` is the one feature map. General conjunctions (negations
allowed) are the map of the k=1 basis; disjunctions reduce through De
Morgan to that map on the complemented side (`flip`), with flipped labels.

A map gives a side's zero set, the features that are 0 on it, and a word
formula for chosen feature columns on a block of sides packed 64 rows to a
uint64 word (`pack_rows`): literal words ORed into a clause, negated by
`~`. `ReducedPredictor` is the one reduction path: a step
is the inner predictor's own, on the side as `read_through` reads it, and
a trace block is the columns the predictor reads. alg1, alg2 and xi-plus
step as in Valiant's elimination, in the survivor form the map hands them
(`survivors`): one word per variable subset, bit p set while the feature
that sign pattern p on the subset switches off survives. A side falsifies
one clause per variable subset, signed by its own bits, so behind a clause
basis a step reads one bit of each of sum_s C(d,s) words and ranks no
clause, and a trace block is scored on the words of the surviving columns.
MADNB and bayes-exact read a side as its feature row, from its zero set,
and their columns' words as bytes; memorize keys the unmapped side.
`build_predictor` returns a `ReducedPredictor` for every reduction, and
`ExpandedPractical`/`ExpandedHybrid(basis)` are its alg2/alg1 over a basis.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, product
from operator import itemgetter
from typing import List, Optional, Tuple

import numpy as np

from .core import OnlinePredictor, Prediction, column_count, pack_key, pack_rows, unpack_rows
from .predictors import HybridPredictor, PracticalPredictor, SubsetWords

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
    """Canonical clause basis for k-CNF over d >= 1 variables, k >= 1,
    refused past `DEFAULT_FEATURE_BUDGET` clauses before it allocates.

    `clause_matrix` has one row per clause, padded to width k by repeating
    the first literal (a duplicate literal never changes a disjunction).

    A side falsifies one clause on each variable subset: the one signed by
    the side's own bits there. `patterns` gives those signs for every
    subset, by size and then in `combinations` order, with the first
    variable highest; a clause map's survivors are a word per subset, read
    at those patterns. The s-subsets that start at variable a are a over
    the (s-1)-subsets after a, a contiguous suffix of size s-1, so size s
    is d-s+1 such suffixes joined, each with its a's bit set on top. The
    clause on the i-th s-variable subset with sign bits p (1 = negated) has
    slot sum_{r<s} C(d,r)*2**r + i * 2**s + p, and `rank` maps slots to
    rows, which a clause map reads for a side's zero set.
    """

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
        size = basis_size(d, k)
        if size > DEFAULT_FEATURE_BUDGET:
            raise ValueError(
                f"basis for d={d}, k={k} has {size} clauses, over the budget of {DEFAULT_FEATURE_BUDGET}"
            )
        self.d, self.k = d, k
        self.sizes = range(1, min(d, k) + 1)
        self._dtype = np.min_scalar_type(2 ** len(self.sizes) - 1)
        # Per size s: its clauses, in slot order with -1 padding, and from s = 2 its subsets'
        # slice, a getter of its suffixes of size s-1 (which ends where s starts), padded by an
        # empty one as itemgetter gives a tuple of two or more, and their lengths.
        matrix = np.full((size, k), -1, dtype=np.int32)
        self._suffixes, start = [], 0
        for s in self.sizes:
            variables = np.fromiter(chain.from_iterable(combinations(range(d), s)), np.int32).reshape(-1, s)
            signs = np.array(list(product((0, d), repeat=s)), dtype=np.int32)
            rows = slice(basis_size(d, s - 1), basis_size(d, s))
            matrix[rows, :s] = (variables[:, None, :] + signs).reshape(-1, s)
            matrix[rows, :s].sort(axis=1)
            if s > 1:
                lengths = [math.comb(d - a - 1, s - 1) for a in range(d - s + 1)]
                suffixes = itemgetter(slice(start, start), *(slice(start - n, start) for n in lengths))
                self._suffixes.append((slice(start, start + sum(lengths)), suffixes, np.array(lengths)))
            start += math.comb(d, s)
        # Sorting the slot-ordered clauses with -1 padding gives tuple order. No view of the
        # unsorted matrix is kept, so rebinding frees it before the rank table is built.
        order = np.lexsort(matrix.T[::-1])
        matrix = matrix[order]
        np.copyto(matrix, matrix[:, :1], where=matrix < 0)
        self.clause_matrix = matrix
        self.rank = np.empty(size, dtype=np.int32)
        self.rank[order] = np.arange(size, dtype=np.int32)
        self._first_slot = np.concatenate(
            [basis_size(d, s - 1) + (np.arange(math.comb(d, s)) << s) for s in self.sizes]
        )

    @property
    def d_prime(self) -> int:
        return self.clause_matrix.shape[0]

    def clause(self, j: int) -> Tuple[int, ...]:
        row = self.clause_matrix[j]
        return tuple(sorted({int(x) for x in row}))

    def clauses(self) -> List[Tuple[int, ...]]:
        return [self.clause(j) for j in range(self.d_prime)]

    def patterns(self, bits: np.ndarray) -> np.ndarray:
        """The side's sign pattern on each variable subset, a size at a time:
        per first variable, the smaller patterns after it, its bit on top."""
        out = np.empty(self._first_slot.size, dtype=self._dtype)
        out[: self.d] = bits
        for shift, (size, suffixes, lengths) in enumerate(self._suffixes, 1):
            block = out[size]
            np.concatenate(suffixes(out), out=block)
            block |= np.repeat(out[: lengths.size] << shift, lengths)
        return out

    def __repr__(self) -> str:
        return f"ClauseBasis(d={self.d}, k={self.k}, d_prime={self.d_prime})"


def build_basis(d: int, k: int) -> ClauseBasis:
    """The canonical clause basis, refusing runaway expansions."""
    return ClauseBasis(d, k)


def expand_matrix(basis: ClauseBasis, sides: np.ndarray) -> np.ndarray:
    """Row-wise clause truth values: an (n, d) matrix to (n, d_prime)."""
    return ClauseMap(basis).features_matrix(sides)


class ClauseMap:
    """Feature map through a clause basis: feature j is the truth of clause
    j on the side or, when `flip` is set, on its complement, so the k=1
    basis gives the conjunction and disjunction maps. It is given by two
    methods: `zeros(bits)`, the features that are 0 on a side, and
    `columns(words, cols)`, the words of chosen feature columns on the
    `pack_rows` words of a block of sides, with negation as `~`.
    `survivors()` is the `SubsetWords` form that alg1, alg2 and xi-plus read
    sides in behind it; the other predictors read a side as its feature row
    (`read`) and the map's own columns, which are their features (`rows`)."""

    flip = False

    def __init__(self, basis: ClauseBasis):
        self._basis = basis
        self.d = basis.d
        self.d_prime = basis.d_prime
        self._cached = (None, None)

    @property
    def basis(self) -> ClauseBasis:
        return self._basis

    def zeros(self, bits: np.ndarray) -> np.ndarray:
        """Basis rows of the clauses false on a side, a subset at a time."""
        return self._basis.rank[self._basis._first_slot + self.patterns(bits)].astype(np.intp)

    def features(self, bits: np.ndarray) -> np.ndarray:
        row = np.ones(self.d_prime, dtype=np.uint8)
        row[self.zeros(bits)] = 0
        return row

    read = features

    def features_matrix(self, sides: np.ndarray) -> np.ndarray:
        return unpack_rows(self.columns(pack_rows(sides), slice(None)), sides.shape[0])

    def rows(self, columns):
        return columns

    def patterns(self, bits: np.ndarray) -> np.ndarray:
        """`basis.patterns` of the side (or its complement), kept for the last
        side, so that predict, tie_label and update of one step build them once."""
        key = pack_key(bits)
        if self._cached[0] != key:
            self._cached = (key, self._basis.patterns(1 - bits if self.flip else bits))
        return self._cached[1]

    def survivors(self) -> SubsetWords:
        """Each subset's word has a bit per clause on it, in 2**k bits or 8."""
        basis, width = self._basis, max(8, 2 ** len(self._basis.sizes))
        full = [np.packbits(np.arange(width) < 2 ** s, bitorder="little") for s in basis.sizes]
        full = np.repeat(full, [math.comb(basis.d, s) for s in basis.sizes], axis=0).reshape(-1)
        rows = lambda cols: basis.rank[basis._first_slot[cols >> width.bit_length() - 1] + (cols & width - 1)]
        return SubsetWords(full, width // 8, self.patterns, rows)

    def columns(self, words: np.ndarray, cols) -> np.ndarray:
        """Truth of the chosen clauses, each the OR of its literal words."""
        clauses = self._basis.clause_matrix[cols]
        lits = np.concatenate([~words, words] if self.flip else [words, ~words])
        values = lits[clauses[:, 0]]
        for j in range(1, clauses.shape[1]):
            values |= lits[clauses[:, j]]
        return values


class ConjunctionMap(ClauseMap):
    """Feature map for general conjunctions with negated literals: the k=1
    basis, feature i < d variable i and feature d + i its negation."""

    basis = None  # not a k-CNF reduction: a map that has a basis is named k-CNF

    def __init__(self, d: int):
        super().__init__(build_basis(d, 1))


class DisjunctionMap(ConjunctionMap):
    """Feature map for disjunctions: flip the side, then treat as conjunction.

    The label is flipped too, so predictions must be unmapped by swapping
    the two probabilities; `flip` signals that to the wrapper.
    """

    flip = True


class ReducedPredictor(OnlinePredictor):
    """Run any predictor over mapped features, unmapping its predictions.

    A step is the inner predictor's own `_predict`, `_update` and
    `_tie_label` on the side as its reader (`read_through`) reads it, and a
    trace is the values of the columns it reads (`columns`), so a predictor
    that reads the unmapped side never builds a d_prime-wide row.
    `build_predictor` returns one for every reduction, k-CNF included.
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
        self.basis = mapping.basis  # a k-CNF map's clause basis, else None
        # what reads a side for the inner predictor: the map, or its own form
        self._reader = inner.read_through(mapping)

    def _predict(self, bits: np.ndarray) -> Prediction:
        pred = self.inner._predict(self._reader.read(bits))
        return pred.flip() if self.mapping.flip else pred

    def _update(self, bits: np.ndarray, label: int) -> None:
        self.inner._update(self._reader.read(bits), 1 - label if self.mapping.flip else label)

    def _tie_label(self, bits: np.ndarray) -> Optional[int]:
        # the side unread: only alg2 has a tie label, and its reader (SubsetWords.read) is the identity
        tie = self.inner._tie_label(bits)
        if tie is None:
            return None
        return 1 - tie if self.mapping.flip else tie

    @property
    def surviving_count(self) -> int:
        """The count of columns the inner predictor still reads: survivors
        for alg1, alg2 and xi-plus, d' for madnb and bayes-exact, 0 for memorize."""
        return column_count(self.inner.read_columns())

    # A trace is the inner predictor's columns read through the map. A flipped
    # map flips the inner labels, which carries log_p and ties over unchanged.
    def read_columns(self):
        return self.inner.read_columns()

    def _column_values(self, sides: np.ndarray, columns) -> np.ndarray:
        words = self.mapping.columns(pack_rows(sides), self._reader.rows(columns))
        # survivors are scored on the words, the other predictors on bytes
        return words if isinstance(self._reader, SubsetWords) else unpack_rows(words, sides.shape[0])

    def _score_columns(self, sides, columns, values, labels) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner._score_columns(sides, columns, values, 1 - labels if self.mapping.flip else labels)


class ExpandedPractical(ReducedPredictor):
    """`PracticalPredictor` over a clause basis, fed original side vectors."""

    def __init__(self, basis: ClauseBasis):
        super().__init__(PracticalPredictor(basis.d_prime), ClauseMap(basis))


class ExpandedHybrid(ReducedPredictor):
    """`HybridPredictor` over a clause basis, fed original side vectors."""

    def __init__(self, basis: ClauseBasis):
        super().__init__(HybridPredictor(basis.d_prime), ClauseMap(basis))
