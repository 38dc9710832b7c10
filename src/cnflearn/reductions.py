"""Reductions of richer Boolean target classes to monotone conjunctions.

A k-CNF over d variables is a conjunction of clauses, so learning one is
learning a monotone conjunction over an expanded feature space with one
bit per clause. The canonical clause basis here contains every clause of
1..k distinct literals with no complementary pair: duplicated literals in
a clause collapse, tautologies are constant and dropped, and reordered
duplicates are the same clause. That keeps the basis at
sum_s C(d,s)*2**s features instead of the (2d)**k syntactic tuples.
`ClauseBasis(d, k)`, or `build_basis`, refuses more than
`DEFAULT_FEATURE_BUDGET` clauses before it allocates. It enumerates no
clause until something reads the clause matrix or its rank table.

Literals are numbered 0..2d-1: literal i < d is variable i, literal i >= d
is the negation of variable i-d. Clauses are sorted tuples of literal ids
and the basis is ordered lexicographically, which makes the k=1 basis
coincide with the plain conjunction transform (side then negated side).

A clause basis is its own feature map, the one feature map: feature j is
the truth of clause j. General conjunctions (negations allowed) are the
k=1 basis (`ConjunctionMap`); disjunctions reduce through De Morgan to it
on the complemented side (`DisjunctionMap`, `flip`), with flipped labels.

A map gives a side's zero set, the features that are 0 on it, and a word
formula for chosen feature columns on a block of sides packed 64 rows to a
uint64 word (`pack_rows`): literal words ORed into a clause, negated by
`~`. `ReducedPredictor` is the one reduction path: the inner predictor's
reader behind the map (`read_through`) gives a step's input (`read`) and
a trace block's (`values`). alg1, alg2 and xi-plus step as in Valiant's
elimination, in a survivor form the map hands each of them (`survivors`):
one word per variable subset, bit p set while the feature that sign
pattern p on the subset switches off survives. A side falsifies one
clause per variable subset, signed by its own bits, so a step ANDs each
of sum_s C(d,s) words with a byte that has only that clause's bit, built
once a side into the form's own buffer; it ranks no clause, shifts no bit
and writes nothing on the basis, which every predictor of a run shares.
A block is read as the surviving columns' words. MADNB and bayes-exact
read through the map: a side as its feature row, from its zero set, and
a block as its features' bytes; memorize reads the unmapped side.
`build_predictor` returns a `ReducedPredictor` for every reduction, and
`ExpandedPractical`/`ExpandedHybrid(basis)` are its alg2/alg1 over a basis.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, combinations, product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import OnlinePredictor, Prediction, pack_key, pack_rows, unpack_rows
from .predictors import HybridPredictor, PracticalPredictor, SubsetWords

DEFAULT_FEATURE_BUDGET = 4_000_000

__all__ = [
    "ClauseBasis",
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
    refused past `DEFAULT_FEATURE_BUDGET` clauses before it allocates, and
    the feature map through it: feature j is the truth of clause j on the
    side or, when `flip` is set, on its complement, so the k=1 basis gives
    the conjunction and disjunction maps. A map is given by two methods:
    `zeros(bits)`, the features that are 0 on a side, and
    `columns(words, cols)`, the words of chosen feature columns on the
    `pack_rows` words of a block of sides, with negation as `~`.
    `survivors()` is the `SubsetWords` form that alg1, alg2 and xi-plus read
    sides in, a side as its one-hot subset bytes, built once a side into the
    form's own buffer; the other predictors read a side as its feature row
    (`read`) and a block as all its features' bytes (`values`). No step
    writes the basis, so every predictor of a run may share one.

    `clause_matrix` has one row per clause, padded to width k by repeating
    the first literal (a duplicate literal never changes a disjunction).

    A side falsifies one clause on each variable subset: the one signed by
    the side's own bits there. `patterns` gives those signs for every
    subset, by size and then in `combinations` order, with the first
    variable highest; the survivors are a word per subset, read at those
    patterns. The s-subsets that start at variable a are a over the
    (s-1)-subsets after a, a contiguous suffix of size s-1, so size s is
    d-s+1 such suffixes joined, with a's bit on top (`_grow`). The clause
    on the i-th s-variable subset with sign bits p (1 = negated) has slot
    sum_{r<s} C(d,r)*2**r + i * 2**s + p, and `rank` maps slots to rows,
    which `zeros` reads.

    Built at once, from `math.comb` alone: what an alg1, alg2 or xi-plus
    step reads (`d_prime`, `sizes`, the suffix slices, the first slots).
    `clause_matrix` and `rank` are built together on first read, by madnb
    and bayes-exact feature rows (`zeros`), `score_trace` blocks
    (`columns`), `clause`/`clauses`, `survivor_mask` and `expand_matrix`.
    """

    flip = False
    basis = property(lambda self: self)  # a map that has a basis is named k-CNF

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
        self.d_prime = basis_size(d, k)
        if self.d_prime > DEFAULT_FEATURE_BUDGET:
            raise ValueError(
                f"basis for d={d}, k={k} has {self.d_prime} clauses, over the budget of {DEFAULT_FEATURE_BUDGET}"
            )
        self.d, self.k = d, k
        self.sizes = range(1, min(d, k) + 1)
        self._dtype = np.min_scalar_type(2 ** len(self.sizes) - 1)
        # From s = 2, per size s: its subsets' slice, size s-1's, and per first variable a its
        # suffix, the (s-1)-subsets after a, which ends where size s starts.
        self._suffixes, before, start = [], 0, d
        for s in self.sizes[1:]:
            keys = [slice(start - math.comb(d - a - 1, s - 1), start) for a in range(d - s + 1)]
            self._suffixes.append((slice(start, start + math.comb(d, s)), slice(before, start), keys))
            before, start = start, start + math.comb(d, s)
        self._first_slot = np.concatenate(
            [basis_size(d, s - 1) + (np.arange(math.comb(d, s)) << s) for s in self.sizes]
        )

    @cached_property
    def _lexicographic(self) -> Tuple[np.ndarray, np.ndarray]:
        """`clause_matrix` and `rank`, built together on the first read of either."""
        d, k, size = self.d, self.k, self.d_prime
        # Per size s, its clauses in slot order with -1 padding.
        matrix = np.full((size, k), -1, dtype=np.int32)
        for s in self.sizes:
            variables = np.fromiter(chain.from_iterable(combinations(range(d), s)), np.int32).reshape(-1, s)
            signs = np.array(list(product((0, d), repeat=s)), dtype=np.int32)
            rows = slice(basis_size(d, s - 1), basis_size(d, s))
            matrix[rows, :s] = (variables[:, None, :] + signs).reshape(-1, s)
            matrix[rows, :s].sort(axis=1)
        # Sorting the slot-ordered clauses with -1 padding gives tuple order. No view of the
        # unsorted matrix is kept, so rebinding frees it before the rank table is built.
        order = np.lexsort(matrix.T[::-1])
        matrix = matrix[order]
        np.copyto(matrix, matrix[:, :1], where=matrix < 0)
        rank = np.empty(size, dtype=np.int32)
        rank[order] = np.arange(size, dtype=np.int32)
        return matrix, rank

    clause_matrix = property(lambda self: self._lexicographic[0])
    rank = property(lambda self: self._lexicographic[1])

    def clause(self, j: int) -> Tuple[int, ...]:
        row = self.clause_matrix[j]
        return tuple(sorted({int(x) for x in row}))

    def clauses(self) -> List[Tuple[int, ...]]:
        return [self.clause(j) for j in range(self.d_prime)]

    def zeros(self, bits: np.ndarray) -> np.ndarray:
        """Basis rows of the clauses false on a side, a subset at a time."""
        return self.rank[self._first_slot + self.patterns(1 - bits if self.flip else bits)].astype(np.intp)

    def features(self, bits: np.ndarray) -> np.ndarray:
        row = np.ones(self.d_prime, dtype=np.uint8)
        row[self.zeros(bits)] = 0
        return row

    read = features

    def values(self, sides: np.ndarray, columns) -> np.ndarray:
        # only given every column (expand_matrix, the default read_columns()): read without a gather
        return unpack_rows(self.columns(pack_rows(sides), slice(None)), sides.shape[0])

    def columns(self, words: np.ndarray, cols) -> np.ndarray:
        """Truth of the chosen clauses, each the OR of its literal words."""
        clauses = self.clause_matrix[cols]
        lits = np.concatenate([~words, words] if self.flip else [words, ~words])
        values = lits[clauses[:, 0]]
        for j in range(1, clauses.shape[1]):
            values |= lits[clauses[:, j]]
        return values

    def patterns(self, bits: np.ndarray) -> np.ndarray:
        """The side's sign pattern on each variable subset, a size at a time:
        per first variable, the smaller patterns after it, its bit on top."""
        out = np.empty(self._first_slot.size, dtype=self._dtype)
        out[: self.d] = bits
        lifted = np.empty_like(out)
        joins = [(out[at], out[prev], lifted[prev], (out, lifted), keys) for at, prev, keys in self._suffixes]
        self._grow(joins, bits, lambda before, s, into: np.bitwise_or(before, 1 << s - 1, out=into))
        return out

    def survivors(self) -> SubsetWords:
        """Each subset's word has a bit per clause on it, in 2**k bits or 8. A
        side's one-hot bytes are built into the form's own buffer, through
        views made once: 1 << bit on a variable, times 2**2**(s-1) on an
        s-subset whose first bit is 1, or for s >= 4 that bit picks the byte.
        The form keeps the key of the side whose bytes the buffer holds, and
        their byte index, so a step builds them once."""
        width = max(8, 2 ** len(self.sizes))
        full = [np.packbits(np.arange(width) < 2 ** s, bitorder="little") for s in self.sizes]
        full = np.repeat(full, [math.comb(self.d, s) for s in self.sizes], axis=0).reshape(-1)
        rows = lambda cols: self.rank[self._first_slot[cols >> width.bit_length() - 1] + (cols & width - 1)]
        out, lifted = np.empty((2, self._first_slot.size), np.uint8)
        views = lambda keys: (([out[key] for key in keys], [lifted[key] for key in keys]), range(len(keys)))
        joins = [(out[at], out[prev], lifted[prev], *views(keys)) for at, prev, keys in self._suffixes]
        lift = lambda before, s, into: np.multiply(before, 2 ** 2 ** (s - 1) if s < 4 else 1, out=into)
        held = byte = None  # the key of the side whose bytes `out` holds, and their byte index

        def zeros(bits):
            nonlocal held, byte
            if (key := pack_key(bits)) != held:
                side = 1 - bits if self.flip else bits
                np.add(side, 1, out=out[: self.d])
                self._grow(joins, side, lift)
                byte = slice(None) if width == 8 else np.arange(0, full.size, width // 8) + (self.patterns(side) >> 3)
                held = key
            return byte, out

        # columns looked up at call time, so the words come from the map's class as it is then
        return SubsetWords(full, zeros, rows, lambda words, cols: self.columns(words, cols))

    def _grow(self, joins: list, bits: np.ndarray, lift) -> None:
        """Fill sizes 2 and up from size 1: size s joins, per first variable,
        its suffix `sources[bit][key]`, from a copy of size s-1 that
        `lift(before, s, into)` gives the variable's bit where that bit is 1."""
        bits = bits.tolist()
        for s, (block, before, lifted, sources, keys) in enumerate(joins, 2):
            lift(before, s, lifted)
            np.concatenate([sources[bit][key] for key, bit in zip(keys, bits)], out=block)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d}, k={self.k}, d_prime={self.d_prime})"


def build_basis(d: int, k: int) -> ClauseBasis:
    """The canonical clause basis, refusing runaway expansions."""
    return ClauseBasis(d, k)


def expand_matrix(basis: ClauseBasis, sides: np.ndarray) -> np.ndarray:
    """Row-wise clause truth values: an (n, d) matrix to (n, d_prime)."""
    return basis.values(sides, slice(None))


class ConjunctionMap(ClauseBasis):
    """Feature map for general conjunctions with negated literals: the k=1
    basis, feature i < d variable i and feature d + i its negation."""

    basis = None  # not a k-CNF reduction

    def __init__(self, d: int):
        super().__init__(d, 1)


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
    trace block is what that reader's `values` gives, so a predictor that
    reads the unmapped side never builds a d_prime-wide row.
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
        # the inner predictor's reader, of steps and blocks: the map, or a form of its own
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
        return len(self.inner.read_columns())

    # A trace is the inner predictor's columns read by its reader, in its blocks. A flipped
    # map flips the inner labels, which carries log_p and ties over unchanged.
    def read_columns(self) -> Sequence[int]:
        return self.inner.read_columns()

    def _block_rows(self, width: int) -> int:
        return self.inner._block_rows(width)

    def _start_trace(self, sides: np.ndarray, labels: np.ndarray) -> None:
        self.inner._start_trace(sides, 1 - labels if self.mapping.flip else labels)

    def _score_columns(self, sides, columns, values, labels) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner._score_columns(sides, columns, values, 1 - labels if self.mapping.flip else labels)


class ExpandedPractical(ReducedPredictor):
    """`PracticalPredictor` over a clause basis, fed original side vectors."""

    def __init__(self, basis: ClauseBasis):
        super().__init__(PracticalPredictor(basis.d_prime), basis)


class ExpandedHybrid(ReducedPredictor):
    """`HybridPredictor` over a clause basis, fed original side vectors."""

    def __init__(self, basis: ClauseBasis):
        super().__init__(HybridPredictor(basis.d_prime), basis)
