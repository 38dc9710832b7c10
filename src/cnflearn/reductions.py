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
k=1 basis (`ConjunctionMap`); by De Morgan a disjunction's map is it with
each literal negated (`DisjunctionMap`), and `flip` complements labels.

A map gives a side's zero set, the features that are 0 on it, and a word
formula for chosen feature columns on a block of sides packed 64 rows to a
uint64 word (`pack_rows`): literal words ORed into a clause, negated by
`~`. `ReducedPredictor` is the one reduction path: it hands the inner
predictor each step's side and a trace as validated, and adds only the
map's label flip. The inner predictor reads them itself, through the
reader that `read_through` installs behind the map (`read` for a step,
`values` for a block). alg1, alg2 and xi-plus step as in Valiant's
elimination, in a survivor form the map hands each of them (`survivors`):
one word per variable subset, bit p set while the feature that sign
pattern p on the subset switches off survives. A side falsifies one clause
per variable subset, signed by its own bits, so its zero set, the one
statement of its sign patterns, is one-hot bytes the size of the state,
built once a side into the form's own buffer from raw suffix bytes; a step
ANDs the state with them. alg2 first ANDs the variables' words alone, and
builds nothing more for a side that fails a surviving literal. A survivor
step ranks no clause, shifts no bit and writes nothing on the basis, which
every predictor of a run shares. A block is read as the surviving columns'
words. MADNB and bayes-exact read through a `HeldRow` each: a side as its
feature row, ranked off the bytes of a survivor form the basis keeps for
itself, and a block as its features' bytes; memorize keys the unmapped
side and reads nothing.
`build_predictor` returns a `ReducedPredictor` for every reduction, and
`ExpandedPractical`/`ExpandedHybrid(basis)` are its alg2/alg1 over a basis.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, combinations, product
from typing import List, Optional, Tuple

import numpy as np

from .core import HeldRow, OnlinePredictor, Prediction, pack_rows, unpack_rows
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
    side, and a map whose `flip` is set learns complemented labels. A map
    is given by its clause table and two methods:
    `zeros(bits)`, the features that are 0 on a side, and
    `columns(words, cols)`, the words of chosen feature columns on the
    `pack_rows` words of a block of sides, with negation as `~`.
    `survivors()` is the `SubsetWords` form that alg1, alg2 and xi-plus read
    sides in, a side as its one-hot subset bytes, built once a side into the
    form's own buffer; the other predictors read a side as its feature row
    (`read`) and a block as all its features' bytes (`values`). No survivor
    step writes the basis, so every predictor of a run may share one; `zeros`
    writes only the survivor form the basis keeps for itself, keyed by side.

    `clause_matrix` has one row per clause, padded to width k by repeating
    the first literal (a duplicate literal never changes a disjunction).

    A side falsifies one clause on each variable subset: the one signed by
    the side's own bits there, its sign pattern p. The survivor form states
    them, a word per subset, by size and then in `combinations` order with
    the first variable highest, as one-hot bytes: bit p & 7 of byte p >> 3.
    The s-subsets that start at variable a are a over the (s-1)-subsets
    after a, a contiguous suffix of size s-1, so size s is d-s+1 such
    suffixes joined into place as raw bytes, with a's bit on top (`_grow`).
    The clause on the i-th s-variable subset with sign bits p (1 = negated)
    has slot sum_{r<s} C(d,r)*2**r + i * 2**s + p, so byte j of its word
    starts at slot sum_{r<s} C(d,r)*2**r + i * 2**s + 8j (`_byte_slot`);
    `rank` maps slots to rows, which `rows` and `zeros` read.

    Built at once, from `math.comb` alone: what an alg1, alg2 or xi-plus
    step reads (`d_prime`, `sizes`, the suffix slices, the byte slots).
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
        # From s = 2, per size s: its subsets' slice, size s-1's, and per first variable a its
        # suffix, the (s-1)-subsets after a, which ends where size s starts.
        self._suffixes, before, start = [], 0, d
        for s in self.sizes[1:]:
            keys = [slice(start - math.comb(d - a - 1, s - 1), start) for a in range(d - s + 1)]
            self._suffixes.append((slice(start, start + math.comb(d, s)), slice(before, start), keys))
            before, start = start, start + math.comb(d, s)
        # Per byte of a word of 2**K bits or 8, built in place (a temporary is 1 MB at K = 3).
        slots = np.empty((start, max(1, 2 ** len(self.sizes) // 8)), np.int32)
        np.concatenate([basis_size(d, s - 1) + (np.arange(math.comb(d, s)) << s) for s in self.sizes], out=slots[:, 0])
        slots[:, 1:] = slots[:, :1] + 8 * np.arange(1, slots.shape[1], dtype=np.int32)
        self._byte_slot = slots.reshape(-1)

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
    _bytes = cached_property(lambda self: self.survivors().zeros)  # the form `zeros` reads, built on its first call

    def clause(self, j: int) -> Tuple[int, ...]:
        row = self.clause_matrix[j]
        return tuple(sorted({int(x) for x in row}))

    def clauses(self) -> List[Tuple[int, ...]]:
        return [self.clause(j) for j in range(self.d_prime)]

    def zeros(self, bits: np.ndarray) -> np.ndarray:
        """Basis rows of the clauses false on a side, a subset at a time."""
        b = self._bytes(bits)  # one-hot: a byte's set bit is the count of bits below it
        return self.rank.take((self._byte_slot + np.bitwise_count(b - 1))[b != 0]).astype(np.intp)

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
        lits = np.concatenate([words, ~words])
        values = lits[clauses[:, 0]]
        for j in range(1, clauses.shape[1]):
            values |= lits[clauses[:, j]]
        return values

    def survivors(self) -> SubsetWords:
        """Each subset's word has a bit per clause on it, in 2**K bits or 8,
        and one layout: all its bytes. A side's zero set is its one-hot bytes,
        an array the size of `full`, built into the form's own buffer through
        views made once: `bits + 1` in byte 0 of a variable's word, and each
        wider subset's word from the size below (`_grow`). A `HeldRow` keeps
        the side whose bytes the buffer holds, so a step builds them once.
        Where there are wider subsets, it names the variables' bytes
        (`variables`), for alg2 to read first."""
        words = [math.comb(self.d, s) for s in self.sizes]
        size = self._byte_slot.size // sum(words)  # bytes a word
        full = [np.packbits(np.arange(8 * size) < 2 ** s, bitorder="little") for s in self.sizes]
        full = np.repeat(full, words, axis=0).reshape(-1)
        rows = lambda cols: self.rank[self._byte_slot[cols >> 3] + (cols & 7)]
        out = np.zeros((sum(words), size), np.uint8)
        flat = out.reshape(-1)
        lifted = np.zeros_like(out[: -words[-1]])  # the top size is never lifted
        raw = lambda array, keys: [memoryview(array[key]) for key in keys]
        views = lambda keys: ((raw(out, keys), raw(lifted, keys)), range(len(keys)))
        joins = [(out[at], out[prev], lifted[prev], *views(keys)) for at, prev, keys in self._suffixes]

        def fill(bits):  # the side's bytes into `out`
            np.add(bits, 1, out=out[: self.d, 0])
            if joins:  # not subsets of one variable alone, as behind conj and disj
                self._grow(joins, bits)
            return flat

        variables = slice(0, self.d * size, size) if joins else None
        # columns looked up at call time, so the words come from the map's class as it is then
        return SubsetWords(full, HeldRow(fill).read, rows, lambda words, cols: self.columns(words, cols), variables)

    def _grow(self, joins: list, bits: np.ndarray) -> None:
        """Fill sizes 2 and up from size 1: size s is, per first variable, its
        suffix `sources[bit][key]` joined into place as raw bytes, from a copy
        of size s-1 lifted where the variable's bit is 1. The lift adds
        2**(s-1) to each pattern: times 2**2**(s-1) within byte 0 for s < 4,
        and from s = 4 on the word's bytes copied 2**(s-4) up. The suffixes
        are memoryviews that the survivor form makes once."""
        bits = bits.tolist()
        for s, (block, before, lifted, sources, keys) in enumerate(joins, 2):
            if s < 4:
                np.multiply(before, 2 ** 2 ** (s - 1), out=lifted)
            else:
                lifted[:, 2 ** (s - 4) : 2 ** (s - 3)] = before[:, : 2 ** (s - 4)]
            memoryview(block).cast("B")[:] = b"".join([sources[bit][key] for key, bit in zip(keys, bits)])

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
    """Feature map for disjunctions, by De Morgan: the conjunction map's literals
    negated, so feature j is its feature j on the complemented side, and the
    labels complemented (`flip`), whose predictions the wrapper swaps back."""

    flip = True

    @cached_property
    def _lexicographic(self) -> Tuple[np.ndarray, np.ndarray]:
        return tuple((table + self.d) % (2 * self.d) for table in ClauseBasis._lexicographic.func(self))


class ReducedPredictor(OnlinePredictor):
    """Run any predictor over mapped features, unmapping its predictions.

    A step is the inner predictor's own `_predict`, `_update` and
    `_tie_label`, and a trace its own `_score_blocks`, each handed the
    validated side or trace as it is: the inner predictor reads it behind
    the map as `read_through` set it to. Behind a flipped map the inner
    labels are flipped, which carries log_p and ties over unchanged.
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
        inner.read_through(mapping)

    def _predict(self, bits: np.ndarray) -> Prediction:
        pred = self.inner._predict(bits)
        return pred.flip() if self.mapping.flip else pred

    def _update(self, bits: np.ndarray, label: int) -> None:
        self.inner._update(bits, 1 - label if self.mapping.flip else label)

    def _tie_label(self, bits: np.ndarray) -> Optional[int]:
        tie = self.inner._tie_label(bits)
        return 1 - tie if tie is not None and self.mapping.flip else tie

    def _score_blocks(self, sides: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner._score_blocks(sides, 1 - labels if self.mapping.flip else labels)

    @property
    def surviving_count(self) -> int:
        """The count of columns the inner predictor still reads: survivors
        for alg1, alg2 and xi-plus, d' for madnb and bayes-exact, 0 for memorize."""
        return len(self.inner.read_columns())


class ExpandedPractical(ReducedPredictor):
    """`PracticalPredictor` over a clause basis, fed original side vectors."""

    def __init__(self, basis: ClauseBasis):
        super().__init__(PracticalPredictor(basis.d_prime), basis)


class ExpandedHybrid(ReducedPredictor):
    """`HybridPredictor` over a clause basis, fed original side vectors."""

    def __init__(self, basis: ClauseBasis):
        super().__init__(HybridPredictor(basis.d_prime), basis)
