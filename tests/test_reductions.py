import hashlib
import itertools
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnflearn.core import Prediction, cumulative_loss, pack_key, pack_rows, unpack_rows
from cnflearn.harness import build_predictor
from cnflearn.madnb import Madnb
from cnflearn.predictors import (
    ExactMixture,
    HeuristicMixture,
    HybridPredictor,
    Memorizer,
    PracticalPredictor,
)
from cnflearn.reductions import (
    ClauseBasis,
    ConjunctionMap,
    DisjunctionMap,
    ExpandedHybrid,
    ExpandedPractical,
    ReducedPredictor,
    basis_size,
    build_basis,
    expand_matrix,
)


def literal_true(lit, side, d):
    return bool(side[lit]) if lit < d else not side[lit - d]


def clause_true(clause, side, d):
    """Reference clause semantics, evaluated literal by literal."""
    return any(literal_true(lit, side, d) for lit in clause)


def sign_patterns(side, k):
    """The side's sign pattern on each variable subset of at most k variables,
    by size and then in `combinations` order, the first variable highest."""
    signs = side.tolist()
    return [
        sum(signs[v] << (s - 1 - i) for i, v in enumerate(subset))
        for s in range(1, min(len(signs), k) + 1)
        for subset in itertools.combinations(range(len(signs)), s)
    ]


def one_hot_bytes(patterns, word_bytes):
    """Per word of `word_bytes` bytes, byte p >> 3 is 1 << (p & 7) and every other byte is 0."""
    p = np.array(patterns, dtype=np.intp)
    out = np.zeros((p.size, word_bytes), dtype=np.uint8)
    out[np.arange(p.size), p >> 3] = np.left_shift(1, p & 7)
    return out.reshape(-1)


def reference_clause_matrix(d, k):
    """The basis by direct enumeration: every signed variable subset as a
    sorted literal tuple, in tuple order, padded with its first literal."""
    clauses = []
    for s in range(1, k + 1):
        for variables in itertools.combinations(range(d), s):
            for signs in itertools.product((0, d), repeat=s):
                clauses.append(tuple(sorted(v + off for v, off in zip(variables, signs))))
    clauses.sort()
    return np.array([c + (c[0],) * (k - len(c)) for c in clauses], dtype=np.int32)


class TestBuildBasis:
    def test_k1_is_the_literal_list(self):
        basis = build_basis(2, 1)
        assert basis.clauses() == [(0,), (1,), (2,), (3,)]

    def test_d2_k2_has_eight_clauses(self):
        basis = build_basis(2, 2)
        assert basis.d_prime == 8

    def test_size_formula_matches_enumeration(self):
        for d in (1, 2, 3, 5, 7):
            for k in (1, 2, 3):
                basis = build_basis(d, k)
                assert basis.d_prime == basis_size(d, k)
                assert len(set(basis.clauses())) == basis.d_prime

    def test_no_tautologies_or_duplicate_literals(self):
        basis = build_basis(4, 3)
        for clause in basis.clauses():
            variables = [lit % 4 for lit in clause]
            assert len(set(variables)) == len(clause)
            assert 1 <= len(clause) <= 3

    def test_sorted_lexicographically(self):
        clauses = build_basis(3, 2).clauses()
        assert clauses == sorted(clauses)

    @pytest.mark.parametrize(
        "d, k", [(d, k) for d in range(1, 8) for k in (1, 2, 3)] + [(117, 2)]
    )
    def test_clause_matrix_equals_direct_enumeration(self, d, k):
        matrix = build_basis(d, k).clause_matrix
        want = reference_clause_matrix(d, k)
        assert matrix.dtype == want.dtype and matrix.shape == want.shape
        assert np.array_equal(matrix, want)

    @pytest.mark.parametrize("d, k", [(9, 3), (9, 9), (117, 2), (7, 4)])
    def test_falsified_rows_are_the_clauses_false_on_the_side(self, d, k):
        basis = build_basis(d, k)
        clauses = basis.clauses()
        rng = np.random.default_rng(d + k)
        for _ in range(4):
            side = rng.integers(0, 2, d, dtype=np.uint8)
            got = basis.zeros(side)
            want = [j for j, c in enumerate(clauses) if not clause_true(c, side, d)]
            assert got.shape[0] == sum(math.comb(d, s) for s in range(1, k + 1))
            assert np.sort(got).tolist() == want

    # (117, 3) is the kcnf3 width; (9, 9) has 64-byte words; d < k in the rest
    @pytest.mark.parametrize("d, k, word_bytes", [(117, 3, 1), (9, 9, 64), (1, 3, 1), (2, 4, 1)])
    def test_patterns_are_the_side_signs_on_each_subset(self, d, k, word_bytes):
        """The set bit of each survivor word's bytes is the side's sign pattern
        on the word's subset: by size, in `combinations` order, the first
        variable highest."""
        basis = cached_basis(d, k)
        rng = np.random.default_rng(d + k)
        sizes = range(1, min(d, k) + 1)
        for side in [np.ones(d, dtype=np.uint8)] + [rng.integers(0, 2, d, dtype=np.uint8) for _ in range(3)]:
            before = side.copy()
            words = basis.survivors().zeros(side).reshape(-1, word_bytes)
            assert words.shape[0] == sum(math.comb(d, s) for s in sizes)
            assert (np.bitwise_count(words).sum(axis=1) == 1).all()
            byte = np.argmax(words != 0, axis=1)
            got = 8 * byte + np.log2(words[np.arange(len(words)), byte]).astype(np.intp)
            assert got.tolist() == sign_patterns(side, k)
            assert np.array_equal(side, before)

    def test_falsified_rows_are_the_zero_columns_at_k3(self):
        """The rank path that MADNB and memorize take behind a k = 3 map."""
        basis = cached_basis(117, 3)
        rng = np.random.default_rng(3)
        for _ in range(3):
            side = rng.integers(0, 2, 117, dtype=np.uint8)
            values = basis.values(side[None], slice(None))[0]
            assert np.array_equal(np.sort(basis.zeros(side)), np.flatnonzero(values == 0))

    def test_budget_refusal_names_both_numbers(self):
        # 10,587,200 clauses: refused before the matrix is allocated
        with pytest.raises(ValueError, match="10587200.*4000000"):
            build_basis(200, 3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            build_basis(0, 1)
        with pytest.raises(ValueError):
            build_basis(3, 0)


class TestExpand:
    """Clause expansion of one side, through `ClauseBasis.features`."""

    def test_k1_equals_conjunction_transform(self):
        rng = np.random.default_rng(61)
        for d in (1, 2, 5, 9):
            clause_map, conj_map = build_basis(d, 1), ConjunctionMap(d)
            for _ in range(5):
                side = rng.integers(0, 2, d, dtype=np.uint8)
                assert np.array_equal(clause_map.features(side), conj_map.features(side))

    def test_matches_reference_semantics(self):
        rng = np.random.default_rng(67)
        for d, k in ((2, 2), (3, 2), (4, 3), (5, 2)):
            basis = build_basis(d, k)
            for _ in range(10):
                side = rng.integers(0, 2, d, dtype=np.uint8)
                got = basis.features(side)
                want = [int(clause_true(c, side, d)) for c in basis.clauses()]
                assert got.tolist() == want

    def test_matrix_expand_agrees_rowwise(self):
        rng = np.random.default_rng(71)
        basis = build_basis(4, 3)
        sides = rng.integers(0, 2, size=(25, 4), dtype=np.uint8)
        batch = expand_matrix(basis, sides)
        for row, side in zip(batch, sides):
            assert np.array_equal(row, basis.features(side))

    def test_injective(self):
        # alg1 keys its negative store by the unmapped side behind every map,
        # which is exact only when no two sides share an image
        for reduction, k in MAP_KINDS:
            mapping = make_map(reduction, 3, k)
            images = {
                tuple(mapping.features(np.array(side, dtype=np.uint8)))
                for side in itertools.product((0, 1), repeat=3)
            }
            assert len(images) == 8, (reduction, k)


MAP_KINDS = (("conj", None), ("disj", None), ("kcnf", 1), ("kcnf", 2), ("kcnf", 3))


def make_map(reduction, d, k):
    if reduction == "kcnf":
        return build_basis(d, k)
    return {"conj": ConjunctionMap, "disj": DisjunctionMap}[reduction](d)


def reference_features(reduction, d, k, sides):
    """Mapped rows by definition: literal columns, their complements under
    De Morgan, or the truth of each directly enumerated clause."""
    lits = np.concatenate([sides, 1 - sides], axis=1)
    if reduction == "conj":
        return lits
    if reduction == "disj":
        return 1 - lits
    return lits[:, reference_clause_matrix(d, k)].any(axis=2).astype(np.uint8)


class TestMapContract:
    """A map is given by `zeros` and `columns`, a word formula on the
    `pack_rows` words of a block; `features` and `values` derive from them."""

    CASES = [(reduction, d, k) for reduction, k in MAP_KINDS for d in (1, 4, 6)] + [
        ("conj", 117, None), ("disj", 117, None), ("kcnf", 117, 2),
    ]

    @pytest.mark.parametrize("reduction,d,k", CASES)
    def test_zeros_and_columns_match_the_features(self, reduction, d, k):
        mapping = make_map(reduction, d, k)
        rng = np.random.default_rng(d)
        cols = rng.permutation(mapping.d_prime)[:40]
        # row counts at the edges of the 64-row words
        for n in (0, 1, 8, 63, 64, 65, 127, 129):
            sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
            want = reference_features(reduction, d, k, sides)
            assert np.array_equal(mapping.values(sides, slice(None)), want)
            words = mapping.columns(pack_rows(sides), cols)
            assert words.shape == (len(cols), max(1, -(-n // 64)))
            assert np.array_equal(unpack_rows(words, n), want[:, cols])
            assert mapping.columns(pack_rows(sides), cols[:0]).shape == (0, words.shape[1])
        for side, row in zip(sides, want):
            assert np.array_equal(mapping.features(side), row)
            # each zero feature exactly once
            assert np.array_equal(np.sort(mapping.zeros(side)), np.flatnonzero(row == 0))


class TestTransforms:
    """The conjunction and disjunction transforms, through the map classes."""

    def test_conjunction_transform(self):
        side = np.array([1, 0], dtype=np.uint8)
        assert ConjunctionMap(2).features(side).tolist() == [1, 0, 0, 1]
        assert not ConjunctionMap.flip
        # the k=1 clause basis, but named as no k-CNF map
        assert ConjunctionMap(2).basis is None

    def test_disjunction_transform_flips_both(self):
        side = np.array([1, 0], dtype=np.uint8)
        assert DisjunctionMap(2).features(side).tolist() == [0, 1, 1, 0]
        assert DisjunctionMap.flip
        assert DisjunctionMap(2).basis is None

    def test_each_map_prints_as_its_own_class(self):
        assert repr(build_basis(3, 2)) == "ClauseBasis(d=3, k=2, d_prime=18)"
        assert repr(ConjunctionMap(3)) == "ConjunctionMap(d=3, k=1, d_prime=6)"
        assert repr(DisjunctionMap(3)) == "DisjunctionMap(d=3, k=1, d_prime=6)"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda d: st.lists(st.integers(0, 1), min_size=d, max_size=d)))
    def test_disjunction_transform_is_an_involution(self, side):
        side = np.array(side, dtype=np.uint8)
        d = side.size
        assert np.array_equal(DisjunctionMap(d).features(1 - side), ConjunctionMap(d).features(side))

    @pytest.mark.parametrize("d", [*range(1, 9), 117])
    def test_disjunction_features_are_the_conjunction_literals_negated(self, d):
        mapping = DisjunctionMap(d)
        assert [mapping.clause(j) for j in range(2 * d)] == [((j + d) % (2 * d),) for j in range(2 * d)]
        assert mapping.clauses() == [((j + d) % (2 * d),) for j in range(2 * d)]
        # the rank table is the conjunction map's, negated
        assert np.array_equal(mapping.rank, (ConjunctionMap(d).rank + d) % (2 * d))
        assert mapping.clause_matrix.dtype == mapping.rank.dtype == np.int32

    @pytest.mark.parametrize("reduction", ["conj", "disj"])
    def test_a_step_checks_one_prediction_behind_either_map(self, reduction, monkeypatch):
        # behind disj the wrapper swaps the inner prediction without checking it again
        predictor = build_predictor("alg2", 117, reduction)[0]
        side = np.random.default_rng(117).integers(0, 2, 117, dtype=np.uint8)
        checked = []
        check = Prediction.__post_init__
        monkeypatch.setattr(Prediction, "__post_init__", lambda p: checked.append(p) or check(p))
        for label in (1, 0, 1):
            predictor.predict(side)
            predictor.update(side, label)
        assert len(checked) == 3


def _general_conjunction_labels(sides, on_literals, d):
    out = []
    for side in sides:
        out.append(int(all(literal_true(lit, side, d) for lit in on_literals)))
    return out


class TestReducedPredictor:
    def test_general_conjunction_is_realizable_through_conj_map(self):
        rng = np.random.default_rng(73)
        d, n = 4, 120
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        labels = _general_conjunction_labels(sides, (0, 5), d)  # x0 and not-x1
        predictor = ReducedPredictor(PracticalPredictor(2 * d), ConjunctionMap(d))
        ledger = cumulative_loss(predictor, zip(sides, labels))
        assert ledger.total_bits <= (2 * d + 1) * math.log2(n + 1) + 1e-9

    def test_disjunction_reduces_with_flipped_labels(self):
        rng = np.random.default_rng(79)
        d, n = 4, 150
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        labels = [int(s[0] or s[2]) for s in sides]
        predictor = ReducedPredictor(PracticalPredictor(2 * d), DisjunctionMap(d))
        ledger = cumulative_loss(predictor, zip(sides, labels))
        assert ledger.total_bits <= (2 * d + 1) * math.log2(n + 1) + 1e-9

    def test_flip_preserves_per_step_loss(self):
        # running the inner predictor on the flipped stream by hand must
        # cost exactly the same bits
        rng = np.random.default_rng(83)
        d, n = 3, 60
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        labels = [int(s[1] or not s[2]) for s in sides]
        outer = ReducedPredictor(PracticalPredictor(2 * d), DisjunctionMap(d))
        inner = PracticalPredictor(2 * d)
        for side, label in zip(sides, labels):
            got = outer.predict(side).loss_bits(label)
            # De Morgan by hand: negate the side and the label
            features, flabel = np.concatenate([1 - side, side]), 1 - label
            want = inner.predict(features).loss_bits(flabel)
            assert got == want
            outer.update(side, label)
            inner.update(features, flabel)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReducedPredictor(PracticalPredictor(3), ConjunctionMap(3))

    @pytest.mark.parametrize("inner", [HeuristicMixture, HybridPredictor, Memorizer])
    def test_tie_label_behind_a_map_builds_no_feature_row(self, inner, monkeypatch):
        d = 6
        predictor = ReducedPredictor(inner(2 * d), ConjunctionMap(d))
        side = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        predictor.update(side, 1)
        other = side.copy()
        other[0] = 0  # switches exactly one surviving feature off
        rows = []
        features = ConjunctionMap.features

        def recorded(self, bits):
            rows.append(len(bits))
            return features(self, bits)

        # a feature row is built only by the map's reader, `read` or `features`
        monkeypatch.setattr(ConjunctionMap, "read", recorded)
        monkeypatch.setattr(ConjunctionMap, "features", recorded)
        if inner is not HybridPredictor:
            assert predictor.predict(other).log_p1 == -1.0  # a 1/2 tie
        assert predictor.tie_label(other) is None
        assert rows == []

    # bayes-exact only where d' <= 20: 2d behind conj, 2d**2 behind kcnf2
    @pytest.mark.parametrize(
        "inner,reduction,k,d",
        [
            (Madnb, "conj", None, 6),
            (Madnb, "kcnf", 2, 6),
            (ExactMixture, "conj", None, 6),
            (ExactMixture, "kcnf", 2, 3),
        ],
    )
    def test_tie_label_of_a_feature_row_reader_reads_no_side(self, inner, reduction, k, d, monkeypatch):
        mapping = make_map(reduction, d, k)
        predictor = ReducedPredictor(inner(mapping.d_prime), mapping)
        rng = np.random.default_rng(107)
        for side in rng.integers(0, 2, size=(4, d), dtype=np.uint8):
            predictor.update(side, 1)
        calls = []

        def spy(name):
            method = getattr(ClauseBasis, name)

            def recorded(self, bits):
                calls.append(name)
                return method(self, bits)

            return recorded

        # `read` is bound to `features` when the class is made, so spy on both
        for name in ("read", "features", "zeros"):
            monkeypatch.setattr(ClauseBasis, name, spy(name))
        assert predictor.tie_label(rng.integers(0, 2, d, dtype=np.uint8)) is None
        assert calls == []

    @pytest.mark.parametrize(
        "inner,reduction,k,d",
        [
            (Madnb, "conj", None, 6),
            (Madnb, "disj", None, 6),
            (Madnb, "kcnf", 2, 6),
            (ExactMixture, "conj", None, 6),
            (ExactMixture, "kcnf", 2, 3),
        ],
    )
    def test_feature_row_reader_builds_a_side_once_a_step(self, inner, reduction, k, d, monkeypatch):
        mapping = make_map(reduction, d, k)
        predictor = ReducedPredictor(inner(mapping.d_prime), mapping)
        rng = np.random.default_rng(109)
        sides = rng.integers(0, 2, size=(24, d), dtype=np.uint8)
        sides[1::2] = 1 - sides[::2]
        assert (sides[1:] != sides[:-1]).any(axis=1).all()  # no side repeats the one before
        labels = sides[:, 0]  # x0: a conjunction, a disjunction and a 2-CNF
        zeros, calls = ClauseBasis.zeros, []

        def recorded(self, bits):
            calls.append(pack_key(bits))
            return zeros(self, bits)

        monkeypatch.setattr(ClauseBasis, "zeros", recorded)
        for step, (side, label) in enumerate(zip(sides, labels)):
            predictor.predict(side)
            predictor.update(side, label)
            # predict and update read the side's feature row once between them
            assert calls == [pack_key(side) for side in sides[: step + 1]]

    def test_two_madnb_predictors_on_one_basis_step_as_each_alone(self):
        """The basis keeps one survivor form for its feature rows, rebuilt for
        each side it reads, so MADNB predictors stepped alternately on one
        kcnf2 basis predict as each does alone."""
        basis = build_basis(6, 2)
        rng = np.random.default_rng(61)
        streams = rng.integers(0, 2, (2, 30, 6), dtype=np.uint8)
        labels = rng.integers(0, 2, (2, 30))

        def step(predictor, side, label):
            pred = predictor.predict(side)
            predictor.update(side, label)
            return pred

        alone, shared = ([ReducedPredictor(Madnb(basis.d_prime), basis) for _ in streams] for _ in range(2))
        want = [[step(p, *row) for row in zip(sides, ys.tolist())] for p, sides, ys in zip(alone, streams, labels)]
        got = [[], []]
        for rows in zip(*(zip(sides, ys.tolist()) for sides, ys in zip(streams, labels))):
            for predictor, row, out in zip(shared, rows, got):
                out.append(step(predictor, *row))
        assert got == want

    @pytest.mark.parametrize("reduction,k", MAP_KINDS)
    def test_memorizer_keys_the_unmapped_side_and_reads_no_column(self, reduction, k, monkeypatch):
        d = 4
        mapping = make_map(reduction, d, k)
        read = []
        columns = type(mapping).columns

        def recorded(self, words, cols):
            read.append(len(cols))
            return columns(self, words, cols)

        monkeypatch.setattr(type(mapping), "columns", recorded)
        monkeypatch.setattr(type(mapping), "zeros", None)  # no step reads a zero set
        predictor = ReducedPredictor(Memorizer(mapping.d_prime), mapping)
        rng = np.random.default_rng(k or 0)
        sides = rng.integers(0, 2, size=(150, d), dtype=np.uint8)
        labels = rng.integers(0, 2, size=150, dtype=np.uint8)
        predictor.score_trace(sides[:100], labels[:100])
        for side, label in zip(sides[100:], labels[100:]):
            predictor.predict(side)
            predictor.update(side, label)
        assert read == []
        assert set(predictor.inner._store) == {pack_key(side) for side in sides}
        assert len(predictor.inner) == len({pack_key(side) for side in sides})


def _kcnf_labels(basis, chosen, sides):
    """Labels of the CNF made of the chosen clause indices, by reference."""
    labels = []
    for side in sides:
        labels.append(
            int(all(clause_true(basis.clause(j), side, basis.d) for j in chosen))
        )
    return labels


class TestExpandedPredictors:
    # k = 3 bases exercise sign patterns and subsets of every size up to 3
    WRAPPER_CASES = ((3, 2), (5, 3), (6, 3))

    def test_practical_equals_generic_wrapper(self):
        # the reference is the plain predictor fed the expansion by hand
        rng = np.random.default_rng(89)
        for d, k in self.WRAPPER_CASES:
            basis = build_basis(d, k)
            fast = ExpandedPractical(basis)
            slow = PracticalPredictor(basis.d_prime)
            for _ in range(80):
                side = rng.integers(0, 2, d, dtype=np.uint8)
                features = basis.features(side)
                label = int(rng.integers(0, 2))  # includes non-realizable streams
                a, b = fast.predict(side), slow.predict(features)
                assert (a.log_p0, a.log_p1) == (b.log_p0, b.log_p1)
                assert fast.tie_label(side) == slow.tie_label(features)
                fast.update(side, label)
                slow.update(features, label)
                # the word-per-subset state, read as a mask over every clause
                assert np.array_equal(fast.inner.survivor_mask(), slow._mask)
                assert fast.surviving_count == np.count_nonzero(slow._mask)

    def test_hybrid_equals_generic_wrapper(self):
        rng = np.random.default_rng(97)
        for d, k in self.WRAPPER_CASES:
            basis = build_basis(d, k)
            fast = ExpandedHybrid(basis)
            slow = HybridPredictor(basis.d_prime)
            for _ in range(80):
                side = rng.integers(0, 2, d, dtype=np.uint8)
                features = basis.features(side)
                label = int(rng.integers(0, 2))
                a, b = fast.predict(side), slow.predict(features)
                assert (a.log_p0, a.log_p1) == (b.log_p0, b.log_p1)
                fast.update(side, label)
                slow.update(features, label)
                # the word-per-subset state, read as a mask over every clause
                assert np.array_equal(fast.inner.survivor_mask(), slow._mask)
                assert fast.surviving_count == np.count_nonzero(slow._mask)

    def test_kcnf_target_is_realizable_for_both(self):
        rng = np.random.default_rng(101)
        d, k, n = 4, 2, 200
        basis = build_basis(d, k)
        chosen = [j for j in range(basis.d_prime) if rng.random() < 0.25]
        sides = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        labels = _kcnf_labels(basis, chosen, sides)
        dp = basis.d_prime
        practical = cumulative_loss(ExpandedPractical(basis), zip(sides, labels))
        assert practical.total_bits <= (dp + 1) * math.log2(n + 1) + 1e-9
        hybrid = cumulative_loss(ExpandedHybrid(basis), zip(sides, labels))
        assert hybrid.total_bits <= 2.0 * dp * dp + 1e-9

    def test_survivor_set_shrinks_only_on_positives(self):
        basis = build_basis(3, 2)
        p = ExpandedPractical(basis)
        before = p.surviving_count
        p.update([0, 0, 0], 0)
        assert p.surviving_count == before
        p.update([1, 0, 1], 1)
        assert p.surviving_count < before


# the predictors that keep their survivors as one word per variable subset
WORD_PREDICTORS = {"alg1": HybridPredictor, "alg2": PracticalPredictor, "xi-plus": HeuristicMixture}
_BASES = {}


def cached_basis(d, k):
    if (d, k) not in _BASES:
        _BASES[d, k] = build_basis(d, k)
    return _BASES[d, k]


@st.composite
def word_runs(draw):
    # (9, 9) gives subsets whose words are wider than one byte
    d, k = draw(st.one_of(st.tuples(st.integers(1, 7), st.sampled_from([1, 2, 3, 4])), st.just((9, 9))))
    # the conjunction and disjunction maps are the k = 1 basis, the second flipped
    mapping = draw(st.sampled_from(["kcnf", "conj", "disj"]))
    algorithm = draw(st.sampled_from(sorted(WORD_PREDICTORS)))
    n = draw(st.integers(0, 40))
    cut1 = draw(st.integers(0, n))
    cut2 = draw(st.integers(cut1, n))
    return algorithm, mapping, d, k, n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()), cut1, cut2


class CountingPractical(PracticalPredictor):
    """alg2 whose tie label counts every failed survivor, read through `_reader.zeros`."""

    def _tie_label(self, bits):
        return 0 if np.count_nonzero(self._mask & self._reader.zeros(bits)) else 1


@st.composite
def variable_first_runs(draw):
    # (7, 4) and (30, 4) have words of more than one byte; k = None is the unmapped predictor
    d, k = draw(st.one_of(
        st.tuples(st.integers(3, 12), st.just(2)),
        st.tuples(st.integers(3, 9), st.just(3)),
        st.sampled_from([(4, 4), (7, 4), (30, 4)]),
        st.tuples(st.integers(2, 12), st.sampled_from(["conj", "disj", None])),
    ))
    return d, k, draw(st.integers(0, 60)), draw(st.integers(0, 2 ** 32 - 1))


class TestSubsetWords:
    """alg1, alg2 and xi-plus behind a clause basis keep one word per variable
    subset; each must behave as the plain predictor fed the clause rows (and,
    behind a flipped map, the flipped labels)."""

    @staticmethod
    def trace(mapping, seed, coin_flip, n):
        """Sides, and labels realizable behind the map unless `coin_flip`."""
        rng = np.random.default_rng(seed)
        # few distinct sides, so alg1's negative store is read
        pool = rng.integers(0, 2, size=(6, mapping.d), dtype=np.uint8)
        sides = pool[rng.integers(0, len(pool), size=n)]
        if coin_flip:
            return sides, rng.integers(0, 2, size=n, dtype=np.uint8)
        chosen = np.flatnonzero(rng.random(mapping.d_prime) < 3 / mapping.d_prime)
        features = mapping.values(sides, slice(None))
        return sides, features[:, chosen].all(axis=1).astype(np.uint8) ^ mapping.flip

    @staticmethod
    def steps(predictor, rows, labels, survivors, flip=False):
        """predict/update over the rows: each step's prediction, tie label and
        survivor mask after it, the first two flipped back if `flip`."""
        out = []
        for row, label in zip(rows, labels.tolist()):
            pred = predictor.predict(row)
            tie = predictor.tie_label(row)
            predictor.update(row, label)
            if flip:
                pred, tie = pred.flip(), None if tie is None else 1 - tie
            out.append(((pred.log_p0, pred.log_p1), tie, survivors(predictor).tolist()))
        return out

    @staticmethod
    def loop(predictor, rows, labels):
        out = []
        for row, label in zip(rows, labels.tolist()):
            out.append(predictor.predict(row).log_prob(label))
            predictor.update(row, label)
        return out

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(word_runs())
    def test_matches_the_plain_predictor_on_clause_rows(self, case):
        algorithm, kind, d, k, n, seed, coin_flip, cut1, cut2 = case
        mapping = {
            "kcnf": lambda: cached_basis(d, k),
            "conj": lambda: ConjunctionMap(d),
            "disj": lambda: DisjunctionMap(d),
        }[kind]()
        sides, labels = self.trace(mapping, seed, coin_flip, n)
        features = np.array([mapping.features(side) for side in sides], dtype=np.uint8).reshape(n, mapping.d_prime)
        inner_labels = labels ^ mapping.flip
        make_plain = lambda: WORD_PREDICTORS[algorithm](mapping.d_prime)
        make_words = lambda: ReducedPredictor(make_plain(), mapping)
        survivors = lambda p: getattr(p, "inner", p).survivor_mask()

        # per step: the same predictions, tie labels and survivors
        words, plain = make_words(), make_plain()
        want = self.steps(plain, features, inner_labels, survivors, mapping.flip)
        assert self.steps(words, sides, labels, survivors) == want
        assert np.array_equal(survivors(plain), plain._mask)
        want_bits = [pred[label] for (pred, _, _), label in zip(want, labels.tolist())]

        # score_trace, and runs that switch between it and predict/update
        for cuts in ((0, 0), (0, n), (cut1, cut2)):
            runs = []
            for predictor, rows, ys in ((make_words(), sides, labels), (make_plain(), features, inner_labels)):
                head = self.loop(predictor, rows[: cuts[0]], ys[: cuts[0]])
                log_p, correct = predictor.score_trace(rows[cuts[0] : cuts[1]], ys[cuts[0] : cuts[1]])
                tail = self.loop(predictor, rows[cuts[1] :], ys[cuts[1] :])
                runs.append((head, log_p.tolist(), correct.tolist(), tail, survivors(predictor).tolist()))
            assert runs[0] == runs[1]
            # and both end where predict/update alone does
            assert runs[0][4] == (want[-1][2] if n else survivors(make_plain()).tolist())
            got_bits = runs[0][0] + runs[0][1] + runs[0][3]
            assert np.allclose(got_bits, want_bits, rtol=0.0, atol=1e-9)

    # (9, 9), (2, 4), (7, 4) and (30, 4) have words of more than one byte; "disj" is the negated k = 1 map
    @pytest.mark.parametrize("d, k", [(117, 3), (9, 9), (1, 3), (2, 4), (7, 4), (30, 4), (6, "disj")])
    def test_one_hot_bytes_are_each_words_pattern_bit(self, d, k):
        """A side's zero set in the survivor form, one byte array the size of
        the state: per word, byte p >> 3 is 1 << (p & 7) and every other byte
        is 0, p the side's sign pattern on the word's subset."""
        mapping = DisjunctionMap(d) if k == "disj" else cached_basis(d, k)
        reader = mapping.survivors()
        sides = np.random.default_rng(d).integers(0, 2, (5, d), dtype=np.uint8)
        sides[:2] = [[0], [1]]
        for side in sides:
            p = sign_patterns(side, 1 if k == "disj" else k)
            zeros = reader.zeros(side)
            assert zeros.dtype == np.uint8 and zeros.shape == reader.full.shape
            assert np.array_equal(zeros, one_hot_bytes(p, reader.full.size // len(p)))

    @settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(variable_first_runs())
    def test_alg2_reads_the_variables_first_as_it_counts_every_failed_survivor(self, case):
        """Per step the same prediction and tie label, and at the end the same
        `_mask`, as alg2 counting every failed survivor. The trace starts with
        two positives that disagree on free variables f and g, both 0 and then
        both 1, and a side that agrees with them elsewhere and is 0 on f and 1
        on g: it fails the surviving clause on (f, g) and no surviving literal."""
        d, k, n, seed = case
        k_cnf = isinstance(k, int)
        mapping = cached_basis(d, k) if k_cnf else {"conj": ConjunctionMap(d), "disj": DisjunctionMap(d), None: None}[k]
        rng = np.random.default_rng(seed)
        base, free = rng.integers(0, 2, d, dtype=np.uint8), rng.permutation(d)[: rng.integers(2, d + 1)]
        sides = np.repeat(base[None], n + 3, axis=0)
        sides[:, free] = rng.integers(0, 2, (n + 3, free.size), dtype=np.uint8)
        sides[:2, free], sides[2, free[:2]] = [[0], [1]], [0, 1]
        wild = rng.random(n + 3) < 0.3  # some sides drawn whole, which may fail a literal
        wild[:3] = False
        sides[wild] = rng.integers(0, 2, (int(wild.sum()), d), dtype=np.uint8)
        labels = np.where(wild, rng.integers(0, 2, n + 3), rng.random(n + 3) < 0.6).astype(np.uint8)
        labels[:3] = 1, 1, rng.integers(0, 2)
        make = lambda cls: cls(d) if mapping is None else ReducedPredictor(cls(mapping.d_prime), mapping)
        got, want = make(PracticalPredictor), make(CountingPractical)
        inner = getattr(got, "inner", got)
        assert (inner._reader.variables is not None) == k_cnf
        for t, (side, label) in enumerate(zip(sides, labels.tolist())):
            if t == 2 and k_cnf:
                assert not (inner._mask[inner._reader.variables] & (side + 1)).any() and got.tie_label(side) == 0
            steps = []
            for predictor in (got, want):
                pred = predictor.predict(side)
                steps.append(((pred.log_p0, pred.log_p1), predictor.tie_label(side)))
                predictor.update(side, label)
            assert steps[0] == steps[1]
        assert np.array_equal(inner._mask, getattr(want, "inner", want)._mask)

    def test_two_survivor_forms_of_one_basis_step_with_their_own_bytes(self):
        basis = cached_basis(117, 3)
        rng = np.random.default_rng(23)
        streams = rng.integers(0, 2, (2, 6, 117), dtype=np.uint8)
        readers = [basis.survivors() for _ in streams]
        for sides in zip(*streams):
            got = [reader.zeros(side) for reader, side in zip(readers, sides)]
            for zeros, side in zip(got, sides):
                assert np.array_equal(zeros, one_hot_bytes(sign_patterns(side, 3), 1))

        # alg2 on one basis twice, both predicting before either updates, against each run alone
        def step(predictor, side):
            pred = predictor.predict(side)
            predictor.update(side, 1)
            return pred

        alone, shared = ([ExpandedPractical(basis) for _ in streams] for _ in range(2))
        want = [[step(predictor, side) for side in sides] for predictor, sides in zip(alone, streams)]
        got = [[], []]
        for sides in zip(*streams):
            preds = [predictor.predict(side) for predictor, side in zip(shared, sides)]
            for predictor, side, pred, out in zip(shared, sides, preds, got):
                predictor.update(side, 1)
                out.append(pred)
        assert got == want
        assert all(np.array_equal(p.inner._mask, q.inner._mask) for p, q in zip(shared, alone))


class TestPatternReads:
    """Behind a basis of wider clauses a step's one-hot subset bytes, built
    by the suffix recurrence (`_grow`), are its costliest read."""

    @staticmethod
    def recorded(monkeypatch):
        calls = []
        grow = ClauseBasis._grow

        def recorded(self, joins, bits):
            calls.append(bits.copy())
            return grow(self, joins, bits)

        monkeypatch.setattr(ClauseBasis, "_grow", recorded)
        return calls

    # at K = 4 too, whose words are two bytes
    @pytest.mark.parametrize(
        "algorithm, d, k",
        [pytest.param(a, 117, 3, id=a) for a in sorted(WORD_PREDICTORS)]
        + [pytest.param(a, 12, 4, id=f"{a}-k4") for a in sorted(WORD_PREDICTORS)],
    )
    def test_one_step_builds_its_patterns_once(self, algorithm, d, k, monkeypatch):
        basis = cached_basis(d, k)
        calls = self.recorded(monkeypatch)
        predictor = ReducedPredictor(WORD_PREDICTORS[algorithm](basis.d_prime), basis)
        side = np.random.default_rng(117).integers(0, 2, d, dtype=np.uint8)
        predictor.predict(side)
        predictor.tie_label(side)
        predictor.update(side, 1)
        assert len(calls) == 1 and np.array_equal(calls[0], side)
        assert predictor.inner.read_columns().size < basis.d_prime

    def test_survivor_steps_write_nothing_on_the_basis(self):
        """alg1, alg2 and xi-plus steps at k = 3 leave the shared basis's
        attributes as they were: no survivor form, rank or clause table."""
        basis = build_basis(9, 3)
        before = dict(vars(basis))
        rng = np.random.default_rng(9)
        sides, labels = rng.integers(0, 2, (24, 9), dtype=np.uint8), rng.integers(0, 2, 24)
        for cls in WORD_PREDICTORS.values():
            predictor = ReducedPredictor(cls(basis.d_prime), basis)
            for side, label in zip(sides, labels.tolist()):
                predictor.predict(side)
                predictor.tie_label(side)
                predictor.update(side, label)
        assert vars(basis).keys() == before.keys()
        assert all(vars(basis)[name] is value for name, value in before.items())

    def test_memorised_negative_builds_no_patterns(self, monkeypatch):
        basis = cached_basis(117, 3)
        calls = self.recorded(monkeypatch)
        predictor = ExpandedHybrid(basis)
        side, other = np.random.default_rng(3).integers(0, 2, (2, 117), dtype=np.uint8)
        predictor.update(side, 0)
        predictor.update(other, 1)  # the last patterns built are another side's
        built = len(calls)
        assert predictor.predict(side) == Prediction.certain(0)
        assert len(calls) == built

    def test_a_failed_surviving_variable_builds_no_clause_bytes(self, monkeypatch):
        """alg2 at k = 3 reads a side's failed literals from the variables'
        bytes first, and builds the clause bytes only to count or to update."""
        basis = cached_basis(117, 3)
        calls = self.recorded(monkeypatch)
        predictor = ExpandedPractical(basis)
        first = np.random.default_rng(5).integers(0, 2, 117, dtype=np.uint8)
        predictor.update(first, 1)
        assert len(calls) == 1
        side = first.copy()
        side[0] ^= 1  # fails the surviving literal that `first` makes true on variable 0
        pred = predictor.predict(side)
        assert pred.log_p0 > pred.log_p1 and predictor.tie_label(side) == 0
        predictor.update(side, 0)
        assert len(calls) == 1
        predictor.update(side, 1)
        assert len(calls) == 2 and np.array_equal(calls[-1], side)
        assert predictor.inner._mask[0] == 0


def lexicographic_builds(monkeypatch, fail=False):
    """Records each build of `clause_matrix` and `rank`; with `fail`, a build fails the test."""
    build, calls = ClauseBasis.__dict__["_lexicographic"].func, []

    def recorded(basis):
        if fail:
            pytest.fail(f"the clause matrix and rank table of {basis} were built")
        calls.append((basis.d, basis.k))
        return build(basis)

    lazy = cached_property(recorded)
    lazy.__set_name__(ClauseBasis, "_lexicographic")
    monkeypatch.setattr(ClauseBasis, "_lexicographic", lazy)
    return calls


class TestLexicographicOrderOnRead:
    """The clause matrix and rank table are built on their first read, and
    the survivor path of alg1, alg2 and xi-plus never reads them."""

    def test_survivor_steps_build_neither(self, monkeypatch):
        lexicographic_builds(monkeypatch, fail=True)
        basis = build_basis(117, 3)
        predictors = [build_predictor(algorithm, 117, "kcnf", 3)[0] for algorithm in sorted(WORD_PREDICTORS)]
        predictors += [ExpandedPractical(basis), ExpandedHybrid(basis)]
        for seed, predictor in enumerate(predictors):
            sides = np.random.default_rng(seed).integers(0, 2, (24, 117), dtype=np.uint8)
            # every third side a negative, which alg1 memorises
            for t, side in enumerate(sides):
                predictor.predict(side)
                predictor.tie_label(side)
                predictor.update(side, int(t % 3 != 2))
            assert predictor.basis.d_prime == basis.d_prime == basis_size(117, 3)
            assert 0 < predictor.surviving_count < basis.d_prime

    def test_feature_rows_and_clauses_build_both_once(self, monkeypatch):
        builds = lexicographic_builds(monkeypatch)
        predictor = build_predictor("madnb", 117, "kcnf", 3)[0]
        assert builds == []
        side = np.random.default_rng(0).integers(0, 2, 117, dtype=np.uint8)
        predictor.predict(side)
        predictor.update(side, 1)
        assert builds == [(117, 3)]
        basis = build_basis(4, 3)
        assert builds == [(117, 3)]
        assert len(basis.clauses()) == basis_size(4, 3)
        assert np.array_equal(basis.clause_matrix, reference_clause_matrix(4, 3))
        assert builds == [(117, 3), (4, 3)]

    # recorded when the whole basis was built at once
    @pytest.mark.parametrize(
        "k, matrix_md5, rank_md5",
        [
            (2, "3aa7da41535d6c87565f12a668e1fe04", "5c963fe6344c2ec35633f96e7a5e7732"),
            (3, "477b5406885a0a90f6ede8ecd39c6317", "fe37cf611de71903bd844927a11685a4"),
        ],
    )
    def test_order_is_pinned_at_the_benchmark_width(self, k, matrix_md5, rank_md5):
        basis = cached_basis(117, k)
        assert hashlib.md5(basis.clause_matrix.tobytes()).hexdigest() == matrix_md5
        assert hashlib.md5(basis.rank.tobytes()).hexdigest() == rank_md5
