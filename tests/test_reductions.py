import itertools
import math

import numpy as np
import pytest

from cnflearn.core import cumulative_loss
from cnflearn.predictors import HybridPredictor, PracticalPredictor
from cnflearn.reductions import (
    ClauseMap,
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
        assert basis.syntactic_tuple_count == 16

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

    @pytest.mark.parametrize("d, k", [(9, 3), (9, 9), (117, 2)])
    def test_falsified_rows_are_the_clauses_false_on_the_side(self, d, k):
        basis = build_basis(d, k)
        clauses = basis.clauses()
        rng = np.random.default_rng(d + k)
        for _ in range(4):
            side = rng.integers(0, 2, d, dtype=np.uint8)
            got = basis.falsified(side)
            want = [j for j, c in enumerate(clauses) if not clause_true(c, side, d)]
            assert got.shape[0] == sum(math.comb(d, s) for s in range(1, k + 1))
            assert np.sort(got).tolist() == want

    def test_budget_refusal_names_both_numbers(self):
        with pytest.raises(ValueError, match="1160.*100"):
            build_basis(10, 3, max_features=100)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            build_basis(0, 1)
        with pytest.raises(ValueError):
            build_basis(3, 0)


class TestExpand:
    """Clause expansion of one side, through `ClauseMap.features`."""

    def test_k1_equals_conjunction_transform(self):
        rng = np.random.default_rng(61)
        for d in (1, 2, 5, 9):
            clause_map, conj_map = ClauseMap(build_basis(d, 1)), ConjunctionMap(d)
            for _ in range(5):
                side = rng.integers(0, 2, d, dtype=np.uint8)
                assert np.array_equal(clause_map.features(side), conj_map.features(side))

    def test_matches_reference_semantics(self):
        rng = np.random.default_rng(67)
        for d, k in ((2, 2), (3, 2), (4, 3), (5, 2)):
            basis = build_basis(d, k)
            for _ in range(10):
                side = rng.integers(0, 2, d, dtype=np.uint8)
                got = ClauseMap(basis).features(side)
                want = [int(clause_true(c, side, d)) for c in basis.clauses()]
                assert got.tolist() == want

    def test_matrix_expand_agrees_rowwise(self):
        rng = np.random.default_rng(71)
        basis = build_basis(4, 3)
        sides = rng.integers(0, 2, size=(25, 4), dtype=np.uint8)
        batch = expand_matrix(basis, sides)
        for row, side in zip(batch, sides):
            assert np.array_equal(row, ClauseMap(basis).features(side))

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
        return ClauseMap(build_basis(d, k))
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
    """A map is given by `zeros` and `columns`; `features` and
    `features_matrix` derive from them."""

    CASES = [(reduction, d, k) for reduction, k in MAP_KINDS for d in (1, 4, 6)] + [
        ("conj", 117, None), ("disj", 117, None), ("kcnf", 117, 2),
    ]

    @pytest.mark.parametrize("reduction,d,k", CASES)
    def test_zeros_and_columns_match_the_features(self, reduction, d, k):
        mapping = make_map(reduction, d, k)
        rng = np.random.default_rng(d)
        sides = rng.integers(0, 2, size=(8, d), dtype=np.uint8)
        want = reference_features(reduction, d, k, sides)
        assert np.array_equal(mapping.features_matrix(sides), want)
        cols = rng.permutation(mapping.d_prime)[:40]
        assert np.array_equal(mapping.columns(sides, cols), want[:, cols])
        assert mapping.columns(sides, cols[:0]).shape == (8, 0)
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

    def test_disjunction_transform_flips_both(self):
        side = np.array([1, 0], dtype=np.uint8)
        assert DisjunctionMap(2).features(side).tolist() == [0, 1, 1, 0]
        assert DisjunctionMap.flip

    def test_disjunction_transform_is_an_involution(self):
        side = np.array([1, 0, 1], dtype=np.uint8)
        assert np.array_equal(
            DisjunctionMap(3).features(1 - side), ConjunctionMap(3).features(side)
        )


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
                features = ClauseMap(basis).features(side)
                label = int(rng.integers(0, 2))  # includes non-realizable streams
                a, b = fast.predict(side), slow.predict(features)
                assert (a.log_p0, a.log_p1) == (b.log_p0, b.log_p1)
                assert fast.tie_label(side) == slow.tie_label(features)
                fast.update(side, label)
                slow.update(features, label)
                assert np.array_equal(fast.inner._mask, slow._mask)
                assert fast.surviving_count == np.count_nonzero(slow._mask)

    def test_hybrid_equals_generic_wrapper(self):
        rng = np.random.default_rng(97)
        for d, k in self.WRAPPER_CASES:
            basis = build_basis(d, k)
            fast = ExpandedHybrid(basis)
            slow = HybridPredictor(basis.d_prime)
            for _ in range(80):
                side = rng.integers(0, 2, d, dtype=np.uint8)
                features = ClauseMap(basis).features(side)
                label = int(rng.integers(0, 2))
                a, b = fast.predict(side), slow.predict(features)
                assert (a.log_p0, a.log_p1) == (b.log_p0, b.log_p1)
                fast.update(side, label)
                slow.update(features, label)
                assert np.array_equal(fast.inner._cols.cols, slow._cols.cols)
                assert fast.surviving_count == np.count_nonzero(slow._cols.cols)

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
