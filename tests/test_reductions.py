import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnflearn.core import Prediction, cumulative_loss, pack_key, pack_rows, unpack_rows
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
            got = ClauseMap(basis).zeros(side)
            want = [j for j, c in enumerate(clauses) if not clause_true(c, side, d)]
            assert got.shape[0] == sum(math.comb(d, s) for s in range(1, k + 1))
            assert np.sort(got).tolist() == want

    # (117, 3) is the kcnf3 width; (9, 9) has uint16 patterns; d < k in the rest
    @pytest.mark.parametrize(
        "d, k, dtype", [(117, 3, np.uint8), (9, 9, np.uint16), (1, 3, np.uint8), (2, 4, np.uint8)]
    )
    def test_patterns_are_the_side_signs_on_each_subset(self, d, k, dtype):
        """By size, in `combinations` order, the first variable highest."""
        basis = cached_basis(d, k)
        rng = np.random.default_rng(d + k)
        sizes = range(1, min(d, k) + 1)
        for side in [np.ones(d, dtype=np.uint8)] + [rng.integers(0, 2, d, dtype=np.uint8) for _ in range(3)]:
            before = side.copy()
            signs = side.tolist()
            want = [
                sum(signs[v] << (s - 1 - i) for i, v in enumerate(subset))
                for s in sizes
                for subset in itertools.combinations(range(d), s)
            ]
            got = basis.patterns(side)
            assert got.dtype == dtype
            assert got.shape == (sum(math.comb(d, s) for s in sizes),)
            assert got.tolist() == want
            assert np.array_equal(side, before)

    def test_falsified_rows_are_the_zero_columns_at_k3(self):
        """The rank path that MADNB and memorize take behind a k = 3 map."""
        basis = cached_basis(117, 3)
        rng = np.random.default_rng(3)
        for _ in range(3):
            side = rng.integers(0, 2, 117, dtype=np.uint8)
            values = ClauseMap(basis).features_matrix(side[None])[0]
            assert np.array_equal(np.sort(ClauseMap(basis).zeros(side)), np.flatnonzero(values == 0))

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
    """A map is given by `zeros` and `columns`, a word formula on the
    `pack_rows` words of a block; `features` and `features_matrix` derive
    from them."""

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
            assert np.array_equal(mapping.features_matrix(sides), want)
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
        # the k=1 clause map, but named as no k-CNF map
        assert ConjunctionMap(2).basis is None

    def test_disjunction_transform_flips_both(self):
        side = np.array([1, 0], dtype=np.uint8)
        assert DisjunctionMap(2).features(side).tolist() == [0, 1, 1, 0]
        assert DisjunctionMap.flip
        assert DisjunctionMap(2).basis is None

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
            method = getattr(ClauseMap, name)

            def recorded(self, bits):
                calls.append(name)
                return method(self, bits)

            return recorded

        # `read` is bound to `features` when the class is made, so spy on both
        for name in ("read", "features", "patterns"):
            monkeypatch.setattr(ClauseMap, name, spy(name))
        assert predictor.tie_label(rng.integers(0, 2, d, dtype=np.uint8)) is None
        assert calls == []

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
        assert read and not any(read)
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
                features = ClauseMap(basis).features(side)
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
                features = ClauseMap(basis).features(side)
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


class TestSubsetWords:
    """alg1, alg2 and xi-plus behind a `ClauseMap` keep one word per variable
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
        features = mapping.features_matrix(sides)
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
            "kcnf": lambda: ClauseMap(cached_basis(d, k)),
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


class TestPatternReads:
    """Behind the k = 3 basis a step's sign patterns are its costliest read."""

    @staticmethod
    def recorded(monkeypatch):
        calls = []
        patterns = ClauseBasis.patterns

        def recorded(self, bits):
            calls.append(bits.copy())
            return patterns(self, bits)

        monkeypatch.setattr(ClauseBasis, "patterns", recorded)
        return calls

    @pytest.mark.parametrize("algorithm", sorted(WORD_PREDICTORS))
    def test_one_step_builds_its_patterns_once(self, algorithm, monkeypatch):
        basis = cached_basis(117, 3)
        calls = self.recorded(monkeypatch)
        predictor = ReducedPredictor(WORD_PREDICTORS[algorithm](basis.d_prime), ClauseMap(basis))
        side = np.random.default_rng(117).integers(0, 2, 117, dtype=np.uint8)
        predictor.predict(side)
        predictor.tie_label(side)
        predictor.update(side, 1)
        assert len(calls) == 1 and np.array_equal(calls[0], side)
        assert predictor.inner.read_columns().size < basis.d_prime

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
