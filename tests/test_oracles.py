import itertools
import math

import numpy as np
import pytest

from cnflearn.oracles import (
    BRUTE_FORCE_CAP,
    count_consistent,
    counting_side_info,
    hybrid_column_penalty,
    independent_set_count,
    upow,
)


def _union_powerset_size(index_sets):
    """Independent route: materialise the union of power sets directly."""
    seen = set()
    for s in index_sets:
        s = tuple(sorted(s))
        for r in range(len(s) + 1):
            seen.update(itertools.combinations(s, r))
    return len(seen)


class TestUpow:
    def test_two_singletons(self):
        assert upow([{0}, {1}], 2) == 3  # {}, {0}, {1}

    def test_single_full_set(self):
        assert upow([set(range(5))], 5) == 32

    def test_empty_family(self):
        assert upow([], 4) == 0

    def test_matches_materialised_union(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(1, 8))
            sets = [
                {int(i) for i in np.flatnonzero(rng.integers(0, 2, d))}
                for _ in range(n)
            ]
            assert upow(sets, d) == _union_powerset_size(sets)

    def test_cap(self):
        with pytest.raises(ValueError):
            upow([{0}], BRUTE_FORCE_CAP + 1)
        with pytest.raises(ValueError):
            upow([{5}], 3)
        with pytest.raises(ValueError, match="positive integer, got 3.0"):
            upow([{0}], 3.0)


class TestCountConsistent:
    def test_positive_example(self):
        # label 1 on (1,0) keeps S in {{}, {0}}
        assert count_consistent([([1, 0], 1)], 2) == 2

    def test_two_negatives_pin_down_full_set(self):
        trace = [([1, 0], 0), ([0, 1], 0)]
        assert count_consistent(trace, 2) == 1  # only {0,1}

    def test_all_negative_complement_identity(self):
        # consistent sets and the union of power sets of the on-coordinate
        # sets partition all 2**d index sets when every label is 0
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(1, 10))
            sides = rng.integers(0, 2, size=(n, d))
            trace = [(row, 0) for row in sides]
            chars = [{int(i) for i in np.flatnonzero(row)} for row in sides]
            assert count_consistent(trace, d) + upow(chars, d) == 2 ** d

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            count_consistent([([1, 0], 2)], 2)


class TestIndependentSetCount:
    def test_path_of_three(self):
        # {}, {0}, {1}, {2}, {0,2}
        assert independent_set_count(3, [(0, 1), (1, 2)]) == 5

    def test_triangle(self):
        assert independent_set_count(3, [(0, 1), (1, 2), (0, 2)]) == 4

    def test_edgeless(self):
        assert independent_set_count(4, []) == 16

    def test_complete_graph(self):
        edges = list(itertools.combinations(range(4), 2))
        assert independent_set_count(4, edges) == 5

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            independent_set_count(3, [(1, 1)])

    def test_union_powerset_complement_identity(self):
        # independent sets are exactly the subsets missed by the union of
        # power sets of the edge complements
        rng = np.random.default_rng(13)
        for _ in range(30):
            nv = int(rng.integers(2, 11))
            pairs = list(itertools.combinations(range(nv), 2))
            take = rng.random(len(pairs)) < 0.4
            edges = [p for p, keep in zip(pairs, take) if keep]
            if not edges:
                continue
            complements = [set(range(nv)) - set(e) for e in edges]
            assert independent_set_count(nv, edges) + upow(complements, nv) == 2 ** nv


class TestCountingSideInfo:
    def test_d2_rows(self):
        assert counting_side_info(2) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_rows_enumerate_all_vectors(self):
        for d in (1, 2, 3, 4):
            rows = counting_side_info(d)
            assert len(rows) == 2 ** d
            assert len(set(rows)) == 2 ** d

    def test_cap(self):
        with pytest.raises(ValueError):
            counting_side_info(17)


class TestHybridColumnPenalty:
    def test_d2_value(self):
        # -log2(1 - 2**-0.5)
        assert math.isclose(hybrid_column_penalty(2), 1.7716, abs_tol=5e-5)

    def test_analytic_window(self):
        for d in range(2, 65):
            p = hybrid_column_penalty(d)
            assert math.isfinite(p)
            assert d - math.log2(d) - 1.0 <= p <= d

    def test_asymptotic_branch_is_continuous(self):
        from cnflearn.core import log1mexp2

        for d in (900, 1000, 1023):
            direct = -log1mexp2(-d / 2.0 ** d)
            expansion = d - math.log2(d) - math.log2(math.log(2.0))
            assert math.isclose(direct, expansion, rel_tol=1e-12)
        assert math.isclose(
            hybrid_column_penalty(1024),
            1024 - math.log2(1024) - math.log2(math.log(2.0)),
        )

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            hybrid_column_penalty(1)
