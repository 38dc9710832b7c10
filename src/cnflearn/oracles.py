"""Brute-force counting oracles used as ground truth across the test suite.

The counting routines enumerate all 2**d candidate index sets (or all 2**n
vertex subsets for graphs) and refuse dimensions beyond a small cap. They
share no state or vectorised code path with the predictors they check, so
an agreement is evidence rather than tautology. `hybrid_column_penalty` is
the closed form alg1 prices a column with; the tests check alg1 against a
tilted mixture enumerated over every index set.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from .core import LN2, as_bits, log1mexp2

BRUTE_FORCE_CAP = 20

__all__ = [
    "BRUTE_FORCE_CAP",
    "conjunction_holds",
    "count_consistent",
    "counting_side_info",
    "hybrid_column_penalty",
    "independent_set_count",
    "upow",
]


def _check_dim(d: int, cap: int = BRUTE_FORCE_CAP) -> int:
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if d > cap:
        raise ValueError(f"dimension {d} exceeds the brute-force cap of {cap}")
    return d


def _index_mask(indices: Iterable[int], d: int) -> int:
    """Pack a set of 0-based indices into an integer bitmask."""
    mask = 0
    for i in indices:
        if not 0 <= int(i) < d:
            raise ValueError(f"index {i} out of range for dimension {d}")
        mask |= 1 << int(i)
    return mask


def _side_mask(side, d: int) -> int:
    bits = as_bits(side, d)
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


def conjunction_holds(index_mask: int, side_mask: int) -> bool:
    """Truth of the conjunction over `index_mask` on the given side bits.

    The empty conjunction is vacuously true.
    """
    return index_mask & ~side_mask == 0


def upow(index_sets: Sequence[Iterable[int]], d: int) -> int:
    """Cardinality of the union of the power sets of the given index sets.

    A candidate subset is counted when it is contained in at least one of
    the inputs. Exact, by enumeration of all 2**d subsets.
    """
    _check_dim(d)
    masks = [_index_mask(s, d) for s in index_sets]
    count = 0
    for m in range(1 << d):
        for sm in masks:
            if m & ~sm == 0:
                count += 1
                break
    return count


def count_consistent(trace: Sequence[Tuple], d: int) -> int:
    """Number of index sets whose conjunction reproduces every label.

    `trace` is a sequence of (side, label) pairs. Exact, by enumeration.
    """
    _check_dim(d)
    steps = []
    for side, label in trace:
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        steps.append((_side_mask(side, d), int(label)))
    count = 0
    for m in range(1 << d):
        if all(conjunction_holds(m, sm) == bool(x) for sm, x in steps):
            count += 1
    return count


def independent_set_count(num_vertices: int, edges: Sequence[Tuple[int, int]]) -> int:
    """Number of independent vertex subsets of an undirected graph.

    The empty set and singletons always count. Exact, by enumeration of all
    2**num_vertices subsets.
    """
    _check_dim(num_vertices)
    edge_masks = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        edge_masks.append(_index_mask((u, v), num_vertices))
    count = 0
    for m in range(1 << num_vertices):
        if all(m & em != em for em in edge_masks):
            count += 1
    return count


def counting_side_info(d: int) -> List[Tuple[int, ...]]:
    """Side-information rows that force d bits of loss out of any mixture.

    Row t (t = 1..2**d) is the binary representation of t-1, least
    significant bit first, so the rows enumerate every d-bit vector exactly
    once and the induced conjunction targets are pairwise distinct.
    """
    _check_dim(d, cap=16)
    return [tuple((t >> i) & 1 for i in range(d)) for t in range(1 << d)]


def hybrid_column_penalty(d: int) -> float:
    """Bits the hybrid predictor pays per disagreeing column, -log2(1-a).

    Here a = 2**(-d/2**d) is the hybrid predictor's prior inclusion rate.
    Evaluated through the expm1 path so it stays finite for d up to at
    least 256 even though 1-a underflows linearly. Past d = 1024 the
    exponent itself leaves double range and the first-order expansion
    d - log2(d) - log2(ln 2) is exact to double precision.
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"the hybrid construction needs d >= 2, got {d!r}")
    if d >= 1024:
        return d - math.log2(d) - math.log2(LN2)
    return -log1mexp2(-d / 2.0 ** d)
