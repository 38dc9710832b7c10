"""Seeded, deterministic inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical CSV text and identical stream episodes. The program
under test only ever sees what these functions produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# The 22 UCI Mushroom attributes with the value codes that occur in the
# real table: 117 (column, value) indicators in all. veil-type is constant.
MUSHROOM_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("cap-shape", "bcfksx"),
    ("cap-surface", "fgsy"),
    ("cap-color", "bceginprwy"),
    ("bruises", "ft"),
    ("odor", "acflmnpsy"),
    ("gill-attachment", "af"),
    ("gill-spacing", "cw"),
    ("gill-size", "bn"),
    ("gill-color", "beghknopruwy"),
    ("stalk-shape", "et"),
    ("stalk-root", "?bcer"),
    ("stalk-surface-above-ring", "fksy"),
    ("stalk-surface-below-ring", "fksy"),
    ("stalk-color-above-ring", "bcegnopwy"),
    ("stalk-color-below-ring", "bcegnopwy"),
    ("veil-type", "p"),
    ("veil-color", "nowy"),
    ("ring-number", "not"),
    ("ring-type", "eflnp"),
    ("spore-print-color", "bhknoruwy"),
    ("population", "acnsvy"),
    ("habitat", "dglmpuw"),
)
MUSHROOM_INDICATORS = sum(len(values) for _, values in MUSHROOM_COLUMNS)
MUSHROOM_ROWS = 8124
LABEL_COLUMN = "class"
POSITIVE_LABEL = "e"

# Covering rows: the first max-cardinality rows walk every value of every
# column, so any prefix at least this long ingests to all 117 indicators.
COVERING_ROWS = max(len(values) for _, values in MUSHROOM_COLUMNS)

_PROTOTYPES = 400  # rows are mutated copies of these, so sides repeat
_MUTATION = 0.03  # per-cell chance of a fresh value in a row
_LABEL_NOISE = 0.01  # per-row chance of a flipped label
_ODOR_N_A = 0.45  # odor mass on 'n' and 'a', which the rule needs

# edible iff (odor=n or odor=a) and (spore-print-color!=r or habitat=d)
# and (gill-size!=n or gill-color!=b): a 2-CNF over the indicators.
_COL = {name: j for j, (name, _) in enumerate(MUSHROOM_COLUMNS)}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _rule(cells: List[str]) -> bool:
    odor = cells[_COL["odor"]]
    spore = cells[_COL["spore-print-color"]]
    habitat = cells[_COL["habitat"]]
    gill_size = cells[_COL["gill-size"]]
    gill_color = cells[_COL["gill-color"]]
    return (
        odor in ("n", "a")
        and (spore != "r" or habitat == "d")
        and (gill_size != "n" or gill_color != "b")
    )


def _draw_value(rng: np.random.Generator, j: int) -> str:
    name, values = MUSHROOM_COLUMNS[j]
    if name == "odor":
        if rng.random() < _ODOR_N_A:
            return "n" if rng.random() < 0.8 else "a"
        others = [v for v in values if v not in "na"]
        return others[int(rng.integers(len(others)))]
    return values[int(rng.integers(len(values)))]


def mushroom_csv(seed: int, rows: int = MUSHROOM_ROWS) -> str:
    """A mushroom-shaped table: header, then `rows` labelled rows.

    Rows after the covering block are noisy copies of a few hundred
    prototypes, so identical sides recur as in the real table; one label
    in a hundred is flipped, so repeated sides sometimes disagree. Those
    rows are ordered so that the two classes are evenly interleaved.
    """
    if rows < COVERING_ROWS:
        raise ValueError(f"need at least {COVERING_ROWS} rows to cover every value")
    rng = _rng(seed, 0)
    width = len(MUSHROOM_COLUMNS)
    perms = [rng.permutation(len(values)) for _, values in MUSHROOM_COLUMNS]
    body: List[List[str]] = []
    for i in range(COVERING_ROWS):
        body.append(
            [values[perms[j][i % len(values)]] for j, (_, values) in enumerate(MUSHROOM_COLUMNS)]
        )
    protos = [[_draw_value(rng, j) for j in range(width)] for _ in range(_PROTOTYPES)]
    for _ in range(rows - COVERING_ROWS):
        cells = list(protos[int(rng.integers(_PROTOTYPES))])
        for j in np.flatnonzero(rng.random(width) < _MUTATION):
            cells[j] = _draw_value(rng, int(j))
        body.append(cells)
    flips = rng.random(rows) < _LABEL_NOISE
    edible = [_rule(cells) != bool(flip) for cells, flip in zip(body, flips)]
    order = list(range(COVERING_ROWS)) + _spread_labels(edible[COVERING_ROWS:], COVERING_ROWS)
    lines = [",".join([LABEL_COLUMN] + [name for name, _ in MUSHROOM_COLUMNS])]
    for i in order:
        lines.append(",".join([POSITIVE_LABEL if edible[i] else "p"] + body[i]))
    return "\n".join(lines) + "\n"


def _spread_labels(labels: List[bool], offset: int) -> List[int]:
    """Row indices (plus `offset`) that interleave the two classes evenly,
    each class keeping its order, so that every prefix holds its share of
    positives: the label mix of a short prefix then does not vary with the
    seed, and neither do the loss and accuracy it drives."""
    positives = [i for i, label in enumerate(labels) if label]
    negatives = [i for i, label in enumerate(labels) if not label]
    keyed = [((k + 0.5) / len(positives), i) for k, i in enumerate(positives)]
    keyed += [((k + 0.5) / len(negatives), i) for k, i in enumerate(negatives)]
    return [offset + i for _, i in sorted(keyed)]


def csv_prefix(text: str, rows: int) -> str:
    """Header plus the first `rows` data rows of a generated table."""
    lines = text.splitlines()
    return "\n".join(lines[: rows + 1]) + "\n"


def indicator_matrix(text: str) -> Tuple[np.ndarray, np.ndarray]:
    """Indicator sides and 0/1 labels of a generated table.

    Encoded here, not by the program's ingest, so the checks have an
    independent reference: one bit per (column, observed value), columns
    in header order and values sorted within a column.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.array([line.split(",") for line in lines[1:]])
    label_at = header.index(LABEL_COLUMN)
    blocks = []
    for j in range(len(header)):
        if j != label_at:
            values = np.array(sorted(set(rows[:, j])))
            blocks.append((rows[:, j, None] == values[None, :]).astype(np.uint8))
    labels = (rows[:, label_at] == POSITIVE_LABEL).astype(np.uint8)
    return np.concatenate(blocks, axis=1), labels


@dataclass(frozen=True)
class Episode:
    """One predict/update stream for one predictor configuration.

    `bound` is the paper's guarantee at the built d' when the labels are
    realizable for that predictor, else None.
    """

    name: str
    algo: str
    reduction: str
    d: int
    labels_kind: str  # "realizable" or "coin"
    sides: np.ndarray
    labels: np.ndarray
    bound: Optional[float]


STREAM_ALGOS = ("alg1", "alg2", "memorize", "xi-plus", "madnb")
STREAM_DIMS = (8, 117, 1024)
REDUCED_D = 117
TARGET_SIZE = 2  # literals in each hidden conjunction: a quarter of labels are 1


def paper_bound(algo: str, d_prime: int, n: int) -> Optional[float]:
    """2d'^2 for alg1, (d'+1) log2(n+1) for alg2, d' for bayes-exact."""
    if algo == "alg1":
        return 2.0 * d_prime * d_prime
    if algo == "alg2":
        return (d_prime + 1.0) * float(np.log2(n + 1.0))
    if algo == "bayes-exact":
        return float(d_prime)
    return None


def monotone_features(reduction: str, sides: np.ndarray) -> np.ndarray:
    """The monotone features a reduction's inner predictor sees."""
    if reduction == "conj":
        return np.concatenate([sides, 1 - sides], axis=1)
    if reduction == "disj":
        return np.concatenate([1 - sides, sides], axis=1)
    return sides


def _realizable_labels(rng, reduction: str, sides: np.ndarray) -> np.ndarray:
    d = sides.shape[1]
    variables = rng.choice(d, size=TARGET_SIZE, replace=False)
    literals = variables
    if reduction != "none":
        # one sign per chosen variable, so no complementary pair
        literals = variables + d * rng.integers(0, 2, TARGET_SIZE)
    inner = monotone_features(reduction, sides)[:, literals].all(axis=1)
    labels = ~inner if reduction == "disj" else inner
    return labels.astype(np.uint8)


def stream_configs() -> List[Tuple[str, str, int]]:
    """(algo, reduction, d) for every configuration of the stream workload."""
    configs = [(algo, "none", d) for algo in STREAM_ALGOS for d in STREAM_DIMS]
    configs.append(("bayes-exact", "none", 8))
    configs += [("alg2", "conj", REDUCED_D), ("alg2", "disj", REDUCED_D)]
    return configs


def stream_episodes(seed: int, steps: int, long_steps: int) -> List[Episode]:
    """A realizable and a coin-flip episode per configuration, plus one long
    coin-flip MADNB episode at d = 1024.

    bayes-exact gets only the realizable episode: its exact mixture is
    defined on realizable traces and raises by design once none remains.
    """
    episodes = []
    for index, (algo, reduction, d) in enumerate(stream_configs()):
        kinds = ("realizable",) if algo == "bayes-exact" else ("realizable", "coin")
        for kind in kinds:
            rng = _rng(seed, 100 + 2 * index + (kind == "coin"))
            sides = rng.integers(0, 2, size=(steps, d), dtype=np.uint8)
            if kind == "realizable":
                labels = _realizable_labels(rng, reduction, sides)
                d_prime = d if reduction == "none" else 2 * d
                bound = paper_bound(algo, d_prime, steps)
            else:
                labels = rng.integers(0, 2, size=steps, dtype=np.uint8)
                bound = None
            tag = f"{algo}.{reduction}.d{d}.{kind}"
            episodes.append(Episode(tag, algo, reduction, d, kind, sides, labels, bound))
    rng = _rng(seed, 99)
    sides = rng.integers(0, 2, size=(long_steps, 1024), dtype=np.uint8)
    labels = rng.integers(0, 2, size=long_steps, dtype=np.uint8)
    episodes.append(
        Episode("madnb.none.d1024.coin-long", "madnb", "none", 1024, "coin", sides, labels, None)
    )
    return episodes
