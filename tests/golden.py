"""Golden outputs: what each algorithm reports behind each map, pinned.

`outputs()` runs three parts:

* dataset: alg1, alg2, xi-plus, memorize and madnb behind none, conj, disj
  and kcnf2, `score_trace` over the first 512 rows of the seed-0 table that
  perfbench/datagen.py generates, as `dataset` runs it: d', the correct
  count, the infinite losses, the bits of the finite steps, an md5 of the
  packed correct flags and, for alg1, alg2 and xi-plus, one of the final
  `survivor_mask()`;
* synthetic: the `synthetic --format json` report, without `wall_time`, of
  every algorithm behind every reduction at d = 3, n = 64, 3 repeats,
  seed 1;
* coin: the dataset part's algorithms, unmapped, on 256 coin-flip steps at
  d = 3, where sides repeat with both labels, scored as in the dataset
  part (bayes-exact refuses a trace no conjunction labels).

tests/test_golden.py compares them with tests/golden_outputs.json, floats
at a relative 1e-12. When a change alters outputs on purpose, regenerate
the file with

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from cnflearn.harness import ALGORITHMS, SyntheticConfig, build_predictor, emit_report, run_synthetic

ROOT = Path(__file__).resolve().parents[1]
PATH = Path(__file__).with_name("golden_outputs.json")
DATASET_ALGORITHMS = ("alg1", "alg2", "xi-plus", "memorize", "madnb")
RUNS = (("none", None), ("conj", None), ("disj", None), ("kcnf", 2))


def _datagen():
    """The benchmark's seeded table generator, perfbench/datagen.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("datagen")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _md5(bits: np.ndarray) -> str:
    return hashlib.md5(np.packbits(bits).tobytes()).hexdigest()


def _scored(predictor, sides, labels) -> dict:
    log_p, correct = predictor.score_trace(sides, labels)
    finite = np.isfinite(log_p)
    scored = {
        "correct": int(np.count_nonzero(correct)),
        "infinite_losses": int(np.count_nonzero(~finite)),
        "finite_bits": 0.0 - float(log_p[finite].sum()),
        "correct_md5": _md5(correct),
    }
    # the survivors in the map's feature order, which the scores alone do not fix
    inner = getattr(predictor, "inner", predictor)
    if hasattr(inner, "survivor_mask"):
        scored["survivors_md5"] = _md5(inner.survivor_mask())
    return scored


def _name(algorithm: str, reduction: str, k) -> str:
    return f"{algorithm} {reduction}{k or ''}"


def outputs() -> dict:
    datagen = _datagen()
    sides, labels = datagen.indicator_matrix(datagen.csv_prefix(datagen.mushroom_csv(0), 512))
    dataset = {}
    for algorithm in DATASET_ALGORITHMS:
        for reduction, k in RUNS:
            predictor, d_prime = build_predictor(algorithm, sides.shape[1], reduction, k)
            dataset[_name(algorithm, reduction, k)] = {"d_prime": d_prime, **_scored(predictor, sides, labels)}
    synthetic = {}
    for algorithm in ALGORITHMS:
        for reduction, k in RUNS:
            report = json.loads(emit_report(run_synthetic(SyntheticConfig(algorithm, 3, 64, 3, 1, reduction, k)), "json"))
            del report["wall_time"]
            synthetic[_name(algorithm, reduction, k)] = report
    rng = np.random.default_rng(3)
    coin_sides = rng.integers(0, 2, size=(256, 3), dtype=np.uint8)
    coin_labels = rng.integers(0, 2, size=256, dtype=np.uint8)
    coin = {algorithm: _scored(build_predictor(algorithm, 3)[0], coin_sides, coin_labels) for algorithm in DATASET_ALGORITHMS}
    return {"dataset": dataset, "synthetic": synthetic, "coin": coin}


def differences(got, want, where="") -> list:
    """Where `got` and `want` differ: every key of both is read, floats
    compare at a relative 1e-12, everything else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [line for key in want for line in differences(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [line for i, pair in enumerate(zip(got, want)) for line in differences(*pair, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


if __name__ == "__main__":
    PATH.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
