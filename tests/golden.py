"""Golden outputs: what each algorithm reports behind each map, pinned.

`outputs()` runs four parts:

* dataset: alg1, alg2, xi-plus, memorize and madnb behind none, conj, disj
  and kcnf2, `score_trace` over the first 512 rows of the seed-0 table that
  perfbench/datagen.py generates, as `dataset` runs it: d', the correct
  count, the infinite losses, the bits of the finite steps, an md5 of the
  packed correct flags and, for alg1, alg2 and xi-plus, one of the final
  `survivor_mask()`;
* synthetic: the `synthetic --format json` report, without `wall_time`, of
  every algorithm behind every reduction at d = 3, n = 64, 3 repeats,
  seed 1, and of the dataset part's algorithms behind the wider kcnf3 and
  kcnf4 bases at d = 5, n = 64, 2 repeats, seed 1;
* coin: the dataset part's algorithms, unmapped, on 256 coin-flip steps at
  d = 3, where sides repeat with both labels, scored as in the dataset
  part (bayes-exact refuses a trace no conjunction labels);
* steps: alg1, alg2, xi-plus and madnb behind conj and kcnf4 at d = 5 on
  64 coin-flip steps, run by predict/update, which reads a side's one-hot
  subset bytes and feature row where `score_trace` reads blocks: the bits
  of the finite steps, the infinite losses, the correct count and, but
  for madnb, an md5 of the final `survivor_mask()`.

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
WIDE_RUNS = (("kcnf", 3), ("kcnf", 4))
STEP_ALGORITHMS = ("alg1", "alg2", "xi-plus", "madnb")


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
    return {**_losses(log_p, correct), "correct_md5": _md5(correct), **_survivors(predictor)}


def _stepped(predictor, sides, labels) -> dict:
    """`_scored` of a predict/update loop, without the correct flags' md5."""
    log_p, correct = np.empty(labels.shape[0]), np.empty(labels.shape[0], dtype=bool)
    for t, (side, label) in enumerate(zip(sides, labels.tolist())):
        log_p[t] = lp = predictor.predict(side).log_prob(label)
        correct[t] = lp > -1.0 or (lp == -1.0 and predictor.tie_label(side) == label)
        predictor.update(side, label)
    return {**_losses(log_p, correct), **_survivors(predictor)}


def _losses(log_p: np.ndarray, correct: np.ndarray) -> dict:
    finite = np.isfinite(log_p)
    return {
        "correct": int(np.count_nonzero(correct)),
        "infinite_losses": int(np.count_nonzero(~finite)),
        "finite_bits": 0.0 - float(log_p[finite].sum()),
    }


def _survivors(predictor) -> dict:
    # the survivors in the map's feature order, which the scores alone do not fix
    inner = getattr(predictor, "inner", predictor)
    return {"survivors_md5": _md5(inner.survivor_mask())} if hasattr(inner, "survivor_mask") else {}


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
    for algorithm in DATASET_ALGORITHMS:
        for reduction, k in WIDE_RUNS:
            report = json.loads(emit_report(run_synthetic(SyntheticConfig(algorithm, 5, 64, 2, 1, reduction, k)), "json"))
            del report["wall_time"]
            synthetic[_name(algorithm, reduction, k)] = report
    rng = np.random.default_rng(3)
    coin_sides = rng.integers(0, 2, size=(256, 3), dtype=np.uint8)
    coin_labels = rng.integers(0, 2, size=256, dtype=np.uint8)
    coin = {algorithm: _scored(build_predictor(algorithm, 3)[0], coin_sides, coin_labels) for algorithm in DATASET_ALGORITHMS}
    step_sides = rng.integers(0, 2, size=(64, 5), dtype=np.uint8)
    step_labels = rng.integers(0, 2, size=64, dtype=np.uint8)
    steps = {
        _name(algorithm, reduction, k): _stepped(build_predictor(algorithm, 5, reduction, k)[0], step_sides, step_labels)
        for algorithm in STEP_ALGORITHMS
        for reduction, k in (("conj", None), ("kcnf", 4))
    }
    return {"dataset": dataset, "synthetic": synthetic, "coin": coin, "steps": steps}


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
