"""In-memory span tracing around the public entry points of each layer.

The tracer wraps functions and methods from outside the package, so the
program under test is unchanged: every call into a wrapped name records
one span (key, start, end, parent, operation id). Spans stay in memory
until the traced run ends; `group` turns them into per-call timings and
per-layer self times and `Tracer.save` writes them out.

Layers are the modules of cnflearn. `oracles` is not traced: it is the
brute-force reference the tests use and no workload calls it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

LAYERS = ("cli", "harness", "core", "predictors", "madnb", "reductions")


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap
    and their durations add up to the part of the interval they cover.
    """
    dur = end - start
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


def high_percentile(n: int) -> Optional[float]:
    """Highest of the usual percentiles that leaves at least 10 samples above it."""
    for permille in (999, 990, 950, 900, 750, 500):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10.0
    return None


def describe(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, the high percentile and the sample count of per-call values."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return {"median": None, "p": None, "p_value": None, "n": 0}
    p = high_percentile(arr.size)
    return {
        "median": float(np.median(arr)),
        "p": p,
        "p_value": float(np.percentile(arr, p)) if p is not None else None,
        "n": int(arr.size),
    }


class Patcher:
    """Replaces names on modules and classes and puts them back in reverse."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def patch_function(self, modules, name: str, make: Callable) -> None:
        """Replace `name` in every module that binds the same object as the first."""
        original = getattr(modules[0], name)
        replacement = make(original)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, replacement)
                self._undo.append(lambda m=module: setattr(m, name, original))

    def patch_method(self, cls, name: str, make: Callable) -> None:
        """Replace a method on `cls`, inherited or not."""
        own = name in cls.__dict__
        original = cls.__dict__[name] if own else getattr(cls, name)
        setattr(cls, name, make(original))
        if own:
            self._undo.append(lambda: setattr(cls, name, original))
        else:
            self._undo.append(lambda: delattr(cls, name))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def package_modules():
    import cnflearn
    from cnflearn import cli, core, harness, madnb, predictors, reductions

    return [cnflearn, cli, core, harness, madnb, predictors, reductions]


class Tracer(Patcher):
    """Records a span for every call into a wrapped entry point.

    `op` is the operation id stamped on every span; the workload sets it
    before each trial group, episode or dataset run.
    """

    def __init__(self):
        super().__init__()
        self.spans: List[Optional[tuple]] = []
        self.op = -1
        self._stack: List[int] = []

    def _recorder(self, key_of: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                key = key_of(args, kwargs)
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (key, t0, t1, stack[-1] if stack else -1, tracer.op)

            return wrapper

        return make

    def install(self) -> None:
        """Wrap the public entry points of every traced layer."""
        mods = package_modules()
        cnflearn, cli, core, harness, madnb, predictors, reductions = mods
        tokens = {cls: token for token, cls in harness.ALGORITHMS.items()}

        def fixed(*key):
            return self._recorder(lambda args, kwargs: key)

        def keyed(key_of):
            return self._recorder(key_of)

        # emit_report stays unwrapped: report emission is the cli layer's job
        self.patch_function([cli] + mods, "main", fixed("cli", "main"))
        for name in ("run_bounds_table", "run_dataset", "ingest_dataset", "build_predictor"):
            self.patch_function([harness] + mods, name, fixed("harness", name))
        self.patch_function(
            [harness] + mods,
            "run_synthetic",
            keyed(lambda a, k: ("harness", "synthetic", a[0].algorithm, a[0].d, a[0].repeats)),
        )
        for name in ("as_bits", "log1mexp2", "log1mexp2_arr", "logsumexp2"):
            self.patch_function([core] + mods, name, fixed("core", name))
        self.patch_method(core.Prediction, "__init__", fixed("core", "Prediction"))
        self.patch_function(
            [reductions] + mods,
            "build_basis",
            keyed(lambda a, k: ("reductions", "build_basis", a[1] if len(a) > 1 else k["k"])),
        )
        self.patch_function(
            [reductions] + mods,
            "expand_matrix",
            keyed(lambda a, k: ("reductions", "expand_matrix", a[0].k)),
        )
        for method in ("predict", "update"):
            for cls in (
                predictors.ExactMixture,
                predictors.HeuristicMixture,
                predictors.Memorizer,
                predictors.HybridPredictor,
                predictors.PracticalPredictor,
            ):
                self.patch_method(
                    cls,
                    method,
                    keyed(lambda a, k, t=tokens[cls], m=method: ("predictors", t, a[0].d, m)),
                )
            self.patch_method(
                madnb.Madnb, method, keyed(lambda a, k, m=method: ("madnb", a[0].d, m))
            )
            self.patch_method(
                reductions.ReducedPredictor,
                method,
                keyed(lambda a, k, m=method: ("reductions", _map_token(a[0].mapping), a[0].d, m)),
            )
            for cls, token in (
                (reductions.ExpandedPractical, "alg2"),
                (reductions.ExpandedHybrid, "alg1"),
            ):
                self.patch_method(
                    cls,
                    method,
                    keyed(lambda a, k, t=token, m=method: ("reductions", f"kcnf{a[0].basis.k}", t, m)),
                )

    def arrays(self):
        """(keys, key index, start, end, parent, op) of the recorded spans.

        Call it between passes, when every span has ended.
        """
        done = self.spans
        keys: Dict[tuple, int] = {}
        n = len(done)
        kid = np.fromiter((keys.setdefault(s[0], len(keys)) for s in done), np.int64, n)
        start = np.fromiter((s[1] for s in done), np.float64, n)
        end = np.fromiter((s[2] for s in done), np.float64, n)
        parent = np.fromiter((s[3] for s in done), np.int64, n)
        op = np.fromiter((s[4] for s in done), np.int64, n)
        return list(keys), kid, start, end, parent, op

    def save(self, path: str) -> None:
        keys, kid, start, end, parent, op = self.arrays()
        np.savez_compressed(
            path,
            names=np.array([".".join(str(p) for p in key) for key in keys]),
            name_index=kid,
            start=start,
            end=end,
            parent=parent,
            op=op,
        )


def _map_token(mapping) -> str:
    basis = getattr(mapping, "basis", None)
    if basis is not None:
        return f"kcnf{basis.k}"
    return "disj" if mapping.flip else "conj"


def group(
    keys: List[tuple],
    kid: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
    keep: np.ndarray,
) -> Tuple[Dict[tuple, np.ndarray], Dict[tuple, np.ndarray], Dict[str, float]]:
    """Per-key inclusive durations and self times, and per-layer self time,
    over the spans selected by the boolean mask `keep`."""
    own = self_times(start, end, parent)
    dur = end - start
    durations: Dict[tuple, np.ndarray] = {}
    selfs: Dict[tuple, np.ndarray] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, key in enumerate(keys):
        rows = keep & (kid == i)
        if rows.any():
            durations[key] = dur[rows]
            selfs[key] = own[rows]
            layer_self[key[0]] += float(own[rows].sum())
    return durations, selfs, layer_self
