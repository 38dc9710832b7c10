"""The four workloads: their inputs, one pass over them, and output checks.

A pass runs every operation of a workload once and returns the results
and the timed pieces of each timed unit (a CLI call, an episode or an
ingest) with the unit's wall time. Every
pass of a run replays the same seeded inputs, so every pass must produce
the same digest; the checks run once, on the first pass, outside the
timed region.

Why these four (each stresses layers the others bypass):

* bounds   - `bounds-table` through cli.main: the harness's vectorised
             alg1/alg2 trial paths. Never touches per-step predict/update,
             `core` validation, `madnb` or `reductions`.
* stream   - the per-step predict/update contract for every predictor at
             d in {8, 117, 1024}, plus one long, wide, noisy MADNB episode.
* mushroom - `dataset` through cli.main on a mushroom-shaped table: CSV
             ingest, the k=2 clause basis, MADNB at d = 117.
* kcnf3    - alg2 over the 2,108,418-clause k=3 basis: the only run that
             builds that basis (once per run, in set-up) and gathers
             survivors at that width.

Pieces are measured in units of a reference computation timed
alongside them (see `Captures`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import datagen
from spans import Patcher, package_modules


@dataclass
class Op:
    """Result of one operation: a group of trials, an episode or a dataset run."""

    name: str
    attempted: int = 1
    failed: int = 0
    scored: int = 0
    correct: int = 0
    bits: float = 0.0
    error: Optional[str] = None
    known: Optional[str] = None  # why a failure or infinite loss is expected
    detail: Dict = field(default_factory=dict)

    def digest_row(self) -> list:
        accuracy = self.correct / self.scored if self.scored else 0.0
        return [self.name, self.failed, self.scored, f"{self.bits:.6g}", f"{accuracy:.6g}", self.detail]


def digest(ops: List[Op]) -> str:
    """Hash of every operation's outcome, bits and accuracy at 6 significant digits."""
    text = json.dumps([op.digest_row() for op in ops], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PROBE_GAP = 0.002  # least seconds of stepping between two reference timings
PROBE_BURST = 5  # reference timings at each end of a timed unit
PROBE_WINDOW = 9  # reference timings whose median is a step's local reference

_PROBE_X = np.linspace(0.0, 1.0, 64)


def reference_time() -> float:
    """Wall time of a fixed computation of the same kind as a predictor
    step: small numpy calls driven from Python, about 20 microseconds."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(8):
        acc += float(np.logaddexp2(_PROBE_X, acc * 1e-9).sum())
    return perf_counter() - t0


class GatherReference:
    """Wall time of a fixed memory-bound gather shaped like one k=3 step:
    a sorted random half of the rows of a 2,108,418 x 3 index table, looked
    up in a literal vector and reduced along the rows, about 70 ms."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 234, size=(2_108_418, 3), dtype=np.int32)
        self.rows = np.flatnonzero(rng.random(2_108_418) < 0.5)
        self.lits = rng.integers(0, 2, size=234, dtype=np.uint8)

    def __call__(self) -> float:
        t0 = perf_counter()
        self.lits[self.table[self.rows]].max(axis=1)
        return perf_counter() - t0


def rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Median of the `window` values centred on each value, edges repeated."""
    half = window // 2
    padded = np.pad(values, half, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)


class Captures(Patcher):
    """Keeps results the CLI computes but does not print: the bounds-table
    reports (for accuracy and per-trial bits) and the last predictor built
    for each configuration (for its basis and final survivor count).

    It also times every timed unit (an episode, a CLI call, an ingest) in
    pieces: every predict/update step of any predictor, from the call to
    `predict` to the return of the matching `update`, every trial group
    of a bounds table, and the rest of the unit. Each piece is divided by the local wall time of a fixed
    reference computation, timed in bursts at both ends of the unit and
    after every PROBE_GAP seconds of stepping. A shared host slows this
    machine by up to 1.8x for a minute or more at a time; a reference of
    the same kind as the steps slows with them, so the ratio stays put.
    """

    def __init__(self, reference=reference_time, probe_steps: bool = True):
        super().__init__()
        self.reference = reference
        # a traced run times the reference only at the ends of units, as
        # inside them it would fall in traced spans
        self.probe_gap = PROBE_GAP if probe_steps else math.inf
        self.bounds_reports: list = []
        self.predictors: Dict[tuple, object] = {}
        self.steps: List[float] = []
        self.probes: List[float] = []
        self.probe_at: List[int] = []  # steps completed before each reference timing
        self._step_start = 0.0
        self._last_probe = 0.0

    def install(self) -> None:
        mods = package_modules()
        cli, core, harness = mods[1], mods[2], mods[3]

        def keep_reports(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.bounds_reports = list(result[0])
                return result

            return wrapper

        def keep_predictor(fn):
            def wrapper(algorithm, d, reduction="none", k=None, *rest, **kwargs):
                result = fn(algorithm, d, reduction, k, *rest, **kwargs)
                self.predictors[(algorithm, reduction, k)] = result[0]
                return result

            return wrapper

        def start_step(fn):
            def predict(predictor, side):
                self._step_start = perf_counter()
                return fn(predictor, side)

            return predict

        def end_step(fn):
            def update(predictor, side, label):
                fn(predictor, side, label)
                now = perf_counter()
                self.steps.append(now - self._step_start)
                # a slow reference is timed less often, taking at most a fifth of the time
                if now - self._last_probe >= max(self.probe_gap, 4 * self.probes[-1]):
                    self._probe(1)
                    self._last_probe = perf_counter()

            return update

        def time_trials(fn):
            # a trial group steps no predictor, so the whole call is one
            # piece, with the reference timed on both sides of it
            def wrapper(*args, **kwargs):
                self._probe(PROBE_BURST)
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                self.steps.append(perf_counter() - t0)
                self._probe(PROBE_BURST)
                return result

            return wrapper

        self.patch_function([cli], "run_bounds_table", keep_reports)
        self.patch_function([harness], "build_predictor", keep_predictor)
        self.patch_method(core.OnlinePredictor, "predict", start_step)
        self.patch_method(core.OnlinePredictor, "update", end_step)
        if self.probe_gap < math.inf:
            self.patch_function([harness], "run_synthetic", time_trials)

    def _probe(self, times: int) -> None:
        for _ in range(times):
            self.probe_at.append(len(self.steps))
            self.probes.append(self.reference())

    def begin(self) -> float:
        """Start a timed unit; returns its start time."""
        self.steps.clear()
        self.probes.clear()
        self.probe_at.clear()
        self._probe(PROBE_BURST)
        self._last_probe = perf_counter()
        return self._last_probe

    def end(self, started: float) -> Tuple[np.ndarray, float]:
        """End the unit begun at `started`. Returns its pieces in reference
        units (the time outside steps, then each step's) and its wall time."""
        wall = perf_counter() - started
        inside = sum(self.probes[PROBE_BURST:])
        self._probe(PROBE_BURST)
        steps = np.asarray(self.steps)
        probes = np.asarray(self.probes)
        local = rolling_median(probes, PROBE_WINDOW)
        # the reference timing that follows each step, or the last one
        after = np.minimum(np.searchsorted(self.probe_at, np.arange(1, len(steps) + 1)), len(probes) - 1)
        outside = (wall - inside - steps.sum()) / np.median(probes)
        return np.concatenate([[outside], steps / local[after]]), wall


def call_cli(argv: List[str]) -> Tuple[Optional[int], str, str]:
    """Run cli.main, returning (exit code, stdout, message); code None on an exception."""
    from cnflearn import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        return int(exc.code or 0), out.getvalue(), err.getvalue().strip()
    except Exception as exc:  # counted as a failed operation; the workload goes on
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().strip()


def _cli_error(code: Optional[int], message: str) -> str:
    return message if code is None else f"exit {code}: {message}"


class Alg2Reference:
    """alg2 (surviving-coordinate conjunction, t/(t+1) schedule) over whole
    feature matrices, fed in row chunks: the benchmark's own reference for
    the loss and accuracy the program reports."""

    def __init__(self, d_prime: int):
        self.surv = np.ones(d_prime, dtype=bool)
        self.t = 1
        self.bits = 0.0
        self.correct = 0

    def feed(self, features: np.ndarray, labels: np.ndarray) -> None:
        x = features.astype(bool)
        y = labels.astype(bool)
        running = np.logical_and.accumulate(np.where(y[:, None], x, True), axis=0)
        before = np.vstack([self.surv[None, :], self.surv & running[:-1]])
        structural = (x | ~before).all(axis=1)
        t = self.t + np.arange(y.shape[0], dtype=np.float64)
        # t = 1 is a 1/2 tie scored by the structural label, so a hit is
        # exactly a correct prediction
        hit = structural == y
        self.bits += float((np.log2(t + 1.0) - np.where(hit, np.log2(t), 0.0)).sum())
        self.correct += int(np.count_nonzero(hit))
        self.surv &= running[-1]
        self.t += y.shape[0]


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _within(bits: float, bound: float) -> bool:
    return bits <= bound * (1.0 + 1e-12) + 1e-6


# -- bounds ------------------------------------------------------------------

BOUNDS_D = (2, 4, 8)
BOUNDS_N = 8192
BOUNDS_REPEATS = 32


class Bounds:
    name = "bounds"
    reference = staticmethod(reference_time)
    setup_reps = 7

    def prepare(self, seed: int, workdir) -> None:
        self.argv = [
            "bounds-table",
            "--d-list",
            ",".join(str(d) for d in BOUNDS_D),
            "--n",
            str(BOUNDS_N),
            "--repeats",
            str(BOUNDS_REPEATS),
            "--seed",
            str(seed),
        ]
        self.table = ""

    def setup_args(self) -> List[str]:
        return []

    @staticmethod
    def setup_calls(cnflearn, data: Optional[str]) -> None:
        """bounds-table builds no predictor, basis or dataset: set-up is the import."""

    def run_pass(self, tracer, captures: Captures) -> Tuple[List[Op], List[float]]:
        if tracer is not None:
            tracer.op = 0
        captures.bounds_reports = []
        t0 = captures.begin()
        code, out, message = call_cli(self.argv)
        walls = [captures.end(t0)]
        trials = len(BOUNDS_D) * 2 * BOUNDS_REPEATS
        if code != 0:
            # an exit 3 aborts the table, so no trial of it counts as done
            return [Op("bounds-table", trials, trials, error=_cli_error(code, message))], walls
        self.table = out
        return [
            Op(
                f"{r.algorithm}.d{r.d}",
                attempted=r.repeats,
                scored=r.n * r.repeats,
                correct=r.correct,
                bits=r.max_bits,
                detail={"d_prime": r.d_prime, "n": r.n, "mean_bits": r.mean_bits, "trial_bits": list(r.trial_bits)},
            )
            for r in captures.bounds_reports
        ], walls

    def check(self, ops: List[Op], captures: Captures) -> List[str]:
        problems = []
        done = [op for op in ops if not op.failed]
        if len(done) != len(BOUNDS_D) * 2:
            problems.append(f"expected {len(BOUNDS_D) * 2} table rows, got {len(done)}")
        rows = self.table.strip().splitlines()[1:]
        for op, row in zip(done, rows):
            algo = op.name.split(".")[0]
            bound = datagen.paper_bound(algo, op.detail["d_prime"], op.detail["n"])
            worst = max(op.detail["trial_bits"])
            if not _within(worst, bound):
                problems.append(f"{op.name}: a realizable trial lost {worst} bits > bound {bound:.6g}")
            cells = row.split(",")
            if cells[1] != algo or float(cells[5]) != op.bits:
                problems.append(f"{op.name}: table row {row!r} disagrees with the run report")
        return problems


# -- stream ------------------------------------------------------------------

STREAM_STEPS = 1024
LONG_STEPS = 20_000


def run_episode(predictor, sides: np.ndarray, labels: List[int]):
    """Closed-loop predict/update; returns (bits, correct, scored, error)."""
    bits = 0.0
    correct = 0
    scored = 0
    try:
        for side, label in zip(sides, labels):
            log_p = predictor.predict(side).log_prob(label)
            if log_p > -1.0 or (log_p == -1.0 and predictor.tie_label(side) == label):
                correct += 1
            bits -= log_p
            scored += 1
            predictor.update(side, label)
    except Exception as exc:  # counted as a failed episode; the workload goes on
        return bits, correct, scored, f"{type(exc).__name__}: {exc}"
    return bits, correct, scored, None


def _known_stream_failure(episode: datagen.Episode, error: str) -> Optional[str]:
    if episode.algo == "madnb" and episode.d == 1024 and episode.labels_kind == "coin" and "must sum to 1" in error:
        return "MADNB d=1024 cancellation: normalising two absolute joints of ~1e7 bits"
    return None


class Stream:
    name = "stream"
    reference = staticmethod(reference_time)
    setup_reps = 7

    def prepare(self, seed: int, workdir) -> None:
        self.episodes = datagen.stream_episodes(seed, STREAM_STEPS, LONG_STEPS)
        self.labels = [ep.labels.tolist() for ep in self.episodes]

    def setup_args(self) -> List[str]:
        return []

    @staticmethod
    def setup_calls(cnflearn, data: Optional[str]) -> None:
        for algo, reduction, d in datagen.stream_configs():
            cnflearn.harness.build_predictor(algo, d, reduction)

    def run_pass(self, tracer, captures: Captures) -> Tuple[List[Op], List[float]]:
        from cnflearn import harness

        ops, walls = [], []
        for i, (ep, labels) in enumerate(zip(self.episodes, self.labels)):
            if tracer is not None:
                tracer.op = i
            t0 = captures.begin()
            predictor, d_prime = harness.build_predictor(ep.algo, ep.d, ep.reduction)
            bits, correct, scored, error = run_episode(predictor, ep.sides, labels)
            walls.append(captures.end(t0))
            op = Op(ep.name, failed=int(error is not None), scored=scored, correct=correct, bits=bits, error=error)
            op.detail = {"d_prime": d_prime, "steps": len(labels)}
            if error is not None:
                op.detail["fail_step"] = scored + 1
                op.known = _known_stream_failure(ep, error)
            ops.append(op)
        return ops, walls

    def check(self, ops: List[Op], captures: Captures) -> List[str]:
        problems = []
        for ep, op in zip(self.episodes, ops):
            if op.failed:
                if op.known is None:
                    problems.append(f"{op.name}: unexpected failure at step {op.detail['fail_step']}: {op.error}")
                continue
            if ep.bound is not None and not _within(op.bits, ep.bound):
                problems.append(f"{op.name}: lost {op.bits:.6g} bits > bound {ep.bound:.6g} at d'={op.detail['d_prime']}")
            if ep.algo == "alg2":
                ref = Alg2Reference(op.detail["d_prime"])
                features = datagen.monotone_features(ep.reduction, ep.sides)
                ref.feed(features, 1 - ep.labels if ep.reduction == "disj" else ep.labels)
                if not (_close(ref.bits, op.bits, 1e-9) and ref.correct == op.correct):
                    problems.append(
                        f"{op.name}: {op.bits!r} bits, {op.correct} correct; reference gives {ref.bits!r}, {ref.correct}"
                    )
        return problems


# -- dataset workloads -------------------------------------------------------

MUSHROOM_RUNS = (
    ("alg2", "none", None),
    ("alg2", "kcnf", 2),
    ("alg1", "kcnf", 2),
    ("madnb", "none", None),
    ("alg2", "conj", None),
    ("alg2", "disj", None),
)
KCNF3_ROWS = 64


def _basis_size(d: int, k: int) -> int:
    """Canonical clauses of up to k literals over d variables, counted here
    rather than taken from the program so the check is independent."""
    return sum(math.comb(d, s) * 2 ** s for s in range(1, k + 1))


def _expected_d_prime(reduction: str, k: Optional[int], d: int) -> int:
    if reduction == "kcnf":
        return _basis_size(d, k)
    return d if reduction == "none" else 2 * d


class _DatasetWorkload:
    """Runs `cnflearn dataset` through cli.main on a generated file."""

    runs: Tuple = ()
    reference = staticmethod(reference_time)
    rows = datagen.MUSHROOM_ROWS
    chunk = 512  # rows per expand_matrix call in the reference check

    def prepare(self, seed: int, workdir) -> None:
        text = datagen.mushroom_csv(seed)
        if self.rows != datagen.MUSHROOM_ROWS:
            text = datagen.csv_prefix(text, self.rows)
        self.path = str(workdir / f"{self.name}.csv")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.sides, self.labels = datagen.indicator_matrix(text)

    def setup_args(self) -> List[str]:
        return [self.path]

    @classmethod
    def setup_calls(cls, cnflearn, data: Optional[str]) -> None:
        config = cnflearn.DatasetConfig(data, datagen.LABEL_COLUMN, datagen.POSITIVE_LABEL)
        dataset = cnflearn.ingest_dataset(config)
        expanded = {"alg2": cnflearn.ExpandedPractical, "alg1": cnflearn.ExpandedHybrid}
        bases = {}
        for algo, reduction, k in cls.runs:
            if reduction != "kcnf":
                cnflearn.harness.build_predictor(algo, dataset.d, reduction)
                continue
            if k not in bases:
                bases[k] = cnflearn.build_basis(dataset.d, k)
            expanded[algo](bases[k])

    def run_pass(self, tracer, captures: Captures) -> Tuple[List[Op], List[float]]:
        from cnflearn.harness import parse_report

        ops, walls = [], []
        for i, (algo, reduction, k) in enumerate(self.runs):
            if tracer is not None:
                tracer.op = i
            name = f"{algo}.{reduction}" + (f"{k}" if k else "")
            argv = [
                "dataset", "--path", self.path, "--label-column", datagen.LABEL_COLUMN,
                "--positive-label", datagen.POSITIVE_LABEL, "--algo", algo,
                "--reduction", reduction, "--format", "json",
            ] + (["--k", str(k)] if k else [])
            t0 = captures.begin()
            code, out, message = call_cli(argv)
            walls.append(captures.end(t0))
            if code != 0:
                ops.append(Op(name, failed=1, error=_cli_error(code, message)))
                continue
            report = parse_report(out)
            op = Op(name, scored=report.n, correct=report.correct, bits=report.trial_bits[0])
            op.detail = {"d": report.d, "d_prime": report.d_prime, "n": report.n}
            if math.isinf(op.bits) and algo == "alg1":
                op.known = "alg1 pays +inf bits on noisy data: a memorized negative side recurs labelled 1"
            ops.append(op)
        return ops, walls

    def check(self, ops: List[Op], captures: Captures) -> List[str]:
        problems = []
        n, d = self.sides.shape
        for (algo, reduction, k), op in zip(self.runs, ops):
            if op.failed:
                problems.append(f"{op.name}: failed: {op.error}")
                continue
            want = (d, _expected_d_prime(reduction, k, d), n)
            got = (op.detail["d"], op.detail["d_prime"], op.detail["n"])
            if got != want:
                problems.append(f"{op.name}: (d, d', n) = {got}, expected {want}")
                continue
            if math.isinf(op.bits) and op.known is None:
                problems.append(f"{op.name}: unexpected infinite loss")
            if algo == "alg2":
                ref = self._reference(reduction, k, captures)
                # the report rounds bits to 6 significant digits
                if not (_close(ref.bits, op.bits, 1e-5) and ref.correct == op.correct):
                    problems.append(
                        f"{op.name}: {op.bits} bits, {op.correct} correct; reference gives {ref.bits:.6g}, {ref.correct}"
                    )
                if reduction == "kcnf":
                    survivors = captures.predictors[(algo, reduction, k)].surviving_count
                    if survivors != int(ref.surv.sum()):
                        problems.append(f"{op.name}: {survivors} surviving clauses, reference {int(ref.surv.sum())}")
        return problems

    def _reference(self, reduction: str, k: Optional[int], captures: Captures) -> Alg2Reference:
        from cnflearn.reductions import expand_matrix

        labels = 1 - self.labels if reduction == "disj" else self.labels
        if reduction != "kcnf":
            features = datagen.monotone_features(reduction, self.sides)
            ref = Alg2Reference(features.shape[1])
            ref.feed(features, labels)
            return ref
        basis = captures.predictors[("alg2", "kcnf", k)].basis
        ref = Alg2Reference(basis.d_prime)
        for i in range(0, self.sides.shape[0], self.chunk):
            ref.feed(expand_matrix(basis, self.sides[i : i + self.chunk]), labels[i : i + self.chunk])
        return ref


class Mushroom(_DatasetWorkload):
    name = "mushroom"
    setup_reps = 7
    runs = MUSHROOM_RUNS


class Kcnf3(_DatasetWorkload):
    """alg2 over the k=3 clause basis of a table prefix, through the public
    API: `ingest_dataset`, then `ExpandedPractical` on a basis from
    `build_basis`, fed the ingested rows. The basis is built once per run,
    before timing: one build takes seconds, and `setup_s` times it in every
    set-up probe."""

    name = "kcnf3"
    setup_reps = 3
    runs = (("alg2", "kcnf", 3),)
    rows = KCNF3_ROWS
    chunk = 4

    def prepare(self, seed: int, workdir) -> None:
        from cnflearn import DatasetConfig, build_basis, ingest_dataset

        super().prepare(seed, workdir)
        self.config = DatasetConfig(self.path, datagen.LABEL_COLUMN, datagen.POSITIVE_LABEL)
        self.basis = build_basis(ingest_dataset(self.config).d, 3)
        self.ingested = None
        # its steps are large gathers, slowed by a busy host unlike small calls
        self.reference = GatherReference()

    def run_pass(self, tracer, captures: Captures) -> Tuple[List[Op], List[float]]:
        from cnflearn import ExpandedPractical, ingest_dataset

        if tracer is not None:
            tracer.op = 0
        t0 = captures.begin()
        dataset = ingest_dataset(self.config)
        walls = [captures.end(t0)]
        sides = [side for side, _ in dataset.examples]
        labels = [label for _, label in dataset.examples]
        if self.ingested is None:
            self.ingested = (np.stack(sides), np.array(labels, dtype=np.uint8))
        t0 = captures.begin()
        predictor = ExpandedPractical(self.basis)
        bits, correct, scored, error = run_episode(predictor, sides, labels)
        walls.append(captures.end(t0))
        captures.predictors[("alg2", "kcnf", 3)] = predictor
        op = Op("alg2.kcnf3", failed=int(error is not None), scored=scored, correct=correct, bits=bits, error=error)
        op.detail = {"d": dataset.d, "d_prime": self.basis.d_prime, "n": dataset.n}
        return [op], walls

    def check(self, ops: List[Op], captures: Captures) -> List[str]:
        problems = super().check(ops, captures)
        sides, labels = self.ingested
        if not (np.array_equal(sides, self.sides) and np.array_equal(labels, self.labels)):
            problems.append("ingest_dataset disagrees with the benchmark's own encoding of the table")
        return problems


WORKLOADS = {w.name: w for w in (Bounds, Stream, Mushroom, Kcnf3)}
