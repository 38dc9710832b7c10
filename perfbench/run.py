"""cnflearn benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {bounds,stream,mushroom,kcnf3} \\
        --seed N --seconds S --trace {0,1}

The workload's inputs are generated from --seed. The run then repeats
whole passes over those inputs, closed loop and single-threaded, until
--seconds have passed (at least one pass), and checks the outputs of the
first pass. Every pass must reproduce the first pass's digest.

Time is reported in reference units ("ref"): every timed piece of a pass
(a predict/update step, or the rest of an episode, CLI call or ingest) is
divided by the wall time of a fixed reference computation of the same
kind, timed next to it. This host shares its cores with other tenants and
runs up to 1.8x slower for a minute or more at a time; the ratio does
not move with it. The report line keeps the raw wall time of every pass.

--trace 0 reports the end-to-end metrics declared in BENCHMARK.json: the
time of a pass (each piece's median over the passes, summed), scored
predictions per reference unit, set-up time in seconds (median of
fresh-interpreter set-ups), peak RSS after the first pass, the fraction of
operations that completed, and accuracy. --trace 1 runs untraced passes
for half the time and traced passes for the rest, and reports the
per-layer metrics: spans are recorded around the public entry points of
every cnflearn module, kept in memory and written to perfbench/out/ when
the run ends.

Standard output ends with a report line ({"report": ...}: environment,
digest, per-operation results, failure messages, known failures) and then
the result line {"correct", "attempted", "failed", "metrics"}. The program
is imported from src/ next to this directory; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHECK_OP = -2  # operation id of spans recorded while checking outputs
SETUP_OP = -3  # operation id of spans recorded while preparing the workload


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def time_setup(workload, reps: int) -> list:
    """Sum of import and set-up calls, each in a fresh interpreter."""
    samples = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(SRC)]
            + workload.setup_args(),
            capture_output=True,
            text=True,
            timeout=150,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(record["import_s"] + record["calls_s"])
    return samples


def run_passes(workload, seconds: float, tracer, captures):
    """Whole passes until `seconds` have elapsed.

    Returns the ops of each pass, the timed pieces of each pass in
    reference units, the wall time of each pass's timed units, and the
    peak resident memory after the first pass.
    """
    passes, pieces, walls = [], [], []
    peak_mb = 0.0
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        captures.predictors.clear()
        # the tracer wraps the step clock, so traced steps are timed too
        captures.install()
        if tracer is not None:
            tracer.install()
        try:
            ops, units = workload.run_pass(tracer, captures)
        finally:
            if tracer is not None:
                tracer.uninstall()
            captures.uninstall()
        passes.append(ops)
        pieces.append(np.concatenate([unit for unit, _ in units]))
        walls.append(sum(wall for _, wall in units))
        if len(passes) == 1:
            # before this loop's own records grow with the pass count
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, pieces, walls, peak_mb


def pass_ref(pieces) -> float:
    """Time of one pass in reference units: the sum over its timed pieces
    of each piece's median among the run's passes."""
    if len({len(p) for p in pieces}) != 1:
        raise RuntimeError("passes were cut into different numbers of pieces")
    return float(np.median(np.vstack(pieces), axis=0).sum())


def end_to_end(passes, pieces, setup_samples, peak_mb) -> dict:
    first = passes[0]
    scored = sum(op.scored for op in first)
    attempted = sum(op.attempted for ops in passes for op in ops)
    failed = sum(op.failed for ops in passes for op in ops)
    wall = pass_ref(pieces)
    return {
        "wall_ref": wall,
        "steps_per_ref": scored / wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_mb,
        "ok_frac": 1.0 - failed / attempted,
        "accuracy": sum(op.correct for op in first) / scored if scored else 0.0,
    }


def per_layer(tracer, captures, first_ops, traced_pieces, untraced_pieces):
    """Per-layer metrics (per traced pass, or median per call) and their stats."""
    import datagen
    from spans import LAYERS, describe, group

    keys, kid, start, end, parent, op = tracer.arrays()
    durs, selfs, layer_self = group(keys, kid, start, end, parent, op >= 0)
    check_durs, _, _ = group(keys, kid, start, end, parent, op == CHECK_OP)
    setup_durs, _, _ = group(keys, kid, start, end, parent, op == SETUP_OP)
    passes = len(traced_pieces)
    metrics, stats = {}, {}

    def calls(key):
        return len(durs.get(key, ())) / passes

    def self_s(key):
        return float(selfs[key].sum()) / passes if key in selfs else 0.0

    def put(name, samples, scale=1.0):
        stats[name] = describe(np.asarray(samples if samples is not None else [], dtype=float) * scale)
        metrics[name] = stats[name]["median"] or 0.0

    def steps(prefix):
        pred = durs.get(prefix + ("predict",), np.empty(0))
        upd = durs.get(prefix + ("update",), np.empty(0))
        n = min(len(pred), len(upd))
        return pred[:n] + upd[:n]

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / passes
    for name in ("as_bits", "Prediction"):
        metrics[f"core.{name}.calls"] = calls(("core", name))
        metrics[f"core.{name}.self_s"] = self_s(("core", name))
    for algo in ("alg1", "alg2", "memorize", "xi-plus", "bayes-exact"):
        for d in datagen.STREAM_DIMS if algo != "bayes-exact" else (8,):
            for method in ("predict", "update"):
                put(f"predictors.{algo}.d{d}.{method}_us", durs.get(("predictors", algo, d, method)), 1e6)
    for d in datagen.STREAM_DIMS:
        for method in ("predict", "update"):
            put(f"madnb.d{d}.{method}_us", durs.get(("madnb", d, method)), 1e6)
    madnb_failures = [o for o in first_ops if o.failed and o.name.startswith("madnb.")]
    metrics["madnb.failed_episodes"] = len(madnb_failures)
    metrics["madnb.first_failure_step"] = min((o.detail["fail_step"] for o in madnb_failures), default=0)
    for k in (2, 3):
        key = ("reductions", "build_basis", k)
        put(f"reductions.build_basis.k{k}.s", durs.get(key, setup_durs.get(key)))
    put("reductions.expand_matrix.k2.s", check_durs.get(("reductions", "expand_matrix", 2)))
    for k, algo in ((2, "alg2"), (2, "alg1"), (3, "alg2")):
        put(f"reductions.kcnf{k}.{algo}.step_us", steps(("reductions", f"kcnf{k}", algo)), 1e6)
    for mapping in ("conj", "disj"):
        put(f"reductions.{mapping}.d117.step_us", steps(("reductions", mapping, datagen.REDUCED_D)), 1e6)
    kcnf3 = captures.predictors.get(("alg2", "kcnf", 3))
    metrics["reductions.basis.k3.matrix_bytes"] = kcnf3.basis.clause_matrix.nbytes if kcnf3 else 0
    metrics["reductions.kcnf3.survivors_final"] = kcnf3.surviving_count if kcnf3 else 0
    for algo in ("alg1", "alg2"):
        for d in (2, 4, 8):
            samples = [
                dur * 1e3 / key[4]
                for key, values in durs.items()
                if key[:4] == ("harness", "synthetic", algo, d)
                for dur in values
            ]
            put(f"harness.synthetic.{algo}.d{d}.trial_ms", samples)
    put("harness.ingest_dataset.s", durs.get(("harness", "ingest_dataset")))
    metrics["harness.run_dataset.self_s"] = self_s(("harness", "run_dataset"))
    metrics["trace.overhead_ref"] = pass_ref(traced_pieces) - pass_ref(untraced_pieces)
    return metrics, stats


def known_at_seed(ops) -> list:
    return [
        {"op": op.name, "what": op.known, "fail_step": op.detail.get("fail_step"), "message": op.error}
        for op in ops
        if op.known
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cnflearn" / "__init__.py").is_file():
        sys.stderr.write(f"cnflearn sources not found under {SRC}\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import cnflearn

    if Path(cnflearn.__file__).resolve().parent != SRC / "cnflearn":
        sys.stderr.write(f"imported cnflearn from {cnflearn.__file__}, not {SRC}\n")
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, Captures, digest

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.op = SETUP_OP
            tracer.install()
        try:
            workload.prepare(args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        captures = Captures(workload.reference, probe_steps=not args.trace)
        setup_samples = [] if args.trace else time_setup(workload, workload.setup_reps)
        span_budget = args.seconds / 2 if args.trace else args.seconds
        passes, pieces, walls, peak_mb = run_passes(workload, span_budget, None, captures)
        traced_pieces, traced_walls = [], []
        if tracer is not None:
            traced, traced_pieces, traced_walls, _ = run_passes(
                workload, args.seconds - span_budget, tracer, captures
            )
            passes += traced
            tracer.install()
            tracer.op = CHECK_OP
        try:
            problems = workload.check(passes[0], captures)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = [digest(ops) for ops in passes]
    if len(set(digests)) != 1:
        problems.append(f"passes disagree: digests {sorted(set(digests))}")
    first = passes[0]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "digest": digests[0],
        "passes": len(passes),
        "pass_wall_s": walls + traced_walls,
        "pieces_per_pass": len(pieces[0]),
        "setup_s_samples": setup_samples,
        "per_pass": {
            "attempted": sum(op.attempted for op in first),
            "failed": sum(op.failed for op in first),
            "scored": sum(op.scored for op in first),
        },
        "ops": [
            {
                "name": op.name,
                "attempted": op.attempted,
                "failed": op.failed,
                "scored": op.scored,
                "correct": op.correct,
                "bits": f"{op.bits:.6g}",
                "error": op.error,
            }
            for op in first
        ],
        "known_at_seed": known_at_seed(first),
        "problems": problems,
    }
    if tracer is None:
        values = end_to_end(passes, pieces, setup_samples, peak_mb)
        wanted = declared["end_to_end"]
    else:
        values, report["per_call"] = per_layer(tracer, captures, first, traced_pieces, pieces)
        wanted = declared["per_layer"]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-s{args.seed}.npz"
        tracer.save(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(op.attempted for ops in passes for op in ops),
                "failed": sum(op.failed for ops in passes for op in ops),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
