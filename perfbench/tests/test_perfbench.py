"""Tests of the benchmark's own code: inputs, span arithmetic, digests.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import datagen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TestGenerator:
    def test_mushroom_table_is_a_function_of_the_seed(self):
        assert datagen.mushroom_csv(3) == datagen.mushroom_csv(3)
        assert datagen.mushroom_csv(3) != datagen.mushroom_csv(4)

    def test_mushroom_shape(self):
        text = datagen.mushroom_csv(0)
        sides, labels = datagen.indicator_matrix(text)
        assert sides.shape == (datagen.MUSHROOM_ROWS, datagen.MUSHROOM_INDICATORS) == (8124, 117)
        assert len(text.splitlines()[0].split(",")) == 23
        assert (sides.sum(axis=1) == 22).all()
        assert 0.2 < labels.mean() < 0.8

    def test_classes_are_interleaved_after_the_covering_rows(self):
        _, labels = datagen.indicator_matrix(datagen.mushroom_csv(2))
        rest = labels[datagen.COVERING_ROWS :]
        share = rest.mean()
        for n in (16, 52, 500, 4000):
            assert abs(rest[:n].sum() - share * n) <= 1

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_kcnf3_prefix_covers_every_indicator(self, seed):
        text = datagen.csv_prefix(datagen.mushroom_csv(seed), workloads.KCNF3_ROWS)
        sides, _ = datagen.indicator_matrix(text)
        assert sides.shape == (workloads.KCNF3_ROWS, 117)

    def test_program_ingest_matches_the_independent_encoding(self, tmp_path):
        from cnflearn import DatasetConfig, ingest_dataset

        text = datagen.csv_prefix(datagen.mushroom_csv(5), 200)
        path = tmp_path / "m.csv"
        path.write_text(text)
        dataset = ingest_dataset(DatasetConfig(str(path), datagen.LABEL_COLUMN, datagen.POSITIVE_LABEL))
        sides, labels = datagen.indicator_matrix(text)
        assert dataset.d == 117
        assert np.array_equal(np.stack([e.side for e in dataset.examples]), sides)
        assert [e.label for e in dataset.examples] == labels.tolist()

    def test_stream_episodes_are_a_function_of_the_seed(self):
        a = datagen.stream_episodes(2, 32, 40)
        b = datagen.stream_episodes(2, 32, 40)
        assert [e.name for e in a] == [e.name for e in b]
        for x, y in zip(a, b):
            assert np.array_equal(x.sides, y.sides) and np.array_equal(x.labels, y.labels)
        c = datagen.stream_episodes(3, 32, 40)
        assert any(not np.array_equal(x.sides, y.sides) for x, y in zip(a, c))

    def test_realizable_stream_labels_follow_a_hidden_conjunction(self):
        for ep in datagen.stream_episodes(0, 256, 8):
            if ep.labels_kind != "realizable":
                continue
            features = datagen.monotone_features(ep.reduction, ep.sides)
            labels = 1 - ep.labels if ep.reduction == "disj" else ep.labels
            # the intersection of positive rows must still label every row
            keep = features[labels == 1].all(axis=0)
            assert np.array_equal(features[:, keep].all(axis=1), labels.astype(bool)), ep.name


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 6.0])
        parent = np.array([-1, 0, 1, 0])
        assert spans.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]

    def test_self_times_sum_to_the_top_level_duration(self):
        rng = np.random.default_rng(0)
        start, end, parent = [], [], []

        def build(lo, hi, up, depth):
            idx = len(start)
            start.append(lo), end.append(hi), parent.append(up)
            if depth < 3:
                cuts = np.sort(rng.uniform(lo, hi, 4))
                for a, b in ((cuts[0], cuts[1]), (cuts[2], cuts[3])):
                    build(a, b, idx, depth + 1)

        build(0.0, 1.0, -1, 0)
        own = spans.self_times(np.array(start), np.array(end), np.array(parent))
        assert (own >= 0).all()
        assert own.sum() == pytest.approx(1.0)

    def test_tracer_records_nesting_and_layers(self):
        fake = types.ModuleType("fake")
        fake.inner = lambda: sum(range(1000))
        fake.outer = lambda: fake.inner() + fake.inner()
        tracer = spans.Tracer()
        tracer.patch_function([fake], "inner", tracer._recorder(lambda a, k: ("core", "inner")))
        tracer.patch_function([fake], "outer", tracer._recorder(lambda a, k: ("cli", "outer")))
        tracer.op = 7
        fake.outer()
        tracer.uninstall()
        assert fake.inner.__name__ == "<lambda>" and fake.outer.__name__ == "<lambda>"
        keys, kid, start, end, parent, op = tracer.arrays()
        assert [keys[i] for i in kid] == [("cli", "outer"), ("core", "inner"), ("core", "inner")]
        assert parent.tolist() == [-1, 0, 0] and op.tolist() == [7, 7, 7]
        durs, selfs, layer = spans.group(keys, kid, start, end, parent, op >= 0)
        assert layer["cli"] + layer["core"] == pytest.approx(end[0] - start[0])
        assert layer["cli"] == pytest.approx(durs[("cli", "outer")][0] - durs[("core", "inner")].sum())

    def test_high_percentile_leaves_ten_samples_above(self):
        assert spans.high_percentile(19) is None
        assert spans.high_percentile(20) == 50.0
        assert spans.high_percentile(1000) == 99.0
        assert spans.high_percentile(10000) == 99.9


def _pass(workload, seed, tmp_path):
    workload.prepare(seed, tmp_path)
    captures = workloads.Captures()
    captures.install()
    try:
        ops, _ = workload.run_pass(None, captures)
    finally:
        captures.uninstall()
    return ops, captures


class TestDigest:
    def test_stream_pass_repeats_its_digest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads, "STREAM_STEPS", 64)
        monkeypatch.setattr(workloads, "LONG_STEPS", 64)
        a, cap = _pass(workloads.Stream(), 1, tmp_path)
        b, _ = _pass(workloads.Stream(), 1, tmp_path)
        assert workloads.digest(a) == workloads.digest(b)
        stream = workloads.Stream()
        stream.prepare(1, tmp_path)
        assert stream.check(a, cap) == []

    def _episode_pieces(self, probe_steps, reference=workloads.reference_time):
        from cnflearn import harness

        ep = datagen.stream_episodes(3, 8, 300)[-1]
        captures = workloads.Captures(reference, probe_steps)
        captures.install()
        try:
            t0 = captures.begin()
            predictor, _ = harness.build_predictor("alg2", ep.d, "conj")
            _, _, scored, error = workloads.run_episode(predictor, ep.sides, ep.labels.tolist())
            pieces, wall = captures.end(t0)
        finally:
            captures.uninstall()
        assert error is None and scored == 300
        return pieces, wall

    def test_every_step_is_a_piece(self):
        pieces, wall = self._episode_pieces(True)
        assert len(pieces) == 1 + 300 and (pieces > 0).all() and wall > 0

    def test_pieces_are_wall_time_over_the_reference(self):
        pieces, wall = self._episode_pieces(False, lambda: 2e-5)
        assert pieces.sum() * 2e-5 == pytest.approx(wall)

    def test_rolling_median_repeats_the_edges(self):
        got = workloads.rolling_median(np.array([1.0, 9.0, 2.0, 8.0, 3.0]), 3)
        assert got.tolist() == [1.0, 2.0, 8.0, 3.0, 3.0]

    def test_digest_sees_a_changed_result(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads, "BOUNDS_REPEATS", 2)
        ops, captures = _pass(workloads.Bounds(), 0, tmp_path)
        before = workloads.digest(ops)
        ops[0].bits *= 1.00001
        assert workloads.digest(ops) != before

    def test_two_runs_print_the_same_digest_and_counts(self):
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "bounds", "--seed", "4", "--seconds", "0.1"],
                capture_output=True, text=True, cwd=ROOT, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr
            report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            assert result["correct"] and set(result) == {"correct", "attempted", "failed", "metrics"}
            outputs.append((report["report"]["digest"], report["report"]["per_pass"]))
        assert outputs[0] == outputs[1]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
