"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import trailergen as tg  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# the names each workload reports in its text lines, with their units
NAMED = {
    "train_desk": {"train_pairs_per_s": "pairs/s", "train_first_epoch_s": "s"},
    "decode_paper": {"decode_shots_per_s": "shots/s", "decode_request_s_p50": "s"},
    "eval_desk": {"eval_pairs_per_s": "pairs/s", "eval_call_s_p50": "s"},
}


def run_tiny(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_follows_the_metric_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        harness.per_layer_spec())
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    assert re.search(r"^fail_rate\s+0 ratio", text, re.M)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name, unit in NAMED[workload].items():
            assert re.search(rf"^{name}\s+\S+ {re.escape(unit)}\s", text, re.M), name


def test_exact_counts_repeat_across_runs():
    counts = ("autodiff.op_calls", "decoder.query_rows_per_shot",
              "decoder.memory_rows_per_shot", "shots.cosine_calls")
    runs = [json.loads(run_tiny("decode_paper", 1).stdout.strip().splitlines()[-1])
            for _ in range(2)]
    for name in counts:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    assert runs[0]["metrics"]["decoder.query_rows_per_shot"]["value"] == 2.5  # steps 1..4


def test_missing_sources_exit_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny("train_desk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corrupted_matched_index_counts_as_a_failure(tmp_path, monkeypatch):
    original = tg.model.TrailerModel.generate

    def corrupted(self, movie, **kwargs):
        decoded = original(self, movie, **kwargs)
        n = len(movie)
        decoded.matched_indices[1] = decoded.matched_indices[1] % n + 1
        return decoded

    monkeypatch.setattr(tg.model.TrailerModel, "generate", corrupted)
    result, lines = harness.run("decode_paper", 3, 0.2, False, "tiny", 1, tmp_path)
    assert result["failed"] >= 1 and result["correct"] is False
    assert any("teacher-forced matches differ" in line for line in lines)


def test_nondeterministic_training_counts_as_a_failure(tmp_path, monkeypatch):
    original = tg.training.train
    calls = iter(range(100, 200))

    def reseeded(examples, cfg, *args, **kwargs):
        return original(examples, replace(cfg, seed=next(calls)), *args, **kwargs)

    monkeypatch.setattr(tg.training, "train", reseeded)
    result, lines = harness.run("train_desk", 3, 0.2, False, "tiny", 1, tmp_path)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] - 1  # every job after the first
    assert any("loss history differs" in line for line in lines)


def _patch_sites():
    sites = [(owner, attr) for _, owner, attr, _ in tracing.layer_targets(tg)]
    sites += [(owner, attr) for _, owner, attr in tracing.count_targets(tg)]
    missing = object()
    return [(owner, attr, vars(owner).get(attr, missing)) for owner, attr in sites]


def test_tracer_restores_every_patched_attribute():
    before = _patch_sites()
    tracer = tracing.Tracer()
    tracer.install(tg)
    assert all(vars(owner).get(attr) is not orig for owner, attr, orig in before)
    tracer.restore()
    after = _patch_sites()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert "backward" not in vars(tg.autodiff.Parameter)  # inherited attrs stay inherited


def test_tracer_restores_after_a_failing_run(tmp_path, monkeypatch):
    before = _patch_sites()

    original = WORKLOADS["eval_desk"].operate
    calls = iter(range(10))

    def broken(self):
        if next(calls) == 2:  # after the warm-up and the first untraced call
            raise RuntimeError("planted")
        return original(self)

    monkeypatch.setattr(WORKLOADS["eval_desk"], "operate", broken)
    with pytest.raises(RuntimeError, match="planted"):
        harness.run("eval_desk", 3, 0.2, True, "tiny", 1, tmp_path)
    assert all(a[2] is b[2] for a, b in zip(before, _patch_sites()))


def test_self_times_add_up_to_the_top_level_spans():
    tracer = tracing.Tracer()

    class Box:
        @staticmethod
        def inner(x):
            return sum(range(x))

        @staticmethod
        def outer(x):
            return Box.inner(x) + Box.inner(x) + sum(range(x))

    tracer.patch("inner", Box, "inner")
    tracer.patch("outer", Box, "outer")
    try:
        for _ in range(3):
            tracer.call("top", Box.outer, 20000)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 6 and summary["outer"]["calls"] == 3
    own = sum(entry["self_s"] for entry in summary.values())
    assert own == pytest.approx(summary["top"]["total_s"], rel=1e-9)
    assert summary["inner"]["self_s"] == summary["inner"]["total_s"]
    assert summary["outer"]["self_s"] < summary["outer"]["total_s"]


def test_same_name_calls_fold_into_the_outer_span():
    tracer = tracing.Tracer()

    class Box:
        @staticmethod
        def one(x):
            return x

        @staticmethod
        def many(xs):
            return [Box.one(x) for x in xs]

    tracer.patch("frame", Box, "one")
    tracer.patch("frame", Box, "many")
    try:
        Box.many([1, 2, 3])
    finally:
        tracer.restore()
    assert tracer.counts["frame"] == 4
    assert len(tracer.span_array()) == 1
