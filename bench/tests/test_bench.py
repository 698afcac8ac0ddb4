"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzbias
import stats
import tracer as tracing
import workloads
from run import end_to_end, per_layer, tally

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7).queries != workloads.generate(name, 8).queries


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_digest_traced_or_not(tmp_path):
    plan = workloads.generate("moment-stream", 3)
    first = workloads.run_stream(plan, workloads.Context(str(tmp_path)))
    assert not workloads.check(plan, first).failed
    tracer = tracing.Tracer()
    tracer.install()
    try:
        again = workloads.generate("moment-stream", 3)
        traced = workloads.run_stream(again, workloads.Context(str(tmp_path), tracer), traced=True)
    finally:
        tracer.uninstall()
    assert workloads.digest(plan, first) == workloads.digest(again, traced)
    assert tracer.metrics()["eisenstein.evaluate.calls"] > 0


def test_tail_needs_ten_samples_beyond():
    assert stats.TAIL_LADDER == (99.0, 95.0, 90.0, 50.0)
    assert stats.tail(range(1000)) == (99.0, 989, 1000, 10)
    assert stats.tail(range(10_000)) == (99.0, 9899, 10_000, 100)
    assert stats.tail(range(999)) == (95.0, 949, 999, 49)
    assert stats.tail(range(150)) == (90.0, 134, 150, 15)
    assert stats.min_samples_for(99.0) == 1000
    # too few samples for any rung: the lowest rung comes back with its count
    assert stats.tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 3, 1)


def _namespaces():
    seen = {}
    for mod in tracing.library_modules():
        for key, value in vars(mod).items():
            seen[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    seen[(mod.__name__, key, attr)] = member
    return seen


def test_uninstall_restores_every_attribute():
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hurwitzbias.moment_H is not before[("hurwitzbias", "moment_H")]
        assert hurwitzbias.eisenstein.char_eval is not before[("hurwitzbias.eisenstein", "char_eval")]
        assert "evaluate" in {k[2] for k, v in _namespaces().items()
                              if len(k) == 3 and getattr(v, "bench_traced", None)}
        assert hurwitzbias.moment_H(0, 0, 2, 5) == 6
        assert tracer.metrics()["hurwitz.moment_H.calls"] == 1
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracing.leftover_wrappers() == []


def test_metric_names_match_benchmark_json():
    fake = {"trace": 0, "cpu_s": 1.0, "wall_s": 1.1, "calib_s": 0.2, "queries": 2,
            "operations": 2, "failed": 0,
            "import_s": 0.1, "import_wall_s": 0.1, "peak_rss_mb": 30.0,
            "latencies_ms": [1.0, 2.0], "layers": None}
    e2e, _ = end_to_end([fake], 3, 0)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(e2e)
    traced = dict(fake, trace=1, layers=tracing.Tracer().metrics())
    layers, _ = per_layer([fake, traced])
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)


def test_digest_must_agree_across_rounds_and_with_the_baseline():
    rounds = [{"digest": "a", "operations": 5, "failed": 0, "failures": []}] * 2
    assert tally(rounds, None)[:3] == (11, 0, ["a"])
    assert tally(rounds, "a")[:2] == (11, 0)
    attempted, failed, _, failures = tally(rounds, "b")
    assert (attempted, failed) == (11, 1) and "baseline" in failures[0]
    split = rounds[:1] + [dict(rounds[0], digest="b")]
    assert tally(split, "a")[1:3] == (1, ["a", "b"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
