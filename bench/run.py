"""Benchmark entry point for hurwitzbias.

    python3 bench/run.py --workload moment-stream --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each round of the workload runs in a fresh
interpreter (bench/round.py) that imports the library from src/; rounds
repeat for about --seconds (stopping at the nearest round boundary), and
until the latency tail has enough samples.
With --trace 0 the end-to-end metrics of BENCHMARK.json are reported, with
--trace 1 its per-layer metrics, taken from traced rounds that alternate
with untraced ones.  Every metric is printed by name and unit; the last line
of output is one JSON object with the keys correct, attempted, failed and
metrics.  The full record, environment included, is written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROUND = BENCH / "round.py"
OUT = BENCH / "out"
BASELINE = BENCH / "baseline.json"

MIN_ROUNDS = 3
# Times are reported at the machine speed where the calibration in round.py
# takes this much CPU time (about its time on the machine the benchmark was
# built on), so that slow and fast phases of a shared machine cancel out.
CALIBRATION_S = 0.2
START_LIMIT_S = 140.0  # no round starts later than this
HARD_LIMIT_S = 170.0  # a round still running then is stopped


class BenchError(Exception):
    pass


def _commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(root: Path, rounds: list[dict]) -> dict:
    return {
        "commit": _commit(root),
        "python": rounds[0]["python"],
        "numpy": rounds[0]["numpy"],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def child_env(root: Path) -> dict:
    """Environment of a measured interpreter: the library from the checkout's
    src/, and one client on one thread, so numerical libraries start no
    worker threads."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _child(root: Path, args: list[str], start: float) -> dict:
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - start))
    try:
        proc = subprocess.run([sys.executable, str(ROUND), *args], cwd=root, env=child_env(root),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round {args} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"round {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _enough(rounds: list[dict], trace: int) -> bool:
    plain = [r for r in rounds if not r["trace"]]
    if trace:
        return bool(plain) and len(plain) < len(rounds)
    samples = sum(len(r["latencies_ms"]) for r in plain)
    return len(plain) >= MIN_ROUNDS and samples >= stats.min_samples_for(stats.TAIL_LADDER[0])


def run_rounds(root: Path, workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    start = time.perf_counter()
    # compiles the library's bytecode, so that no measured import pays for it
    _child(root, ["--workload", workload, "--import-only"], start)
    spans = OUT / f"spans-{workload}.jsonl"
    rounds: list[dict] = []
    took: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        # stop at the round boundary nearest to --seconds, once the minimum is met
        if rounds and (elapsed > START_LIMIT_S or (
                _enough(rounds, trace) and elapsed + statistics.median(took) / 2 >= seconds)):
            return rounds
        traced = trace and len(rounds) % 2 == 1
        argv = ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
        if traced:
            argv += ["--spans", str(spans)]
        rounds.append(_child(root, argv, start))
        took.append(time.perf_counter() - start - elapsed)


def tally(rounds: list[dict], expected: str | None) -> tuple[int, int, list[str], list[str]]:
    """Operations attempted and failed over all rounds, the rounds' output
    digests, and the failure messages.  Comparing the digests is one more
    operation: every round must give the same digest, and it must be
    `expected`, the baseline's digest for this workload and seed, if there
    is one."""
    digests = sorted({r["digest"] for r in rounds})
    mismatch = []
    if len(digests) > 1:
        mismatch.append(f"rounds gave {len(digests)} different output digests")
    elif expected is not None and digests[0] != expected:
        mismatch.append(f"output digest {digests[0]} differs from the baseline's {expected}")
    attempted = sum(r["operations"] for r in rounds) + 1
    failed = sum(r["failed"] for r in rounds) + len(mismatch)
    return attempted, failed, digests, [msg for r in rounds for msg in r["failures"]] + mismatch


def baseline_digest(workload: str, seed: int) -> str | None:
    """The output digest bench/baseline.json records for this workload and seed."""
    baseline = json.loads(BASELINE.read_text())
    return baseline["digests"].get(workload, {}).get(str(seed))


def _scale(rounds: list[dict]) -> tuple[float, float]:
    """The run's median calibration time, and the factor that brings its
    times to the reference machine speed."""
    calib = statistics.median(r["calib_s"] for r in rounds)
    return calib, CALIBRATION_S / calib


def end_to_end(rounds: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["trace"]]
    cpu = statistics.median(r["cpu_s"] for r in plain)
    setup = statistics.median(r["import_s"] for r in rounds)
    latencies = sorted(x for r in plain for x in r["latencies_ms"])
    pct, p_tail, n, beyond = stats.tail(latencies)
    p50 = stats.percentile(latencies, 50.0)
    calib, scale = _scale(rounds)
    metrics = {
        "cpu_s": cpu * scale,
        "queries_per_s": plain[0]["queries"] / (cpu * scale),
        "query_p50_ms": p50 * scale,
        "query_p99_ms": p_tail * scale,
        "setup_s": setup * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_ratio": 1.0 - failed / attempted,
    }
    wall = statistics.median(r["wall_s"] for r in plain)
    notes = {
        "cpu_s": (f"median of {len(plain)} untraced rounds of {plain[0]['queries']} queries; "
                  f"as measured {cpu:.4g} s CPU, {wall:.4g} s wall"),
        "query_p50_ms": f"as measured {p50:.4g} ms",
        "query_p99_ms": f"p{pct:g} of {n} samples, {beyond} beyond it; as measured {p_tail:.4g} ms",
        "setup_s": f"median of {len(rounds)} imports; as measured {setup:.4g} s",
        "ok_ratio": f"error_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)",
        "calibration": f"median {calib:.4g} s CPU; times above are scaled by {scale:.4g}",
    }
    return metrics, notes


def per_layer(rounds: list[dict]) -> tuple[dict, dict]:
    traced = [r["layers"] for r in rounds if r["trace"]]
    plain = [r["cpu_s"] for r in rounds if not r["trace"]]
    calib, scale = _scale(rounds)
    metrics = {}
    for key in traced[0]:
        value = statistics.median(layer[key] for layer in traced)
        # times (self_s, and the sieve's s) are scaled as the end-to-end ones are
        metrics[key] = value * scale if key.endswith((".self_s", ".s")) else value
    metrics["trace.overhead_ratio"] = (statistics.median(r["cpu_s"] for r in rounds if r["trace"])
                                       / statistics.median(plain))
    notes = {"trace.overhead_ratio": f"{len(traced)} traced against {len(plain)} untraced rounds",
             "calibration": f"median {calib:.4g} s CPU; times above are scaled by {scale:.4g}"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hurwitzbias benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    if not (root / "src" / "hurwitzbias" / "__init__.py").is_file():
        print(f"error: no hurwitzbias sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        rounds = run_rounds(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, digests, failures = tally(rounds, baseline_digest(args.workload, args.seed))
    correct = failed == 0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values, notes = per_layer(rounds) if args.trace else end_to_end(rounds, attempted, failed)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the benchmark computes no {', '.join(missing)}", file=sys.stderr)
        return 1
    env = _environment(root, rounds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    for m in wanted:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} {note}")
    print(f"  calibration {notes['calibration']}")
    print(f"  digest {' '.join(digests)}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "digest": digests, "environment": env,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "notes": notes,
        "rounds": [{k: v for k, v in r.items() if k not in ("latencies_ms", "layers")}
                   for r in rounds],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
