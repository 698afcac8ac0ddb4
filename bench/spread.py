"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads moment-stream --seeds 1-10 [--out FILE]

Run from the root of a checkout.  For every workload it runs bench/run.py
once per seed (untraced, and once traced with --trace-seed), then prints,
for each end-to-end metric, the median over seeds and the distance between
the first and third quartiles as a share of that median, next to the
metric's bound in BENCHMARK.json.  --out writes everything as JSON, which is
how bench/baseline.json is made, with --trace-seed 1 --reference
--digest-seeds 0-63.  Its `digests` map holds each workload's output digest
for every seed run, which run.py then requires of later runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from reference import time_reference
from run import child_env

RUN = Path(__file__).resolve().parent / "run.py"
ROUND = RUN.parent / "round.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    path = RUN.parent / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} failed its checks; see {path}")
    record = json.loads(path.read_text())
    result["environment"] = record["environment"]
    result["digest"] = record["digest"][0]
    return result


def _digest(workload: str, seed: int) -> str:
    """The output digest of one untraced round of the workload."""
    root = Path.cwd()
    proc = subprocess.run([sys.executable, str(ROUND), "--workload", workload, "--seed", str(seed)],
                          cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"round of {workload} seed {seed} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["failed"]:
        raise SystemExit(f"round of {workload} seed {seed} failed: {record['failures']}")
    return record["digest"]


def _record_digest(digests: dict, seed: int, digest: str) -> None:
    if digests.setdefault(str(seed), digest) != digest:
        raise SystemExit(f"seed {seed} gave the output digests {digest} and {digests[str(seed)]}")


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="seed spread of the benchmark's metrics")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run with this seed")
    parser.add_argument("--reference", action="store_true",
                        help="also time the ROADMAP's reference paths once (bench/reference.py)")
    parser.add_argument("--digest-seeds", type=_seeds, default=[],
                        help="also record the output digest of one round for each of these seeds")
    parser.add_argument("--out", help="write all results here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}, "digests": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(_run(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f} s, "
                  f"correct {runs[-1]['correct']}", flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = stats.quartile_spread(values)
            entry["metrics"][name] = {"median": statistics.median(values), "spread": spread,
                                      "bound": bound, "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16} median {statistics.median(values):>12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
        digests = summary["digests"][workload] = {}
        for seed, run in zip(args.seeds, runs):
            _record_digest(digests, seed, run["digest"])
        if args.trace_seed is not None:
            entry["traced"] = _run(workload, args.trace_seed, args.seconds, 1)
            _record_digest(digests, args.trace_seed, entry["traced"]["digest"])
        for seed in args.digest_seeds:
            _record_digest(digests, seed, _digest(workload, seed))
        summary["workloads"][workload] = entry
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    if args.reference:
        summary["reference"] = time_reference(Path.cwd())
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
