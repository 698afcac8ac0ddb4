"""Single wall-clock timings of the ROADMAP's first recorded numbers.

    python3 bench/reference.py [--out FILE]

Run from the root of a checkout.  Each item runs once in a fresh interpreter
that imports hurwitzbias from src/, and only the call itself is timed: the
class-number sieve at 10^6 and 4*10^6, density_scan(1000), and the scan CLI
at X = 1000 writing its CSV under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import child_env

OUT = Path(__file__).resolve().parent / "out"

TIMER = """
import sys, time, contextlib, io
import hurwitzbias, hurwitzbias.cli
from hurwitzbias.hurwitz import HurwitzTable
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    {call}
print(time.perf_counter() - t0)
"""

ITEMS = {
    "sieve_1e6_s": "HurwitzTable(10**6)",
    "sieve_4e6_s": "HurwitzTable(4 * 10**6)",
    "density_scan_1000_s": "hurwitzbias.density_scan(1000)",
    "scan_1000_s": "hurwitzbias.cli.main(['scan', '--X', '1000', '--out', {csv!r}])",
}


def time_reference(root: Path) -> dict[str, float]:
    OUT.mkdir(exist_ok=True)
    csv = OUT / "reference-scan.csv"
    env = child_env(root)
    timings = {}
    for name, call in ITEMS.items():
        code = TIMER.format(call=call.format(csv=str(csv)))
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        timings[name] = float(proc.stdout.strip().splitlines()[-1])
        print(f"{name:<22} {timings[name]:.3f} s", flush=True)
    csv.unlink(missing_ok=True)
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time the ROADMAP's reference paths once")
    parser.add_argument("--out", help="write the timings here as JSON")
    args = parser.parse_args(argv)
    timings = time_reference(Path.cwd())
    if args.out:
        Path(args.out).write_text(json.dumps(timings, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
