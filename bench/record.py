"""Record every workload at one seed, untraced and traced, in one result file.

Usage (from the repository root)::

    python3 bench/record.py --seed 1 --out bench/results/seed-baseline.json

Runs ``bench/run.py`` once per workload and mode with the run length from
BENCHMARK.json, and keeps each run's result line and printed notes (regime
checks, output digests, sample counts) with the machine context.  A claimed
speed-up cites two such files made on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = doc["workloads"][name] = {}
        for mode, trace in (("end_to_end", "0"), ("per_layer", "1")):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", trace],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            runs[mode] = {"result": json.loads(lines[-1]), "notes": lines[:-1]}
            print(f"{name} {mode}: error rate {runs[mode]['result']['failed']}/"
                  f"{runs[mode]['result']['attempted']}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
