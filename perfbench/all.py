#!/usr/bin/env python3
"""Run the checker self-test and every workload, untraced and traced.

    python3 perfbench/all.py --seed 1 --seconds 40

Prints, per workload, every end-to-end metric with its unit and sample
count, the failed ratio, the per-layer metrics of the traced run, and
the tracing overhead: the traced run's batch time over the untraced
one's, minus one. Exits non-zero if the self-test or any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ieee9-cli", "ecm-n40", "oracle-synth")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(command, check=True, capture_output=True, text=True,
                           cwd=HERE.parent).stdout.splitlines()
    detail = json.loads(lines[-2])["detail"]
    detail["result"] = json.loads(lines[-1])
    return detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args()

    status = subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=HERE.parent).returncode
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        print(f"\n== {workload} (seed {args.seed}, {plain['lists']} list(s) of "
              f"{plain['answers_per_list']} answers; inputs {plain['inputs']})")
        for name, entry in plain["latency"].items():
            print(f"  {name:<34} {entry['value']:>12.6g} {entry['unit']:<6} n={entry['n']}")
        for name, entry in plain["end_to_end"].items():
            n = f"n={plain['lists']}" if name == "batch_s" else ""
            print(f"  {name:<34} {entry['value']:>12.6g} {entry['unit']:<6} {n}")
        print(f"  {'failed_ratio':<34} {plain['failed_ratio']:>12.6g} {'':<6} "
              f"n={plain['attempted']}; known defects: "
              f"{[k['known_defect'] for k in plain['known_defects']] or 'none'}")
        for name, entry in traced["per_layer"].items():
            print(f"  {name:<34} {entry['value']:>12.6g} {entry['unit']}")
        overhead = traced["end_to_end"]["batch_s"]["value"] / plain["end_to_end"]["batch_s"]["value"] - 1
        print(f"  {'tracing overhead (batch_s)':<34} {100 * overhead:>+11.2f} %")
        for detail in (plain, traced):
            if not detail["result"]["correct"]:
                status = 1
                print(f"  INCORRECT (trace={detail['trace']}): {detail['failures']}")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
