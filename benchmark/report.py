"""Run every workload untraced and traced, and print every end-to-end
metric and the per-layer report by name and with its unit.

    python3 benchmark/report.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [run(w, args.seed, args.seconds, t) for t in (0, 1)]
               for w in workloads}

    print(f"end-to-end metrics (seed {args.seed}, {args.seconds} s per run)")
    for w in workloads:
        untraced = results[w][0]
        print(f"\n[{w}] correct={untraced['correct']} "
              f"attempted={untraced['attempted']} failed={untraced['failed']} "
              f"failed_frac={untraced['failed'] / untraced['attempted']:.4f}")
        for m in spec["end_to_end"]:
            v = untraced["metrics"][m["name"]]
            print(f"  {m['name']:<24} {v['value']:>14.6g} {v['unit']}")

    width = max(len(m["name"]) for m in spec["per_layer"])
    print("\nper-layer metrics (traced run)")
    print(f"  {'metric':<{width}} " + " ".join(f"{w:>15}" for w in workloads)
          + "  unit")
    for m in spec["per_layer"]:
        vals = [results[w][1]["metrics"][m["name"]]["value"] for w in workloads]
        print(f"  {m['name']:<{width}} " + " ".join(f"{v:>15.6g}" for v in vals)
              + f"  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
