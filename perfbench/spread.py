"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload parse-long --seeds 1-10 [--seconds 30]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json; "steady" means the
spread is below a third of the bound (setup_s is not held to its bound).
Runs are sequential, one process at a time.  --out appends one JSON line per
workload with the medians, quartiles and the run environment.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return json.loads(lines[-1]), env


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    runs = []
    env = None
    for seed in parse_seeds(args.seeds):
        result, env = run_once(args.workload, seed, args.seconds)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed")
        runs.append(result)
    summary = {"workload": args.workload, "seeds": args.seeds,
               "seconds": args.seconds, "env": env, "metrics": {}}
    steady = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        ok = name == "setup_s" or spread < metric["bound"] / 3
        steady &= ok
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "unit": metric["unit"], "values": values}
        print(f"{args.workload:12s} {name:26s} median {med:12.4f} {metric['unit']:4s} "
              f"spread {spread:7.4f} bound {metric['bound']:.2f} "
              f"{'ok' if ok else 'WIDE'}  {' '.join(f'{v:.4g}' for v in values)}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
    return 0 if steady and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
