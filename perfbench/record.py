"""Record a benchmark result file: each workload over several seeds, plus one
traced run per workload.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json \
        --note "2 cores, L2 2 MiB per core, L3 300 MiB"

Runs are sequential, one process at a time, with BENCHMARK.json's
run_seconds.  For every end-to-end metric the file holds the values by seed,
their median and quartiles (statistics.quantiles, n=4), and the quartile
spread as a share of the median.  Compare a change against the parent by
recording both with the same seeds, and check a claim on a seed not used
while the change was written.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="", help="hardware the run cannot read itself")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    out = {"note": args.note, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in units}
        runs = []
        for seed in seeds:
            t = time.perf_counter()
            env, result = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "run_s": round(time.perf_counter() - t, 1)})
            for name in units:
                values[name].append(result["metrics"][name]["value"])
            print(workload, "seed", seed, "correct" if result["correct"] else "INCORRECT",
                  "failed %d/%d" % (result["failed"], result["attempted"]),
                  " ".join("%s=%.4f %s" % (k, v[-1], units[k]) for k, v in values.items()),
                  flush=True)
        _, traced = run_once(workload, seeds[0], args.seconds, 1)
        out["workloads"][workload] = {
            "env": env,
            "runs": runs,
            "end_to_end": {name: dict(summarize(v), unit=units[name], values=v)
                           for name, v in values.items()},
            "per_layer_seed%d" % seeds[0]: {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print("  %-14s median %12.4f %-4s iqr_share %.4f"
                  % (name, s["median"], s["unit"], s["iqr_share"]), flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
