"""Run the benchmark once per seed and report each end-to-end metric's
median and spread, the way a change is judged against its bounds.

    python3 perfbench/spread.py [--workload W ...] [--seeds 1-10 --seeds 11-20]
        [--seconds 15] [--trace-seed 1] [--out FILE]

--workload may be given more than once (default: every workload in
BENCHMARK.json).  Each --seeds range is one set of runs (default 1-10); runs
are made one after another, each in its own process.  The spread of a
metric is (q3 - q1) / median over its per-seed values in a set, quartiles as
``statistics.quantiles(values, n=4)`` gives them; with two sets, the change
of each median from the first set to the second is reported beside the
metric's bound.  --trace-seed adds one traced run per workload.  With --out,
every value is written to FILE as JSON (perfbench/baseline.json is such a
file).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES, environment

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def measure(workload, seeds, seconds):
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": first["unit"], **summary(values)}
    return {
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "ops_attempted": sum(r["attempted"] for r in runs),
        "ops_failed": sum(r["failed"] for r in runs),
        "end_to_end": metrics,
    }


def worsening(first, second, better):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=seed_range, action="append")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = {
        "command": " ".join(["python3", "perfbench/spread.py", *(argv or sys.argv[1:])]),
        "environment": environment(),
        "seconds": args.seconds,
        "workloads": {},
    }
    seed_sets = args.seeds or [seed_range("1-10")]
    for workload in args.workload or names:
        sets = [measure(workload, seeds, args.seconds) for seeds in seed_sets]
        result = out["workloads"][workload] = {"sets": sets}
        failed = (f"seeds {s['seeds']} {s['ops_failed']} of {s['ops_attempted']} ops failed"
                  for s in sets)
        print(f"{workload}: " + ", ".join(failed))
        for name, metric in sets[0]["end_to_end"].items():
            line = f"  {name:<12} {metric['unit']:<4} bound {bounds[name]['bound']:.2f}"
            for s in sets:
                m = s["end_to_end"][name]
                line += f" | median {m['median']:>10.4f} spread {m['spread']:.4f}"
            if len(sets) == 2:
                worse = worsening(metric["median"], sets[1]["end_to_end"][name]["median"],
                                  bounds[name]["better"])
                line += f" | second median worse by {worse:+.4f}"
            print(line, flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            result[f"per_layer_seed_{args.trace_seed}"] = {
                name: m["value"] for name, m in traced["metrics"].items()
            }
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
