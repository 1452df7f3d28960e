"""The hurwitz-tau benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of coeffs, walks, tau_points, verify_all, or ``all``, which runs
each workload in its own process and prints a table of every end-to-end
metric.  Run it from anywhere; it imports the library from ``src/`` next to
this directory.

One client, closed loop, no threads: each op is issued when the previous one
has returned.  Ops go through ``cli.main(argv)`` in-process (verify_all calls
``verify.run_suite("all", seed)``, one op per check).  The seed fixes an op
set (see workloads.py); a run sends it in whole passes, each in a fresh
seeded order, at least MIN_PASSES times and as many more as fit in
``--seconds``.  Every result is checked against an independent route after
the timed region; an op that raised, exited non-zero or disagreed with its
check counts as failed.

Every latency is the CPU time of the process that does the work
(``time.process_time``), scaled to a host of fixed speed by a reference
loop timed around each op (see reference.py).  The work is single-threaded
pure Python, so CPU time is what it costs; on a shared VM the same op's CPU
time still drifts by up to a factor of two with other tenants' load, and
the reference loop drifts with it.

--trace 0 reports the end-to-end metrics, caches warm.  Each op of the set
is timed by its best latency over the run's passes: ops_per_s is the op
count over the sum of those latencies, op_p50_ms their median, op_tail_ms
the highest percentile with at least ten ops beyond it, both percentiles
by the Harrell-Davis estimator.  setup_s is the median over fresh
processes, one started before each pass and at least SETUP_REPEATS in all,
of the scaled CPU time of import plus cold cache fill; peak_rss_mb the
run's peak resident memory.  --trace 1 sends the op set MIN_PASSES times
untraced and MIN_PASSES times traced, and reports the per-layer metrics of
the first traced pass, trace_overhead_frac (the drop in ops_per_s from the
untraced to the traced passes, each op at its best) and the library's
cache counters; spans are written to .perfbench/.

The last line of stdout is one JSON object: correct, attempted, failed
(ops_failed_frac is failed/attempted) and metrics.  Lines before it are a
readable summary, with the environment and the op-list hash of the seed.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import ScaledClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("coeffs", "walks", "tau_points", "verify_all")
# Each op's latency is its best over at least two passes.
MIN_PASSES = 2
SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[3]); "
    "from reference import REFERENCE_S, reference_time; "
    "before = reference_time(5); start = time.process_time(); sys.path.insert(0, sys.argv[1]); "
    "from hurwitz_tau import cli; "
    "from hurwitz_tau.characters import character_table; "
    "from hurwitz_tau.groupalg import conjugacy_classes; "
    "[character_table(n) for n in range(9)]; "
    "[conjugacy_classes(n) for n in range(1, int(sys.argv[2]) + 1)]; "
    "cpu = time.process_time() - start; "
    "print(cpu * 2 * REFERENCE_S / (before + reference_time(5)))"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "platform": platform.platform(),
    }


def setup_once(nmax: int) -> float:
    """Scaled CPU time a fresh interpreter takes to import the CLI and fill
    the character-table and conjugacy-class caches, as every CLI call does.
    The child times itself, which leaves out the interpreter's own start."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(nmax), str(HERE)],
        check=True, timeout=120, capture_output=True, text=True,
    )
    return float(done.stdout)


def fill_caches(nmax: int):
    from hurwitz_tau.characters import character_table
    from hurwitz_tau.groupalg import conjugacy_classes

    for n in range(9):
        character_table(n)
    for n in range(1, nmax + 1):
        conjugacy_classes(n)


def run_cli(argv):
    """(error or None, stdout) of one in-process CLI call."""
    from hurwitz_tau import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op failed; the run goes on
        return f"{type(exc).__name__}: {exc}", None
    return (None if code == 0 else f"exit code {code}"), buf.getvalue()


def op_set(workload: str, seed: int) -> list:
    from workloads import WORKLOADS, seeded

    return WORKLOADS[workload][1](seeded(workload, seed, "ops"))


def pass_order(workload: str, seed: int, index: int, size: int) -> list:
    from workloads import seeded

    order = list(range(size))
    seeded(workload, seed, index).shuffle(order)
    return order


def op_list_digest(workload: str, seed: int) -> str:
    """Hash of the ops the seed sends in its first three passes, in order."""
    ops = op_set(workload, seed)
    sent = [ops[i] for index in range(3) for i in pass_order(workload, seed, index, len(ops))]
    return hashlib.sha256(json.dumps(sent).encode()).hexdigest()[:16]


def run_passes(workload, seed, seconds=0.0, passes=1, tracer=None, between=None):
    """Send the op set ``passes`` times, then more while another pass, as
    long as the last one, ends within ``seconds``; each pass in a fresh
    seeded order, with ``between()`` called before each.  Returns (records,
    elapsed wall-clock seconds); a record is (op key, scaled seconds, error
    or None, output), where verify's op key is the check name and the output
    is stdout in the first pass and its digest in later ones, so memory does
    not grow with the number of passes."""
    ops = op_set(workload, seed)
    records = []
    clock = ScaledClock()
    start = last = perf_counter()
    done = 0
    while True:
        now = perf_counter()
        if done >= passes and (now - start) + (now - last) > seconds:
            break
        last = now
        if between is not None:
            between()
        for index in pass_order(workload, seed, done, len(ops)):
            op = ops[index]
            if op[0] == "verify":
                for result in run_suite_scaled(op[2], clock):
                    error = None if result.passed else f"check failed: {result.detail}"
                    records.append(((result.name,), result.seconds, error, None))
                continue
            if tracer is not None:
                tracer.op_id = index
            (error, out), latency = clock.call(run_cli, op)
            records.append((op, latency, error, out if done == 0 else digest(out)))
        done += 1
    return records, perf_counter() - start


def run_suite_scaled(seed, clock):
    """verify.run_suite("all", seed), each check's seconds re-timed by the
    clock around the library's own per-check runner."""
    from hurwitz_tau import verify

    check = verify._run

    def timed(name, fn):
        result, seconds = clock.call(check, name, fn)
        return dataclasses.replace(result, seconds=seconds)

    verify._run = timed
    try:
        return verify.run_suite("all", seed=seed)
    finally:
        verify._run = check


def digest(out):
    return None if out is None else "sha256:" + hashlib.sha256(out.encode()).hexdigest()


def count_failures(workload: str, seed: int, records) -> list:
    """Check every record after the timed region; returns one reason per
    failed op.  A repeat of an op must print the same bytes as its first
    run, which was checked in full."""
    from workloads import WORKLOADS, seeded

    checker_cls = WORKLOADS[workload][2]
    checker = None
    if checker_cls is not None:
        checker = checker_cls(ROOT, seeded(workload, seed, "checks"))
    verdicts = {}
    reasons = []
    for op, _, error, out in records:
        if error is None and checker is not None:
            if op not in verdicts:
                try:
                    verdicts[op] = (digest(out), checker.check(op, out))
                except Exception as exc:  # a malformed result fails its op
                    verdicts[op] = (digest(out), f"check raised {type(exc).__name__}: {exc}")
            first_digest, error = verdicts[op]
            seen = out if out.startswith("sha256:") else digest(out)
            if error is None and seen != first_digest:
                error = "output differs from an earlier run of the same op"
        if error is not None:
            reasons.append(f"{' '.join(map(str, op))}: {error}")
    return reasons


def quantile(values, p, grid=4000):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, the i-th of n weighted by the Beta((n+1)p, (n+1)(1-p))
    probability of [i/n, (i+1)/n].  Steadier from run to run than a single
    order statistic, since one op's noise moves it only by its weight."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    for j in range(grid):  # midpoint rule for the Beta density
        t = (j + 0.5) / grid
        log_density = (a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta
        weights[j * n // grid] += math.exp(log_density)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_percentile(n):
    """The highest whole percentile that leaves at least ten of n samples
    beyond it."""
    return max(1, math.floor(100 * (n - 10) / n))


def best_latencies(records) -> list:
    """Each op's best latency over the run's passes."""
    best = {}
    for op, seconds, _, _ in records:
        best[op] = min(seconds, best.get(op, seconds))
    return list(best.values())


def end_to_end(workload, seed, seconds):
    from workloads import WORKLOADS

    nmax = WORKLOADS[workload][0]
    setups = []
    fill_caches(nmax)
    records, elapsed = run_passes(
        workload, seed, seconds=seconds, passes=MIN_PASSES,
        between=lambda: setups.append(setup_once(nmax)),
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(nmax))
    setup_s = statistics.median(setups)
    best = best_latencies(records)
    pct = tail_percentile(len(best))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (quantile(best, 0.5) * 1000, "ms"),
        "op_tail_ms": (quantile(best, pct / 100) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"{len(records)} ops sent in {elapsed:.3f} s, {len(best)} distinct,"
        f" each timed by its best scaled CPU time of {len(records) // len(best)} passes",
        f"op_tail_ms is p{pct} of {len(best)} ops",
        f"setup_s is the median scaled CPU time of {len(setups)} fresh processes"
        f" started between passes, n <= {nmax}",
    ]
    return records, metrics, notes


def per_layer(workload, seed):
    """Per-layer metrics of one traced pass.  trace_overhead_frac compares
    MIN_PASSES untraced with MIN_PASSES traced passes, each op at its best
    scaled CPU time, as ops_per_s is measured; passes after the first are
    traced into a throwaway tracer, so the counts cover one pass."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    nmax = WORKLOADS[workload][0]
    tracer = Tracer()
    tracer.install()
    fill_caches(nmax)
    tracer.uninstall()
    untraced, _ = run_passes(workload, seed, passes=MIN_PASSES)
    records = []
    for index in range(MIN_PASSES):
        pass_tracer = tracer if index == 0 else Tracer()
        pass_tracer.install()
        try:
            traced, _ = run_passes(workload, seed, tracer=pass_tracer)
        finally:
            pass_tracer.uninstall()
        if index == 0:
            checks = [(rec[0][0], rec[1]) for rec in traced] if workload == "verify_all" else []
        records += traced
    untraced_s, traced_s = sum(best_latencies(untraced)), sum(best_latencies(records))
    metrics = layer_metrics(tracer, checks, 1 - untraced_s / traced_s)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(span_file)
    notes = [
        f"best scaled CPU time over {MIN_PASSES} passes: untraced {untraced_s:.3f} s,"
        f" traced {traced_s:.3f} s",
        f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}",
    ]
    return untraced + records, metrics, notes


def run_one(args) -> int:
    env = environment()
    if args.trace:
        records, metrics, notes = per_layer(args.workload, args.seed)
    else:
        records, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    reasons = count_failures(args.workload, args.seed, records)
    attempted, failed = len(records), len(reasons)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"op_list_sha256={op_list_digest(args.workload, args.seed)}"
          f" ops_in_set={len(op_set(args.workload, args.seed))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {unit}")
    print(f"  {'ops_failed_frac':<36} {failed / attempted:>16.6f} fraction ({failed} of {attempted})")
    for line in notes + reasons[:20]:
        print("  " + line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric per workload."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            code = done.returncode
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    units = {m: v["unit"] for r in results.values() for m, v in r["metrics"].items()}
    units["ops_failed_frac"] = "fraction"
    print(f"{'metric':<36}{'unit':<10}" + "".join(f"{w:>14}" for w in results))
    for metric, unit in units.items():
        cells = []
        for r in results.values():
            if metric == "ops_failed_frac":
                cells.append(f"{r['failed'] / r['attempted']:>14.6f}")
            else:
                cells.append(f"{r['metrics'][metric]['value']:>14.6f}")
        print(f"{metric:<36}{unit:<10}" + "".join(cells))
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hurwitz_tau" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC}; run from a hurwitz-tau checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
