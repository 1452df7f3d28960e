"""Self-test of the benchmark itself: every workload's check passes a true
result and counts a corrupted one as failed, and one seed always sends the
same op list.

    python3 perfbench/selftest.py

Prints one line per case and exits non-zero on the first case that does
not behave; takes well under a minute.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from hurwitz_tau import verify  # noqa: E402
from workloads import GOLDEN_ARGV  # noqa: E402


def bump(text: str) -> str:
    return str(Fraction(text) + 1)


def corrupt_gmatrix(out):
    payload = json.loads(out)
    entry = next(e for e in payload["entries"] if e["from"] != e["to"])
    label = next(iter(entry["series"]))
    entry["series"][label] = bump(entry["series"][label])
    return json.dumps(payload)


def corrupt_rows(out):
    rows = json.loads(out)
    row = next(r for r in rows if r["count"] != "0")
    row["count"] = bump(row["count"])
    return json.dumps(rows)


def corrupt_walk(out):
    record = json.loads(out.splitlines()[1])
    record["count"] = bump(record["count"])
    return f"{record['count']}\n{json.dumps(record)}\n"


def corrupt_series(key):
    def corrupt(out):
        payload = json.loads(out)
        label = sorted(payload[key])[-1]
        payload[key][label] = bump(payload[key][label])
        return json.dumps(payload)
    return corrupt


CASES = (
    ("coeffs", ("gmatrix", "--n", "6", "--twist", "mixed", "--cap", "4"), corrupt_gmatrix),
    ("coeffs", GOLDEN_ARGV, corrupt_rows),
    ("coeffs", ("table", "--family", "strict", "--nmax", "6", "--kmax", "4"), corrupt_rows),
    ("walks", ("walks", "--n", "6", "--from", "5,1", "--to", "3,2,1", "--kind", "monotone",
               "--steps", "3"), corrupt_walk),
    ("walks", ("walks", "--n", "5", "--from", "4,1", "--to", "5", "--kind", "plain",
               "--steps", "4", "--transitive"), corrupt_walk),
    ("tau_points", ("tau", "--family", "hciz", "--N", "2", "--a=1/2,-2/3", "--b=3/5,4/7",
                    "--zcap", "5", "--check-determinant"), corrupt_series("series")),
    ("tau_points", ("tau", "--family", "alpha_q", "--N", "2", "--alpha=-1/3", "--a=1/2,-2/3",
                    "--b=3/5,4/7", "--qcap", "5", "--check-determinant"),
     corrupt_series("schur_expansion")),
    ("tau_points", ("table", "--family", "okounkov", "--nmax", "5", "--kmax", "3",
                    "--connected"), corrupt_rows),
)


def failures(workload, records):
    return run.count_failures(workload, 1, records)


def main() -> int:
    for workload, argv, corrupt in CASES:
        error, out = run.run_cli(argv)
        good = failures(workload, [(argv, 0.0, error, out)])
        bad = failures(workload, [(argv, 0.0, None, corrupt(out))])
        repeat = failures(workload, [(argv, 0.0, None, out), (argv, 0.0, None, corrupt(out))])
        ok = not good and len(bad) == 1 and len(repeat) == 1
        print(f"{'ok ' if ok else 'BAD'} {workload}: {' '.join(argv)}")
        if not ok:
            print(f"    true result: {good}\n    corrupted: {bad}\n    repeat: {repeat}")
            return 1

    suite = verify.run_suite
    verify.run_suite = lambda name, seed: [verify.CheckResult("corrupted.check", False, 0.0, "x")]
    try:
        records, _ = run.run_passes("verify_all", 1)
    finally:
        verify.run_suite = suite
    if len(failures("verify_all", records)) != 1:
        print("BAD verify_all: a failed CheckResult is not counted")
        return 1
    print("ok  verify_all: a failed CheckResult is counted")

    for workload in run.WORKLOAD_NAMES:
        first, again, other = (run.op_list_digest(workload, s) for s in (1, 1, 2))
        if first != again or first == other:
            print(f"BAD {workload}: op list digests {first} {again} {other}")
            return 1
        print(f"ok  {workload}: seed 1 gives op list {first} every time, seed 2 gives {other}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
