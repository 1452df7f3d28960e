"""The benchmark's op outputs, pinned.

For the coeffs, walks and tau_points op sets at seeds 1-3, read from
perfbench/workloads.py, op_digests.json holds one sha256 per workload and
seed over every op's (argv, exit code, stdout), in op-set order.  A change
that means to alter an op's output rewrites the file with

    PYTHONPATH=src python tests/test_op_digests.py

and says why in CHANGES.md.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from hurwitz_tau import cli  # noqa: E402

OP_DIGESTS = Path(__file__).parent / "goldens" / "op_digests.json"
WORKLOADS = ("coeffs", "walks", "tau_points")
SEEDS = (1, 2, 3)


def op_digests() -> dict:
    digests = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            ops = workloads.WORKLOADS[workload][1](workloads.seeded(workload, seed, "ops"))
            h = hashlib.sha256()
            for argv in ops:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli.main(list(argv))
                h.update(json.dumps([list(argv), code, buf.getvalue()]).encode() + b"\n")
            digests[f"{workload} {seed}"] = {"ops": len(ops), "sha256": h.hexdigest()}
    return digests


def test_op_outputs_match_the_digests():
    assert op_digests() == json.loads(OP_DIGESTS.read_text())


if __name__ == "__main__":
    OP_DIGESTS.write_text(json.dumps(op_digests(), indent=2) + "\n")
