"""Command line interface.

Subcommands: verify, table, walks, tau, gmatrix, chartable.  All output is
machine readable (JSON/CSV), rationals serialise as "num/den" strings and
never as floats, and identical flags plus the same --seed produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage error, 141 (128 + SIGPIPE) when stdout's reader has gone: the rest
of the output goes to devnull, and no traceback is printed.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import config, tauseries, verify
from .characters import character_table
from .groupalg import (
    WalkQuery,
    count_walks,
    mixed,
    multi_monotone,
    plain,
    strictly_monotone,
    weak_then_strict,
    weakly_monotone,
)
from .partitions import format_partition, parse_partition, partitions_of
from .series import series_json
from .twists import connection_text

# gmatrix spells the twist of the plain walks "exp"
GMATRIX_KINDS = {("exp" if kind == "plain" else kind): kind for kind in tauseries.WALK_KINDS}


def parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} takes rationals num/den, got {text!r}") from None


def parse_fraction_list(text: str, flag: str) -> list[Fraction]:
    return [parse_fraction(piece, flag) for piece in text.split(",")] if text else []


def write(text: str, out_path=None) -> None:
    """Write text to out_path, or to stdout when no path is given."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit(payload, out_path=None):
    write(json.dumps(payload, indent=2) + "\n", out_path)


# a table row and a gmatrix entry as json.dumps(indent=2) prints them in
# place: the one place that knows each printed key order
_TABLE_ROW = (
    '  {\n    "n": %d,\n    "from": %s,\n    "to": %s,\n    "steps": %s,\n'
    '    "count": "%d",\n    "connected": %s\n  }'
)
_GMATRIX_ENTRY = (
    '    {\n      "from": %s,\n      "to": %s,\n      "series": {\n        %s\n      }\n    }'
)


def table_json(rows: list, connected: bool) -> str:
    """json.dumps(indent=2) of the hurwitz_table rows as dicts in _TABLE_ROW's
    key order (n, from, to, steps, count, connected), the count as a string,
    each row printed from the template.  Each partition label is rendered
    once, and each step datum, the one dict the rows of that datum share,
    once at the row's indent."""
    if not rows:
        return "[]"
    label = functools.cache(lambda lam: json.dumps(format_partition(lam)))
    flag = "true" if connected else "false"
    steps = {}  # id(step datum) -> its text; the rows keep each datum alive
    lines = []
    for n, lam, mu, data, count in rows:
        text = steps.get(id(data))
        if text is None:
            text = steps[id(data)] = json.dumps(data, indent=2).replace("\n", "\n    ")
        lines.append(_TABLE_ROW % (n, label(lam), label(mu), text, count, flag))
    return "[\n" + ",\n".join(lines) + "\n]"


def gmatrix_json(n: int, twist: str, text: dict) -> str:
    """json.dumps(indent=2) of {"n", "twist", "entries"}: one entry per pair
    (lam, mu) of partitions of n with a nonzero series text[(lam, mu)], each
    printed from _GMATRIX_ENTRY.  The zero-step term makes every diagonal
    entry nonzero, so neither the entries nor a series is ever empty.  The
    monomial labels and "num/den" texts need no escaping."""
    label = {lam: json.dumps(format_partition(lam)) for lam in partitions_of(n)}
    entries = [
        _GMATRIX_ENTRY % (
            label[lam], label[mu], ",\n        ".join(f'"{k}": "{v}"' for k, v in series.items())
        )
        for lam in label
        for mu in label
        if (series := text[(lam, mu)])
    ]
    head = '{\n  "n": %d,\n  "twist": %s,\n  "entries": [\n' % (n, json.dumps(twist))
    return head + ",\n".join(entries) + "\n  ]\n}"


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, nmax=args.nmax, seed=args.seed)
    failed = [r for r in results if not r.passed]
    if args.json:
        for r in results:
            print(json.dumps(dataclasses.asdict(r)))
        print(json.dumps({"checks": len(results), "failed": len(failed)}))
        return 1 if failed else 0
    for r in results:
        print(r.line())
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_chartable(args) -> int:
    table = character_table(args.n)
    emit(table.as_json_dict(), args.out)
    return 0


def _lengths(text: str) -> list[int]:
    try:
        lengths = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--segments takes comma-separated integers, got {text!r}") from None
    if min(lengths) < 0:
        raise ValueError(f"--segments lengths must be >= 0, got {text!r}")
    return lengths


def _mixed(p, lengths):
    (steps,) = lengths
    if p is None:
        raise ValueError("--kind mixed needs --p (length of the monotone prefix)")
    if p > steps:
        raise ValueError(f"--p must be <= --steps, got --p {p} and --steps {steps}")
    return mixed(p, steps)


def _weakstrict(p, lengths):
    if len(lengths) != 2:
        raise ValueError("--kind weakstrict needs --segments k,l (weak, then strict length)")
    return weak_then_strict(*lengths)


# walks --kind: the groupalg segments of each tauseries.WALK_KINDS kind, from
# --p and the walk lengths (--segments, else the one length --steps)
WALK_SEGMENTS = {
    "plain": lambda p, lengths: plain(*lengths),
    "monotone": lambda p, lengths: weakly_monotone(*lengths),
    "strict": lambda p, lengths: strictly_monotone(*lengths),
    "mixed": _mixed,
    "weakstrict": _weakstrict,
    "multi": lambda p, lengths: multi_monotone(lengths),
}


def cmd_walks(args) -> int:
    if args.p is not None and args.kind != "mixed":
        raise ValueError("--p applies to --kind mixed only")
    if args.segments is not None and args.kind not in ("multi", "weakstrict"):
        raise ValueError("--segments applies to --kind multi and weakstrict only")
    if args.segments is None:
        lengths = [args.steps or 0]
    else:
        lengths = _lengths(args.segments)
        if args.steps not in (None, sum(lengths)):
            raise ValueError(
                "--steps must equal the sum of --segments when both are given,"
                f" got --steps {args.steps} and --segments {args.segments!r}"
            )
    segments = WALK_SEGMENTS[args.kind](args.p, lengths)
    query = WalkQuery(
        args.n,
        parse_partition(getattr(args, "from")),
        parse_partition(args.to),
        segments,
        transitive=args.transitive,
    )
    value = count_walks(query)
    print(value)
    record = {
        "n": args.n,
        "from": format_partition(query.from_type),
        "to": format_partition(query.to_type),
        "kind": args.kind,
        "steps": [
            {"kind": seg.kind, "length": seg.length} for seg in query.segments
        ],
        "transitive": args.transitive,
        "count": str(value),
    }
    print(json.dumps(record, sort_keys=False))
    return 0


def cmd_gmatrix(args) -> int:
    kind = tauseries.WALK_KINDS[GMATRIX_KINDS[args.twist]]
    text = connection_text(kind.twist(args.n, args.cap), args.n)
    write(gmatrix_json(args.n, kind.label, text) + "\n", args.out)
    return 0


def cmd_tau(args) -> int:
    hciz = args.family == "hciz"
    for name in ("alpha", "qcap") if hciz else ("zcap",):
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} does not apply to --family {args.family}")
    flag, cap = ("--zcap", args.zcap) if hciz else ("--qcap", args.qcap)
    if cap is None:
        cap = config.SERIES_CAP_DEFAULT if hciz else 5
    if cap > tauseries.TAU_NMAX_CAP:
        raise ValueError(f"{flag} is capped at {tauseries.TAU_NMAX_CAP}, got {cap}")
    needs = ("N", "a", "b") if hciz else ("N", "alpha", "a", "b")
    if any(getattr(args, name) is None for name in needs):
        raise ValueError(f"--family {args.family} needs " + ", ".join(f"--{n}" for n in needs))
    a_vals, b_vals = parse_fraction_list(args.a, "--a"), parse_fraction_list(args.b, "--b")
    if len(a_vals) != args.N or len(b_vals) != args.N:
        raise ValueError(
            f"--a and --b need exactly N = {args.N} points each,"
            f" got {len(a_vals)} and {len(b_vals)}"
        )
    payload = {"family": args.family, "N": args.N}
    if hciz:
        view = tauseries.hciz_family(args.N, cap)
    else:
        alpha = parse_fraction(args.alpha, "--alpha")
        if args.check_determinant:
            report = tauseries.alpha_q_determinant(args.N, alpha, a_vals, b_vals, cap)
            emit(report, args.out)
            return 0 if report["entrywise_matches_schur_expansion"] else 1
        view = tauseries.alpha_q_family(alpha, args.N, cap)
        payload["alpha"] = str(alpha)
    series = view.printed(tauseries.tau_at_points(view.space, cap, view.r_of, a_vals, b_vals))
    payload.update(a=[str(x) for x in a_vals], b=[str(x) for x in b_vals])
    payload[flag[2:]] = cap
    payload["series"] = series_json(series)
    if hciz and args.check_determinant:
        det = tauseries.hciz_determinant(args.N, a_vals, b_vals, cap)
        payload["determinant"] = series_json(det)
        payload["determinant_matches"] = det == series
    emit(payload, args.out)
    return 0 if payload.get("determinant_matches", True) else 1


def cmd_table(args) -> int:
    kind = {"okounkov": "plain"}.get(args.family, args.family)
    rows = tauseries.hurwitz_table(kind, args.nmax, args.kmax, connected=args.connected)
    if args.format == "json":
        write(table_json(rows, args.connected) + "\n", args.out)
        return 0
    # CSV: one column per step datum (plain's b prints under the header k)
    columns = tauseries.WALK_KINDS[kind].steps(0)[0][0]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "from", "to", *("k" if c == "b" else c for c in columns), "count"])
    for n, lam, mu, data, count in rows:
        step_values = [
            ",".join(str(d) for d in v) if isinstance(v, list) else v for v in data.values()
        ]
        writer.writerow([n, format_partition(lam), format_partition(mu), *step_values, count])
    write(buffer.getvalue(), args.out)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz-tau",
        description=(
            "Exact walk-counting generating functions on symmetric-group"
            " Cayley graphs; walks take n <= 8"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=verify.SUITES, nargs="?", default="all")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    p.add_argument(
        "--json", action="store_true",
        help="one JSON object per check (name, passed, seconds, detail), then the summary",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chartable", help="character table as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("walks", help="count constrained walks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--kind", choices=tuple(tauseries.WALK_KINDS), default="plain")
    p.add_argument("--steps", type=int, default=None, help="walk length, default 0")
    p.add_argument("--p", type=int, default=None, help="monotone prefix length for --kind mixed")
    p.add_argument(
        "--segments",
        default=None,
        help="comma-separated lengths for --kind multi; weak and strict lengths k,l"
        " for --kind weakstrict",
    )
    p.add_argument("--transitive", action="store_true")
    p.set_defaults(func=cmd_walks)

    p = sub.add_parser("gmatrix", help="connection coefficients of a twist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--twist", choices=sorted(GMATRIX_KINDS), default="monotone")
    p.add_argument("--cap", type=int, default=config.SERIES_CAP_DEFAULT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gmatrix)

    p = sub.add_parser("tau", help="evaluate a tau series at points")
    p.add_argument("--family", choices=("hciz", "alpha_q"), required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument(
        "--zcap", type=int, default=None, help=f"hciz only, default {config.SERIES_CAP_DEFAULT}"
    )
    p.add_argument("--qcap", type=int, default=None, help="alpha_q only, default 5")
    p.add_argument("--check-determinant", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("table", help="walk-count tables")
    p.add_argument(
        "--family",
        choices=("okounkov", *tauseries.WALK_KINDS),
        required=True,
    )
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every integer flag that holds a size, a length or a cap
        for name in ("n", "N", "steps", "p", "cap", "zcap", "qcap", "nmax", "kmax"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise ValueError(f"--{name} must be >= 0, got {value}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # bad input: unparsable values, sizes over a cap, repeated points
        print(f"hurwitz-tau: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the exit flush would raise again on the unwritten rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
