import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau import cli, series, tauseries, twists
from hurwitz_tau.cli import main
from hurwitz_tau.groupalg import WalkQuery, count_walks, weak_then_strict
from hurwitz_tau.partitions import format_partition, partitions_of
from hurwitz_tau.tauseries import WALK_KINDS
from hurwitz_tau.verify import SUITES, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_walks_command(capsys):
    code, out = run_cli(
        capsys,
        "walks", "--n", "3", "--from", "1,1,1", "--to", "3",
        "--kind", "plain", "--steps", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3"
    record = json.loads(lines[1])
    assert record["count"] == "3"
    assert record["from"] == "1,1,1" and record["to"] == "3"


def test_walks_monotone_and_transitive(capsys):
    code, out = run_cli(
        capsys,
        "walks", "--n", "3", "--from", "1,1,1", "--to", "3",
        "--kind", "monotone", "--steps", "2",
    )
    assert code == 0 and out.strip().splitlines()[0] == "2"
    code, out = run_cli(
        capsys,
        "walks", "--n", "3", "--from", "1,1,1", "--to", "1,1,1",
        "--kind", "plain", "--steps", "2", "--transitive",
    )
    assert code == 0 and out.strip().splitlines()[0] == "0"


def test_walks_multi_segments(capsys):
    code, out = run_cli(
        capsys,
        "walks", "--n", "4", "--from", "2,1,1", "--to", "3,1",
        "--kind", "multi", "--segments", "2,1",
    )
    assert code == 0
    assert int(out.strip().splitlines()[0]) >= 0


def test_chartable(capsys):
    code, out = run_cli(capsys, "chartable", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"n": 2, "order": ["2", "1,1"], "chi": [[1, 1], [-1, 1]]}


def test_gmatrix_deterministic(capsys):
    code1, out1 = run_cli(capsys, "gmatrix", "--n", "3", "--twist", "monotone", "--cap", "4")
    code2, out2 = run_cli(capsys, "gmatrix", "--n", "3", "--twist", "monotone", "--cap", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["twist"] == "H"
    entry = next(
        e for e in data["entries"] if e["from"] == "1,1,1" and e["to"] == "3"
    )
    assert entry["series"]["z^2"] == "2"


def test_tau_hciz_with_determinant(capsys):
    code, out = run_cli(
        capsys,
        "tau", "--family", "hciz", "--N", "2", "--a", "1,2", "--b", "1/2,1/3",
        "--zcap", "4", "--check-determinant",
    )
    assert code == 0
    data = json.loads(out)
    assert data["determinant_matches"] is True
    assert data["series"]["z^1"] == "-5/2"


def test_tau_hciz_determinant_n4(capsys):
    # N = 4: a 4 x 4 determinant of exp entries, exact to z^(6 + 6) before the z^6 shift
    code, out = run_cli(
        capsys,
        "tau", "--family", "hciz", "--N", "4", "--a=1/2,-2/3,5/4,2/9",
        "--b=3/5,4/7,-1/3,7/2", "--zcap", "6", "--check-determinant",
    )
    assert code == 0
    assert json.loads(out)["determinant_matches"] is True


def test_tau_alpha_q_report(capsys):
    code, out = run_cli(
        capsys,
        "tau", "--family", "alpha_q", "--N", "2", "--alpha", "1/2",
        "--a", "1/2,1/3", "--b", "1,2", "--qcap", "5", "--check-determinant",
    )
    assert code == 0
    data = json.loads(out)
    assert data["entrywise_matches_schur_expansion"] is True


@pytest.mark.parametrize("check", ((), ("--check-determinant",)), ids=("", "check"))
@pytest.mark.parametrize(
    "argv",
    [
        ("tau", "--family", "hciz", "--N", "2", "--a", "1", "--b", "2,3"),
        ("tau", "--family", "hciz", "--N", "1", "--a", "1,2", "--b", "3,4"),
        ("tau", "--family", "alpha_q", "--N", "2", "--alpha", "1/2", "--a", "1,2", "--b", "3"),
        ("tau", "--family", "alpha_q", "--N", "0", "--alpha", "1/2", "--a", "1", "--b", ""),
    ],
    ids=" ".join,
)
def test_tau_rejects_a_point_count_other_than_n(argv, check):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, *check])
    assert code == 2 and out.getvalue() == ""
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and "points" in lines[0]


def _corrupt_r_2(monkeypatch):
    """Give r_(2) the value of r_(1,1) in every family at N points."""
    r_of = twists.AtPoints.r_of
    monkeypatch.setattr(
        twists.AtPoints, "r_of", lambda view, lam: r_of(view, (1, 1) if tuple(lam) == (2,) else lam)
    )


def test_tau_hciz_fails_when_one_r_nu_is_corrupted(capsys, monkeypatch):
    # a corrupted r_(2): the printed Schur-diagonal series then differs from
    # the determinant of the exp entries, and the op exits 1
    _corrupt_r_2(monkeypatch)
    code, out = run_cli(
        capsys,
        "tau", "--family", "hciz", "--N", "2", "--a", "1,2", "--b", "1/2,1/3",
        "--zcap", "4", "--check-determinant",
    )
    assert code == 1
    assert json.loads(out)["determinant_matches"] is False


def test_tau_alpha_q_fails_when_one_r_nu_is_corrupted(capsys, monkeypatch):
    # a corrupted r_(2): the Schur side then differs from the entrywise
    # determinant, the report prints as it is and the op exits 1
    _corrupt_r_2(monkeypatch)
    argv = ("--N", "2", "--alpha", "1/2", "--a", "1/2,1/3", "--b", "1,2", "--qcap", "5")
    code, out = run_cli(capsys, "tau", "--family", "alpha_q", *argv, "--check-determinant")
    assert code == 1
    half, third = Fraction(1, 2), Fraction(1, 3)
    report = tauseries.alpha_q_determinant(2, half, [half, third], [1, 2], 5)
    assert report["entrywise_matches_schur_expansion"] is False
    assert out == json.dumps(report, indent=2) + "\n"


def test_tau_alpha_q_determinant_at_no_points(capsys):
    # the 0 x 0 determinant is 1, the series of the op without the flag
    argv = ("--N", "0", "--alpha=1/2", "--a=", "--b=")
    code, out = run_cli(capsys, "tau", "--family", "alpha_q", *argv, "--check-determinant")
    assert code == 0
    report = json.loads(out)
    assert report["entrywise_matches_schur_expansion"] is True
    assert report["entrywise_determinant"] == report["schur_expansion"] == {"1": "1"}
    assert report["notes"] == "the 0 x 0 determinant is empty; both sides are r_0(0) = 1"
    assert run_cli(capsys, "tau", "--family", "alpha_q", *argv)[0] == 0


def test_tau_alpha_q_series(capsys):
    code, out = run_cli(
        capsys,
        "tau", "--family", "alpha_q", "--N", "1", "--alpha", "1/2",
        "--a", "2/3", "--b", "1/5", "--qcap", "4",
    )
    assert code == 0
    data = json.loads(out)
    # N=1 series is the binomial expansion of (1 - q a b)^(alpha-1)
    assert data["series"]["q^1"] == "1/15"  # (1-alpha) * a*b = 1/2 * 2/15


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ("--family", "hciz", "--N", "2", "--a", "1,2", "--b", "1/2,1/3", "--zcap", "3"),
            ("family", "N", "a", "b", "zcap", "series"),
        ),
        (
            ("--family", "hciz", "--N", "2", "--a", "1,2", "--b", "1/2,1/3", "--zcap", "3",
             "--check-determinant"),
            ("family", "N", "a", "b", "zcap", "series", "determinant", "determinant_matches"),
        ),
        (
            ("--family", "alpha_q", "--N", "2", "--alpha", "1/2", "--a", "1/2,1/3",
             "--b", "1,2", "--qcap", "3"),
            ("family", "N", "alpha", "a", "b", "qcap", "series"),
        ),
    ],
    ids=("hciz", "hciz-check", "alpha_q"),
)
def test_tau_payload_key_order(capsys, argv, keys):
    code, out = run_cli(capsys, "tau", *argv)
    assert code == 0
    assert tuple(json.loads(out)) == keys


@pytest.mark.parametrize(
    "argv, error",
    [
        (("--family", "hciz", "--N", "2", "--a", "1,2"), "--family hciz needs --N, --a, --b"),
        (
            ("--family", "alpha_q", "--N", "1", "--a", "1", "--b", "2"),
            "--family alpha_q needs --N, --alpha, --a, --b",
        ),
        (("--family", "hciz", "--N", "0", "--a=", "--b="), "N must be a positive integer"),
        (
            ("--family", "hciz", "--N", "0", "--a=", "--b=", "--check-determinant"),
            "N must be a positive integer",
        ),
        (("--family", "hciz", "--N", "-1", "--a=", "--b="), "--N must be >= 0, got -1"),
        (
            ("--family", "alpha_q", "--N", "-1", "--alpha", "1/2", "--a=", "--b="),
            "--N must be >= 0, got -1",
        ),
        (
            ("--family", "hciz", "--N", "1", "--alpha", "1/2", "--a", "1", "--b", "2"),
            "--alpha does not apply to --family hciz",
        ),
        (
            ("--family", "hciz", "--N", "1", "--a", "1", "--b", "2", "--qcap", "3"),
            "--qcap does not apply to --family hciz",
        ),
        (
            ("--family", "alpha_q", "--N", "1", "--alpha", "1/2", "--a", "1", "--b", "2",
             "--zcap", "3"),
            "--zcap does not apply to --family alpha_q",
        ),
    ],
    ids=(
        "hciz-missing", "alpha_q-missing", "hciz-N0", "hciz-N0-check", "hciz-N-1", "alpha_q-N-1",
        "hciz-alpha", "hciz-qcap", "alpha_q-zcap",
    ),
)
def test_tau_usage_errors(capsys, argv, error):
    code = main(["tau", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"hurwitz-tau: error: {error}\n"


def test_tau_zcap_guard(capsys):
    code = main(
        ["tau", "--family", "hciz", "--N", "2", "--a", "1,2", "--b", "3,4", "--zcap", "9"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("hurwitz-tau: error: --zcap")


@pytest.mark.parametrize("check", [(), ("--check-determinant",)])
def test_tau_qcap_guard(capsys, check):
    code = main(
        [
            "tau", "--family", "alpha_q", "--N", "2", "--alpha", "1/2",
            "--a", "1/2,1/3", "--b", "1,2", "--qcap", "9", *check,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("hurwitz-tau: error: --qcap")
    assert len(captured.err.strip().splitlines()) == 1


# table --family -> (CSV header, the row 1,1,1 -> 3 with two steps)
TABLE_CSV = {
    "okounkov": ("n,from,to,k,count", '3,"1,1,1",3,2,3'),
    "plain": ("n,from,to,k,count", '3,"1,1,1",3,2,3'),
    "monotone": ("n,from,to,k,count", '3,"1,1,1",3,2,2'),
    "strict": ("n,from,to,k,count", '3,"1,1,1",3,2,1'),
    "mixed": ("n,from,to,p,k,count", '3,"1,1,1",3,0,2,3'),
    "multi": ("n,from,to,segments,count", '3,"1,1,1",3,"2,0",1'),
    "weakstrict": (
        "n,from,to,segments,count",
        '3,"1,1,1",3,"1,1",'
        + str(count_walks(WalkQuery(3, (1, 1, 1), (3,), weak_then_strict(1, 1)))),
    ),
}


@pytest.mark.parametrize("family", sorted(TABLE_CSV))
def test_table_csv_header(capsys, family):
    code, out = run_cli(
        capsys,
        "table", "--family", family, "--nmax", "3", "--kmax", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header, row = TABLE_CSV[family]
    assert lines[0] == header
    assert row in lines


@pytest.mark.parametrize(
    ("twist", "label"),
    [
        ("exp", "Exp"), ("monotone", "H"), ("strict", "E"),
        ("mixed", "Exp*H"), ("weakstrict", "H*E"), ("multi", "E*E"),
    ],
)
def test_gmatrix_twist_label(capsys, twist, label):
    code, out = run_cli(capsys, "gmatrix", "--n", "3", "--twist", twist, "--cap", "2")
    assert code == 0
    assert json.loads(out)["twist"] == label


GMATRIX_DIGESTS = Path(__file__).parent / "goldens" / "gmatrix_digests.json"


def test_gmatrix_output_matches_the_digests(capsys):
    # the sha256 of gmatrix stdout for every twist at n = 0..7, caps 0, 3, 5,
    # written before gmatrix printed its text straight from the packed sums
    digests = {}
    for twist in sorted(cli.GMATRIX_KINDS):
        for n in range(8):
            for cap in (0, 3, 5):
                argv = ("gmatrix", "--n", str(n), "--twist", twist, "--cap", str(cap))
                code, out = run_cli(capsys, *argv)
                assert code == 0
                digests[f"{twist} {n} {cap}"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == json.loads(GMATRIX_DIGESTS.read_text())


TABLE_DIGESTS = Path(__file__).parent / "goldens" / "table_digests.json"
TABLE_DIGEST_ARGV = [
    ("--family", family, "--nmax", str(nmax), "--kmax", "4", "--format", fmt, *connected)
    for family in ("okounkov", *WALK_KINDS)
    for nmax in range(7)
    for fmt in ("json", "csv")
    for connected in ((), ("--connected",))
] + [
    ("--family", family, "--nmax", str(nmax), "--kmax", "4", "--connected")
    for family in ("okounkov", "monotone")
    for nmax in (6, 7)
]


def test_table_output_matches_the_digests(capsys):
    # the sha256 of table stdout for every family at nmax 0..6, kmax 4, plain
    # and connected, JSON and CSV, and the four connected tables at nmax 6, 7
    # that the benchmark prints, written before the packed products decoded
    # their live fields only and the rows printed from one template
    digests = {}
    for argv in TABLE_DIGEST_ARGV:
        code, out = run_cli(capsys, "table", *argv)
        assert code == 0
        digests[" ".join(argv[1:])] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == json.loads(TABLE_DIGESTS.read_text())


TAU_DIGESTS = Path(__file__).parent / "goldens" / "tau_digests.json"
TAU_POINTS = ("1/2,1/3,2,3,1/5", "1,2,1/5,1/7,3/2")


def tau_digest_argv() -> list:
    """tau for both families at N = 0..5 and caps 0, 1, 3, 5, 8, with and
    without --check-determinant, at the first N of fixed distinct points."""
    argv = []
    for family, cap_flag, extra in (("hciz", "--zcap", ()), ("alpha_q", "--qcap", ("--alpha", "1/2"))):
        for N in range(6):
            a, b = (",".join(points.split(",")[:N]) for points in TAU_POINTS)
            for cap in (0, 1, 3, 5, 8):
                for check in ((), ("--check-determinant",)):
                    argv.append(("tau", "--family", family, "--N", str(N), *extra,
                                 f"--a={a}", f"--b={b}", cap_flag, str(cap), *check))
    return argv


def tau_digests() -> dict:
    """{argv: [exit code, sha256 of stdout]} for tau_digest_argv(); rewrite
    the golden with PYTHONPATH=src python tests/test_cli.py and say why."""
    digests = {}
    for argv in tau_digest_argv():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(argv))
        digests[" ".join(argv[1:])] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    return digests


def test_tau_output_matches_the_digests():
    # the exit code and stdout of 120 tau runs, written before the N-point
    # families were read from one view: hciz at N = 4, 5 and at N = 0 (exit
    # 2), and alpha_q with --qcap below N(N-1)/2, which the benchmark ops
    # never reach
    assert tau_digests() == json.loads(TAU_DIGESTS.read_text())


def test_gmatrix_builds_no_series_to_print(capsys, monkeypatch):
    # gmatrix reads its text from the packed sums of the eigenvalues'
    # integer numerators: no series is constructed, by either of the two
    # constructors, and series_json does not run
    def refuse(*args):
        raise AssertionError("gmatrix built a series only to print it")

    for name in ("__init__", "_trusted"):
        monkeypatch.setattr(series.TruncSeries, name, refuse)
    for owner in (series, cli):
        monkeypatch.setattr(owner, "series_json", refuse)
    for twist in sorted(cli.GMATRIX_KINDS):
        code, out = run_cli(capsys, "gmatrix", "--n", "4", "--twist", twist, "--cap", "3")
        assert code == 0 and json.loads(out)["entries"]
    with pytest.raises(AssertionError, match="only to print"):
        twists.connection_coeffs(tauseries.WALK_KINDS["monotone"].twist(4, 3), 4)


def test_table_json_okounkov(capsys):
    code, out = run_cli(
        capsys,
        "table", "--family", "okounkov", "--nmax", "3", "--kmax", "2",
    )
    assert code == 0
    rows = json.loads(out)
    hit = next(
        r
        for r in rows
        if r["n"] == 3 and r["from"] == "1,1,1" and r["to"] == "3" and r["steps"]["b"] == 2
    )
    assert hit["count"] == "3"


def test_verify_small_suite(capsys):
    code, out = run_cli(capsys, "verify", "characters", "--nmax", "4")
    assert code == 0
    assert "PASS characters.orthogonality" in out
    assert "all" in out.splitlines()[-1]


def test_verify_json_lists_every_check(capsys):
    code, out = run_cli(capsys, "verify", "characters", "--nmax", "2", "--json")
    records = [json.loads(line) for line in out.splitlines()]
    checks, summary = records[:-1], records[-1]
    names = [r.name for r in run_suite("characters", nmax=2)]
    assert code == 0
    assert [c["name"] for c in checks] == names
    assert all(set(c) == {"name", "passed", "seconds", "detail"} and c["passed"] for c in checks)
    assert summary == {"checks": len(names), "failed": 0}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["walks", "--n", "3"])  # missing --from/--to
    assert info.value.code == 2


@pytest.mark.parametrize("kind", sorted(WALK_KINDS))
def test_walks_accepts_every_walk_kind(capsys, kind):
    extra = {"mixed": ("--p", "1"), "multi": ("--segments", "1,1"),
             "weakstrict": ("--segments", "1,1")}.get(kind, ())
    code, out = run_cli(
        capsys,
        "walks", "--n", "3", "--from", "1,1,1", "--to", "3", "--kind", kind,
        "--steps", "2", *extra,
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[1])["kind"] == kind


def test_walks_weakstrict_matches_table_row(capsys):
    code, out = run_cli(
        capsys,
        "walks", "--n", "4", "--from", "1,1,1,1", "--to", "4",
        "--kind", "weakstrict", "--segments", "2,1",
    )
    assert code == 0
    count, record = out.strip().splitlines()
    assert [(s["kind"], s["length"]) for s in json.loads(record)["steps"]] == [
        ("weak", 2), ("strict", 1),
    ]
    code, out = run_cli(capsys, "table", "--family", "weakstrict", "--nmax", "4", "--kmax", "3")
    assert code == 0
    row = next(
        r
        for r in json.loads(out)
        if r["from"] == "1,1,1,1" and r["to"] == "4" and r["steps"] == {"segments": [2, 1]}
    )
    assert row["count"] == count != "0"


def test_mixed_requires_p(capsys):
    code = main(
        ["walks", "--n", "3", "--from", "3", "--to", "3", "--kind", "mixed", "--steps", "2"]
    )
    assert code == 2


def test_mixed_p_above_steps_names_both_flags(capsys):
    code = main(["walks", "--n", "3", "--from", "3", "--to", "3", "--kind", "mixed", "--p", "3",
                 "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "hurwitz-tau: error: --p must be <= --steps, got --p 3 and --steps 2"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("walks", "--n", "3", "--from", "3,x", "--to", "3"),
        ("walks", "--n", "3", "--from", "3", "--to", "3", "--steps", "-1"),
        ("walks", "--n", "9", "--from", "9", "--to", "9"),
        (
            "tau", "--family", "hciz", "--N", "2", "--a=1,1", "--b=1,2",
            "--zcap", "4", "--check-determinant",
        ),
        ("tau", "--family", "hciz", "--N", "2", "--a", "1/0,1", "--b", "1,2"),
        (
            "tau", "--family", "alpha_q", "--N", "2", "--alpha", "1/0",
            "--a", "1/2,1/3", "--b", "1,2",
        ),
        ("gmatrix", "--n", "3", "--cap", "-1"),
        ("table", "--family", "plain", "--nmax", "2", "--kmax", "-2"),
        ("table", "--family", "plain", "--nmax", "-1"),
        ("tau", "--family", "hciz", "--N", "2", "--a", "1,2", "--b", "1/2,1/3", "--zcap", "-1"),
        (
            "tau", "--family", "alpha_q", "--N", "2", "--alpha", "1/2",
            "--a", "1/2,1/3", "--b", "1,2", "--qcap", "-1",
        ),
        ("verify", "characters", "--nmax", "-1"),
        ("verify", "characters", "--nmax", "0"),
        ("verify", "all", "--nmax", "3"),
        ("table", "--family", "plain", "--nmax", "2", "--kmax=-1"),
        ("table", "--family", "monotone", "--nmax", "2", "--kmax=-1", "--format", "csv"),
        ("walks", "--n", "3", "--from", "3", "--to", "3", "--kind", "weakstrict"),
        ("walks", "--n", "3", "--from", "3", "--to", "3", "--kind=weakstrict", "--segments=1,1,1"),
        ("tau", "--family", "hciz", "--N", "2", "--a", "1,2"),
        ("tau", "--family", "alpha_q", "--N", "2", "--a", "1/2,1/3", "--b", "1,2"),
        ("verify", "center", "--nmax", "11"),
        ("walks", "--n", "3", "--from", "3", "--to", "2,1", "--kind", "plain",
         "--segments", "1,2", "--steps", "1"),
        ("walks", "--n", "3", "--from", "3", "--to", "2,1", "--kind", "monotone",
         "--p", "1", "--steps", "2"),
        ("walks", "--n", "3", "--from", "3", "--to", "3", "--kind", "multi", "--segments", "",
         "--steps", "2"),
        ("tau", "--family", "hciz", "--N", "1", "--a=x", "--b", "2"),
        ("tau", "--family", "alpha_q", "--N", "1", "--alpha=x", "--a", "1", "--b", "2"),
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("hurwitz-tau: error:")


WALK_3 = ("walks", "--n", "3", "--from", "3", "--to", "3")
HCIZ_1 = ("tau", "--family", "hciz", "--N", "1", "--a", "1", "--b", "2")
ALPHA_Q_1 = ("tau", "--family", "alpha_q", "--N", "1", "--alpha", "1/2", "--a", "1", "--b", "2")


@pytest.mark.parametrize(
    "argv, error",
    [
        (("walks", "--n", "-1", "--from", "", "--to", ""), "--n must be >= 0, got -1"),
        ((*WALK_3, "--steps", "-1"), "--steps must be >= 0, got -1"),
        ((*WALK_3, "--kind", "mixed", "--steps", "2", "--p", "-1"), "--p must be >= 0, got -1"),
        (
            (*WALK_3, "--kind", "multi", "--segments", "1,x"),
            "--segments takes comma-separated integers, got '1,x'",
        ),
        (
            (*WALK_3, "--kind", "weakstrict", "--segments", "1,"),
            "--segments takes comma-separated integers, got '1,'",
        ),
        (("gmatrix", "--n", "3", "--cap", "-1"), "--cap must be >= 0, got -1"),
        (("gmatrix", "--n", "-2"), "--n must be >= 0, got -2"),
        ((*HCIZ_1, "--zcap", "-1"), "--zcap must be >= 0, got -1"),
        ((*ALPHA_Q_1, "--qcap", "-1"), "--qcap must be >= 0, got -1"),
        (("chartable", "--n", "-1"), "--n must be >= 0, got -1"),
        (("table", "--family", "plain", "--nmax", "-1"), "--nmax must be >= 0, got -1"),
        (("table", "--family", "plain", "--kmax=-2"), "--kmax must be >= 0, got -2"),
        (("table", "--family", "multi", "--kmax=-1"), "--kmax must be >= 0, got -1"),
        (("verify", "characters", "--nmax", "-1"), "--nmax must be >= 0, got -1"),
        (("verify", "characters", "--nmax", "0"), "nmax must be >= 1, got 0"),
        (
            (*WALK_3, "--kind", "multi", "--segments", "1,-1"),
            "--segments lengths must be >= 0, got '1,-1'",
        ),
        (
            (*WALK_3, "--kind", "weakstrict", "--segments=-1,1"),
            "--segments lengths must be >= 0, got '-1,1'",
        ),
        (
            (*WALK_3, "--kind", "multi", "--segments", "", "--steps", "2"),
            "--segments takes comma-separated integers, got ''",
        ),
        (
            (*WALK_3, "--kind", "weakstrict", "--segments="),
            "--segments takes comma-separated integers, got ''",
        ),
        (("tau", "--family", "hciz", "--N", "1", "--a=x", "--b", "2"),
         "--a takes rationals num/den, got 'x'"),
        (("tau", "--family", "hciz", "--N", "2", "--a", "1,2", "--b", "1,1/0"),
         "--b takes rationals num/den, got '1/0'"),
        (("tau", "--family", "alpha_q", "--N", "1", "--alpha=x", "--a", "1", "--b", "2"),
         "--alpha takes rationals num/den, got 'x'"),
        (("walks", "--n", "9", "--from", "9", "--to", "9"),
         "walk counting capped at n <= 8, got 9"),
        (
            ("tau", "--family", "hciz", "--N", "11", "--a=" + ",".join(map(str, range(1, 12))),
             "--b=" + ",".join(f"1/{i}" for i in range(2, 13)), "--check-determinant"),
            "the determinant is capped at N <= 10, got N = 11",
        ),
        (
            ("tau", "--family", "alpha_q", "--N", "11", "--alpha", "1/2",
             "--a=" + ",".join(map(str, range(1, 12))),
             "--b=" + ",".join(f"1/{i}" for i in range(2, 13)), "--check-determinant"),
            "the determinant is capped at N <= 10, got N = 11",
        ),
        # an empty piece is an error; only an empty list means no points
        (("tau", "--family", "hciz", "--N", "2", "--a", "1,,2", "--b", "1/2,1/3"),
         "--a takes rationals num/den, got ''"),
        (("tau", "--family", "hciz", "--N", "2", "--a", "1,2,", "--b", "1/2,1/3"),
         "--a takes rationals num/den, got ''"),
        ((*ALPHA_Q_1[:-2], "--b", ",2"), "--b takes rationals num/den, got ''"),
        # a walk length comes from one flag: a --steps beside --segments must agree
        (
            (*WALK_3, "--kind", "multi", "--steps", "3", "--segments", "1,1"),
            "--steps must equal the sum of --segments when both are given,"
            " got --steps 3 and --segments '1,1'",
        ),
        (
            (*WALK_3, "--kind", "weakstrict", "--steps", "5", "--segments", "1,1"),
            "--steps must equal the sum of --segments when both are given,"
            " got --steps 5 and --segments '1,1'",
        ),
        (
            (*WALK_3, "--kind", "multi", "--steps", "0", "--segments", "2,1"),
            "--steps must equal the sum of --segments when both are given,"
            " got --steps 0 and --segments '2,1'",
        ),
    ],
)
def test_negative_sizes_name_their_flag(capsys, argv, error):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"hurwitz-tau: error: {error}\n"


def test_table_has_no_bmax(capsys):
    # --kmax is the one flag for the step cap of a table
    with pytest.raises(SystemExit) as info:
        main(["table", "--family", "monotone", "--nmax", "2", "--kmax", "1", "--bmax", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --bmax 3" in capsys.readouterr().err


def test_walks_take_n_up_to_8(capsys):
    # one constant walk cap, 8, the cap of table --nmax: no environment
    # variable is needed to re-count an n = 8 table row
    code, out = run_cli(capsys, "walks", "--n", "8", "--from", "8", "--to", "8")
    assert code == 0 and out.splitlines()[0] == "1"


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the reader is gone before the count is written: no traceback, and not
    # exit 1, which says an identity failed
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hurwitz_tau.cli", "walks", "--n", "6",
             "--from", "3,2,1", "--to", "2,2,2", "--steps", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


SIZE = st.integers(-2, 4)
CAP = st.integers(-2, 3)


@st.composite
def cli_cases(draw):
    """(argv, bad) for one of the six subcommands: sizes <= 4, caps <= 3,
    rationals that may have a zero denominator.  bad is true when a drawn
    size or cap is negative, a denominator is zero or a tau point list's
    length is not N.  The tau and all
    suites of verify only get an nmax that is rejected: they cost seconds
    at any size."""
    ints = []

    def number(flag, strategy):
        value = draw(strategy)
        ints.append(value)
        return f"{flag}={value}"

    def partition(n):
        size = n if n >= 0 and draw(st.booleans()) else draw(st.integers(0, 4))
        return ",".join(map(str, draw(st.sampled_from(partitions_of(size)))))

    command = draw(st.sampled_from(("verify", "chartable", "walks", "gmatrix", "tau", "table")))
    zero_denominator = False
    if command == "verify":
        suite = draw(st.sampled_from(SUITES))
        sizes = SIZE if suite in ("characters", "center", "walks") else st.integers(-2, 0)
        argv = ["verify", suite, number("--nmax", sizes)]
    elif command == "chartable":
        argv = ["chartable", number("--n", SIZE)]
    elif command == "walks":
        kind = draw(st.sampled_from(tuple(WALK_KINDS)))
        n = draw(SIZE)
        ints.append(n)
        argv = [
            "walks", f"--n={n}", f"--from={partition(n)}", f"--to={partition(n)}",
            f"--kind={kind}",
        ]
        if kind in ("multi", "weakstrict") and draw(st.booleans()):
            segments = [draw(CAP), draw(CAP)]
            ints.extend(segments)
            argv.append(f"--segments={segments[0]},{segments[1]}")
        else:
            argv.append(number("--steps", CAP))
        if kind == "mixed":
            argv.append(number("--p", CAP))
        if draw(st.booleans()):
            argv.append("--transitive")
    elif command == "gmatrix":
        twist = draw(st.sampled_from(("exp", "monotone", "strict", "mixed", "weakstrict", "multi")))
        argv = ["gmatrix", number("--n", SIZE), f"--twist={twist}", number("--cap", CAP)]
    elif command == "table":
        family = draw(st.sampled_from(("okounkov", *WALK_KINDS)))
        argv = [
            "table", f"--family={family}", number("--nmax", SIZE),
            f"--format={draw(st.sampled_from(('json', 'csv')))}",
        ]
        if draw(st.booleans()):
            argv.append(number("--kmax", CAP))
        if draw(st.booleans()):
            argv.append("--connected")
    else:
        family = draw(st.sampled_from(("hciz", "alpha_q")))
        N = draw(SIZE)
        ints.append(N)
        length = draw(st.sampled_from((max(N, 0), 0, 1, 2, 3, 4)))
        count = 2 * length + (family == "alpha_q")
        rationals = [
            [draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3)))] for _ in range(count)
        ]
        if count and draw(st.booleans()):
            rationals[draw(st.integers(0, count - 1))][1] = 0
            zero_denominator = True
        texts = [f"{num}/{den}" for num, den in rationals]
        argv = [
            "tau", f"--family={family}", f"--N={N}",
            "--a=" + ",".join(texts[:length]), "--b=" + ",".join(texts[length:2 * length]),
        ]
        if family == "hciz":
            argv.append(number("--zcap", CAP))
        else:
            argv += [f"--alpha={texts[-1]}", number("--qcap", CAP)]
        if draw(st.booleans()):
            argv.append("--check-determinant")
    return argv, zero_denominator or any(v < 0 for v in ints) or (command == "tau" and length != N)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cli_cases())
def test_cli_fuzz_exit_codes(case):
    argv, bad = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if bad:
        assert code == 2, (argv, out.getvalue())
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()


# -- JSON output: byte for byte json.dumps(indent=2) --------------------------

HCIZ_ARGV = (
    "tau", "--family", "hciz", "--N", "3", "--a", "1,2,3", "--b", "1/2,1/3,1/5", "--zcap", "5",
)
ALPHA_Q_ARGV = (
    "tau", "--family", "alpha_q", "--N", "2", "--alpha", "1/2",
    "--a", "1/2,1/3", "--b", "1,2", "--qcap", "5",
)
EMITTED = (
    [("gmatrix", "--n", str(n), "--twist", twist, "--cap", "4")
     for twist in sorted(cli.GMATRIX_KINDS) for n in range(5)]
    + [("table", "--family", family, "--nmax", "4", "--kmax", "3", "--format", "json", *connected)
       for family in ("okounkov", *WALK_KINDS) for connected in ((), ("--connected",))]
    + [("table", "--family", "monotone", "--nmax", "0", "--connected"),
       ("table", "--family", "mixed", "--nmax", "3", "--kmax", "2", "--connected", "--out", "OUT")]
    + [(*argv, *check) for argv in (HCIZ_ARGV, ALPHA_Q_ARGV)
       for check in ((), ("--check-determinant",))]
    + [("chartable", "--n", str(n)) for n in range(7)]
)


@pytest.mark.parametrize("argv", EMITTED, ids=" ".join)
def test_emitted_json_is_json_dumps_indent_2(capsys, monkeypatch, tmp_path, argv):
    # tables and gmatrix print from templates, not through emit: a table's
    # payload is the rows hurwitz_table returned, each as the dict the table
    # prints, and a gmatrix payload holds the nonzero connection_text series
    # in partition order; an OUT argument is a path
    payloads = []
    emit, table, text_of = cli.emit, tauseries.hurwitz_table, cli.connection_text

    def recording_emit(payload, out_path=None):
        payloads.append(payload)
        emit(payload, out_path)

    def recording_table(*args, connected=False):
        rows = table(*args, connected=connected)
        payloads.append([
            {"n": n, "from": format_partition(lam), "to": format_partition(mu),
             "steps": data, "count": str(count), "connected": connected}
            for n, lam, mu, data, count in rows
        ])
        return rows

    def recording_text(spec, n):
        text = text_of(spec, n)
        twist = WALK_KINDS[cli.GMATRIX_KINDS[argv[argv.index("--twist") + 1]]].label
        payloads.append({"n": n, "twist": twist, "entries": [
            {"from": format_partition(lam), "to": format_partition(mu), "series": text[(lam, mu)]}
            for lam in partitions_of(n)
            for mu in partitions_of(n)
            if text[(lam, mu)]
        ]})
        return text

    monkeypatch.setattr(cli, "emit", recording_emit)
    monkeypatch.setattr(tauseries, "hurwitz_table", recording_table)
    monkeypatch.setattr(cli, "connection_text", recording_text)
    path = tmp_path / "out.json"
    code, out = run_cli(capsys, *(str(path) if arg == "OUT" else arg for arg in argv))
    if "OUT" in argv:
        assert out == ""
        out = path.read_text()
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gmatrix", "--n", "4", "--twist", "mixed", "--cap", "3"),
        ("table", "--family", "multi", "--nmax", "4", "--kmax", "3"),
        ("table", "--family", "mixed", "--nmax", "4", "--kmax", "3", "--format", "csv"),
        HCIZ_ARGV,
        (*ALPHA_Q_ARGV, "--check-determinant"),
    ],
    ids=" ".join,
)
def test_out_path_writes_the_stdout_bytes(capsys, tmp_path, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.txt"
    code, printed = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


def test_src_reads_no_environment():
    # every cap and default is a constant in config; no os.environ or os.getenv
    src = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv", "environb")
    ]
    assert not found, f"environment read in src/: {found}"


def test_src_has_no_bare_assert():
    # checks raise explicitly, so `python -O` cannot strip them
    src = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert in src/: {found}"


if __name__ == "__main__":
    TAU_DIGESTS.write_text(json.dumps(tau_digests(), indent=2) + "\n")
