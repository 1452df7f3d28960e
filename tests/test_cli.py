import json

import pytest

from hurwitz_tau.cli import main


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
        "--kind", "multi", "--segments", "2,1", "--steps", "0",
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
    # N = 4 needs a guard degree for the Bareiss division by the 2x2 minor
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


def test_tau_zcap_guard(capsys):
    code = main(
        ["tau", "--family", "hciz", "--N", "2", "--a", "1,2", "--b", "3,4", "--zcap", "9"]
    )
    assert code == 2


# table --family -> (CSV header, the row 1,1,1 -> 3 with two steps)
TABLE_CSV = {
    "okounkov": ("n,from,to,k,count", '3,"1,1,1",3,2,3'),
    "plain": ("n,from,to,k,count", '3,"1,1,1",3,2,3'),
    "monotone": ("n,from,to,k,count", '3,"1,1,1",3,2,2'),
    "strict": ("n,from,to,k,count", '3,"1,1,1",3,2,1'),
    "mixed": ("n,from,to,p,k,count", '3,"1,1,1",3,0,2,3'),
    "multi": ("n,from,to,segments,count", '3,"1,1,1",3,"2,0",1'),
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


def test_table_json_okounkov(capsys):
    code, out = run_cli(
        capsys,
        "table", "--family", "okounkov", "--nmax", "3", "--bmax", "2",
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["walks", "--n", "3"])  # missing --from/--to
    assert info.value.code == 2


def test_mixed_requires_p(capsys):
    code = main(
        ["walks", "--n", "3", "--from", "3", "--to", "3", "--kind", "mixed", "--steps", "2"]
    )
    assert code == 2


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
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_unparsable_walk_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("HURWITZ_MAX_N", "abc")
    code = main(["walks", "--n", "3", "--from", "3", "--to", "3"])
    assert code == 2
    assert "HURWITZ_MAX_N" in capsys.readouterr().err
