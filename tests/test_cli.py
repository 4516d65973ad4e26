import json

import pytest

from confcoh.cli import main
from confcoh.dga import ORACLE_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.rstrip("\n")


def run_expect_exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


def test_q_series_dims(capsys):
    code, out = run(capsys, "q-series", "--genus", "1", "--max-n", "1", "--dims")
    assert code == 0
    assert out == "1 + (1 + 2t + t²)u"


def test_q_series_trivial(capsys):
    code, out = run(capsys, "q-series", "--genus", "1", "--max-n", "0")
    assert code == 0
    assert out == "1"


def test_q_series_genus0_rejected(capsys):
    assert run_expect_exit(capsys, "q-series", "--genus", "0", "--max-n", "2") == 2
    err = capsys.readouterr().err
    assert "betti --genus 0" in err


def test_q_series_json_round_trip(capsys):
    code, out = run(capsys, "q-series", "--genus", "2", "--max-n", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    from confcoh.series import TriSeries
    from confcoh.closedform import build_Q

    assert TriSeries.from_json(records, 3) == build_Q(2, 3)


def test_betti_genus0(capsys):
    code, out = run(capsys, "betti", "--genus", "0", "--n", "5")
    assert code == 0
    assert out == "1 0 0 1"


def test_betti_positive_genus(capsys):
    code, out = run(capsys, "betti", "--genus", "1", "--n", "3")
    assert code == 0
    assert out == "1 2 3 4 2"


def test_dim_command(capsys):
    code, out = run(capsys, "dim", "--genus", "2", "--i", "1", "--j", "2")
    assert code == 0
    assert out == "16"


def test_dim_rejects_non_dominant(capsys):
    assert run_expect_exit(capsys, "dim", "--genus", "2", "--i", "0", "--j", "3") == 2


def test_euler_command(capsys):
    code, out = run(capsys, "euler", "--genus", "2", "--max-n", "3")
    assert code == 0
    assert out == "1 -2 3 -4"


def test_table_text_and_csv(capsys):
    code, out = run(capsys, "table", "--genus", "1", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["k h dim", "0 0 1", "1 1 2", "2 2 1"]
    code, out = run(capsys, "table", "--genus", "1", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,k,h,dim", "2,0,0,1", "2,1,1,2", "2,2,2,1"]


def test_table_json_round_trip(capsys):
    code, out = run(capsys, "table", "--genus", "2", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2 and payload["n"] == 2
    from confcoh.closedform import mixed_table
    from confcoh.reps import VirtualRep

    want = mixed_table(2, 2)
    got = {
        (row["degree"], row["weight"]): VirtualRep.from_json(row["decomposition"])
        for row in payload["table"]
    }
    assert got == want.entries
    assert all(
        row["dim"] == want.entries[(row["degree"], row["weight"])].dim(2)
        for row in payload["table"]
    )


def test_oracle_matches_table(capsys):
    code, table_out = run(capsys, "table", "--genus", "1", "--n", "4")
    assert code == 0
    code, oracle_out = run(capsys, "oracle", "--genus", "1", "--n", "4")
    assert code == 0
    assert oracle_out == table_out


@pytest.mark.parametrize(
    "genus, model, message",
    [("0", "A", "--reps needs genus >= 1"), ("2", "B", "--reps requires model A")],
)
def test_oracle_reps_usage_errors(capsys, tmp_path, genus, model, message):
    debug = tmp_path / "blocks"
    argv = ("oracle", "--genus", genus, "--n", "3", "--model", model, "--reps",
            "--debug-dir", str(debug))
    assert run_expect_exit(capsys, *argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    # refused before any work: no block dump, no progress line
    assert not debug.exists() and "computing" not in captured.err


def test_oracle_model_b(capsys):
    code, a = run(capsys, "oracle", "--genus", "1", "--n", "3", "--model", "A")
    assert code == 0
    code, b = run(capsys, "oracle", "--genus", "1", "--n", "3", "--model", "B")
    assert code == 0
    assert a == b


def test_oracle_debug_dir(capsys, tmp_path):
    debug = tmp_path / "blocks"
    code, _ = run(
        capsys, "oracle", "--genus", "1", "--n", "2", "--debug-dir", str(debug)
    )
    assert code == 0
    assert list(debug.glob("*.mtx"))


def test_oracle_budget_enforced(capsys):
    assert run_expect_exit(capsys, "oracle", "--genus", "1", "--n", "99") == 2
    past = str(max(ORACLE_BUDGET) + 1)  # a genus with no budget is refused
    assert run_expect_exit(capsys, "oracle", "--genus", past, "--n", "2") == 2


@pytest.mark.parametrize("genus", sorted(ORACLE_BUDGET))
def test_oracle_budget_refuses_one_past(capsys, genus):
    over = str(ORACLE_BUDGET[genus] + 1)
    assert run_expect_exit(capsys, "oracle", "--genus", str(genus), "--n", over) == 2
    assert run_expect_exit(capsys, "verify", "--genus", str(genus), "--max-n", over) == 2


def test_verify_small(capsys):
    code, out = run(capsys, "verify", "--genus", "1", "--max-n", "4")
    assert code == 0
    assert "all tables agree" in out


def test_verify_reps(capsys):
    code, out = run(capsys, "verify", "--genus", "1", "--max-n", "3", "--reps")
    assert code == 0
    assert "representations" in out


def test_verify_reps_genus2(capsys):
    code, out = run(capsys, "verify", "--genus", "2", "--max-n", "4", "--reps")
    assert code == 0
    assert "all tables agree" in out


def test_verify_genus0(capsys):
    code, out = run(capsys, "verify", "--genus", "0", "--max-n", "6")
    assert code == 0
    assert "all tables agree" in out


def test_oracle_reps(capsys):
    code, oracle_out = run(capsys, "oracle", "--genus", "1", "--n", "3", "--reps")
    assert code == 0
    code, table_out = run(capsys, "table", "--genus", "1", "--n", "3", "--reps")
    assert code == 0
    assert oracle_out == table_out


def test_verify_reports_mismatch(capsys, monkeypatch):
    # force a wrong brute-force answer to exercise the failure protocol
    from confcoh import cli, dga

    real = dga.cohomology_dims

    def doctored(g, n, model="A"):
        dims = dict(real(g, n, model))
        if n == 2:
            dims[(0, 0)] = dims.get((0, 0), 0) + 1
        return dims

    monkeypatch.setattr(cli.dga, "cohomology_dims", doctored)
    code = main(["verify", "--genus", "1", "--max-n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "mismatch n=2 k=0 h=0" in out


def test_out_file_and_determinism(capsys, tmp_path):
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    for path in (path1, path2):
        code = main(
            [
                "table",
                "--genus",
                "2",
                "--n",
                "3",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert path1.read_bytes() == path2.read_bytes()
