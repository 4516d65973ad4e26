import hashlib
import json

import pytest

from confcoh.cli import _grouped_u_text, _series_text, main
from confcoh.closedform import MixedTable
from confcoh.dga import ORACLE_BUDGET
from confcoh.reps import RepLabel, VirtualRep
from reference import rep_from_json


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
    from confcoh.closedform import build_Q

    got = {(r["t"], r["s"], r["u"]): rep_from_json(r["rep"]) for r in records}
    assert got == build_Q(2, 3)
    keys = [(r["u"], r["t"], r["s"]) for r in records]
    assert keys == sorted(keys)


def test_q_series_text_rendering():
    terms = [
        ((0, 0, 0), VirtualRep.unit()),
        ((1, 0, 1), VirtualRep.unit(2)),
        ((2, 1, 3), VirtualRep.single(RepLabel(1, 1))),
    ]
    assert _series_text(terms) == "1 + 2t·u + [V(1,1)]·t²s·u³"


def test_q_series_grouped_u_text():
    one = VirtualRep.unit()
    terms = [((0, 0, 0), one), ((0, 0, 1), one), ((1, 0, 1), VirtualRep.unit(2))]
    terms += [((2, 0, 1), one), ((0, 0, 2), one), ((1, 0, 3), VirtualRep.unit(3))]
    assert _grouped_u_text(terms) == "1 + (1 + 2t + t²)u + u² + 3tu³"
    assert _grouped_u_text(terms[:1]) == "1"


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


def test_dim_csv_has_a_header(capsys):
    code, out = run(capsys, "dim", "--genus", "2", "--i", "1", "--j", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["genus,i,j,dim", "2,1,2,16"]


def test_oracle_json_shapes_differ_only_by_decomposition(capsys):
    argv = ("oracle", "--genus", "2", "--n", "3", "--format", "json")
    code, plain = run(capsys, *argv)
    assert code == 0
    code, reps = run(capsys, *argv, "--reps")
    assert code == 0
    plain, reps = json.loads(plain), json.loads(reps)
    for row in reps["table"]:
        assert row.pop("decomposition")
    assert reps == plain


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

    want = mixed_table(2, 2)
    got = {
        (row["degree"], row["weight"]): rep_from_json(row["decomposition"])
        for row in payload["table"]
    }
    assert got == want.entries
    assert all(
        row["dim"] == want.entries[(row["degree"], row["weight"])].dim(2)
        for row in payload["table"]
    )


def test_each_cell_dim_is_computed_once(capsys, monkeypatch):
    # a table computes each cell's dim at construction, and nothing that
    # reports dims, the table command in every format included, computes
    # it again, by either method
    from confcoh.closedform import mixed_table

    calls = []

    def counted(method):
        def wrapper(self, g):
            calls.append(g)
            return method(self, g)

        return wrapper

    for name in ("dim", "effective_dim"):
        monkeypatch.setattr(VirtualRep, name, counted(getattr(VirtualRep, name)))
    table = mixed_table(3, 7)
    cells = len(table.entries)
    assert cells > 10 and len(calls) == cells
    table.dims(), table.betti(), table.euler(), table.to_json()
    assert len(calls) == cells
    for fmt in ("text", "json", "csv"):
        calls.clear()
        code, _ = run(capsys, "table", "--genus", "3", "--n", "7", "--format", fmt)
        assert code == 0 and len(calls) == cells, fmt


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


def _doctored_dims(real):
    def doctored(g, n, model="A"):
        dims = dict(real(g, n, model))
        if n == 2:
            dims[(0, 0)] = dims.get((0, 0), 0) + 1
        return dims

    return doctored


def _doctored_reps(real):
    def doctored(g, n, max_genus=None):
        table = real(g, n)
        if n == 2:
            entries = dict(table.entries)
            entries[(0, 0)] = entries[(0, 0)] + VirtualRep.unit()
            table = MixedTable(g, n, entries)
        return table

    return doctored


@pytest.mark.parametrize(
    "genus, flags, target, doctor, line",
    [
        pytest.param(
            "0", (), "cohomology_dims", _doctored_dims,
            "mismatch n=2 k=0: closed form 1 != brute force 2", id="genus0",
        ),
        pytest.param(
            "1", (), "cohomology_dims", _doctored_dims,
            "mismatch n=2 k=0 h=0: closed form 1 != brute force 2", id="dims",
        ),
        pytest.param(
            "1", ("--reps",), "cohomology_reps", _doctored_reps,
            "mismatch n=2 k=0 h=0: closed form V(0,0) != brute force 2·V(0,0)",
            id="reps",
        ),
    ],
)
def test_verify_reports_mismatch(
    capsys, monkeypatch, genus, flags, target, doctor, line
):
    # force a wrong brute-force answer to exercise the failure protocol
    from confcoh import cli

    monkeypatch.setattr(cli.dga, target, doctor(getattr(cli.dga, target)))
    code = main(["verify", "--genus", genus, "--max-n", "2", *flags])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines() == [line]


def test_verify_takes_no_format(capsys):
    argv = ("verify", "--genus", "1", "--max-n", "2", "--format", "json")
    assert run_expect_exit(capsys, *argv) == 2
    captured = capsys.readouterr()
    assert "--format" in captured.err and captured.out == ""


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


# SHA-256 of stdout and the exit code for each command in each format,
# plus usage errors, so a change to the command layer cannot change what it
# prints unnoticed.  `verify` takes no --format: those lines are usage
# errors with nothing on stdout.
CLI_SHA256 = {
    "q-series --genus 2 --max-n 3 --format text": (
        "daac60e723d1488039356fa8893be64130fa260953dc1a4c51565bb835a8eded", 0
    ),
    "q-series --genus 2 --max-n 3 --format json": (
        "e25ba140ff8801219ce6e6fafed0dd26e4eaa2d9a3c51ce988b58a61ddcc8ede", 0
    ),
    "q-series --genus 2 --max-n 3 --format csv": (
        "d0cecd016495945ea39751a3e525f3e9d250da013b3f6cf5ab6a154b39cab0aa", 0
    ),
    "q-series --genus 2 --max-n 3 --dims --format text": (
        "2f0eeed73a271c4a8bf10d46c38b9cd5888a1466cd420a42db67a4dac028dba4", 0
    ),
    "q-series --genus 2 --max-n 3 --dims --format json": (
        "3c7a9c7a38117c4b722b89971988ee7d15dc8747dcc75fc73f99275ac33ec2b8", 0
    ),
    "q-series --genus 2 --max-n 3 --dims --format csv": (
        "d0cecd016495945ea39751a3e525f3e9d250da013b3f6cf5ab6a154b39cab0aa", 0
    ),
    "table --genus 2 --n 3 --format text": (
        "60416629e63b5d186aa5daaee90a29fdf475c040aef1fcd4be763d55b80b8fcd", 0
    ),
    "table --genus 2 --n 3 --format json": (
        "219bcbd42313ab45cb7fe43c0a735155acdbe09d84ef4c028c21c651c256a4fd", 0
    ),
    "table --genus 2 --n 3 --format csv": (
        "099cc69e238d27d31ce4fb7dc314af882f88e17e6fdfce95ab4b0b256364de40", 0
    ),
    "table --genus 2 --n 3 --reps --format text": (
        "6429e4efc0be153be7bb2b616bebcd2ad08cb31517ad3160d6f991c12044d8bf", 0
    ),
    "table --genus 2 --n 3 --reps --format json": (
        "219bcbd42313ab45cb7fe43c0a735155acdbe09d84ef4c028c21c651c256a4fd", 0
    ),
    "table --genus 2 --n 3 --reps --format csv": (
        "099cc69e238d27d31ce4fb7dc314af882f88e17e6fdfce95ab4b0b256364de40", 0
    ),
    "betti --genus 0 --n 4 --format text": (
        "5ef06e99a5fe8e0178dd8a13975736ba0eb6b0fc150a913d7816003d0e97b44e", 0
    ),
    "betti --genus 0 --n 4 --format json": (
        "97383f43461c18506d8555a242aa286d1b5e984c53edfba1af88435107ef666b", 0
    ),
    "betti --genus 0 --n 4 --format csv": (
        "33d8da301509cde1a129caa2813bfce0025ddf23601680d745d727a14d7b050f", 0
    ),
    "betti --genus 2 --n 3 --format text": (
        "0332d6f924a488661bebcf6b6d107a577ccbcd91c4aa2f367f566b7d4bd5646b", 0
    ),
    "betti --genus 2 --n 3 --format json": (
        "aed4880cabce9cc6ac20faeb2389a8d4a41468e7143c8c7748434c43a6bc5b44", 0
    ),
    "betti --genus 2 --n 3 --format csv": (
        "7bacf84a076f56bf17d04f6350635899b4e757e3c87f874565b53429b90a4cc5", 0
    ),
    "dim --genus 2 --i 1 --j 2 --format text": (
        "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017", 0
    ),
    "dim --genus 2 --i 1 --j 2 --format json": (
        "5b906c33187702740ff72e31fa55b672c5de2faf4ef1d5e09ea8e5205a127a3c", 0
    ),
    "dim --genus 2 --i 1 --j 2 --format csv": (
        "a1abd54048fad2550c089f607d0ab399f530fbef779977f9c5fdc45bc0ec1fca", 0
    ),
    "euler --genus 2 --max-n 5 --format text": (
        "d46a1acf6578cd187aa17ffec628de5c4034730bb20204f202b39aa3009201a3", 0
    ),
    "euler --genus 2 --max-n 5 --format json": (
        "afd5498735eec53b25792ce59cff1aefb3d1bbd7e515a905f5048a6b14eddee0", 0
    ),
    "euler --genus 2 --max-n 5 --format csv": (
        "415d12b4b93e12ebad34e6722c4a74f60f2b1b1149563c42e6d643f99ffaefbd", 0
    ),
    "oracle --genus 1 --n 3 --format text": (
        "6d2506097ac043e5a77da30c17deae3ab70f222297a52b88f23ce78859a28a8d", 0
    ),
    "oracle --genus 1 --n 3 --format json": (
        "2e66b2f6fabd5ffa94861700e497bc048c834574f032b6ef3e7238c6fd408ef0", 0
    ),
    "oracle --genus 1 --n 3 --format csv": (
        "5d9ea84fb0fbbd01484734050565a56917b266d5df0566cc4f5a63ff3225704e", 0
    ),
    "oracle --genus 2 --n 3 --model B --format text": (
        "60416629e63b5d186aa5daaee90a29fdf475c040aef1fcd4be763d55b80b8fcd", 0
    ),
    "oracle --genus 2 --n 3 --model B --format json": (
        "1cb06bb6c0b00a7ff2a2252fe34c8ee0c19fe0cbed7915e6b19250549746c145", 0
    ),
    "oracle --genus 2 --n 3 --model B --format csv": (
        "099cc69e238d27d31ce4fb7dc314af882f88e17e6fdfce95ab4b0b256364de40", 0
    ),
    "oracle --genus 2 --n 3 --reps --format text": (
        "6429e4efc0be153be7bb2b616bebcd2ad08cb31517ad3160d6f991c12044d8bf", 0
    ),
    "oracle --genus 2 --n 3 --reps --format json": (
        "e5ae6e6b58aa4305c3be3d613c9078f98b190356b756ffb27ea54202b877a01b", 0
    ),
    "oracle --genus 2 --n 3 --reps --format csv": (
        "099cc69e238d27d31ce4fb7dc314af882f88e17e6fdfce95ab4b0b256364de40", 0
    ),
    "verify --genus 0 --max-n 4": (
        "c113f869e35b43b1d6b1efa7879c4361f4d4ec7a0ff92a17675c91fab734fce1", 0
    ),
    "verify --genus 2 --max-n 3 --reps": (
        "a72fb6579e16822f7a4bd3ede2f79a1ccebfd7800a91bcd54cd73fec967def10", 0
    ),
    "verify --genus 2 --max-n 3 --reps --format json": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2
    ),
    "verify --genus 2 --max-n 3 --reps --format csv": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2
    ),
    "q-series --genus 0 --max-n 2": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2
    ),
    "dim --genus 2 --i 0 --j 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2
    ),
    "oracle --genus 1 --n 99": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2
    ),
    "oracle --genus 0 --n 3 --reps": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2
    ),
    "betti --genus 1 --n -1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2
    ),
}


def test_cli_bytes_unchanged(capsys):
    for line, want in CLI_SHA256.items():
        try:
            code = main(line.split())
        except SystemExit as exit_:
            code = exit_.code
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == want, line
