"""End-to-end command line checks over a temporary workspace."""

import pytest

from fullgroups import cli
from fullgroups.formats import render_lef_witness


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "odo2.cfg").write_text("kind = odometer\nbases = 2\n")
    (tmp_path / "fib.cfg").write_text(
        "kind = substitution\nalphabet = a,b\nrule.a = ab\nrule.b = a\n"
    )
    def run(*args):
        return cli.main(["--workspace", str(tmp_path)] + list(args))
    assert run("system", "define", "odo2", str(tmp_path / "odo2.cfg")) == 0
    assert run("system", "define", "fib", str(tmp_path / "fib.cfg")) == 0
    assert run("element", "make", "--system", "odo2", "--out", "T",
               "--piece", "FULL -> 1") == 0
    return tmp_path, run


def test_system_show_round_trips(ws, capsys):
    tmp, run = ws
    capsys.readouterr()
    assert run("system", "show", "fib") == 0
    out = capsys.readouterr().out
    assert "kind = substitution" in out
    assert "rule.a = ab" in out


def test_element_files_reload_bit_identical(ws):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "sw",
               "--piece", "10@0 -> 1", "--piece", "01@0 -> -1",
               "--piece", "00@0 -> 0", "--piece", "11@0 -> 0") == 0
    text = (tmp / "sw.elem").read_text()
    assert run("element", "invert", "sw", "--out", "sw2") == 0
    assert run("element", "invert", "sw2", "--out", "sw3") == 0
    assert (tmp / "sw3.elem").read_text() == text


def test_eq_exit_codes(ws):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "id",
               "--piece", "FULL -> 0") == 0
    assert run("element", "invert", "T", "--out", "Tinv") == 0
    assert run("element", "compose", "T", "Tinv", "--out", "TT") == 0
    assert run("element", "eq", "TT", "id") == 0
    assert run("element", "eq", "T", "id") == 1


def test_index_of_shift_prints_one(ws, capsys):
    tmp, run = ws
    capsys.readouterr()
    assert run("index", "T") == 0
    assert capsys.readouterr().out.strip() == "1"


def test_factorize_report_shape(ws, capsys):
    tmp, run = ws
    capsys.readouterr()
    assert run("factorize", "T") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "level n=1 n0=1"
    assert "U(0)^1" in out


def test_factorize_rejects_low_level(ws):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "T2",
               "--piece", "FULL -> 2") == 0
    assert run("factorize", "T2", "--level", "1") == 2


@pytest.mark.parametrize("command", [
    ("factorize", "T", "--level", "abc"),
    ("lef", "--set", "{flist}", "--level", "x"),
], ids=["factorize", "lef"])
def test_bad_level_is_a_usage_error(ws, capsys, command):
    tmp, run = ws
    (tmp / "flist.txt").write_text("T\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*(arg.format(flist=tmp / "flist.txt") for arg in command))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --level: expected 'auto' or an integer" in err
    assert "Traceback" not in err


def test_order_and_support(ws, capsys):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "sw",
               "--piece", "10@0 -> 1", "--piece", "01@0 -> -1",
               "--piece", "00@0 -> 0", "--piece", "11@0 -> 0") == 0
    capsys.readouterr()
    assert run("element", "order", "sw") == 0
    assert run("element", "support", "sw") == 0
    assert run("element", "order", "T", "--bound", "6") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2"
    assert out[1] == "01@0 + 10@0"
    assert out[2] == "exceeds 6"


def test_apply_reports_power_and_window(ws, capsys):
    tmp, run = ws
    capsys.readouterr()
    assert run("element", "apply", "T", "--point", "primary") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "power 1"
    assert out[1].startswith("image[0..7] 1000")


def test_towers_reports(ws, capsys):
    tmp, run = ws
    capsys.readouterr()
    assert run("towers", "sequence", "--system", "odo2", "--levels", "2") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "level 1: band=1 heights=4"
    assert run("towers", "from-set", "--system", "fib", "--set", "a@0") == 0
    out = capsys.readouterr().out
    assert "height=1" in out and "height=2" in out
    assert run("towers", "show", "--system", "odo2", "--level", "1") == 0
    out = capsys.readouterr().out
    assert "base=" in out and "top=" in out


def test_stabilizer_and_decompose(ws, capsys):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "sw",
               "--piece", "10@0 -> 1", "--piece", "01@0 -> -1",
               "--piece", "00@0 -> 0", "--piece", "11@0 -> 0") == 0
    capsys.readouterr()
    assert run("decompose", "sw") == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 4 and "FAIL" not in out
    assert (tmp / "sw.p1.elem").exists() and (tmp / "sw.p2.elem").exists()
    assert run("stabilizer", "sw.p1", "--point", "primary") == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run("stabilizer", "T", "--point", "primary") == 0
    assert capsys.readouterr().out.strip() == "false"


def test_decompose_rejects_nonzero_index(ws):
    tmp, run = ws
    assert run("decompose", "T") == 2


def test_decompose_on_a_subshift_names_the_missing_certificate(ws, capsys):
    tmp, run = ws
    assert run("element", "make", "--system", "fib", "--out", "e",
               "--piece", "FULL -> 0") == 0
    capsys.readouterr()
    assert run("decompose", "e") == 2
    err = capsys.readouterr().err
    assert "subshift points carry no orbit certificate" in err
    assert "assume_distinct" not in err
    assert not (tmp / "e.p1.elem").exists()


def test_separation_witness_command(ws, capsys):
    tmp, run = ws
    assert run("witness", "separation", "--system", "odo2", "--set", "0@0",
               "--point", "primary", "--out", "g") == 0
    capsys.readouterr()
    assert run("element", "order", "g") == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run("index", "g") == 0
    assert capsys.readouterr().out.strip() == "0"


def test_separation_rejects_point_outside(ws):
    tmp, run = ws
    assert run("witness", "separation", "--system", "odo2", "--set", "1@0",
               "--point", "primary", "--out", "g") == 2


def test_separation_auto_point_refuses_empty_set(ws, capsys):
    tmp, run = ws
    assert run("witness", "separation", "--system", "odo2", "--set", "EMPTY",
               "--point", "auto", "--out", "g") == 2
    assert "empty set" in capsys.readouterr().err
    assert not (tmp / "g.elem").exists()


def test_lef_build_and_verify(ws, capsys):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "id",
               "--piece", "FULL -> 0") == 0
    (tmp / "flist.txt").write_text("id\nT\n")
    capsys.readouterr()
    assert run("lef", "--set", str(tmp / "flist.txt"), "--out", "w1") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "pass"
    assert (tmp / "w1.lef").exists()
    assert run("lef", "verify", "w1") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.splitlines()[-1] == "pass"


def test_lef_verify_catches_corruption(ws, capsys):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "id",
               "--piece", "FULL -> 0") == 0
    (tmp / "flist.txt").write_text("id\nT\n")
    assert run("lef", "--set", str(tmp / "flist.txt"), "--out", "w1") == 0
    lines = (tmp / "w1.lef").read_text().splitlines()
    # swap the first two images in some table line
    for i, ln in enumerate(lines):
        if "->" in ln:
            head, _, perm = ln.partition(" -> ")
            vals = perm.split()
            vals[0], vals[1] = vals[1], vals[0]
            lines[i] = f"{head} -> {' '.join(vals)}"
            break
    (tmp / "w2.lef").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("lef", "verify", "w2") == 3
    assert "FAIL" in capsys.readouterr().out


def test_parse_errors_exit_4(ws):
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "bad",
               "--piece", "01@0 -> xx") == 4
    (tmp / "bad.cfg").write_text("kind = rotation\n")
    assert run("system", "define", "sys2", str(tmp / "bad.cfg")) == 4
    (tmp / "bad.lef").write_text("nonsense\n")
    assert run("lef", "verify", "bad") == 4


def test_missing_names_exit_2(ws):
    tmp, run = ws
    assert run("index", "nosuch") == 2
    assert run("element", "compose", "T") == 2
    assert run("towers", "from-set", "--system", "odo2") == 2


def test_workspace_env_var(ws, monkeypatch, capsys):
    tmp, run = ws
    monkeypatch.setenv(cli.WORKSPACE_VAR, str(tmp))
    capsys.readouterr()
    assert cli.main(["index", "T"]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.fixture
def readme_witness(ws):
    """README's `lef` example: w1.lef over {id, T, sw} on the 2-odometer."""
    tmp, run = ws
    assert run("element", "make", "--system", "odo2", "--out", "sw",
               "--piece", "10@0 -> 1", "--piece", "01@0 -> -1",
               "--piece", "00@0 -> 0", "--piece", "11@0 -> 0") == 0
    assert run("element", "make", "--system", "odo2", "--out", "id",
               "--piece", "FULL -> 0") == 0
    (tmp / "flist.txt").write_text("id\nT\nsw\n")
    assert run("lef", "--set", str(tmp / "flist.txt"), "--out", "w1") == 0
    lines = (tmp / "w1.lef").read_text().splitlines()
    assert lines[0].startswith("lef level=") and lines[1].startswith("elements ")
    return tmp, run, lines


def _swap_rows(lines):
    rows = lines[2:]
    (h0, _, p0), (h1, _, p1) = rows[0].partition(" -> "), rows[1].partition(" -> ")
    return lines[:2] + [f"{h0} -> {p1}", f"{h1} -> {p0}"] + rows[2:]


def _edit_entry(lines, value):
    head, _, perm = lines[2].partition(" -> ")
    vals = perm.split()
    vals[0] = value
    return lines[:2] + [f"{head} -> {' '.join(vals)}"] + lines[3:]


@pytest.mark.parametrize("mutate, code", [
    pytest.param(lambda ls: ls[:3], 3, id="header-F-line-and-one-row"),
    pytest.param(lambda ls: ls[:1] + ls[2:3], 4, id="header-and-one-row"),
    pytest.param(lambda ls: ls[:1] + ls[2:], 4, id="F-line-deleted"),
    pytest.param(lambda ls: ls[:2] + ls[3:], 3, id="first-row-deleted"),
    pytest.param(lambda ls: ls[:-1], 3, id="last-row-deleted"),
    pytest.param(_swap_rows, 3, id="two-rows-swapped"),
    pytest.param(lambda ls: _edit_entry(ls, "1"), 3, id="entry-edited-to-a-repeat"),
    pytest.param(lambda ls: _edit_entry(ls, "99"), 3, id="entry-edited-out-of-range"),
    pytest.param(lambda ls: _edit_entry(ls, "x"), 4, id="entry-edited-to-a-non-number"),
])
def test_lef_verify_rejects_mutated_witness(readme_witness, capsys, mutate, code):
    tmp, run, lines = readme_witness
    (tmp / "w2.lef").write_text("\n".join(mutate(lines)) + "\n")
    capsys.readouterr()
    assert run("lef", "verify", "w2") == code
    if code == 3:
        out = capsys.readouterr().out
        assert "FAIL" in out and out.splitlines()[-1] == "fail"


def test_lef_witness_file_round_trips_through_the_loader(readme_witness):
    tmp, run, lines = readme_witness
    text = (tmp / "w1.lef").read_text()
    w = cli._load_witness(cli.Workspace(tmp), text)
    assert render_lef_witness(w) == text
    assert run("lef", "verify", "w1") == 0
