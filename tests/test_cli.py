import os
import subprocess
import sys
from pathlib import Path

from hitpaths.cli import run

TRIANGLE = "p hitpaths 3 3 1 1\ne 1 2\ne 2 3\ne 1 3\ns 2 1 2\n"
INFEASIBLE = "p hitpaths 2 1 2 1\ne 1 2\ns 1 1\ns 1 2\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_triangle(tmp_path, capsys):
    path = write(tmp_path, "tri.hp", TRIANGLE)
    assert run(["solve", path]) == 0
    assert capsys.readouterr().out == "s 1 1\n"


def test_solve_stats_go_to_stderr(tmp_path, capsys):
    path = write(tmp_path, "tri.hp", TRIANGLE)
    assert run(["solve", path, "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "s 1 1\n"
    assert "branches=" in captured.err


def test_solve_no_instance(tmp_path, capsys):
    path = write(tmp_path, "no.hp", INFEASIBLE)
    assert run(["solve", path]) == 1
    assert capsys.readouterr().out == "s -1\n"


def test_oracle_agrees(tmp_path, capsys):
    path = write(tmp_path, "tri.hp", TRIANGLE)
    assert run(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s 1 ")
    assert run(["oracle", write(tmp_path, "no.hp", INFEASIBLE)]) == 1


def test_parse_failure_exits_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.hp", "p hitpaths 1 1\n")
    assert run(["solve", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err
    assert run(["solve", str(tmp_path / "absent.hp")]) == 2


def test_gen_is_deterministic(tmp_path, capsys):
    args = ["gen", "--seed", "1", "--k", "2", "--n", "10", "--paths", "8"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    out_file = tmp_path / "gen.hp"
    assert run(args + ["--out", str(out_file)]) == 0
    assert out_file.read_text() == first


def test_solve_then_verify_roundtrip(tmp_path, capsys):
    inst = write(tmp_path, "g.hp", "")
    assert run(["gen", "--seed", "3", "--k", "2", "--n", "9", "--paths", "6",
                "--t-policy", "opt", "--out", inst]) == 0
    assert run(["solve", inst]) == 0
    sol = write(tmp_path, "g.sol", capsys.readouterr().out)
    assert run(["verify", inst, sol]) == 0


def test_verify_rejects_bad_solution(tmp_path, capsys):
    inst = write(tmp_path, "tri.hp", TRIANGLE)
    bad = write(tmp_path, "bad.sol", "s 1 3\n")
    assert run(["verify", inst, bad]) == 2
    assert "target 1" in capsys.readouterr().err
    over = write(tmp_path, "over.sol", "s 2 1 2\n")
    assert run(["verify", inst, over]) == 2


def test_verify_checks_no_claims(tmp_path, capsys):
    inst = write(tmp_path, "no.hp", INFEASIBLE)
    claim = write(tmp_path, "no.sol", "s -1\n")
    assert run(["verify", inst, claim]) == 0
    tri = write(tmp_path, "tri.hp", TRIANGLE)
    assert run(["verify", tri, claim]) == 2


def test_verify_rejects_a_bare_solution_line(tmp_path, capsys):
    inst = write(tmp_path, "tri.hp", TRIANGLE)
    bare = write(tmp_path, "bare.sol", "s\n")
    assert run(["verify", inst, bare]) == 2
    assert "error" in capsys.readouterr().err


def test_reduce_pipeline(tmp_path, capsys):
    tri = write(tmp_path, "tri.hp", TRIANGLE)
    formula = str(tmp_path / "tri.scnf")
    assert run(["reduce", "clique3sat", tri, formula]) == 0
    out = str(tmp_path / "tree.hp")
    assert run(["reduce", "sat3tree", formula, out]) == 0
    assert run(["oracle", out]) == 0
    out2 = str(tmp_path / "fvs2.hp")
    assert run(["reduce", "sat3fvs2", formula, out2]) == 0
    assert run(["oracle", out2]) == 0


def test_bench_agreement_small(capsys):
    assert run(["bench", "--suite", "agreement", "--count", "25"]) == 0
    out = capsys.readouterr().out
    assert "agreement" in out and " 25 " in out


def test_unknown_verb_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_no_claim_check_respects_the_work_cap(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "no.hp", INFEASIBLE)
    claim = write(tmp_path, "no.sol", "s -1\n")
    monkeypatch.setenv("HITPATHS_CAP", "1")
    assert run(["verify", inst, claim]) == 2
    assert run(["oracle", inst]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_integer_work_cap_is_an_error(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "no.hp", INFEASIBLE)
    claim = write(tmp_path, "no.sol", "s -1\n")
    monkeypatch.setenv("HITPATHS_CAP", "abc")
    for argv in (["oracle", inst], ["verify", inst, claim]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: HITPATHS_CAP='abc' is not an integer\n"
    # an integer cap keeps its meaning
    monkeypatch.setenv("HITPATHS_CAP", " 50 ")
    assert run(["oracle", inst]) == 1
    assert run(["verify", inst, claim]) == 0


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.hp"
    bad.write_bytes(TRIANGLE.encode() + b"c \xff\xfe\n")
    sol = write(tmp_path, "tri.sol", "s 1 1\n")
    for argv in (["solve", str(bad)], ["oracle", str(bad)], ["verify", str(bad), sol],
                 ["verify", write(tmp_path, "tri.hp", TRIANGLE), str(bad)],
                 ["reduce", "sat3tree", str(bad), str(tmp_path / "out.hp")]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "not UTF-8" in captured.err


def test_bench_count_below_1_exits_2(capsys):
    for count in ("0", "-1"):
        assert run(["bench", "--suite", "agreement", "--count", count]) == 2
        assert "--count" in capsys.readouterr().err


def test_module_entry_points(tmp_path):
    # `python -m hitpaths` and `python -m hitpaths.cli` reach main() in a
    # fresh interpreter, with its exit codes and error line
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    good = write(tmp_path, "tri.hp", TRIANGLE)
    bad = write(tmp_path, "bad.hp", "p hitpaths 3 1 0 0\n")
    for module in ("hitpaths", "hitpaths.cli"):
        argv = [sys.executable, "-m", module, "solve"]
        done = subprocess.run(argv + [good], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, "s 1 1\n"), done.stderr
        done = subprocess.run(argv + [bad], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ")
