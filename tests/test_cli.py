import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordseq
from ordseq.cli import _format_rho, _main


def run_cli(capsys, *argv):
    code = _main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_os_text(capsys):
    code, out, _ = run_cli(capsys, "os", "C6")
    assert code == 0
    assert out.splitlines() == ["1:1,2:1,3:2,6:2  psi=21 rho=648 psi2=95 exponent=6 nilpotent=yes"]


def test_os_non_nilpotent(capsys):
    code, out, _ = run_cli(capsys, "os", "S3")
    assert code == 0
    assert out.splitlines() == ["1:1,2:3,3:2  psi=13 rho=72 psi2=31 exponent=6 nilpotent=no"]


def test_os_json(capsys):
    code, out, _ = run_cli(capsys, "os", "C6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["sequence"] == [[1, 1], [2, 1], [3, 2], [6, 2]]
    assert payload["text"] == "1:1,2:1,3:2,6:2"
    assert payload["psi"] == 21
    assert payload["psi2"] == 95
    assert payload["rho"] == "648"
    assert payload["exponent"] == 6
    assert payload["nilpotent"] is True


def test_rho_formatting():
    assert _format_rho(648) == "648"
    assert _format_rho(10**119) == str(10**119)
    assert _format_rho(10**120) == "100000000000e109"


def test_compare_strong(capsys):
    code, out, _ = run_cli(capsys, "compare", "C12", "Dic12")
    assert code == 0
    assert out.splitlines() == ["A>B strong"]


def test_compare_not_strong_with_certificate(capsys):
    code, out, _ = run_cli(capsys, "compare", "Dic12", "A4")
    assert code == 0
    assert out.splitlines() == [
        "A>B not-strong",
        "certificate: orders {1,2,4} hold 8 elements but only 4 targets among orders {1,2}",
    ]
    code, out, _ = run_cli(capsys, "compare", "A4", "Dic12")
    assert code == 0
    assert out.splitlines()[0] == "B>A not-strong"


def test_compare_equal_and_incomparable(capsys):
    code, out, _ = run_cli(capsys, "compare", "C6", "C6")
    assert code == 0
    assert out.splitlines() == ["A=B strong"]
    code, out, _ = run_cli(capsys, "compare", "C2xC6", "Dic12")
    assert code == 0
    assert out.splitlines() == ["incomparable"]


def test_compare_json(capsys):
    code, out, _ = run_cli(capsys, "compare", "Dic12", "A4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relation"] == "A>B"
    assert payload["strong"] is False
    cert = payload["certificate"]
    assert sorted(cert["a_orders"]) == [1, 2, 4]
    assert sorted(cert["b_orders"]) == [1, 2]
    assert cert["need"] == 8
    assert cert["have"] == 4


def test_compare_length_mismatch_exit_code(capsys):
    code, _, err = run_cli(capsys, "compare", "C4", "C6")
    assert code == 4
    assert "error:" in err


def test_poset(capsys):
    code, out, _ = run_cli(capsys, "poset", "1")
    assert code == 0
    assert "C1" in out
    code, out, _ = run_cli(capsys, "poset", "16")
    assert code == 0
    assert out.startswith("digraph {")
    code, out, _ = run_cli(capsys, "poset", "16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["items"]) == 9
    code, _, err = run_cli(capsys, "poset", "17")
    assert code == 5
    assert "error:" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gap-bounds", "--order", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS gap-bounds[8]:")
    assert "  note: equality at: Q8" in lines
    assert lines[-1] == "1/1 suites passed"


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err
    code, _, err = run_cli(capsys, "verify", "--order", "8")
    assert code == 2
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_verify_precondition_exit(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "partition", "--order", "11")
    assert code == 4
    assert "error:" in err


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all")
    assert code == 0
    assert out.splitlines()[-1] == "81/81 suites passed"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "order16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["name"] == "order16"


def test_realize(capsys):
    code, out, _ = run_cli(capsys, "realize", "1:1,2:3,3:2", "6")
    assert code == 0
    assert out.splitlines() == ["S3"]
    code, out, _ = run_cli(capsys, "realize", "1:1,2:2,3:3", "6")
    assert code == 0
    assert out.startswith("implausible, rule mod-p")
    code, out, _ = run_cli(capsys, "realize", "1:1,2:3,8:4", "8")
    assert code == 0
    assert out.splitlines() == ["plausible, but no catalog group matches"]
    code, out, _ = run_cli(capsys, "realize", "1:1,2:3", "4")
    assert code == 0
    assert out.splitlines() == ["C2xC2"]
    code, _, err = run_cli(capsys, "realize", "nonsense", "6")
    assert code == 2


def test_realize_json(capsys):
    code, out, _ = run_cli(capsys, "realize", "1:1,2:2,3:3", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["plausible"] is False
    assert payload["rule"] == "mod-p"
    assert payload["groups"] == []


def test_graph_gk(capsys):
    code, out, _ = run_cli(capsys, "graph", "gk", "A5")
    assert code == 0
    assert out == 'graph {\n  v0 [label="2"];\n  v1 [label="3"];\n  v2 [label="5"];\n}\n'
    code, out, _ = run_cli(capsys, "graph", "gk", "C6")
    assert code == 0
    assert "v0 -- v1" in out


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "power", "C4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["directed"] is False
    assert payload["labels"] == ["0", "1", "2", "3"]
    assert len(payload["edges"]) == 6
    code, out, _ = run_cli(capsys, "graph", "dpower", "C4", "--json")
    payload = json.loads(out)
    assert payload["directed"] is True
    assert len(payload["edges"]) == 7


def test_graph_errors(capsys):
    code, _, err = run_cli(capsys, "graph", "power", "C2x")
    assert code == 2
    code, _, err = run_cli(capsys, "graph", "power", "S8")
    assert code == 3


def test_max_size_flag(capsys):
    code, _, err = run_cli(capsys, "os", "C12", "--max-size", "10")
    assert code == 3
    assert "error:" in err


def test_partition_listing(capsys):
    code, out, _ = run_cli(capsys, "partition", "4")
    assert code == 0
    assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]


def test_partition_details(capsys):
    code, out, _ = run_cli(capsys, "partition", "4,1,1")
    assert code == 0
    assert out.splitlines() == [
        "partition: 4,1,1",
        "conjugate: 3,1,1,1",
        "cyclic subgroups: total=20 part-product=20",
        "sequence (p=2): 1:1,2:7,4:8,8:16,16:32",
    ]
    code, out, _ = run_cli(capsys, "partition", "3,3")
    assert "cyclic subgroups: total=22 part-product=16" in out.splitlines()
    assert "sequence (p=2): 1:1,2:3,4:12,8:48" in out.splitlines()
    code, out, _ = run_cli(capsys, "partition", "4,1,1", "--p", "3")
    assert any(line.startswith("sequence (p=3):") for line in out.splitlines())


def test_partition_chain(capsys):
    code, out, _ = run_cli(capsys, "partition", "4,1,1", "--chain", "2,2,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4,1,1"
    assert lines[-1] == "2,2,2"
    code, _, err = run_cli(capsys, "partition", "3,3", "--chain", "4,1,1")
    assert code == 4


def test_partition_errors(capsys):
    code, _, err = run_cli(capsys, "partition", "abc")
    assert code == 2
    code, _, err = run_cli(capsys, "partition", "61")
    assert code == 3


def test_global_flags_follow_the_subcommand():
    with pytest.raises(SystemExit) as exc:
        _main(["--json", "os", "C6"])
    assert exc.value.code == 2


def test_module_entry_point():
    # the child imports the same ordseq as this process, installed or not
    here = str(Path(ordseq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ordseq.cli", "os", "C6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("1:1,2:1,3:2,6:2")
