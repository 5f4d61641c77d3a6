import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ordseq
from ordseq import errors
from ordseq.cli import _EXIT_CODES, _format_rho, _main

STRETCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "stretch.json"


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


def test_rho_formatting_past_the_int_str_limit(default_int_str_limit):
    assert _format_rho(10**5000) == "100000000000e4989"


def test_os_json_leaves_int_str_limit_alone(capsys, default_int_str_limit):
    # rho of A8 has 15,849 digits, past the default limit of 4,300
    code, out, _ = run_cli(capsys, "os", "A8", "--json")
    assert sys.get_int_max_str_digits() == default_int_str_limit
    assert code == 0
    assert len(json.loads(out)["rho"]) == 15849


_HUGE = "9" * 5000  # past the default limit of 4,300 digits for int()


@pytest.mark.parametrize(
    "expr,code",
    [
        ("S2000", 3),
        ("A1700", 3),
        ("Aff(2,15000,3)", 3),
        ("S1000000", 3),
        pytest.param(f"C{_HUGE}", 2, id="C-5000-digits"),
        pytest.param(f"Ab(2,{_HUGE})", 2, id="Ab-5000-digits"),
        pytest.param(f"Heis({_HUGE})", 2, id="Heis-5000-digits"),
    ],
)
def test_big_numbers_in_expressions_exit_cleanly(capsys, default_int_str_limit, expr, code):
    # a size past the cap is refused without being worked out in full
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "os", expr)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_compare_stretch_pair_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "compare", "A8", "PSL34", "--json")
    assert code == 0
    assert json.loads(out) == json.loads(STRETCH_REFERENCE.read_text())["output"]


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
    assert "choose --all or --suite NAME" in err


def test_verify_precondition_exit(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "partition", "--order", "11")
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("os", "Aff(0,1,1)"),
        ("verify", "--suite", "nilpotent-minimality", "--order", "0"),
        ("verify", "--suite", "nilpotent-minimality", "--order", "-4"),
    ],
)
def test_non_positive_orders_exit_4(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_every_error_class_has_an_exit_code():
    # an OrdseqError outside every key would reach the user as a traceback
    concrete = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.OrdseqError) and cls is not errors.OrdseqError
    ]
    assert errors.UnsupportedOrderError in concrete
    for cls in concrete:
        assert any(issubclass(cls, key) for key in _EXIT_CODES), cls.__name__


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


@pytest.mark.parametrize("argv", ["compare C12 C6", "graph power C12"])
def test_max_size_caps_every_parsed_group(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(), "--max-size", "10")
    assert (code, out) == (3, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", ["verify --all", "poset 8", "realize 1:1,2:1 2", "partition 4"])
def test_max_size_is_a_usage_error_where_no_group_is_parsed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _main([*argv.split(), "--max-size", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-size 5" in capsys.readouterr().err


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


def test_partition_chain_needs_a_partition(capsys):
    # a bare total lists partitions, so a chain has no partition to start from
    code, out, err = run_cli(capsys, "partition", "5", "--chain", "3,2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --chain needs a partition")
    code, out, _ = run_cli(capsys, "partition", "5,", "--chain", "3,2")
    assert code == 0
    assert out.splitlines() == ["5", "4,1", "3,2"]


@pytest.mark.parametrize("argv", ["partition 2,1 --p 4", "partition 3 --p 4", "partition 3, --p 4 --chain 2,1"])
def test_partition_refuses_a_p_that_is_not_prime_on_every_path(capsys, argv):
    # listing and chains never use p, but a bad --p is still an error, not ignored
    assert run_cli(capsys, *argv.split()) == (4, "", "error: 4 is not prime\n")


@pytest.mark.parametrize(
    "argv", ["partition x --p 4", "partition 3,x --p 4", "partition 3, --chain x --p 4", "partition 5 --chain 3,2 --p 4"]
)
def test_partition_reads_its_arguments_before_it_checks_p(capsys, argv):
    # a parse or usage error wins over a bad --p, as it did before --p was checked on every path
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert "prime" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "partition 61",
        "partition -1",
        "partition 0,1",
        "partition 3,2 --p 4",
        "partition 3 --p 4",
        "partition 3, --p 4 --chain 2,1",
        "partition 3,2 --chain 4",
        "partition 5 --chain 3,2",
        "partition x --p 4",
        "poset 17",
        "poset -3",
        "os C0",
        "os S9",
        "compare C4 C2",
        "graph power C0",
        "verify --suite unique-max --order 17",
        "verify --suite unique-max --order 0",
        "verify --suite order16 --order 3",
        "verify --suite gap-bounds --order 1",
        "verify --suite gap-bounds --order 17",
    ],
)
def test_malformed_input_ends_in_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code in (2, 3, 4, 5)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("order", ["0", "-4", "17"])
def test_unique_max_on_an_order_without_a_catalog_exits_5(capsys, order):
    # the catalog is read before the cyclic sequence, which refuses an order below 1 with exit 4
    code, out, err = run_cli(capsys, "verify", "--suite", "unique-max", "--order", order)
    assert (code, out) == (5, "")
    assert err == f"error: no complete catalog for order {order}\n"


@pytest.mark.parametrize("order", ["17", "99999999999999999999"])
def test_gap_bounds_on_an_order_without_a_catalog_exits_5(capsys, order):
    # the catalog is read before the cyclic sequence, whose divisor scan runs up to the order
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "gap-bounds", "--order", order)
    assert (code, out) == (5, "")
    assert err == f"error: no complete catalog for order {order}\n"
    assert time.perf_counter() - start < 1.0


def test_realize_on_a_semiprime_past_the_factor_cap_exits_3(capsys):
    # the mod-p rule factorizes n; trial division toward 10**9 used to run for minutes
    n = 1000000007 * 1000000009
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "realize", f"1:1,{n}:{n - 1}", str(n))
    assert code == 3
    assert out == ""
    assert "capped" in err and "Traceback" not in err
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("parts", ["15000,1", "59,2", "60,1", "1000000000,1"])
def test_partition_details_past_the_size_cap_exit_3(capsys, parts):
    # |parts| > 60 would build p**|parts|; the cap refuses before that, with no traceback
    code, out, err = run_cli(capsys, "partition", parts, "--p", "2")
    assert code == 3
    assert out == ""
    assert "capped" in err and "Traceback" not in err


def test_global_flags_follow_the_subcommand():
    with pytest.raises(SystemExit) as exc:
        _main(["--json", "os", "C6"])
    assert exc.value.code == 2


def _child_env():
    # the child imports the same ordseq as this process, installed or not
    here = str(Path(ordseq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ordseq.cli", "os", "C6"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("1:1,2:1,3:2,6:2")


@pytest.mark.parametrize(
    "p,code,out",
    [
        ("2305843009213693951", 3, ""),  # 2**61 - 1: past the primality cap
        ("999983", 0, "sequence (p=999983): 1:1,999983:999966000288,999966000289:999948000900994798\n"),
    ],
)
def test_partition_with_a_large_prime_ends_in_time(p, code, out):
    proc = subprocess.run(
        [sys.executable, "-m", "ordseq.cli", "partition", "2,1", "--p", p],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.endswith(out)
    if code:
        assert "primality test is capped" in proc.stderr


@pytest.mark.parametrize("argv", [["partition", "40", "--json"], ["partition", "40"]])
def test_reader_closing_the_pipe_early_exits_quietly(argv):
    # the listing is far larger than a pipe buffer, so the child is still
    # writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordseq.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == 10
    assert err == b""
