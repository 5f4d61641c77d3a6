import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    # a refactor that moves or duplicates an old text must update the list
    for file, old, new, tests in mutants.MUTANTS:
        text = (ROOT / file).read_text()
        assert text.count(old) == 1, (file, old)
        assert mutants.apply(text, old, new) != text
        assert tests and all((ROOT / t).is_file() for t in tests), tests


def test_apply_refuses_a_missing_or_repeated_text():
    assert mutants.apply("a b", "a", "c") == "c b"
    for text in ("b", "a a"):
        with pytest.raises(ValueError, match="not once"):
            mutants.apply(text, "a", "c")


def test_failing_unmutated_tests_print_the_end_of_pytests_output(monkeypatch, capsys):
    # a stub export whose one test prints 100 lines and fails
    def export(root, into):
        (into / "tests").mkdir()
        (into / "tests" / "test_stub.py").write_text(
            "def test_stub():\n    print('\\n'.join(f'line {i:03}' for i in range(100)))\n    assert 'stub' == 'broken'\n"
        )

    monkeypatch.setattr(mutants, "export", export)
    monkeypatch.setattr(mutants, "MUTANTS", [("tests/test_stub.py", "stub", "stub", ["tests/test_stub.py"])])
    assert mutants.main() == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and lines[0].startswith("error: the unmutated tests do not pass (failed)")
    # the last 30 lines: the failure summary, not the start of the captured output
    assert len(lines) == 31 and "line 000" not in err
    assert "1 failed" in lines[-1] and any("'broken'" in line for line in lines)
