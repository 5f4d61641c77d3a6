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
