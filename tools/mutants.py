"""Run the mutation gate: every listed mutant must make its test files fail.

    python3 tools/mutants.py

The tool exports the committed HEAD of the checkout it sits in with
`git archive` into a temporary directory, so uncommitted edits are not
seen.  It first runs the test files the entries name, unmutated, and
stops with exit code 2 if they fail, printing the last 30 lines of
pytest's output.  Then, for each entry of MUTANTS, it replaces the
entry's old text (which must occur exactly once in its file) by the new
text, runs `python -m pytest -x -q` on the entry's test files with
PYTHONPATH=src, and puts the file back.  A mutant is killed when that
run fails or takes longer than TIMEOUT_S; it survives when the run
passes.  The exit code is 1 if any mutant survives, else 0.

Each entry is a fault a test is meant to catch.  A mutant that changes
no behaviour (an equivalent mutant) does not belong in the list; never
weaken a test to kill one.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

GROUPS, SEQUENCES, POSETS = "src/ordseq/groups.py", "src/ordseq/sequences.py", "src/ordseq/posets.py"
TEST_GROUPS, TEST_SEQUENCES, TEST_POSETS = "tests/test_groups.py", "tests/test_sequences.py", "tests/test_posets.py"

# (file, old text, new text, test files that must fail)
MUTANTS = [
    # Light's test reads row a through row a instead of row x
    (GROUPS, "right.translate(lookup[x])", "right.translate(lookup[a])", [TEST_GROUPS]),
    # the product table's shift map is off by one
    (GROUPS, "bytes(range(x * h, x * h + h)) + pad", "bytes(range(x * h + 1, x * h + h + 1)) + pad", [TEST_GROUPS]),
    # the range check lets an entry equal to the size through
    (GROUPS, "if max(map(max, rows)) >= n:", "if max(map(max, rows)) > n:", [TEST_GROUPS]),
    # a row given as an int becomes that many zero bytes
    (
        GROUPS,
        "rows = tuple(bytes(iter(row)) for row in rows)",
        "rows = tuple(bytes(row) for row in rows)",
        [TEST_GROUPS],
    ),
    # the identity check reads row 0 only, not column 0
    (
        GROUPS,
        "if rows[0] != elements or bytes(row[0] for row in rows) != elements:",
        "if rows[0] != elements:",
        [TEST_GROUPS],
    ),
    # the cyclic table rotates each row the wrong way
    (
        GROUPS,
        "return tuple(row[a:] + row[:a] for a in range(n))",
        "return tuple(row[-a:] + row[:-a] for a in range(n))",
        [TEST_GROUPS],
    ),
    # an extension's table wraps past g**k without multiplying by z
    (GROUPS, "*range(tz * k, tz * k + i)", "*range(t * k, t * k + i)", [TEST_GROUPS]),
    # a permutation group's column map multiplies on the left, not the right
    (GROUPS, "index[tuple(map(pc.__getitem__, g))]", "index[tuple(map(g.__getitem__, pc))]", [TEST_GROUPS]),
    # the generator walk skips the elements reached before a new generator
    (GROUPS, "for a in gens[-1:] if i < old else gens:", "for a in () if i < old else gens:", [TEST_GROUPS]),
    # the isomorphism key depends on the element numbering
    (
        GROUPS,
        "self._key = (self.is_abelian(), tuple(sorted(counts.items())))",
        "self._key = (self.is_abelian(), tuple(sorted(counts.items())), self.generating_sequence())",
        [TEST_GROUPS],
    ),
    # an extension's action is checked against the first generator only
    (
        GROUPS,
        "for g in gens for x in range(n)):",
        "for g in gens[:1] for x in range(n)):",
        [TEST_GROUPS],
    ),
    # a threshold field one byte short when the total fills its bytes
    (SEQUENCES, "width = total.bit_length() // 8 + 1", "width = (total.bit_length() + 7) // 8", [TEST_SEQUENCES]),
    # domination keys matched by guard value instead of by grid
    (SEQUENCES, "if ka and kb and ka[3] is kb[3]:", "if ka and kb and ka[2] == kb[2]:", [TEST_SEQUENCES]),
    # build_poset no longer checks transitivity
    (POSETS, "if any(x & ~mask for x, mask in zip(above, up)):", "if False:", [TEST_POSETS]),
]


def apply(text: str, old: str, new: str) -> str:
    """text with its one occurrence of old replaced by new."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"the old text occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


def export(root: Path, into: Path) -> None:
    """Write the committed HEAD of the checkout at root into the directory into."""
    archive = into / "head.tar"
    subprocess.run(["git", "-C", str(root), "archive", "--output", str(archive), "HEAD"], check=True)
    with tarfile.open(archive) as tar:
        # the data filter refuses links and paths out of the directory, where this Python has it
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()


def run_tests(directory: Path, tests: list[str]) -> tuple[str, str]:
    """'passed', 'failed' or 'timed out', for pytest -x on tests in directory, and pytest's output."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=directory, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired as timeout:
        # the partial output of a run cut short is bytes even in text mode
        return "timed out", (timeout.output or b"").decode(errors="replace")
    return "passed" if proc.returncode == 0 else "failed", proc.stdout


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ordseq-mutants-") as tmp:
        work = Path(tmp)
        export(ROOT, work)
        every_test = sorted({t for *_, tests in MUTANTS for t in tests})
        verdict, output = run_tests(work, every_test)
        if verdict != "passed":
            print(f"error: the unmutated tests do not pass ({verdict}); the end of pytest's output:", file=sys.stderr)
            print("\n".join(output.splitlines()[-30:]), file=sys.stderr)
            return 2
        survivors = 0
        for number, (file, old, new, tests) in enumerate(MUTANTS, start=1):
            path = work / file
            original = path.read_text()
            path.write_text(apply(original, old, new))
            try:
                verdict, _ = run_tests(work, tests)
            finally:
                path.write_text(original)
            survived = verdict == "passed"
            survivors += survived
            print(f"{'SURVIVED' if survived else 'killed'} ({verdict}) mutant {number}: {file}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
