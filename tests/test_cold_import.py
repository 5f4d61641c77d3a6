"""`import ordseq, ordseq.cli` loads neither `dataclasses` (nor `inspect`,
which it pulls in), `random`, nor the group-expression parser; the commands
that parse a group load the parser on first use.

The probe runs in a fresh interpreter, since this test process has long
since imported everything.  `-S` skips site-packages start-up hooks, which
may import modules of their own; the package is found through PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, sys
import ordseq, ordseq.cli
print(sorted({"dataclasses", "inspect", "random", "ordseq.expressions"} & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [ordseq.cli._main(["os", "C2xC3"]), ordseq.cli._main(["compare", "A4", "D12"])]
print(codes)
print(out.getvalue(), end="")
print("ordseq.expressions" in sys.modules)
"""


def test_import_leaves_dataclasses_inspect_and_the_parser_unloaded():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "[]",
        "[0, 0]",
        "1:1,2:1,3:2,6:2  psi=21 rho=648 psi2=95 exponent=6 nilpotent=yes",
        "incomparable",
        "True",
    ]
