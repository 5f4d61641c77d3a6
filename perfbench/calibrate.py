"""A fixed piece of pure-Python work that times the host, not ordseq.

    python3 perfbench/calibrate.py    # prints the seconds the work took

The host's speed changes in spells of seconds to minutes (other tenants
share its cores and caches).  run.py runs this script in its own
interpreter before the first pass and after every pass, and scales
each pass's times by its CAL_REF_S over the two readings around it, so
that a pass run in a slow or fast spell is not mistaken for slow or
fast code.  It never imports ordseq, so a change to the package cannot
move it.

The work is of the kinds an ordseq pass does: closing a matrix group
(tuple arithmetic, calls, dict inserts), then building tens of MB of
fresh tuples and looking them up at random in a dict (allocation, page
faults, hashing, cache misses).  A walk over a few MB tracked the
passes less closely: the passes sped up and slowed down more than it
did.
"""

from __future__ import annotations

import gc
import time

GL33_ORDER = 11232
GL33_GENS = (
    (2, 0, 0, 0, 1, 0, 0, 0, 1),
    (2, 0, 1, 2, 0, 0, 0, 2, 0),
    (1, 1, 0, 0, 1, 0, 0, 0, 1),
    (0, 0, 1, 1, 0, 0, 0, 1, 0),
)
KEYS = 120000
STEPS = 100000
WALK_RESULT = 8965086676


def _matmul3(a, b):
    return tuple((a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j]) % 3
                 for i in range(3) for j in range(3))


def closure() -> int:
    """The order of GL(3,3), by closing four generators breadth first."""
    ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    elems = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elems):
        cur = elems[head]
        head += 1
        for g in GL33_GENS:
            y = _matmul3(cur, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return len(elems)


def walk() -> int:
    """A checksum of STEPS pseudo-random lookups of KEYS 9-tuples (65,521
    distinct ones) in a dict."""
    keys = [tuple((i * k + 7) % 65521 for k in range(1, 10)) for i in range(KEYS)]
    index = {key: i for i, key in enumerate(keys)}
    x = acc = 1
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += index[keys[x % KEYS]]
    return acc


def main() -> int:
    gc.disable()
    t0 = time.perf_counter()
    results = closure(), walk()
    seconds = time.perf_counter() - t0
    if results != (GL33_ORDER, WALK_RESULT):
        raise SystemExit(f"calibration work returned {results}, not {(GL33_ORDER, WALK_RESULT)}")
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
