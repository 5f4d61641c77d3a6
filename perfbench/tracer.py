"""Outside-in tracer for the ordseq layers.

Nothing inside ordseq is edited.  A public function is traced by
rebinding its name, in every loaded ``ordseq`` module that holds it, to
a wrapper that records a span; ``from .sequences import dominates`` in
``suites`` is a second binding of the same object and is rebound too.
Methods and the constructors of the concrete group classes are wrapped
on their class.  Spans stay in memory as [name, start, end, parent] and
are written out once the pass is over.

Self time of a span is its duration minus the time its child spans
cover.  The pass is single-threaded, so children never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# span name -> (module, public names); every listed name is a module-level function
FUNCTIONS = {
    "catalog": (
        "ordseq.catalog",
        (
            "catalog",
            "abelian_groups_of_order",
            "nilpotent_groups_of_order",
            "group_by_name",
            "elementary_product",
            "frobenius20",
            "frobenius21",
            "modular16",
            "semidihedral16",
            "standard_family",
        ),
    ),
    "partitions.partition": ("ordseq.partitions", ("partition",)),
    "partitions.other": (
        "ordseq.partitions",
        (
            "conjugate",
            "majorizes",
            "partitions_of",
            "abelian_order_sequence",
            "cyclic_subgroup_counts",
            "box_move_chain",
            "defining_partition",
        ),
    ),
    "graphs.power_graph": ("ordseq.graphs", ("power_graph",)),
    "graphs.canonical_form": ("ordseq.graphs", ("canonical_form",)),
    "sequences.order_sequence": ("ordseq.sequences", ("order_sequence",)),
    "sequences.dominates": ("ordseq.sequences", ("dominates",)),
    "sequences.strong_domination": ("ordseq.sequences", ("strong_domination",)),
    "posets.build_poset": ("ordseq.posets", ("build_poset",)),
    "posets.hasse": ("ordseq.posets", ("hasse",)),
}

# span name -> FiniteGroup methods
METHODS = {
    "groups.element_orders": ("element_orders",),
    "groups.structure": ("is_isomorphic", "is_nilpotent", "sylow_subgroup", "subgroup", "quotient"),
}

# the lru_cache'd listings whose hits make up catalog.hit_ratio
CACHED_LISTINGS = ("catalog", "abelian_groups_of_order", "nilpotent_groups_of_order")


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == "ordseq" or name.startswith("ordseq.")]


def rebind(original, replacement) -> int:
    """Point every ordseq module-level name bound to `original` at `replacement`."""
    hits = 0
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def concrete_group_classes():
    """Every loaded FiniteGroup subclass that defines its own constructor."""
    from ordseq.groups import FiniteGroup

    out, todo = [], list(FiniteGroup.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "__init__" in vars(cls):
            out.append(cls)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


class Tracer:
    """Records spans for one pass; install() once, after set-up."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.builds: list[tuple[str, str, int]] = []  # (class, name, size) per group built
        self._cached = {}

    def _wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(args)
            return out

        return traced

    def install(self) -> None:
        from ordseq.fields import FiniteField
        from ordseq.groups import FiniteGroup

        for span, (module_name, names) in FUNCTIONS.items():
            module = sys.modules[module_name]
            for fname in names:
                fn = getattr(module, fname)
                if fname in CACHED_LISTINGS:
                    self._cached[fname] = fn
                if rebind(fn, self._wrap(span, fn)) == 0:
                    raise RuntimeError(f"{module_name}.{fname} is bound nowhere")
        for span, names in METHODS.items():
            for mname in names:
                setattr(FiniteGroup, mname, self._wrap(span, getattr(FiniteGroup, mname)))

        def record_build(args):
            g = args[0]
            self.builds.append((type(g).__name__, g.name, g.size))

        # every group constructor is a build; those in fields also time as fields.build
        for cls in concrete_group_classes():
            span = "fields.build" if cls.__module__ == "ordseq.fields" else "groups.build"
            cls.__init__ = self._wrap(span, vars(cls)["__init__"], record_build)
        FiniteField.__init__ = self._wrap("fields.build", vars(FiniteField)["__init__"])

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) summed over the cached catalog listings."""
        hits = misses = 0
        for fn in self._cached.values():
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def count_mul_calls():
    """Count every call of a concrete group's mul; returns a one-item list
    that the wrappers increment.  Counting only, since a span per call
    would swamp the times it measures."""
    counter = [0]
    for cls in concrete_group_classes():
        if "mul" not in vars(cls):
            continue
        fn = vars(cls)["mul"]

        def counted(self, a, b, _fn=fn):
            counter[0] += 1
            return _fn(self, a, b)

        cls.mul = counted
    return counter
