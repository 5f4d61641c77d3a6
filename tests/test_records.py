"""The five record classes keep their value semantics: repr text, equality by
fields, hashing, frozenness, defaults, and LabeledGraph's checks.

The repr strings below were recorded when these classes were dataclasses.
"""

import copy
import pickle

import pytest

from ordseq.errors import PreconditionError
from ordseq.graphs import LabeledGraph
from ordseq.partitions import CyclicCounts, cyclic_subgroup_counts
from ordseq.posets import Poset
from ordseq.records import FrozenRecord
from ordseq.sequences import HallCertificate
from ordseq.suites import SuiteReport

FROZEN = [
    (
        HallCertificate((4, 2), (2, 1), 5, 3),
        "HallCertificate(a_orders=(4, 2), b_orders=(2, 1), need=5, have=3)",
    ),
    (
        Poset(("a", "b=c"), (("a",), ("b", "c")), (3, 2)),
        "Poset(names=('a', 'b=c'), members=(('a',), ('b', 'c')), up=(3, 2))",
    ),
    (
        LabeledGraph(3, ("0", "1", "2"), frozenset({(0, 1)})),
        "LabeledGraph(n=3, labels=('0', '1', '2'), edges=frozenset({(0, 1)}), directed=False)",
    ),
    (
        LabeledGraph(2, ("x", "y"), frozenset({(1, 0)}), directed=True),
        "LabeledGraph(n=2, labels=('x', 'y'), edges=frozenset({(1, 0)}), directed=True)",
    ),
    (
        cyclic_subgroup_counts(2, (2, 1)),
        "CyclicCounts(element_counts=(3, 4), subgroup_counts=(3, 2), total=6, part_product=6)",
    ),
]
FIELDS = {
    HallCertificate: ("a_orders", "b_orders", "need", "have"),
    Poset: ("names", "members", "up"),
    LabeledGraph: ("n", "labels", "edges", "directed"),
    CyclicCounts: ("element_counts", "subgroup_counts", "total", "part_product"),
}
IDS = [text.split("(")[0] for _, text in FROZEN]


def values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("record, text", FROZEN, ids=IDS)
def test_repr_text_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in FROZEN], ids=IDS)
def test_equal_by_class_and_fields(record):
    cls = type(record)
    twin = cls(*values(record))
    assert twin == record and twin is not record and not twin != record
    assert cls(**dict(zip(FIELDS[cls], values(record)))) == record
    assert record != values(record)
    assert record.__eq__(values(record)) is NotImplemented
    assert record.__eq__(object()) is NotImplemented


def test_records_of_different_classes_with_equal_fields_are_unequal():
    certificate, counts = HallCertificate((1,), (2,), 3, 4), CyclicCounts((1,), (2,), 3, 4)
    assert certificate.__eq__(counts) is NotImplemented
    assert certificate != counts


def test_unequal_when_one_field_differs():
    assert HallCertificate((4, 2), (2, 1), 5, 3) != HallCertificate((4, 2), (2, 1), 5, 4)
    assert Poset(("a",), (("a",),), (1,)) != Poset(("b",), (("b",),), (1,))
    edges = frozenset({(0, 1)})
    assert LabeledGraph(2, ("", ""), edges) != LabeledGraph(2, ("", ""), edges, directed=True)
    assert cyclic_subgroup_counts(2, (2, 1)) != cyclic_subgroup_counts(3, (2, 1))


@pytest.mark.parametrize("record", [r for r, _ in FROZEN], ids=IDS)
def test_hashed_by_fields(record):
    assert hash(record) == hash(values(record))
    assert hash(type(record)(*values(record))) == hash(record)
    assert len({record, type(record)(*values(record))}) == 1


@pytest.mark.parametrize("record", [r for r, _ in FROZEN], ids=IDS)
def test_frozen(record):
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", [r for r, _ in FROZEN], ids=IDS)
def test_copies_and_pickles_are_equal(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_constructors_take_exactly_their_fields():
    with pytest.raises(TypeError):
        HallCertificate((4,), (2,), 1)
    with pytest.raises(TypeError):
        Poset((), (), (), ())
    with pytest.raises(TypeError):
        CyclicCounts((), (), 1, 1, extra=2)


@pytest.mark.parametrize(
    "init",
    [
        "def __init__(self, a, *rest): super().__init__(a)",
        "def __init__(self, a, *, b=0): super().__init__(a)",
        "def __init__(self, a, **extra): super().__init__(a)",
    ],
)
def test_record_fields_must_be_plain_positional_parameters(init):
    # such a parameter would silently drop out of eq, hash and repr
    namespace = {}
    exec(init, namespace)
    with pytest.raises(TypeError, match="plain positional parameters"):
        type("Bad", (FrozenRecord,), {"__init__": namespace["__init__"]})


def test_record_subclass_without_init_keeps_its_parents_fields():
    class Certificate(HallCertificate):
        pass

    record = Certificate((4,), (2,), 1, 0)
    assert repr(record).endswith(".Certificate(a_orders=(4,), b_orders=(2,), need=1, have=0)")
    assert record != HallCertificate((4,), (2,), 1, 0)


def test_labeled_graph_defaults_to_undirected():
    assert LabeledGraph(1, ("v",), frozenset()).directed is False


@pytest.mark.parametrize(
    "n, labels, edges, directed, message",
    [
        (2, ("a",), set(), False, "need one label per vertex"),
        (2, ("a", "b"), {(0, 2)}, False, r"edge \(0, 2\) is not a pair of distinct vertices"),
        (2, ("a", "b"), {(-1, 0)}, True, r"edge \(-1, 0\) is not a pair of distinct vertices"),
        (2, ("a", "b"), {(1, 1)}, True, r"edge \(1, 1\) is not a pair of distinct vertices"),
        (2, ("a", "b"), {(1, 0)}, False, "undirected edges must be stored low-high"),
    ],
)
def test_labeled_graph_checks(n, labels, edges, directed, message):
    with pytest.raises(PreconditionError, match=message):
        LabeledGraph(n, labels, frozenset(edges), directed=directed)


def test_suite_report_defaults_and_repr():
    rep = SuiteReport("demo")
    assert repr(rep) == "SuiteReport(name='demo', cases=0, failures=[], notes=[], seconds=0.0)"
    full = SuiteReport("x", 3, ["bad"], ["n"], 1.5)
    assert repr(full) == "SuiteReport(name='x', cases=3, failures=['bad'], notes=['n'], seconds=1.5)"
    assert full == SuiteReport(name="x", cases=3, failures=["bad"], notes=["n"], seconds=1.5)
    assert full != SuiteReport("x", 3, ["bad"], ["n"], 2.5)
    assert full.__eq__(("x", 3, ["bad"], ["n"], 1.5)) is NotImplemented


def test_suite_report_lists_are_fresh_per_report():
    first, second = SuiteReport("a"), SuiteReport("b")
    first.require(False, "broken")
    first.note("seen")
    assert (first.failures, first.notes) == (["broken"], ["seen"])
    assert (second.failures, second.notes) == ([], [])
    given = ["kept"]
    assert SuiteReport("c", failures=given).failures is given


def test_suite_report_is_mutable_and_unhashable():
    rep = SuiteReport("demo")
    rep.cases += 2
    rep.seconds = 0.25
    assert rep == SuiteReport("demo", 2, seconds=0.25)
    with pytest.raises(TypeError):
        hash(rep)
