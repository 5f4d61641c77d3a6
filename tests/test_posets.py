import json

import pytest

from ordseq.catalog import catalog, supported_orders
from ordseq.errors import AntisymmetryViolation, PreconditionError
from ordseq.numth import divisors
from ordseq.posets import Poset, build_poset, extremes, hasse, render, sanitize_identifier
from ordseq.sequences import dominates, order_sequence


def _divisor_poset(n):
    items = [(str(d), d) for d in divisors(n)]
    return build_poset(items, lambda a, b: b % a == 0)


def test_divisor_poset_structure():
    poset = _divisor_poset(12)
    assert len(poset.names) == 6
    assert poset.leq("2", "4")
    assert not poset.leq("4", "2")
    assert len(hasse(poset)) == 7
    maximal, minimal, unique_max = extremes(poset)
    assert maximal == ["12"]
    assert minimal == ["1"]
    assert unique_max == "12"


def test_collapse_merges_equal_values():
    poset = build_poset([("b", 0), ("a", 0), ("c", 1)], lambda x, y: x <= y)
    assert "a=b" in poset.names
    assert "c" in poset.names
    assert len(poset.names) == 2


def test_antisymmetry_violation_without_collapse():
    with pytest.raises(AntisymmetryViolation):
        build_poset([("a", 0), ("b", 0)], lambda x, y: x <= y, collapse=False)


def test_build_poset_preconditions():
    with pytest.raises(PreconditionError):
        build_poset([("a", 1), ("a", 2)], lambda x, y: x <= y)
    with pytest.raises(PreconditionError):
        build_poset([("a", 1), ("b", 2)], lambda x, y: x < y)


# a <= b and b <= c, but not a <= c
_NON_TRANSITIVE = ((True, True, False), (False, True, True), (False, False, True))


def test_build_poset_rejects_non_transitive_relation():
    items = [("a", 0), ("b", 1), ("c", 2)]
    with pytest.raises(PreconditionError, match="not transitive"):
        build_poset(items, lambda x, y: _NON_TRANSITIVE[x][y])


def test_hasse_closure_check_rejects_non_transitive_relation():
    poset = Poset(("a", "b", "c"), (("a",), ("b",), ("c",)), _NON_TRANSITIVE)
    with pytest.raises(AssertionError, match="close back"):
        hasse(poset)


def _brute_force_covers(poset):
    k = len(poset.names)
    rel = poset.relation
    return [
        (a, b)
        for a in range(k)
        for b in range(k)
        if a != b and rel[a][b] and not any(rel[a][c] and rel[c][b] for c in range(k) if c not in (a, b))
    ]


@pytest.mark.parametrize("n", supported_orders())
def test_hasse_matches_brute_force_on_catalog_posets(n):
    items = [(name, order_sequence(g)) for name, g in catalog(n)]
    poset = build_poset(items, lambda a, b: dominates(b, a))
    assert hasse(poset) == _brute_force_covers(poset)


@pytest.mark.parametrize("n", [1, 12, 64, 360, 720])
def test_hasse_matches_brute_force_on_divisor_posets(n):
    poset = _divisor_poset(n)
    assert hasse(poset) == _brute_force_covers(poset)


def _sixteen_poset():
    items = [(name, order_sequence(g)) for name, g in catalog(16)]
    return build_poset(items, lambda a, b: dominates(b, a))


def test_order16_domination_poset():
    poset = _sixteen_poset()
    assert len(poset.names) == 9
    _, _, unique_max = extremes(poset)
    assert unique_max == "C16"
    assert "C4:C4=C4xC4=Q8xC2" in poset.names


def test_render_dot():
    text = render(_sixteen_poset(), "dot")
    assert text.startswith("digraph {")
    assert "rankdir=BT;" in text
    assert '[label="C4:C4=C4xC4=Q8xC2"]' in text
    # identifiers stay DOT-safe even for decorated names
    assert "C2xC2_C4" in text
    assert text.rstrip().endswith("}")


def test_render_dot_numeric_names():
    text = render(_divisor_poset(12), "dot")
    assert "n_12" in text


def test_render_json_round_trip():
    poset = _sixteen_poset()
    payload = json.loads(render(poset, "json"))
    assert len(payload["items"]) == 9
    names = [item["name"] for item in payload["items"]]
    assert names == sorted(names)
    members = [m for item in payload["items"] for m in item["members"]]
    assert len(members) == 14
    k = len(payload["items"])
    assert all(0 <= a < k and 0 <= b < k for a, b in payload["covers"])


def test_render_unknown_format():
    with pytest.raises(PreconditionError):
        render(_divisor_poset(6), "svg")


def test_sanitize_identifier():
    assert sanitize_identifier("(C2xC2):C4") == "C2xC2_C4"
    assert sanitize_identifier("***") == "item"
    assert sanitize_identifier("C16") == "C16"
