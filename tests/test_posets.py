import hashlib
import json
from operator import ge

import pytest
from hypothesis import assume, given, settings, strategies as st

from ordseq.catalog import catalog, supported_orders
from ordseq.cli import _main
from ordseq.errors import PreconditionError
from ordseq.partitions import abelian_order_sequence, partitions_of
from ordseq.posets import Poset, build_poset, coordinatewise_up, extremes, hasse, render, sanitize_identifier
from ordseq.sequences import dominates, order_sequence


_vector_lists = st.integers(min_value=0, max_value=5).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(min_value=-2, max_value=2)] * d), max_size=40)
)


@settings(max_examples=200)
@given(_vector_lists)
def test_coordinatewise_up_matches_pairwise_comparison(vectors):
    # values from five, so ties and repeated vectors are common
    expected = [sum(1 << i for i, v in enumerate(vectors) if all(map(ge, v, w))) for w in vectors]
    assert coordinatewise_up(vectors) == expected


def test_coordinatewise_up_edges():
    assert coordinatewise_up([]) == []
    assert coordinatewise_up([(), ()]) == [0b11, 0b11]
    assert coordinatewise_up([(1, 0), (0, 1), (1, 1), (1, 1)]) == [0b1101, 0b1110, 0b1100, 0b1100]
    assert coordinatewise_up(iter([(3,), (1,), (2,)])) == [0b001, 0b111, 0b101]
    with pytest.raises(PreconditionError):
        coordinatewise_up([(1, 2), (1,)])


def _divisor_poset(n):
    items = [(str(d), d) for d in range(1, n + 1) if n % d == 0]
    return build_poset(items, lambda a, b: b % a == 0)


def test_divisor_poset_structure():
    poset = _divisor_poset(12)
    assert len(poset.names) == 6
    i2, i4 = poset.names.index("2"), poset.names.index("4")
    assert poset.up[i2] >> i4 & 1
    assert not poset.up[i4] >> i2 & 1
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


def _reflexive(rel):
    return [[x or i == j for j, x in enumerate(row)] for i, row in enumerate(rel)]


def _closure(rel):
    """Reflexive-transitive closure of a k x k table of bools (Warshall)."""
    rel = _reflexive(rel)
    for m in range(len(rel)):
        for row in rel:
            if row[m]:
                row[:] = map(bool.__or__, row, rel[m])
    return rel


@st.composite
def _relations(draw, min_size=0):
    """(names, relation) on up to 8 items; about a quarter of the pairs related."""
    k = draw(st.integers(min_value=min_size, max_value=8))
    names = draw(st.permutations("abcdefgh"))[:k]
    rel = [[draw(st.integers(min_value=0, max_value=3)) == 0 for _ in range(k)] for _ in range(k)]
    return names, rel


def _reference_poset(names, rel):
    """Classes, in order of their lowest item, and their up-masks, from pairwise lookups."""
    k = len(rel)
    lowest = [i for i in range(k) if not any(rel[i][j] and rel[j][i] for j in range(i))]
    members = tuple(tuple(sorted(names[j] for j in range(k) if rel[i][j] and rel[j][i])) for i in lowest)
    up = tuple(sum(1 << b for b, j in enumerate(lowest) if rel[i][j]) for i in lowest)
    return tuple("=".join(m) for m in members), members, up


@settings(max_examples=200)
@given(_relations())
def test_build_poset_matches_a_pairwise_reference_on_preorders(relation):
    names, rel = relation
    rel = _closure(rel)
    calls = []

    def leq(x, y):
        calls.append((x, y))
        return rel[x][y]

    poset = build_poset(zip(names, range(len(rel))), leq)
    assert (poset.names, poset.members, poset.up) == _reference_poset(names, rel)
    assert len(calls) == len(rel) ** 2


@settings(max_examples=200)
@given(_relations(min_size=3))
def test_build_poset_refuses_a_relation_that_is_not_transitive(relation):
    names, rel = relation
    rel = _reflexive(rel)
    assume(rel != _closure(rel))
    with pytest.raises(PreconditionError, match="not transitive"):
        build_poset(zip(names, range(len(rel))), lambda x, y: rel[x][y])


@pytest.mark.parametrize(
    "relation",
    [
        # a = b and b = c, but a and c are incomparable
        ((1, 1, 0), (1, 1, 1), (0, 1, 1)),
        # a = b and b <= c, but not a <= c
        ((1, 1, 0), (1, 1, 1), (0, 0, 1)),
    ],
    ids=["one-class", "b-below-c"],
)
def test_transitivity_is_checked_on_items_not_classes(relation):
    items = [("a", 0), ("b", 1), ("c", 2)]
    with pytest.raises(PreconditionError, match="not transitive"):
        build_poset(items, lambda x, y: bool(relation[x][y]))


def test_hasse_closure_check_rejects_non_transitive_relation():
    # _NON_TRANSITIVE as up-sets: a below a and b, b below b and c, c below c
    poset = Poset(("a", "b", "c"), (("a",), ("b",), ("c",)), (0b011, 0b110, 0b100))
    with pytest.raises(AssertionError, match="close back"):
        hasse(poset)


@pytest.mark.parametrize(
    "up",
    [
        # a <= b, but b is not related to itself: peeling b must still drop b
        (0b11, 0b00),
        # a <= b and b <= a on two classes: a preorder, not a partial order
        (0b11, 0b11),
    ],
    ids=["not-reflexive", "two-class-preorder"],
)
def test_hasse_refuses_relations_that_are_not_partial_orders(up):
    poset = Poset(("a", "b"), (("a",), ("b",)), up)
    with pytest.raises(AssertionError, match="close back"):
        hasse(poset)


def _relation(poset):
    """The class relation as a k x k table of bools, read off the up-set masks."""
    k = len(poset.names)
    return [[bool(poset.up[a] >> b & 1) for b in range(k)] for a in range(k)]


def _brute_force_covers(poset):
    k = len(poset.names)
    rel = _relation(poset)
    return [
        (a, b)
        for a in range(k)
        for b in range(k)
        if a != b and rel[a][b] and not any(rel[a][c] and rel[c][b] for c in range(k) if c not in (a, b))
    ]


def _brute_force_extremes(poset):
    k = len(poset.names)
    rel = _relation(poset)
    maximal = [poset.names[a] for a in range(k) if not any(rel[a][b] for b in range(k) if b != a)]
    minimal = [poset.names[a] for a in range(k) if not any(rel[b][a] for b in range(k) if b != a)]
    return maximal, minimal, maximal[0] if len(maximal) == 1 else None


def _catalog_poset(n):
    items = [(name, order_sequence(g)) for name, g in catalog(n)]
    return build_poset(items, lambda a, b: dominates(b, a))


@pytest.mark.parametrize("n", supported_orders())
def test_hasse_matches_brute_force_on_catalog_posets(n):
    poset = _catalog_poset(n)
    assert hasse(poset) == _brute_force_covers(poset)


@pytest.mark.parametrize("n", supported_orders())
def test_extremes_match_brute_force_on_catalog_posets(n):
    poset = _catalog_poset(n)
    assert extremes(poset) == _brute_force_extremes(poset)


@pytest.mark.parametrize("n", [1, 12, 64, 360, 720])
def test_hasse_matches_brute_force_on_divisor_posets(n):
    poset = _divisor_poset(n)
    assert hasse(poset) == _brute_force_covers(poset)


@pytest.mark.parametrize("n", [1, 12, 64, 360, 720])
def test_extremes_match_brute_force_on_divisor_posets(n):
    poset = _divisor_poset(n)
    assert extremes(poset) == _brute_force_extremes(poset)


@pytest.mark.parametrize("n", range(1, 11))
def test_hasse_matches_brute_force_on_abelian_p_group_posets(n):
    # the dominance order on partitions of n: long chains, many covers per class
    items = [(",".join(map(str, lam)), abelian_order_sequence(2, lam)) for lam in partitions_of(n)]
    poset = build_poset(items, lambda a, b: dominates(b, a))
    assert len(poset.names) == len(items)
    assert hasse(poset) == _brute_force_covers(poset)


def test_order16_domination_poset():
    poset = _catalog_poset(16)
    assert len(poset.names) == 9
    _, _, unique_max = extremes(poset)
    assert unique_max == "C16"
    assert "C4:C4=C4xC4=Q8xC2" in poset.names


def test_render_dot():
    text = render(_catalog_poset(16), "dot")
    assert text.startswith("digraph {")
    assert "rankdir=BT;" in text
    assert '[label="C4:C4=C4xC4=Q8xC2"]' in text
    # identifiers stay DOT-safe even for decorated names
    assert "C2xC2_C4" in text
    assert text.rstrip().endswith("}")


def test_render_dot_numeric_names():
    text = render(_divisor_poset(12), "dot")
    assert "n_12" in text


def test_render_dot_ids_are_distinct_when_suffixes_collide():
    # "a b" and "a_b" both sanitize to a_b, and the bumped a_b_2 is also a literal name
    poset = build_poset([("a b", 1), ("a_b", 2), ("a_b_2", 3)], lambda x, y: x <= y)
    lines = render(poset, "dot").splitlines()
    ids = [line.split()[0] for line in lines if "[label=" in line]
    edges = [line.strip().rstrip(";").split(" -> ") for line in lines if " -> " in line]
    assert len(ids) == len(set(ids)) == 3
    assert len(edges) == 2
    assert all(a != b and {a, b} <= set(ids) for a, b in edges)


def test_render_json_round_trip():
    poset = _catalog_poset(16)
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


# sha256 of the stdout of `ordseq poset n` and `ordseq poset n --json`,
# recorded before the relation was held as up-set masks
_POSET_DIGESTS = {
    1: ("05e50546fa4e74d55ecd3cd8ef3462b8052e78657e2c3176a434b722ac91dcd5", "0472b303cee65297b650f3dd06c3fc7ea16a38c46ab4c0ffac7c4587b5344297"),
    2: ("0841a3875b27bbfa0115b37ba1841e3edcae533a0067c7e7b6a39baa714650b8", "9df99fc4b4e776f2974082055be5ea002438a1fe4e7d0280151d9633dc83ab90"),
    3: ("ed7fabee41bf013d7c8e3a16cbb8b0c9f05ee135d9b97d51bdff3942e64e7300", "a59a34dc46455e3d30e8583ea4a483d82424454efa606de3bbce7fd8f9d6478a"),
    4: ("bc551720a4727ddab4812365bf1e95ec99213d325b6a5f4eabcd8a6a80e582ad", "99fdfb9e548ccbde6dd2066c3d3ee7fcd9506bfe9f58775072627f9fb5fbd26c"),
    5: ("768adfcde795e2e8e1d846c3be0b9c3a240e1b8bd7fffef8434f33e38b5df9d4", "30bca95227f9d597482282beeeb3f6880d2b074143d736040ce1d5c622441f85"),
    6: ("967e899b409a866b40d3f3ebc62416a8ac4a24457f19a8d8cb7548146607ab73", "e6fc1e2252f7da20546dbc1c125f3287a38b08ca47cae9cddf45bbdc6254955e"),
    7: ("611ef4bb9ee8ef5104dd54b3ade7e31f630cc4c8f4e77b9f3f97c7d0de9e7d3e", "23cd7ab95fe59454b673c2b365dbd4b29ca4c4378c1e76ac1b41d510bd76ea4c"),
    8: ("dca2d30fbb45011d3f7bdd1b7efc10828dc12bbdc5fe7c8ce4c6c8a5138c53fe", "c428d62d4ed6340b57c4ae670e38229d5d06fdac183cafd30d68c12c09428224"),
    9: ("441b6b2c9e05ae7fbde05487098ac2152e39f0abb39035b4b1794fba4ac2dd20", "2c41133135f5c1c5d76c87279342ab95d88413e6be3fb32a59e82332a248b519"),
    10: ("7ced5846a36ba7dbb32a7ab59fced5079371e8e1c333658b786859b2104cdf1e", "e28cde298355964674dc98f407752c2f7c5ac6cad1a5795ebbdc77729a86cc7a"),
    11: ("ab28395f7227a78391ec57901754ff48ec213dc8d1385277f6aaeba7c00c25b9", "6e58314b0f862d05f6ed3faef7f224d08b4fca0cfae69df83726828f76b130c1"),
    12: ("e2baa6227a047dcaac710049a0dc87794f2810cce5e5d2c2d3b0eee7850dcce4", "9d4f7a16362073473fc2941552a0b69f15558b712f99cc548b2feabcfc2f0245"),
    13: ("ad31eecb3d856835c02ee039cfda690f0370bf9a3f01e1a4e5bf18a82fc9f953", "b5e02d9a80948b0950e494cd021afaca0abb1ff5a382e148760ba47bf70ab07f"),
    14: ("f54e51574e6789ff3fb732ab0b71dbfd0f987944a6d541821a1ce5f13690dd2d", "be3e1d8ef901368192047e205fd6ca362bb1a40e2434b371be95d1909073ba05"),
    15: ("320b818dd4ea627ac0d774b1d8e492bdaffc3568106e2a5288b0b3f8bb64dab5", "22233f757b043347d7ac13f551cf4158dd99c8839525b0c2fa24240160f9fd03"),
    16: ("719210a6f1bda21a8ea17304472db4faac951d209c3e834b43ca3383889a29fe", "de7ef15b571b2017246e71208e87ef5c8aaa0d258e4e467e76422213cfbe8293"),
    20: ("ae64120051681edd4131b49b12431f5d36649b23db7d41f67c5d3f58a568f088", "a7d75caac01c8cbd8201b3a1450a8c4095b4118143dc0f0cb4c1fdd64025e3b9"),
    21: ("49a24127de27dd80fa02f33668de2ff0481d7d1d29e59e946aa94a4280deff6e", "38a3af9ca791a04a77316dbdc8bfe8cce57a6f3fea80c776d8aeeea4afdd3c0f"),
    60: ("45a7b82923f42af709e580e12c38b9eeacd6f0f61e9bab8357075a2766165f48", "55f080e6aef8ced3b7fc1978dbaccd306273a597f539770fffe8a79a6f67c1fe"),
}


def test_poset_digests_cover_every_supported_order():
    assert sorted(_POSET_DIGESTS) == list(supported_orders())


@pytest.mark.parametrize("n", supported_orders())
def test_poset_output_is_pinned(capsys, n):
    got = []
    for extra in ([], ["--json"]):
        assert _main(["poset", str(n), *extra]) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(got) == _POSET_DIGESTS[n]
