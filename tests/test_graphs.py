import itertools
import random
from collections import Counter

import pytest

from ordseq.catalog import group_by_name
from ordseq.errors import PreconditionError, SizeLimitError
from ordseq.graphs import (
    LabeledGraph,
    canonical_form,
    directed_power_graph,
    gk_graph,
    power_graph,
    render_dot,
)
from ordseq.groups import DicyclicGroup, abelian, alternating, cyclic, dihedral, symmetric
from ordseq.sequences import order_sequence


def test_power_graph_cyclic_is_complete():
    g = power_graph(cyclic(4))
    assert g.n == 4
    assert len(g.edges) == 6
    assert Counter(v for edge in g.edges for v in edge) == Counter({v: 3 for v in range(4)})


def test_power_graph_klein_four_is_a_star():
    g = power_graph(abelian([2, 2]))
    assert len(g.edges) == 3
    assert all(0 in edge for edge in g.edges)


@pytest.mark.parametrize("group", [cyclic(6), symmetric(3), DicyclicGroup(12)])
def test_directed_power_graph_out_degrees(group):
    g = directed_power_graph(group)
    out = Counter(a for a, _ in g.edges)
    for v in range(group.size):
        assert out[v] + 1 == group.element_orders()[v]


def test_gk_graphs():
    g = gk_graph(alternating(5))
    assert g.labels == ("2", "3", "5")
    assert len(g.edges) == 0
    g = gk_graph(cyclic(6))
    assert g.labels == ("2", "3")
    assert len(g.edges) == 1
    assert len(gk_graph(symmetric(3)).edges) == 0


def test_equal_sequences_give_identical_gk_graphs():
    a = group_by_name(16, "C4xC4")
    b = group_by_name(16, "Q8xC2")
    assert order_sequence(a) == order_sequence(b)
    ga, gb = gk_graph(a), gk_graph(b)
    assert ga.labels == gb.labels
    assert ga.edges == gb.edges


def _shuffled(graph, rng):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    edges = set()
    for a, b in graph.edges:
        x, y = perm[a], perm[b]
        edges.add((min(x, y), max(x, y)))
    labels = [""] * graph.n
    for v in range(graph.n):
        labels[perm[v]] = graph.labels[v]
    return LabeledGraph(graph.n, tuple(labels), frozenset(edges), directed=False)


def test_canonical_form_relabeling_invariance():
    base = power_graph(dihedral(8))
    form = canonical_form(base)
    rng = random.Random(3)
    for _ in range(20):
        other = _shuffled(base, rng)
        assert canonical_form(other) == form


def _cycles(*lengths):
    edges, start = set(), 0
    for k in lengths:
        for i in range(k):
            a, b = start + i, start + (i + 1) % k
            edges.add((min(a, b), max(a, b)))
        start += k
    return LabeledGraph(start, ("",) * start, frozenset(edges))


def test_canonical_form_beyond_colour_refinement():
    # every 2-regular graph refines to a single colour class; only
    # individualization tells its cycles apart
    assert canonical_form(_cycles(6)) != canonical_form(_cycles(3, 3))
    base = _cycles(3, 4)
    form = canonical_form(base)
    rng = random.Random(5)
    for _ in range(30):
        assert canonical_form(_shuffled(base, rng)) == form


def test_order16_power_graph_coincidences():
    def pg(name):
        return power_graph(group_by_name(16, name))

    assert canonical_form(pg("C8xC2")) == canonical_form(pg("M16"))
    assert canonical_form(pg("C4xC2xC2")) == canonical_form(pg("D8*C4"))
    # a shared order sequence does not force a shared power graph
    assert canonical_form(pg("C4xC4")) != canonical_form(pg("Q8xC2"))


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1)


def _brute_force_form(n, edges):
    # the least sorted edge list over every relabelling
    return min(
        sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges)
        for p in itertools.permutations(range(n))
    )


def test_canonical_form_matches_brute_force_on_small_graphs():
    graphs = [g for n in range(1, 6) for g in _all_graphs(n)]
    assert len(graphs) == 1099
    forms, oracle = {}, {}
    for n, edges in graphs:
        form = canonical_form(LabeledGraph(n, ("",) * n, edges))
        forms.setdefault(form, set()).add((n, edges))
        oracle.setdefault((n, tuple(_brute_force_form(n, edges))), set()).add((n, edges))
    # graphs on 1..5 unlabelled vertices: 1 + 2 + 4 + 11 + 34 (OEIS A000088)
    assert len(oracle) == 52
    # equal forms exactly when the brute-force forms are equal
    assert set(map(frozenset, forms.values())) == set(map(frozenset, oracle.values()))


def test_canonical_form_ignores_labels_and_rejects_directed():
    g1 = LabeledGraph(3, ("a", "a", "b"), frozenset({(0, 1)}))
    g2 = LabeledGraph(3, ("a", "b", "b"), frozenset({(0, 1)}))
    assert canonical_form(g1) == canonical_form(g2)
    with pytest.raises(PreconditionError):
        canonical_form(directed_power_graph(cyclic(3)))


def test_size_caps():
    with pytest.raises(SizeLimitError):
        power_graph(cyclic(2100))
    with pytest.raises(SizeLimitError):
        directed_power_graph(cyclic(2100))
    with pytest.raises(SizeLimitError):
        canonical_form(power_graph(cyclic(70)))


def test_labeled_graph_validation():
    with pytest.raises(PreconditionError):
        LabeledGraph(2, ("a",), frozenset())
    with pytest.raises(PreconditionError):
        LabeledGraph(2, ("a", "b"), frozenset({(1, 1)}))
    with pytest.raises(PreconditionError):
        LabeledGraph(2, ("a", "b"), frozenset({(1, 0)}))


def test_render_dot():
    text = render_dot(power_graph(cyclic(3)))
    assert text.startswith("graph {")
    assert " -- " in text
    directed = render_dot(directed_power_graph(cyclic(3)))
    assert directed.startswith("digraph {")
    assert " -> " in directed
    quoted = render_dot(LabeledGraph(1, ('say "hi"',), frozenset()))
    assert "say 'hi'" in quoted
