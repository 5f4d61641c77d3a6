import itertools
import random
from collections import Counter

import pytest

from ordseq.catalog import catalog, group_by_name, supported_orders
from ordseq.errors import PreconditionError, SizeLimitError
from ordseq.graphs import (
    LabeledGraph,
    canonical_form,
    directed_power_graph,
    gk_graph,
    power_graph,
    render_dot,
)
from ordseq.groups import abelian, alternating, cyclic, dicyclic, dihedral, direct_product, heisenberg, symmetric
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


@pytest.mark.parametrize("group", [cyclic(6), symmetric(3), dicyclic(12)])
def test_directed_power_graph_out_degrees(group):
    g = directed_power_graph(group)
    out = Counter(a for a, _ in g.edges)
    for v in range(group.size):
        assert out[v] + 1 == group.element_orders()[v]


@pytest.mark.parametrize(
    "build",
    [lambda: dihedral(8), lambda: heisenberg(3), lambda: direct_product(cyclic(3), symmetric(5))],
    ids=["D8", "Heis3", "C3xS5"],
)
def test_power_graph_joins_each_element_to_its_powers(build):
    group = build()
    edges = set()
    for g in range(group.size):
        x = g
        while True:
            x = group.mul(x, g)
            if x == g:
                break
            edges.add((min(g, x), max(g, x)))
    assert power_graph(group).edges == edges


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


def test_power_graph_classes_are_pinned_below_order_60():
    # recorded before forms contracted twins: at every catalog order
    # below 60, 49 groups fall into 47 classes
    groups = classes = 0
    shared = []
    for n in supported_orders():
        if n >= 60:
            continue
        forms = {}
        for name, g in catalog(n):
            forms.setdefault(canonical_form(power_graph(g)), []).append(name)
            groups += 1
        classes += len(forms)
        shared += sorted(sorted(names) for names in forms.values() if len(names) > 1)
    assert (groups, classes) == (49, 47)
    assert shared == [["C4xC2xC2", "D8*C4"], ["C8xC2", "M16"]]


@pytest.mark.parametrize("n", [16, 20, 21])
def test_power_graph_forms_survive_relabelling(n):
    rng = random.Random(n)
    for _, g in catalog(n):
        base = power_graph(g)
        form = canonical_form(base)
        for _ in range(4):
            assert canonical_form(_shuffled(base, rng)) == form


def _graph(n, edges):
    return LabeledGraph(n, ("",) * n, frozenset((min(a, b), max(a, b)) for a, b in edges))


def _blow_up(n, edges, blown, closed):
    """Replace each vertex in blown by a pair of twins: adjacent when closed."""
    out, extra = set(edges), n
    for v in blown:
        out |= {(extra, u) for a, b in list(out) if v in (a, b) for u in (a, b) if u != v}
        if closed:
            out.add((v, extra))
        extra += 1
    return _graph(extra, out)


def _classes_agree_with_brute_force(graphs):
    forms = {}
    oracle = {}
    for g in graphs:
        forms.setdefault(canonical_form(g), set()).add(g)
        oracle.setdefault(tuple(_brute_force_form(g.n, g.edges)), set()).add(g)
    return set(map(frozenset, forms.values())) == set(map(frozenset, oracle.values()))


def test_closed_twins_are_told_from_open_twins():
    path = _graph(3, [(0, 1), (1, 2)])  # ends are open twins: o(v,v), then closed
    edge_and_point = _graph(3, [(0, 1)])  # the edge is closed twins: c(v,v), then open
    triangle = _graph(3, [(0, 1), (1, 2), (0, 2)])
    empty = _graph(3, [])
    forms = [canonical_form(g) for g in (path, edge_and_point, triangle, empty)]
    assert len(set(forms)) == 4
    # a star and a complete bipartite graph differ only in how twins nest
    star = _graph(4, [(0, 1), (0, 2), (0, 3)])
    k22 = _graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    paw = _graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert _classes_agree_with_brute_force([path, edge_and_point, triangle, empty, star, k22, paw])


def test_refinement_runs_after_contraction():
    # twin-free C5 with some vertices blown up into twin pairs: what is
    # left after contraction is C5 with labelled vertices, which only
    # refinement and individualization place
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    graphs = [
        _blow_up(5, c5, blown, closed)
        for blown in ([0], [3], [0, 1], [2, 3], [0, 2], [1, 4])
        for closed in (True, False)
    ]
    graphs.append(_graph(5, c5))
    forms = {canonical_form(g) for g in graphs}
    # C5 itself, and for each kind of twin: one blown vertex, two adjacent, two apart
    assert len(forms) == 7
    assert _classes_agree_with_brute_force(graphs)


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


def test_canonical_form_is_exact_on_six_vertices_with_seven_edges():
    pairs = list(itertools.combinations(range(6), 2))
    graphs = [frozenset(c) for c in itertools.combinations(pairs, 7)]
    assert len(graphs) == 6435
    forms = {edges: canonical_form(LabeledGraph(6, ("",) * 6, edges)) for edges in graphs}
    # (0 1) and (0 1 2 3 4 5) generate S6, so forms closed under both are
    # constant on every isomorphism class ...
    for perm in ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)):
        for edges, form in forms.items():
            image = frozenset((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)
            assert forms[image] == form
    # ... and 24 distinct forms over the 24 classes (OEIS A008406) tell
    # every class apart
    assert len(set(forms.values())) == 24


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
