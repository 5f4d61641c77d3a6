import json
import math
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import pytest

from ordseq import partitions, suites
from ordseq.catalog import (
    abelian_groups_of_order,
    catalog,
    nilpotent_group,
    nilpotent_groups_of_order,
    supported_orders,
)
from ordseq.errors import NoWitness, PreconditionError
from ordseq.groups import FiniteGroup, abelian, cyclic, direct_product
from ordseq.numth import is_prime
from ordseq.partitions import abelian_order_sequence, box_move_chain, conjugate, majorizes, partitions_of
from ordseq.sequences import cyclic_order_sequence, nilpotent_from_sequence, order_sequence, seq_join
from ordseq.suites import (
    SUITES,
    SuiteReport,
    _default_bound_cases,
    _partition_facts,
    minimal_nonnilpotent_group,
    nonnilpotent_order_witness,
    run_all,
    run_suite,
    suite_antichain,
    suite_extension,
    suite_gap_bounds,
    suite_improved_nilpotent_bound,
    suite_nilpotent_minimality,
    suite_order16,
    suite_order60,
    suite_partition,
    suite_unique_max,
)

VERIFY_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify.json"


@pytest.mark.parametrize(
    "n,witness",
    [
        (60, (2, 2, 3)),
        (15, None),
        (6, (3, 1, 2)),
        (12, (2, 2, 3)),
        (20, (5, 1, 2)),
        (21, (7, 1, 3)),
        (2, None),
        (1, None),
    ],
)
def test_witness_values(n, witness):
    assert nonnilpotent_order_witness(n) == witness


def _witness_brute(n):
    found = []
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        d = 1
        while p**d <= n:
            if n % p**d == 0:
                for q in range(2, n + 1):
                    if is_prime(q) and (p**d - 1) % q == 0 and n % (p**d * q) == 0:
                        found.append((p, d, q))
            d += 1
    return min(found) if found else None


def test_witness_matches_brute_force():
    for n in range(1, 121):
        assert nonnilpotent_order_witness(n) == _witness_brute(n)


def test_witness_requires_positive_order():
    with pytest.raises(PreconditionError):
        nonnilpotent_order_witness(0)


def test_minimal_nonnilpotent_group():
    g = minimal_nonnilpotent_group(60)
    assert g.name == "Aff(4,3)xC5"
    assert g.size == 60
    assert not nilpotent_from_sequence(order_sequence(g))
    assert minimal_nonnilpotent_group(12).name == "Aff(4,3)"
    assert minimal_nonnilpotent_group(24).name == "Aff(4,3)xC2"
    with pytest.raises(NoWitness):
        minimal_nonnilpotent_group(15)


def test_run_suite_shapes():
    reports = run_suite("unique-max", 16)
    assert len(reports) == 1
    assert reports[0].passed
    assert reports[0].cases == 14
    assert len(run_suite("unique-max")) == 19
    assert len(run_suite("gap-bounds")) == 18
    assert len(run_suite("partition")) == 20
    assert len(run_suite("partition", 6)) == 2
    assert len(run_suite("order16")) == 1


def test_run_suite_errors():
    with pytest.raises(KeyError):
        run_suite("nope")
    with pytest.raises(PreconditionError):
        run_suite("order16", 16)


def test_run_all():
    reports = run_all()
    assert len(reports) == 81
    assert all(r.passed for r in reports)
    assert sum(r.cases for r in reports) == 7488
    # the simple-group pair runs only by name
    assert not any(r.name == "simple-pair" for r in reports)
    # every report, seconds aside, matches the recorded verify --all --json output
    reference = json.loads(VERIFY_REFERENCE.read_text())
    assert reference["passed"] is True
    rows = [{k: v for k, v in r.to_dict().items() if k != "seconds"} for r in reports]
    assert rows == reference["reports"]


def test_run_suite_times_each_report():
    # suites leave seconds at 0.0; the runner times each call
    assert suite_unique_max(4).seconds == 0.0
    assert run_suite("order16")[0].seconds > 0


def test_gap_bound_equality_notes():
    assert any("Q8" in note for note in suite_gap_bounds(8).notes)
    assert any("C2xC2" in note for note in suite_gap_bounds(4).notes)
    assert any("C3xC3" in note for note in suite_gap_bounds(9).notes)
    assert any("none" in note for note in suite_gap_bounds(6).notes)
    with pytest.raises(PreconditionError):
        suite_gap_bounds(1)


def test_improved_bound_suite():
    rep = suite_improved_nilpotent_bound()
    assert rep.passed
    assert rep.cases == 5
    rep = suite_improved_nilpotent_bound([(1, [abelian([2, 2])])])
    assert rep.passed
    assert any("equality" in note for note in rep.notes)
    rep = suite_improved_nilpotent_bound([(1, [abelian([2, 4])])])
    assert rep.passed
    assert any("strict" in note for note in rep.notes)


def test_improved_bound_closed_form_matches_the_built_product():
    # the suite joins the factors' sequences instead of building C_m x P...
    for m, p_groups in _default_bound_cases():
        joined = reduce(seq_join, map(order_sequence, p_groups), cyclic_order_sequence(m))
        assert joined == order_sequence(reduce(direct_product, p_groups, cyclic(m)))


def test_improved_bound_preconditions():
    with pytest.raises(PreconditionError):
        suite_improved_nilpotent_bound([(2, [abelian([2, 2])])])
    with pytest.raises(PreconditionError):
        suite_improved_nilpotent_bound([(1, [cyclic(4)])])
    with pytest.raises(PreconditionError):
        suite_improved_nilpotent_bound([(1, [abelian([6])])])


def test_partition_suite_bounds():
    assert suite_partition(10, 2).passed
    with pytest.raises(PreconditionError):
        suite_partition(11, 2)


def _without_seconds(rep: SuiteReport) -> dict:
    return {k: v for k, v in rep.to_dict().items() if k != "seconds"}


@pytest.mark.parametrize("n", range(1, 11))
def test_partition_facts_do_not_depend_on_p(n):
    reference = json.loads(VERIFY_REFERENCE.read_text())["reports"]
    expected = next(r for r in reference if r["name"] == f"partition[{n},p=3]")
    _partition_facts.cache_clear()
    cold = _without_seconds(suite_partition(n, 3))
    _partition_facts.cache_clear()
    suite_partition(n, 2)  # fills the cache from p = 2
    warm = _without_seconds(suite_partition(n, 3))
    assert cold == warm == expected


@pytest.mark.parametrize("n", range(11))
def test_partition_facts_match_full_chain_walks(n):
    # the suite decides each chain from its first move and each column from
    # masks; rebuild every column pair by pair from the public functions
    # and whole chains instead
    parts = partitions_of(n)
    counts = {lam: math.prod(x + 1 for x in lam) for lam in parts}
    columns = []
    for mu in parts:
        maj = conj = monotone = rising = 0
        for i, lam in enumerate(parts):
            if majorizes(lam, mu):
                maj |= 1 << i
                chain = box_move_chain(lam, mu) or [mu]
                steps_ok = chain[0] == lam and chain[-1] == mu
                if steps_ok and all(counts[a] < counts[b] for a, b in zip(chain, chain[1:])):
                    rising |= 1 << i
            if majorizes(conjugate(mu), conjugate(lam)):
                conj |= 1 << i
            if counts[lam] <= counts[mu]:
                monotone |= 1 << i
        columns.append((maj, conj, monotone, rising))
    assert _partition_facts(n) == (tuple(parts), counts, tuple(columns))


def _negated_count(p, lam):
    return SimpleNamespace(part_product=-math.prod(x + 1 for x in lam))


@pytest.mark.parametrize(
    "name,fake,failures",
    [
        (
            "dominates",
            lambda a, b: False,
            [
                "(2,) vs (2,): domination False, majorization True, conjugate True",
                "(2,) vs (1, 1): domination False, majorization True, conjugate True",
                "(1, 1) vs (1, 1): domination False, majorization True, conjugate True",
            ],
        ),
        (
            "cyclic_subgroup_counts",
            _negated_count,
            [
                "cyclic-subgroup count not monotone from (2,) to (1, 1)",
                "box-move chain from (2,) to (1, 1) is not strictly increasing",
            ],
        ),
        (
            # a move off the partitions of n fails its case instead of raising
            "_box_move",
            lambda cur, c: cur + (1,),
            ["box-move chain from (2,) to (1, 1) is not strictly increasing"],
        ),
    ],
)
def test_partition_failures_say_why(monkeypatch, name, fake, failures):
    monkeypatch.setattr(suites, name, fake)
    _partition_facts.cache_clear()
    try:
        rep = suite_partition(2, 2)
    finally:
        _partition_facts.cache_clear()
    assert rep.passed is False
    assert rep.failures == failures


def test_partition_failure_walk_names_one_flipped_pair(monkeypatch):
    # one wrong dominates answer in the middle of n = 5 fails exactly its own pair
    real = suites.dominates
    flipped = (abelian_order_sequence(2, (3, 2)), abelian_order_sequence(2, (3, 1, 1)))
    monkeypatch.setattr(suites, "dominates", lambda a, b: real(a, b) != ((a, b) == flipped))
    rep = suite_partition(5, 2)
    assert rep.cases == 49
    assert rep.failures == ["(3, 2) vs (3, 1, 1): domination False, majorization True, conjugate True"]


def test_partition_failure_walk_lists_pairs_by_lam_first(monkeypatch):
    monkeypatch.setattr(suites, "dominates", lambda a, b: False)
    rep = suite_partition(3, 2)
    assert rep.failures == [
        f"{lam} vs {mu}: domination False, majorization True, conjugate True"
        for lam, mu in [
            ((3,), (3,)),
            ((3,), (2, 1)),
            ((3,), (1, 1, 1)),
            ((2, 1), (2, 1)),
            ((2, 1), (1, 1, 1)),
            ((1, 1, 1), (1, 1, 1)),
        ]
    ]


def test_partition_suite_makes_one_box_move_per_pair(monkeypatch):
    calls = []

    def counting(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or fn(*args))

    counting(partitions, "box_move_chain")
    if hasattr(suites, "box_move_chain"):
        counting(suites, "box_move_chain")
    counting(suites, "_box_move")
    _partition_facts.cache_clear()
    try:
        run_suite("partition")
    finally:
        _partition_facts.cache_clear()
    # one move per pair (lam, mu) with lam majorizing mu and lam != mu, n <= 10
    assert calls.count("box_move_chain") == 0
    assert calls.count("_box_move") == 1581


@pytest.fixture
def builds(monkeypatch, fresh_builds):
    """Names of the groups built (each backing ends its __init__ with
    _finalize) from here on, in order; the catalogs are built, the memoized
    constructors are not."""
    names = []
    finalize = FiniteGroup._finalize

    def counted(self):
        names.append(self.name)
        finalize(self)

    monkeypatch.setattr(FiniteGroup, "_finalize", counted)
    for n in supported_orders():
        catalog(n)
    # the group-built listings are test oracles; the suites must not need them
    abelian_groups_of_order.cache_clear()
    nilpotent_groups_of_order.cache_clear()
    fresh_builds()
    names.clear()
    return names


def test_sequence_only_suites_build_no_group(builds):
    suite_antichain()
    for n in supported_orders():
        suite_unique_max(n)
        if n > 1:
            suite_gap_bounds(n)
    assert builds == []


@pytest.mark.parametrize("n", supported_orders())
def test_nilpotent_minimality_builds_only_the_minimal_products(builds, fresh_builds, n):
    witness = nonnilpotent_order_witness(n) is not None
    if witness:
        minimal_nonnilpotent_group(n)  # fills the field cache
    fresh_builds()
    builds.clear()
    rep = suite_nilpotent_minimality(n)
    built = list(builds)
    fresh_builds()
    builds.clear()
    # each minimal product, then the witness group
    classes = rep.notes[0].removeprefix("minimal nilpotent classes: ").split(", ")
    for name in "=".join(classes).split("="):
        nilpotent_group(n, name)
    if witness:
        minimal_nonnilpotent_group(n)
    assert built == builds


def test_order16_suite_makes_no_isomorphism_search(monkeypatch):
    calls = []
    search = FiniteGroup._isomorphism_search
    monkeypatch.setattr(FiniteGroup, "_isomorphism_search", lambda g, h: calls.append(g) or search(g, h))
    assert suite_order16().passed
    assert calls == []


def test_fixed_suites_pass():
    assert suite_extension().passed
    assert suite_order16().passed
    rep = suite_order60()
    assert rep.passed
    assert any("A5" in note for note in rep.notes)
    assert suite_nilpotent_minimality(15).passed
    assert suite_unique_max(1).passed


def test_suite_report_behavior():
    rep = SuiteReport("demo")
    assert rep.require(True, "fine")
    assert rep.passed
    assert not rep.require(False, "bad")
    assert not rep.passed
    assert rep.failures == ["bad"]
    assert rep.summary().startswith("FAIL demo:")
    d = rep.to_dict()
    assert set(d) == {"name", "passed", "cases", "failures", "notes", "seconds"}
    assert d["passed"] is False


def test_registry_kinds():
    assert set(SUITES) == {
        "unique-max", "gap-bounds", "extension", "nilpotent-minimality",
        "improved-bound", "partition", "order16", "order60", "antichain",
        "simple-pair",
    }
    assert SUITES["simple-pair"][0] == "stretch"
