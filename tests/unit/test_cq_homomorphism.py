"""Unit tests for homomorphism enumeration and counting."""

import numpy as np
import pytest

from repro.cq.homomorphism import (
    _CELL_BUDGET,
    count_homomorphisms,
    count_query_homomorphisms,
    count_query_to_query_homomorphisms,
    exists_homomorphism,
    exists_query_homomorphism,
    homomorphisms,
    query_homomorphisms,
    query_to_query_homomorphisms,
)
from repro.cq.parser import parse_query
from repro.cq.structures import Structure, canonical_structure
from repro.workloads.generators import cycle_query, path_query, star_query


def _enumerated(query, structure, fixed=None):
    """The oracle: count by listing every homomorphism."""
    return sum(1 for _ in query_homomorphisms(query, structure, fixed=fixed))


def test_count_on_full_binary_relation(triangle_query, path2_query, small_database):
    # Full relation on {0,1}: every map is a homomorphism.
    assert count_query_homomorphisms(triangle_query, small_database) == 8
    assert count_query_homomorphisms(path2_query, small_database) == 8


def test_count_on_directed_triangle(triangle_query, path2_query, triangle_database):
    assert count_query_homomorphisms(triangle_query, triangle_database) == 3
    assert count_query_homomorphisms(path2_query, triangle_database) == 3


def test_enumeration_matches_count(path2_query, small_database):
    listed = list(query_homomorphisms(path2_query, small_database))
    assert len(listed) == count_query_homomorphisms(path2_query, small_database)
    for assignment in listed:
        assert set(assignment) == {"Y1", "Y2", "Y3"}


def test_fixed_variables_restrict_enumeration(path2_query, small_database):
    fixed = {"Y1": 0}
    count = count_query_homomorphisms(path2_query, small_database, fixed=fixed)
    assert count == 4
    missing = {"Y1": 7}
    assert count_query_homomorphisms(path2_query, small_database, fixed=missing) == 0


def test_exists_query_homomorphism(triangle_query, triangle_database):
    assert exists_query_homomorphism(triangle_query, triangle_database)
    acyclic_db = Structure.from_facts([("R", (0, 1)), ("R", (1, 2))])
    assert not exists_query_homomorphism(triangle_query, acyclic_db)


def test_query_to_query_homomorphisms_vee(path2_query, triangle_query):
    # hom(Q2, Q1) of Example 4.3 has exactly 3 elements.
    homs = query_to_query_homomorphisms(path2_query, triangle_query)
    assert len(homs) == 3
    assert count_query_to_query_homomorphisms(path2_query, triangle_query) == 3
    for hom in homs:
        assert hom["Y2"] == hom["Y3"]


def test_structure_homomorphisms_count(triangle_database, small_database):
    # From the directed triangle into the full binary relation on {0,1}: 2^3 maps.
    assert count_homomorphisms(triangle_database, small_database) == 8
    assert exists_homomorphism(triangle_database, small_database)
    listed = list(homomorphisms(triangle_database, small_database))
    assert len(listed) == 8


def test_structure_homomorphisms_isolated_elements(small_database):
    source = Structure.from_facts([("R", (0, 1))], domain=[0, 1, 2])
    # Element 2 is isolated: it can map anywhere in the 2-element target domain.
    assert count_homomorphisms(source, small_database) == 4 * 2


def test_counter_matches_enumerator_on_paths_and_cycles(
    small_database, triangle_database
):
    mixed = Structure.from_facts(
        [("R", (0, 1)), ("R", (1, 0)), ("R", (1, 1)), ("S", (1, 0)), ("S", (0, 0))]
    )
    queries = [path_query(length) for length in (1, 2, 3)]
    queries += [cycle_query(3), cycle_query(4), parse_query("R(a,b), R(b,c), S(c,d)")]
    for query in queries:
        for database in (small_database, triangle_database, mixed):
            assert count_query_homomorphisms(query, database) == _enumerated(
                query, database
            )


def test_disjoint_copies_multiplicativity(triangle_query, small_database):
    # |hom(nQ, D)| = |hom(Q, D)|^n  (the Kopparty–Rossman power trick).
    doubled = triangle_query.disjoint_copies(2)
    single = count_query_homomorphisms(triangle_query, small_database)
    assert count_query_homomorphisms(doubled, small_database) == single**2


# A binary relation on ``size`` elements with a handful of edges.
def _sparse(size):
    return Structure.from_facts(
        [("R", (i, (i + 1) % size)) for i in range(5)] + [("R", (0, 2))],
        domain=range(size),
    )


_REFLEXIVE = Structure.from_facts([("R", (0, 0)), ("R", (0, 1)), ("R", (1, 1))])
_FULL4 = Structure.from_facts([("R", (a, b)) for a in range(4) for b in range(4)])
# Smallest domain whose binary relation tensor exceeds the cell budget.
_PAST_BUDGET = int(_CELL_BUDGET**0.5) + 1
# A domain whose binary tensors fit but whose 3-axis contraction step does not.
_PAST_STEP_BUDGET = int(round(_CELL_BUDGET ** (1 / 3))) + 1

COUNTER_CASES = {
    "repeated-variable": (parse_query("R(x,x)"), _REFLEXIVE, None, 2),
    "repeated-variable-join": (parse_query("R(x,x), R(x,y)"), _REFLEXIVE, None, 3),
    "self-join": (parse_query("R(x,y), R(y,x)"), _REFLEXIVE, None, 2),
    "absent-relation": (parse_query("R(x,y), S(y,z)"), _REFLEXIVE, None, 0),
    "arity-mismatch": (parse_query("R(x,y,z)"), _REFLEXIVE, None, 0),
    "fixed-outside-domain": (parse_query("R(x,y)"), _REFLEXIVE, {"x": 7}, 0),
    "fixed-inside-domain": (parse_query("R(x,y)"), _REFLEXIVE, {"x": 0}, 2),
    "fixed-unused-variable": (parse_query("R(x,y)"), _REFLEXIVE, {"q": 1}, 3),
    "domain-past-cell-budget": (
        parse_query("R(x,y), R(y,z)"), _sparse(_PAST_BUDGET), None, 5,
    ),
    "step-past-cell-budget": (
        parse_query("R(x,y), R(y,z)"), _sparse(_PAST_STEP_BUDGET), None, 5,
    ),
    "connected-count-past-int64": (star_query(32), _FULL4, None, 4**33),
    "disjoint-copies-past-int64": (
        parse_query("R(x,y)").disjoint_copies(16), _FULL4, None, 2**64,
    ),
}


@pytest.mark.parametrize("case", sorted(COUNTER_CASES))
def test_counter_edge_cases(case):
    query, database, fixed, expected = COUNTER_CASES[case]
    count = count_query_homomorphisms(query, database, fixed=fixed)
    assert count == expected and type(count) is int
    if expected < 10**6:
        assert _enumerated(query, database, fixed) == expected


@pytest.mark.parametrize("case", ["domain-past-cell-budget", "step-past-cell-budget"])
def test_over_budget_counts_fall_back_to_the_enumerator(case, monkeypatch):
    query, database, fixed, expected = COUNTER_CASES[case]

    def refuse(*args, **kwargs):
        raise AssertionError("over-budget count reached the contraction")

    monkeypatch.setattr(np, "einsum", refuse)
    assert count_query_homomorphisms(query, database, fixed=fixed) == expected


_EMPTY_SOURCE = Structure.from_facts([], domain=[5, 6])


def test_count_homomorphisms_from_a_structure_without_facts(triangle_database):
    # Every map of the 2-element domain into the 3-element one: 3^2.
    assert count_homomorphisms(_EMPTY_SOURCE, triangle_database) == 9
    assert count_homomorphisms(_EMPTY_SOURCE, Structure.from_facts([])) == 0


def test_homomorphisms_from_a_structure_without_facts(triangle_database):
    listed = list(homomorphisms(_EMPTY_SOURCE, triangle_database))
    assert len(listed) == 9
    assert {tuple(sorted(m.items())) for m in listed} == {
        ((5, a), (6, b)) for a in (0, 1, 2) for b in (0, 1, 2)
    }
    assert list(homomorphisms(Structure.from_facts([]), triangle_database)) == [{}]


def test_exists_homomorphism_from_a_structure_without_facts(triangle_database):
    empty_target = Structure.from_facts([])
    assert exists_homomorphism(_EMPTY_SOURCE, triangle_database)
    assert not exists_homomorphism(_EMPTY_SOURCE, empty_target)
    assert exists_homomorphism(Structure.from_facts([]), empty_target)
