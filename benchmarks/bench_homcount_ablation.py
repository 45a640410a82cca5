"""A1 — homomorphism-counting ablation: tensor contraction vs. enumeration.

The substrate every decision rests on.  ``count_query_homomorphisms``
contracts 0/1 relation tensors; the backtracking enumerator
``query_homomorphisms`` lists every homomorphism and is the counter's
oracle.  Expected shape: on a path query over growing databases the
contraction stays polynomial in the domain size while enumeration grows with
the number of homomorphisms; both return identical counts.
"""

import pytest

from repro.cq.homomorphism import count_query_homomorphisms, query_homomorphisms
from repro.workloads.generators import path_query, random_database


def _database(size):
    return random_database({"R": 2}, domain_size=size, tuples_per_relation=3 * size, seed=size)


def _enumerated_count(query, database):
    return sum(1 for _ in query_homomorphisms(query, database))


@pytest.mark.parametrize("domain_size", [4, 8, 12])
def test_enumeration_counting(benchmark, record, domain_size):
    query = path_query(4)
    database = _database(domain_size)
    count = benchmark(_enumerated_count, query, database)
    record(experiment="A1", engine="enumeration", domain_size=domain_size, count=count)


@pytest.mark.parametrize("domain_size", [4, 8, 12])
def test_contraction_counting(benchmark, record, domain_size):
    query = path_query(4)
    database = _database(domain_size)
    count = benchmark(count_query_homomorphisms, query, database)
    assert count == _enumerated_count(query, database)
    record(experiment="A1", engine="contraction", domain_size=domain_size, count=count)
