"""Homomorphism enumeration and counting.

Homomorphism counts are the central quantity of the paper: the answer of a
Boolean conjunctive query ``Q`` on a database ``D`` under bag-set semantics
is ``|hom(Q, D)|``, and ``Q1 ⊑ Q2`` means ``|hom(Q1, D)| ≤ |hom(Q2, D)|`` for
every ``D``.

:func:`count_query_homomorphisms` is the one counter: it contracts 0/1
relation tensors with :func:`numpy.einsum`.  The backtracking enumerator
:func:`query_homomorphisms` lists the homomorphisms themselves, answers the
``exists_*`` questions, counts whatever the contraction's cell budget
excludes, and is the independent oracle the counter is tested (and stored
witnesses are audited) against.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.structures import Structure, canonical_structure

Assignment = Dict[str, object]

#: Most cells one contraction step may span; larger counts are enumerated.
_CELL_BUDGET = 1 << 20
#: Distinct axes numpy's einsum sublist format accepts.
_MAX_AXES = 52


# ---------------------------------------------------------------------- #
# Backtracking engine
# ---------------------------------------------------------------------- #
def _order_atoms(query: ConjunctiveQuery) -> List[Atom]:
    """Order atoms so that each one shares variables with earlier atoms.

    A greedy connectivity-first order keeps the partial assignment as
    constrained as possible, which prunes the backtracking search early.
    """
    remaining = list(query.atoms)
    ordered: List[Atom] = []
    bound: set = set()
    while remaining:
        best_index = 0
        best_score = (-1, 0)
        for index, atom in enumerate(remaining):
            shared = len(atom.variable_set & bound)
            # Prefer atoms with many already-bound variables, then small atoms.
            score = (shared, -len(atom.variable_set))
            if score > best_score:
                best_score = score
                best_index = index
        atom = remaining.pop(best_index)
        ordered.append(atom)
        bound.update(atom.variable_set)
    return ordered


def _matches(
    atom: Atom, structure: Structure, assignment: Assignment
) -> Iterator[Assignment]:
    """Yield extensions of ``assignment`` that satisfy ``atom`` in ``structure``."""
    for row in structure.tuples(atom.relation):
        if len(row) != len(atom.args):
            continue
        extension: Assignment = {}
        ok = True
        for variable, value in zip(atom.args, row):
            bound = assignment.get(variable, extension.get(variable))
            if bound is None:
                extension[variable] = value
            elif bound != value:
                ok = False
                break
        if ok:
            yield extension


def query_homomorphisms(
    query: ConjunctiveQuery,
    structure: Structure,
    fixed: Optional[Mapping[str, object]] = None,
) -> Iterator[Assignment]:
    """Enumerate the homomorphisms (satisfying assignments) of ``query`` in ``structure``.

    ``fixed`` optionally pre-binds some variables (used to evaluate queries
    with head variables and to restrict to ``hom_φ`` in Section 4.2).
    Each yielded assignment maps every variable of the query to a domain
    element of ``structure``.
    """
    ordered = _order_atoms(query)
    base: Assignment = dict(fixed) if fixed else {}
    for variable, value in base.items():
        if value not in structure.domain:
            return

    def backtrack(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(ordered):
            yield dict(assignment)
            return
        atom = ordered[index]
        for extension in _matches(atom, structure, assignment):
            assignment.update(extension)
            yield from backtrack(index + 1, assignment)
            for variable in extension:
                del assignment[variable]

    yield from backtrack(0, base)


def count_query_homomorphisms(
    query: ConjunctiveQuery,
    structure: Structure,
    fixed: Optional[Mapping[str, object]] = None,
) -> int:
    """Count ``|hom(Q, D)|`` (restricted to assignments extending ``fixed``).

    Every atom becomes a 0/1 tensor over the domain indexed by its variables
    (a repeated variable is a repeated axis, i.e. a diagonal) and every fixed
    variable a one-hot vector; each connected component of the query is the
    full contraction of its tensors along a greedy pairwise path, and the
    count is the product over components.  Components whose count could reach
    ``2**62`` contract exact Python ints.  A component with more axes than
    einsum accepts, or whose contraction would span more than
    ``_CELL_BUDGET`` cells in one step, is counted by the enumerator instead.
    """
    fixed = dict(fixed) if fixed else {}
    index = {value: position for position, value in enumerate(structure.domain)}
    if any(value not in index for value in fixed.values()):
        return 0
    count = 1
    for atoms in _connected_components(query.atoms):
        count *= _count_connected(atoms, structure, index, fixed)
        if not count:
            break
    return count


def _connected_components(atoms: Tuple[Atom, ...]) -> List[Tuple[Atom, ...]]:
    """Group the atoms into classes linked by shared variables."""
    groups: List[Tuple[set, List[Atom]]] = []
    for atom in atoms:
        variables, members = set(atom.args), [atom]
        for group in [group for group in groups if group[0] & variables]:
            groups.remove(group)
            variables |= group[0]
            members = group[1] + members
        groups.append((variables, members))
    return [tuple(members) for _, members in groups]


def _count_connected(
    atoms: Tuple[Atom, ...],
    structure: Structure,
    index: Mapping[object, int],
    fixed: Mapping[str, object],
) -> int:
    """Count the homomorphisms of one connected component into ``structure``.

    Einsum returns a fully contracted object-dtype intermediate as a Python
    int, which a later step would cast back to int64; in a connected
    component only the last step contracts to a scalar, so counts stay exact.
    """
    rows: Dict[str, List[Tuple]] = {}
    for atom in atoms:
        if atom.relation not in rows:
            rows[atom.relation] = [
                row for row in structure.tuples(atom.relation) if len(row) == atom.arity
            ]
        if not rows[atom.relation]:
            return 0
    component = ConjunctiveQuery(atoms=atoms)
    axis = {variable: position for position, variable in enumerate(component.variables)}
    size = len(index)
    if len(axis) > _MAX_AXES or any(size**atom.arity > _CELL_BUDGET for atom in atoms):
        return _enumerated_count(component, structure, fixed)

    bound = math.prod(len(rows[atom.relation]) for atom in atoms)
    dtype = object if bound >= 1 << 62 else np.int64
    tensors: Dict[str, np.ndarray] = {}
    for relation, relation_rows in rows.items():
        tensor = np.zeros((size,) * len(relation_rows[0]), dtype=dtype)
        tensor[tuple(np.array([[index[v] for v in row] for row in relation_rows]).T)] = 1
        tensors[relation] = tensor
    operands: List[object] = []
    for atom in atoms:
        operands += [tensors[atom.relation], [axis[v] for v in atom.args]]
    for variable, value in fixed.items():
        if variable in axis:
            one_hot = np.zeros(size, dtype=dtype)
            one_hot[index[value]] = 1
            operands += [one_hot, [axis[variable]]]
    path = np.einsum_path(*operands, [], optimize=("greedy", _CELL_BUDGET))[0]
    if not _path_within_budget(path, operands[1::2], size):
        return _enumerated_count(component, structure, fixed)
    return int(np.einsum(*operands, [], optimize=path))


def _path_within_budget(path: List, sublists: List[List[int]], size: int) -> bool:
    """True when no step of an einsum ``path`` spans more than ``_CELL_BUDGET`` cells.

    A step's cost and its temporaries are bounded by the index space of the
    axes it touches; every axis has length ``size``.  Steps contract the
    listed operands and append the result, as :func:`numpy.einsum` does.
    """
    live = [set(sublist) for sublist in sublists]
    for step in path[1:]:
        spanned = set().union(*(live[position] for position in step))
        if size ** len(spanned) > _CELL_BUDGET:
            return False
        live = [axes for position, axes in enumerate(live) if position not in step]
        live.append(spanned & set().union(*live))
    return True


def _enumerated_count(
    query: ConjunctiveQuery, structure: Structure, fixed: Mapping[str, object]
) -> int:
    return sum(1 for _ in query_homomorphisms(query, structure, fixed=fixed))


def exists_query_homomorphism(
    query: ConjunctiveQuery,
    structure: Structure,
    fixed: Optional[Mapping[str, object]] = None,
) -> bool:
    """True when at least one homomorphism of ``query`` into ``structure`` exists."""
    for _ in query_homomorphisms(query, structure, fixed=fixed):
        return True
    return False


# ---------------------------------------------------------------------- #
# Structure-to-structure homomorphisms
# ---------------------------------------------------------------------- #
def _structure_as_query(structure: Structure) -> Tuple[Optional[ConjunctiveQuery], Tuple]:
    """View a structure as a Boolean query (facts become atoms).

    Returns the query (``None`` when the structure has no facts) together
    with the tuple of isolated domain elements (elements that appear in no
    fact); those are unconstrained and multiply the homomorphism count by
    ``|target domain|`` each.
    """
    atoms = []
    used = set()
    for name, row in structure.facts():
        atoms.append(Atom(name, tuple(f"__elem_{value!r}" for value in row)))
        used.update(row)
    isolated = tuple(sorted((structure.domain - used), key=str))
    query = ConjunctiveQuery(atoms=tuple(atoms), head=()) if atoms else None
    return query, isolated


def homomorphisms(source: Structure, target: Structure) -> Iterator[Dict]:
    """Enumerate homomorphisms ``source → target`` as domain-element maps."""
    query, isolated = _structure_as_query(source)
    reverse = {f"__elem_{value!r}": value for value in source.domain}
    target_domain = sorted(target.domain, key=str)
    cores = query_homomorphisms(query, target) if query is not None else [{}]
    for assignment in cores:
        core = {reverse[variable]: value for variable, value in assignment.items()}
        for values in itertools.product(target_domain, repeat=len(isolated)):
            mapping = dict(core)
            mapping.update(zip(isolated, values))
            yield mapping


def count_homomorphisms(source: Structure, target: Structure) -> int:
    """Count ``|hom(source, target)|`` between two structures."""
    query, isolated = _structure_as_query(source)
    base = count_query_homomorphisms(query, target) if query is not None else 1
    return base * (len(target.domain) ** len(isolated))


def exists_homomorphism(source: Structure, target: Structure) -> bool:
    """True when a homomorphism ``source → target`` exists."""
    return any(True for _ in homomorphisms(source, target))


def query_to_query_homomorphisms(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> List[Dict[str, str]]:
    """All homomorphisms ``source → target`` between queries.

    Queries are identified with their canonical structures (Section 2.2):
    a homomorphism maps variables of ``source`` to variables of ``target``
    such that every atom of ``source`` becomes an atom of ``target``.
    The result is the set ``hom(Q2, Q1)`` appearing in Eq. (8) when called as
    ``query_to_query_homomorphisms(q2, q1)``.
    """
    return list(query_homomorphisms(source, canonical_structure(target)))


def count_query_to_query_homomorphisms(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> int:
    """Count homomorphisms between two queries."""
    return count_query_homomorphisms(source, canonical_structure(target))
