"""The solver-backend layer: resolution, incremental bookkeeping, seeds.

Three concerns are locked down here, all runnable without the optional
``highspy`` dependency:

* backend resolution — ``"auto"`` falls back to scipy when ``highspy`` is
  absent, forcing ``"highs"`` then fails loudly, unknown names are rejected;
* the incremental-model bookkeeping the HiGHS backend relies on — row
  add/drop identity mapping (stable keys over renumbering deletions) and
  the :class:`~repro.lp.backends.AntiCyclingLedger` guard (a dropped row
  that re-violates re-enters permanently, so even an adversarial
  drop-everything policy terminates with the right optimum);
* the Eq. (8)-aware ``seed="containment"`` row set — bit-exact against a
  brute-force ``|K| ≤ 1`` enumeration of the elemental inequalities at
  ``n ≤ 5``, and never needing more cutting-plane rounds than the generic
  seed on containment-shaped instances.

Every backend runs the same incremental cutting-plane loop; only a
warm-started backend deletes slack rows.  :class:`_WarmScipyBackend` — scipy
declared warm-started — exercises that deletion and the anti-cycling guard
on every install, without the optional dependency.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cq.parser import parse_query
from repro.cq.reductions import to_boolean_pair
from repro.core.containment import containment_pipeline
from repro.core.containment_inequality import build_containment_inequality
from repro.exceptions import LPError
from repro.infotheory.polymatroid import elemental_inequalities
from repro.infotheory.shannon import shannon_prover
from repro.lp.backends import (
    AntiCyclingLedger,
    HighsBackend,
    ScipyBackend,
    highs_available,
    resolve_backend,
    validate_backend_name,
)
from repro.lp.rowgen import (
    RowGenOptions,
    check_feasibility_lazy,
    minimize_lazy,
    shannon_row_oracle,
)
from repro.lp.solver import LPStatus
from repro.utils.lattice import lattice_context

GROUNDS = {n: tuple(f"X{i}" for i in range(1, n + 1)) for n in range(2, 6)}


class _WarmScipyBackend(ScipyBackend):
    """scipy declared warm-started, so the loops delete slack rows on it."""

    name = "scipy-warm"
    warm_started = True


# --------------------------------------------------------------------- #
# Resolution and gating
# --------------------------------------------------------------------- #
def test_auto_resolves_to_scipy_without_highspy():
    backend = resolve_backend("auto")
    if highs_available():
        assert backend.name == "highs"
    else:
        assert backend.name == "scipy"
        assert not backend.warm_started


def test_forcing_highs_without_highspy_raises():
    if highs_available():
        pytest.skip("highspy is installed; the gate cannot fire")
    with pytest.raises(LPError, match="highspy"):
        resolve_backend("highs")
    with pytest.raises(LPError, match="highspy"):
        HighsBackend()


def test_unknown_backend_name_rejected():
    for name in ("glpk", "scipy-incremental"):
        with pytest.raises(LPError, match="unknown LP backend"):
            validate_backend_name(name)
        with pytest.raises(LPError):
            resolve_backend(name)


def test_backend_instances_are_shared():
    assert resolve_backend("scipy") is resolve_backend("scipy")


# --------------------------------------------------------------------- #
# One-shot solves
# --------------------------------------------------------------------- #
def test_scipy_backend_solves_a_small_lp():
    backend = resolve_backend("scipy")
    # min x0 + x1  s.t.  -x0 - x1 <= -1, x >= 0
    result = backend.solve([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    assert result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(1.0)


def test_scipy_backend_reports_infeasible_and_unbounded():
    backend = resolve_backend("scipy")
    infeasible = backend.solve([1.0], A_ub=[[1.0]], b_ub=[-1.0])
    assert infeasible.status == LPStatus.INFEASIBLE
    unbounded = backend.solve([-1.0], A_ub=None, b_ub=None)
    assert unbounded.status == LPStatus.UNBOUNDED


# --------------------------------------------------------------------- #
# Incremental-model row identity mapping
# --------------------------------------------------------------------- #
def _unit_row(width, column, value=1.0):
    return sp.csr_matrix(([value], ([0], [column])), shape=(1, width))


def _model(width=4):
    backend = resolve_backend("scipy")
    return backend.incremental_model(width, np.ones(width), bounds=(0, None))


def test_keys_map_to_their_rows_after_deletions():
    model = _model(width=4)
    # Row "c<i>" is the distinctive constraint x_i >= i + 1.
    for i in range(4):
        model.add_rows([f"c{i}"], _unit_row(4, i, -1.0), rhs=[-(i + 1.0)])
    model.delete_rows(["c1", "c2"])
    assert model.keys() == ("c0", "c3")
    assert model.row_index("c0") == 0
    assert model.row_index("c3") == 1
    matrix, rhs = model.row_matrix()
    # "c3" slid into position 1 but still constrains x3, not x1.
    assert matrix[1].toarray().ravel().tolist() == [0.0, 0.0, 0.0, -1.0]
    assert rhs.tolist() == [-1.0, -4.0]
    # The solve only enforces the surviving rows.
    result = model.solve()
    assert result.status == LPStatus.OPTIMAL
    np.testing.assert_allclose(result.solution, [1.0, 0.0, 0.0, 4.0], atol=1e-9)


def test_adding_after_deletion_keeps_the_mapping_consistent():
    model = _model(width=3)
    model.add_rows(["a", "b"], sp.vstack([_unit_row(3, 0, -1.0), _unit_row(3, 1, -1.0)]), rhs=[-2.0, -3.0])
    model.delete_rows(["a"])
    model.add_rows(["c"], _unit_row(3, 2, -1.0), rhs=[-5.0])
    assert model.keys() == ("b", "c")
    assert model.row_index("c") == 1
    result = model.solve()
    np.testing.assert_allclose(result.solution, [0.0, 3.0, 5.0], atol=1e-9)


def test_duplicate_key_rejected_and_unknown_key_fails():
    model = _model(width=2)
    model.add_rows(["a"], _unit_row(2, 0))
    with pytest.raises(LPError, match="already in the model"):
        model.add_rows(["a"], _unit_row(2, 1))
    with pytest.raises(KeyError):
        model.row_index("never-added")


def test_row_key_matrix_shape_mismatch_rejected():
    model = _model(width=2)
    with pytest.raises(LPError, match="mismatch"):
        model.add_rows(["a", "b"], _unit_row(2, 0))


# --------------------------------------------------------------------- #
# AntiCyclingLedger
# --------------------------------------------------------------------- #
def test_seed_rows_are_permanent():
    ledger = AntiCyclingLedger([0, 1, 2])
    assert ledger.retire([0, 1, 2]) == []
    assert len(ledger) == 3
    assert ledger.rows_dropped == 0


def test_dropped_row_reenters_permanently():
    ledger = AntiCyclingLedger([0])
    assert ledger.admit([5, 7]) == [5, 7]
    assert ledger.retire([5]) == [5]
    assert not ledger.is_permanent(7)
    # Re-violation: the row comes back and is pinned.
    assert ledger.admit([5]) == [5]
    assert ledger.is_permanent(5)
    assert ledger.re_entries == 1
    assert ledger.retire([5]) == []


def test_admitting_active_rows_is_a_noop():
    ledger = AntiCyclingLedger([0])
    ledger.admit([3])
    assert ledger.admit([3, 0]) == []
    assert ledger.cuts_added == 1


def test_ledger_counters():
    ledger = AntiCyclingLedger([0, 1])
    ledger.admit([2, 3, 4])
    assert ledger.peak_rows == 5
    ledger.retire([2, 3])
    assert ledger.rows_dropped == 2
    assert len(ledger) == 3
    ledger.admit([2])
    assert ledger.peak_rows == 5
    assert sorted(ledger.active) == [0, 1, 2, 4]


# --------------------------------------------------------------------- #
# The cutting-plane loop end to end on scipy
# --------------------------------------------------------------------- #
def _invalid_pair_objective(ground):
    """``h(1) + h(2) - 1.5·h(12)``, whose Γn minimum over the slice is -0.5."""
    from repro.infotheory.expressions import LinearExpression

    prover = shannon_prover(ground)
    expression = LinearExpression(
        ground=ground,
        coefficients={
            frozenset({ground[0]}): 1.0,
            frozenset({ground[1]}): 1.0,
            frozenset({ground[0], ground[1]}): -1.5,
        },
    )
    return prover.expression_vector(expression)


def _dense_optimum(objective, oracle):
    """The one-shot LP over every elemental row at once."""
    cone = oracle.full_matrix()
    return ScipyBackend().solve(
        objective, A_ub=-cone, b_ub=np.zeros(cone.shape[0]), bounds=(0, 1)
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rowgen_loop_matches_the_dense_optimum(n):
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    dense = _dense_optimum(objective, oracle)
    result = minimize_lazy(objective, oracle, bounds=(0, 1), backend="scipy")
    assert dense.status == result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(dense.objective, abs=1e-8)
    assert result.rowgen.backend == "scipy"


@pytest.mark.parametrize("n", [4, 5])
def test_slack_deleting_loop_matches_the_dense_optimum(n):
    """One cut per round leaves earlier rows slack; deleting them is safe."""
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    dense = _dense_optimum(objective, oracle)
    result = minimize_lazy(
        objective,
        oracle,
        bounds=(0, 1),
        options=RowGenOptions(drop_min_rows=0, max_cuts_per_round=1),
        backend=_WarmScipyBackend(),
    )
    assert dense.status == result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(dense.objective, abs=1e-8)
    assert result.rowgen.rows_dropped > 0


def test_adversarial_dropping_terminates_and_stays_correct():
    """Drop *every* non-permanent row each round; the guard must converge.

    ``drop_tolerance=-1`` marks even tight rows as slack and
    ``max_cuts_per_round=1`` starves the model, so without the
    re-entry-pins-permanently rule this loop would oscillate forever.
    """
    ground = GROUNDS[5]
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    options = RowGenOptions(
        drop_min_rows=0,
        drop_tolerance=-1.0,
        max_cuts_per_round=1,
    )
    result = minimize_lazy(
        objective,
        oracle,
        bounds=(0, 1),
        options=options,
        backend=_WarmScipyBackend(),
    )
    reference = minimize_lazy(objective, oracle, bounds=(0, 1), backend="scipy")
    assert result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(reference.objective, abs=1e-8)
    assert result.rowgen.rows_dropped > 0
    # Dropped rows re-violated, re-entered, and were pinned.
    assert result.rowgen.re_entries > 0


def test_slack_rows_are_dropped_when_enabled():
    """Only a warm-started backend deletes slack rows; scipy keeps them all."""
    ground = GROUNDS[5]
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    options = RowGenOptions(drop_min_rows=0)
    results = {
        name: minimize_lazy(
            objective, oracle, bounds=(0, 1), options=options, backend=backend
        )
        for name, backend in (("warm", _WarmScipyBackend()), ("cold", "scipy"))
    }
    for result in results.values():
        assert result.status == LPStatus.OPTIMAL
        assert result.objective == pytest.approx(-0.5, abs=1e-8)
    assert results["warm"].rowgen.rows_dropped > 0
    assert results["cold"].rowgen.rows_dropped == 0


# --------------------------------------------------------------------- #
# The highspy adapter against a faithful fake of the bindings
# --------------------------------------------------------------------- #
class _FakeHighsModelStatus:
    kOptimal = "optimal"
    kInfeasible = "infeasible"
    kUnbounded = "unbounded"
    kUnboundedOrInfeasible = "unbounded-or-infeasible"


class _FakeHighs:
    """The slice of the ``highspy.Highs`` API the backend drives.

    Rows and columns accumulate exactly as HiGHS stores them (deletions
    renumber the tail); ``run`` delegates to ``linprog`` so solutions are
    real.  The instance counts runs so warm/cold behaviour is observable.
    """

    def __init__(self):
        self.cost = np.empty(0)
        self.col_lower = np.empty(0)
        self.col_upper = np.empty(0)
        self.rows = []  # (lower, upper, {col: value})
        self.options = {}
        self.runs = 0
        self.solver_cleared = 0
        self._solution = None
        self._objective = None
        self._status = None

    def setOptionValue(self, name, value):
        self.options[name] = value

    def addCols(self, num, cost, lower, upper, nnz, starts, indices, values):
        assert nnz == 0 and len(starts) >= 0
        self.cost = np.concatenate([self.cost, np.asarray(cost, dtype=float)])
        self.col_lower = np.concatenate([self.col_lower, np.asarray(lower, dtype=float)])
        self.col_upper = np.concatenate([self.col_upper, np.asarray(upper, dtype=float)])

    def addRows(self, num, lower, upper, nnz, starts, indices, values):
        starts = list(starts) + [nnz]
        for r in range(num):
            entries = {
                int(indices[k]): float(values[k])
                for k in range(starts[r], starts[r + 1])
            }
            self.rows.append((float(lower[r]), float(upper[r]), entries))

    def changeColsCost(self, num, indices, cost):
        for i, c in zip(indices, cost):
            self.cost[int(i)] = float(c)

    def deleteRows(self, num, indices):
        drop = {int(i) for i in indices}
        assert len(drop) == num
        self.rows = [row for r, row in enumerate(self.rows) if r not in drop]

    def clearSolver(self):
        self.solver_cleared += 1

    def run(self):
        from scipy.optimize import linprog

        self.runs += 1
        width = self.cost.shape[0]
        A_ub, b_ub = [], []
        for lower, upper, entries in self.rows:
            dense = np.zeros(width)
            for column, value in entries.items():
                dense[column] = value
            if np.isfinite(upper):
                A_ub.append(dense)
                b_ub.append(upper)
            if np.isfinite(lower):
                A_ub.append(-dense)
                b_ub.append(-lower)
        bounds = list(zip(self.col_lower, self.col_upper))
        result = linprog(
            c=self.cost,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            bounds=bounds,
            method="highs",
        )
        status = _FakeHighsModelStatus
        if result.status == 0:
            self._status = status.kOptimal
            self._solution = result.x
            self._objective = float(result.fun)
        elif result.status == 2:
            self._status = status.kInfeasible
        elif result.status == 3:
            self._status = status.kUnbounded
        else:  # pragma: no cover - defensive
            raise AssertionError(result.message)

    def getModelStatus(self):
        return self._status

    def getSolution(self):
        class _Solution:
            col_value = self._solution

        return _Solution()

    def getObjectiveValue(self):
        return self._objective


@pytest.fixture
def fake_highspy(monkeypatch):
    import sys
    import types

    module = types.ModuleType("highspy")
    module.kHighsInf = np.inf
    module.HighsModelStatus = _FakeHighsModelStatus
    module.Highs = _FakeHighs
    monkeypatch.setitem(sys.modules, "highspy", module)
    return module


def test_highs_backend_runs_the_incremental_loop_on_the_fake(fake_highspy):
    backend = HighsBackend()
    assert backend.warm_started
    ground = GROUNDS[4]
    oracle = shannon_row_oracle(ground)
    objective = _invalid_pair_objective(ground)
    result = minimize_lazy(objective, oracle, bounds=(0, 1), backend=backend)
    reference = minimize_lazy(objective, oracle, bounds=(0, 1), backend="scipy")
    assert result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(reference.objective, abs=1e-8)
    assert result.rowgen.backend == "highs"


def test_highs_model_delete_rows_offsets_past_fixed_rows(fake_highspy):
    backend = HighsBackend()
    fixed = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
    model = backend.incremental_model(
        2, np.ones(2), bounds=(0, None), A_fixed=fixed, b_fixed=[5.0, 5.0]
    )
    highs = model._model
    model.add_rows(["a", "b"], sp.csr_matrix(np.array([[-1.0, 0.0], [0.0, -1.0]])), rhs=[-1.0, -2.0])
    assert len(highs.rows) == 4
    model.delete_rows(["a"])
    # The fixed rows (model rows 0-1) survive; keyed row "b" is now model row 2.
    assert len(highs.rows) == 3
    assert highs.rows[2][2] == {1: -1.0}
    result = model.solve()
    np.testing.assert_allclose(result.solution, [0.0, 2.0], atol=1e-9)


def test_highs_model_cold_solve_clears_state(fake_highspy):
    backend = HighsBackend()
    model = backend.incremental_model(2, np.ones(2), bounds=(0, None))
    model.solve()
    assert model._model.solver_cleared == 0
    model.solve(warm=False)
    assert model._model.solver_cleared == 1


def test_highs_model_objective_swap(fake_highspy):
    backend = HighsBackend()
    model = backend.incremental_model(2, np.array([1.0, 0.0]), bounds=(0, 1))
    first = model.solve()
    model.set_objective(np.array([-1.0, 0.0]))
    second = model.solve()
    assert first.objective == pytest.approx(0.0)
    assert second.objective == pytest.approx(-1.0)


def test_highs_one_shot_solve_with_equalities(fake_highspy):
    backend = HighsBackend()
    # min x0 s.t. x0 + x1 = 1, x >= 0  →  x0 = 0.
    result = backend.solve(
        [1.0, 0.0], A_eq=np.array([[1.0, 1.0]]), b_eq=[1.0]
    )
    assert result.status == LPStatus.OPTIMAL
    assert result.objective == pytest.approx(0.0)


# --------------------------------------------------------------------- #
# seed="containment" (Eq. (8)-aware seeding)
# --------------------------------------------------------------------- #
def _context_of(inequality):
    """The context ``K`` of a submodularity row ``I(i;j|K) ≥ 0``."""
    positive = [set(subset) for subset, coeff in inequality.coefficients if coeff > 0]
    assert len(positive) == 2
    return positive[0] & positive[1]


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_containment_seed_bit_exact_against_bruteforce(n):
    """The seed ids are exactly the brute-force ``|K| ≤ 1`` enumeration."""
    ground = GROUNDS[n]
    oracle = shannon_row_oracle(ground)
    expected = [
        row_id
        for row_id, inequality in enumerate(elemental_inequalities(ground))
        if inequality.kind == "monotonicity" or len(_context_of(inequality)) <= 1
    ]
    seed = oracle.containment_seed_ids()
    assert seed.tolist() == expected
    # And the materialized rows are bit-for-bit the dense matrix's rows.
    dense = lattice_context(ground).elemental_matrix()
    difference = oracle.rows_matrix(seed) - dense[np.asarray(expected)]
    assert difference.nnz == 0


@pytest.mark.parametrize("n", sorted(GROUNDS))
def test_containment_seed_size(n):
    oracle = shannon_row_oracle(GROUNDS[n])
    pairs = n * (n - 1) // 2
    assert oracle.containment_seed_ids().shape[0] == n + pairs * min(
        n - 1, 1 << max(n - 2, 0)
    )


def test_unknown_seed_name_rejected():
    oracle = shannon_row_oracle(GROUNDS[3])
    with pytest.raises(LPError, match="unknown rowgen seed"):
        oracle.seed_ids_for("exotic")


EQ8_PAIRS = [
    ("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)"),
    ("R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x1)", "R(a,b), R(b,c)"),
    ("R(x,y), R(y,z)", "R(a,b), R(b,c)"),
]


@pytest.mark.parametrize("q1_text,q2_text", EQ8_PAIRS)
def test_containment_seed_rounds_never_exceed_generic(q1_text, q2_text):
    """On Eq. (8) systems the workload-aware seed can only save rounds."""
    q1, q2 = to_boolean_pair(parse_query(q1_text), parse_query(q2_text))
    inequality = build_containment_inequality(q1, q2)
    assert not inequality.is_trivially_false
    prover = shannon_prover(inequality.ground)
    branches = [
        branch.with_ground(inequality.ground)
        for branch in inequality.as_max_ii().branches
    ]
    rows = sp.csr_matrix(np.array([prover.expression_vector(b) for b in branches]))
    oracle = shannon_row_oracle(inequality.ground)
    outcomes = {}
    for seed in ("generic", "containment"):
        feasible, _, report = check_feasibility_lazy(
            rows.shape[1],
            oracle,
            A_ub=rows,
            b_ub=-np.ones(rows.shape[0]),
            options=RowGenOptions(seed=seed),
            backend="scipy",
        )
        outcomes[seed] = (feasible, report)
    assert outcomes["generic"][0] == outcomes["containment"][0]
    assert outcomes["containment"][1].rounds <= outcomes["generic"][1].rounds


def test_pipeline_marks_eq8_requests_with_the_containment_seed():
    q1 = parse_query("R(x,y), R(y,z), R(z,x)")
    q2 = parse_query("R(a,b), R(a,c)")
    pipeline = containment_pipeline(q1, q2)
    request = next(pipeline)
    assert request.over == "gamma"
    assert request.seed == "containment"
    pipeline.close()


@pytest.mark.parametrize("seed", ["generic", "containment"])
def test_seeded_verdicts_match_through_decide_max_ii(seed):
    from repro.infotheory.maxiip import decide_max_ii

    q1, q2 = to_boolean_pair(
        parse_query("R(x,y), R(y,z), R(z,x)"), parse_query("R(a,b), R(a,c)")
    )
    inequality = build_containment_inequality(q1, q2)
    verdict = decide_max_ii(
        inequality.as_max_ii(),
        over="gamma",
        ground=inequality.ground,
        lp_method="rowgen",
        seed=seed,
    )
    assert verdict.valid
