"""Solver backends: scipy's one-shot HiGHS vs a native incremental ``highspy`` model.

Every LP the library solves ultimately reaches HiGHS, but there are two ways
to get there.  Both hand the cutting-plane loops of :mod:`repro.lp.rowgen`
an :class:`IncrementalModel` — keyed rows added (and deleted) between
rounds — and differ in what a re-solve costs:

* :class:`ScipyBackend` — :func:`scipy.optimize.linprog` with
  ``method="highs"``.  Stateless and always available, but every call builds
  a fresh HiGHS model: scipy exposes no basis hand-off, so each relaxation
  is re-solved from scratch and deleting slack rows would only churn it.
* :class:`HighsBackend` — the ``highspy`` bindings driven directly.  The
  model stays alive across cutting-plane rounds: violated cuts enter through
  ``addRows``, slack rows leave through ``deleteRows``, and HiGHS
  warm-starts every re-solve from the incumbent basis.  ``highspy`` is an
  *optional* dependency — the backend is gated on import and
  :func:`resolve_backend` falls back to scipy when it is absent, so nothing
  in the library ever requires it.

The ``backend`` knob accepted by every LP entry point takes

* ``"auto"`` (the default everywhere) — :class:`HighsBackend` when
  ``highspy`` imports, :class:`ScipyBackend` otherwise, so a plain
  ``pip install highspy`` upgrades the whole library while CI and
  scipy-only installs keep working on the always-installed solver;
* ``"scipy"`` / ``"highs"`` — force one backend (``"highs"`` raises
  :class:`~repro.exceptions.LPError` when ``highspy`` is missing).

Row identity bookkeeping
------------------------
The cutting-plane loops used to assume active rows never leave the model,
so a plain "seen ids" set sufficed.  With slack-row deletion that
bookkeeping moves here:

* :class:`IncrementalModel` maps stable row *keys* to current model row
  indices (deletions renumber the tail, exactly as HiGHS does internally);
* :class:`AntiCyclingLedger` tracks which oracle rows are active, dropped
  or *permanent*.  The guard: a dropped row that re-violates re-enters the
  model permanently — each row can therefore be dropped at most once, every
  round still strictly grows the (finite) set of rows that have ever been
  admitted-or-pinned, and the loop terminates exactly as it did before
  deletion existed.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.exceptions import LPError
from repro.lp.solver import LPResult, LPStatus

#: Names accepted by every ``backend`` knob.
BACKEND_NAMES = ("auto", "scipy", "highs")


def highs_available() -> bool:
    """Whether the optional ``highspy`` bindings can be imported."""
    try:
        import highspy  # noqa: F401
    except ImportError:
        return False
    return True


def validate_backend_name(name: str) -> str:
    """Check a ``backend`` knob value; returns it unchanged."""
    if name not in BACKEND_NAMES:
        raise LPError(
            f"unknown LP backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def resolve_backend(backend) -> "LPBackend":
    """Resolve a ``backend`` knob (name, instance or ``None``) to an instance.

    ``None`` and ``"auto"`` pick :class:`HighsBackend` when ``highspy`` is
    importable and :class:`ScipyBackend` otherwise — the scipy fallback is
    what keeps every entry point working, with unchanged behaviour, on
    installations without the optional dependency.
    """
    if isinstance(backend, LPBackend):
        return backend
    if backend is None:
        backend = "auto"
    validate_backend_name(backend)
    if backend == "auto":
        backend = "highs" if highs_available() else "scipy"
    return _backend_instance(backend)


_INSTANCES: Dict[str, "LPBackend"] = {}


def _backend_instance(name: str) -> "LPBackend":
    instance = _INSTANCES.get(name)
    if instance is None:
        if name == "scipy":
            instance = ScipyBackend()
        elif name == "highs":
            instance = HighsBackend()
        else:  # pragma: no cover - guarded by validate_backend_name
            raise LPError(f"unknown LP backend {name!r}")
        _INSTANCES[name] = instance
    return instance


def _broadcast_bounds(
    bounds, num_variables: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand the scipy ``bounds`` convention to per-variable lower/upper arrays."""
    if bounds is None:
        bounds = (0, None)
    pairs: Sequence
    if isinstance(bounds, tuple) and len(bounds) == 2 and not isinstance(bounds[0], tuple):
        pairs = [bounds] * num_variables
    else:
        pairs = list(bounds)
        if len(pairs) != num_variables:
            raise LPError("bounds list length does not match the variable count")
    lower = np.array([-np.inf if lo is None else float(lo) for lo, _ in pairs])
    upper = np.array([np.inf if hi is None else float(hi) for _, hi in pairs])
    return lower, upper


class LPBackend:
    """Interface of one solver backend (see the module docstring)."""

    #: Knob name this backend answers to.
    name = "backend"
    #: Whether re-solves of an incremental model start from the incumbent
    #: basis; the cutting-plane loops delete slack rows only when they do.
    warm_started = False

    def solve(
        self,
        objective,
        A_ub=None,
        b_ub=None,
        A_eq=None,
        b_eq=None,
        bounds=None,
    ) -> LPResult:
        """One-shot minimize ``objective·x`` s.t. ``A_ub x ≤ b_ub``, ``A_eq x = b_eq``."""
        raise NotImplementedError

    def incremental_model(
        self,
        num_variables: int,
        objective,
        bounds=None,
        A_fixed=None,
        b_fixed=None,
    ) -> "IncrementalModel":
        """A fresh :class:`IncrementalModel` over ``num_variables`` columns."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------- #
# scipy
# --------------------------------------------------------------------- #
class ScipyBackend(LPBackend):
    """:func:`scipy.optimize.linprog` with ``method="highs"`` (the historical path).

    Its :class:`IncrementalModel` keeps the keyed-row bookkeeping in Python
    and re-solves the whole model through ``linprog`` on every call — no
    warm start, so the cutting-plane loops keep slack rows instead of
    deleting them.
    """

    name = "scipy"
    warm_started = False

    def solve(
        self,
        objective,
        A_ub=None,
        b_ub=None,
        A_eq=None,
        b_eq=None,
        bounds=None,
    ) -> LPResult:
        result = linprog(
            c=np.asarray(objective, dtype=float),
            A_ub=A_ub,
            b_ub=None if b_ub is None else np.asarray(b_ub, dtype=float),
            A_eq=A_eq,
            b_eq=None if b_eq is None else np.asarray(b_eq, dtype=float),
            bounds=bounds if bounds is not None else (0, None),
            method="highs",
        )
        if result.status == 0:
            return LPResult(
                status=LPStatus.OPTIMAL,
                objective=float(result.fun),
                solution=result.x,
            )
        if result.status == 2:
            return LPResult(status=LPStatus.INFEASIBLE, objective=None, solution=None)
        if result.status == 3:
            return LPResult(status=LPStatus.UNBOUNDED, objective=None, solution=None)
        raise LPError(f"linear program failed: {result.message}")

    def incremental_model(
        self,
        num_variables: int,
        objective,
        bounds=None,
        A_fixed=None,
        b_fixed=None,
    ) -> "IncrementalModel":
        return _ScipyIncrementalModel(
            self, num_variables, objective, bounds, A_fixed, b_fixed
        )


# --------------------------------------------------------------------- #
# highspy
# --------------------------------------------------------------------- #
class HighsBackend(LPBackend):
    """Native ``highspy`` driver with incremental, warm-started models.

    Raises :class:`LPError` on construction when ``highspy`` is not
    importable — use :func:`resolve_backend` (or the ``"auto"`` knob) to get
    the scipy fallback instead of an error.
    """

    name = "highs"
    warm_started = True

    def __init__(self):
        if not highs_available():
            raise LPError(
                "the 'highs' LP backend needs the optional highspy package "
                "(pip install highspy); use backend='auto' or 'scipy' to fall "
                "back to scipy"
            )

    def solve(
        self,
        objective,
        A_ub=None,
        b_ub=None,
        A_eq=None,
        b_eq=None,
        bounds=None,
    ) -> LPResult:
        objective = np.asarray(objective, dtype=float)
        model = _HighsIncrementalModel(
            self, objective.shape[0], objective, bounds, A_ub, b_ub
        )
        if A_eq is not None:
            A_eq = sp.csr_matrix(A_eq)
            b_eq = np.asarray(b_eq, dtype=float)
            model._add_rows_raw(A_eq, b_eq, b_eq)
        return model.solve()

    def incremental_model(
        self,
        num_variables: int,
        objective,
        bounds=None,
        A_fixed=None,
        b_fixed=None,
    ) -> "IncrementalModel":
        return _HighsIncrementalModel(
            self, num_variables, objective, bounds, A_fixed, b_fixed
        )


# --------------------------------------------------------------------- #
# Incremental models
# --------------------------------------------------------------------- #
class IncrementalModel:
    """One LP kept alive across cutting-plane rounds.

    The model owns ``num_variables`` columns with fixed bounds, a mutable
    objective, optional *fixed* rows (the caller's explicit constraints,
    never deleted) and a set of *keyed* rows ``A x ≤ b`` addressed by stable,
    hashable keys.  Keys map to current model row positions through
    :meth:`row_index`; deleting rows renumbers the tail exactly as HiGHS
    does, and the map is maintained so callers never see raw indices.
    """

    def __init__(self, backend: LPBackend, num_variables: int):
        self.backend = backend
        self.num_variables = num_variables
        self.solve_count = 0
        self._keys: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}

    # -- key bookkeeping ------------------------------------------------ #
    def keys(self) -> Tuple[Hashable, ...]:
        """The keyed rows in current model order."""
        return tuple(self._keys)

    def row_index(self, key: Hashable) -> int:
        """Current position of ``key`` among the keyed rows."""
        return self._index[key]

    def _register(self, keys: Sequence[Hashable]) -> None:
        for key in keys:
            if key in self._index:
                raise LPError(f"row key {key!r} is already in the model")
            self._index[key] = len(self._keys)
            self._keys.append(key)

    def _unregister(self, keys: Sequence[Hashable]) -> List[int]:
        positions = sorted(self._index[key] for key in keys)
        for key in keys:
            del self._index[key]
        keep = np.ones(len(self._keys), dtype=bool)
        keep[positions] = False
        self._keys = [key for key, kept in zip(self._keys, keep) if kept]
        self._index = {key: i for i, key in enumerate(self._keys)}
        return positions

    # -- interface ------------------------------------------------------ #
    def set_objective(self, objective) -> None:
        raise NotImplementedError

    def add_rows(self, keys: Sequence[Hashable], matrix, rhs=None) -> None:
        """Add keyed rows ``matrix x ≤ rhs`` (``rhs=None`` means all zeros)."""
        raise NotImplementedError

    def delete_rows(self, keys: Sequence[Hashable]) -> None:
        """Remove keyed rows; remaining keys keep resolving to the right rows."""
        raise NotImplementedError

    def solve(self, warm: bool = True) -> LPResult:
        """Re-solve the current model (warm-started when the backend supports it)."""
        raise NotImplementedError


def _as_csr(matrix, width: int) -> sp.csr_matrix:
    if sp.issparse(matrix):
        return matrix.tocsr()
    array = np.asarray(matrix, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, width)
    return sp.csr_matrix(array)


class _ScipyIncrementalModel(IncrementalModel):
    """Keyed-row model re-solved from scratch through ``linprog`` each round."""

    def __init__(self, backend, num_variables, objective, bounds, A_fixed, b_fixed):
        super().__init__(backend, num_variables)
        self._objective = np.asarray(objective, dtype=float)
        self._bounds = bounds if bounds is not None else (0, None)
        if A_fixed is not None:
            self._A_fixed = _as_csr(A_fixed, num_variables)
            self._b_fixed = np.asarray(b_fixed, dtype=float)
        else:
            self._A_fixed = None
            self._b_fixed = None
        self._A_keyed: Optional[sp.csr_matrix] = None
        self._b_keyed = np.empty(0)

    def set_objective(self, objective) -> None:
        objective = np.asarray(objective, dtype=float)
        if objective.shape[0] != self.num_variables:
            raise LPError("objective length does not match the variable count")
        self._objective = objective

    def add_rows(self, keys, matrix, rhs=None) -> None:
        matrix = _as_csr(matrix, self.num_variables)
        if matrix.shape[0] != len(keys):
            raise LPError("row-key/matrix shape mismatch")
        rhs = np.zeros(matrix.shape[0]) if rhs is None else np.asarray(rhs, dtype=float)
        self._register(keys)
        if self._A_keyed is None:
            self._A_keyed = matrix
            self._b_keyed = rhs
        else:
            self._A_keyed = sp.vstack([self._A_keyed, matrix], format="csr")
            self._b_keyed = np.concatenate([self._b_keyed, rhs])

    def delete_rows(self, keys) -> None:
        if not keys:
            return
        positions = self._unregister(keys)
        keep = np.ones(self._A_keyed.shape[0], dtype=bool)
        keep[positions] = False
        self._A_keyed = self._A_keyed[keep]
        self._b_keyed = self._b_keyed[keep]

    def row_matrix(self) -> Tuple[Optional[sp.csr_matrix], np.ndarray]:
        """The keyed rows as ``(matrix, rhs)`` in key order (for tests)."""
        return self._A_keyed, self._b_keyed

    def solve(self, warm: bool = True) -> LPResult:
        # Keyed (cone) rows above the caller's fixed rows, the order the
        # dense path stacks: row order can change which optimal vertex HiGHS
        # returns, and the relaxed points steer the separation rounds.
        parts_A = []
        parts_b = []
        if self._A_keyed is not None and self._A_keyed.shape[0]:
            parts_A.append(self._A_keyed)
            parts_b.append(self._b_keyed)
        if self._A_fixed is not None:
            parts_A.append(self._A_fixed)
            parts_b.append(self._b_fixed)
        A_ub = sp.vstack(parts_A, format="csr") if parts_A else None
        b_ub = np.concatenate(parts_b) if parts_b else None
        self.solve_count += 1
        return self.backend.solve(
            self._objective, A_ub=A_ub, b_ub=b_ub, bounds=self._bounds
        )


class _HighsIncrementalModel(IncrementalModel):
    """A persistent ``highspy.Highs`` model modified in place between solves.

    HiGHS keeps the incumbent basis across ``addRows``/``deleteRows``/
    ``changeColsCost`` modifications and warm-starts the next ``run`` from
    it — the basis hand-off scipy's ``linprog`` does not expose.
    ``solve(warm=False)`` clears the solver state first (used by benchmarks
    to measure the cold-start baseline on the same backend).
    """

    def __init__(self, backend, num_variables, objective, bounds, A_fixed, b_fixed):
        super().__init__(backend, num_variables)
        import highspy

        self._highspy = highspy
        self._inf = highspy.kHighsInf
        model = highspy.Highs()
        model.setOptionValue("output_flag", False)
        self._model = model
        self._fixed_rows = 0
        lower, upper = _broadcast_bounds(bounds, num_variables)
        lower = np.where(np.isneginf(lower), -self._inf, lower)
        upper = np.where(np.isposinf(upper), self._inf, upper)
        objective = np.asarray(objective, dtype=float)
        if objective.shape[0] != num_variables:
            raise LPError("objective length does not match the variable count")
        # Zero-nonzero columns: a full-length (all-zero) starts array keeps
        # every HiGHS version happy, whether or not it dereferences starts
        # when num_new_nz == 0.
        model.addCols(
            num_variables,
            objective.astype(np.float64),
            lower.astype(np.float64),
            upper.astype(np.float64),
            0,
            np.zeros(num_variables, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
        )
        if A_fixed is not None:
            A_fixed = _as_csr(A_fixed, num_variables)
            b_fixed = np.asarray(b_fixed, dtype=float)
            self._add_rows_raw(A_fixed, None, b_fixed)
            self._fixed_rows = A_fixed.shape[0]

    # -- raw row plumbing ------------------------------------------------ #
    def _add_rows_raw(self, matrix: sp.csr_matrix, lower, upper) -> None:
        """Append rows with the given bounds (``None`` = unbounded on that side)."""
        rows = matrix.shape[0]
        if rows == 0:
            return
        if lower is None:
            lower = np.full(rows, -self._inf)
        if upper is None:
            upper = np.full(rows, self._inf)
        self._model.addRows(
            rows,
            np.asarray(lower, dtype=np.float64),
            np.asarray(upper, dtype=np.float64),
            int(matrix.nnz),
            matrix.indptr[:-1].astype(np.int32),
            matrix.indices.astype(np.int32),
            matrix.data.astype(np.float64),
        )

    def set_objective(self, objective) -> None:
        objective = np.asarray(objective, dtype=np.float64)
        if objective.shape[0] != self.num_variables:
            raise LPError("objective length does not match the variable count")
        self._model.changeColsCost(
            self.num_variables,
            np.arange(self.num_variables, dtype=np.int32),
            objective,
        )

    def add_rows(self, keys, matrix, rhs=None) -> None:
        matrix = _as_csr(matrix, self.num_variables)
        if matrix.shape[0] != len(keys):
            raise LPError("row-key/matrix shape mismatch")
        rhs = np.zeros(matrix.shape[0]) if rhs is None else np.asarray(rhs, dtype=float)
        self._register(keys)
        self._add_rows_raw(matrix, None, rhs)

    def delete_rows(self, keys) -> None:
        if not keys:
            return
        positions = self._unregister(keys)
        indices = np.asarray(positions, dtype=np.int32) + self._fixed_rows
        self._model.deleteRows(indices.shape[0], indices)

    def solve(self, warm: bool = True) -> LPResult:
        if not warm:
            self._model.clearSolver()
        self._model.run()
        self.solve_count += 1
        status = self._model.getModelStatus()
        HighsModelStatus = self._highspy.HighsModelStatus
        if status == HighsModelStatus.kUnboundedOrInfeasible:
            # Disambiguate the way scipy does: re-solve without presolve.
            self._model.setOptionValue("presolve", "off")
            self._model.clearSolver()
            self._model.run()
            status = self._model.getModelStatus()
            self._model.setOptionValue("presolve", "choose")
        if status == HighsModelStatus.kOptimal:
            solution = np.array(self._model.getSolution().col_value)
            return LPResult(
                status=LPStatus.OPTIMAL,
                objective=float(self._model.getObjectiveValue()),
                solution=solution,
            )
        if status == HighsModelStatus.kInfeasible:
            return LPResult(status=LPStatus.INFEASIBLE, objective=None, solution=None)
        if status == HighsModelStatus.kUnbounded:
            return LPResult(status=LPStatus.UNBOUNDED, objective=None, solution=None)
        raise LPError(f"highspy solve failed with model status {status}")


# --------------------------------------------------------------------- #
# Anti-cycling ledger
# --------------------------------------------------------------------- #
class AntiCyclingLedger:
    """Active-set bookkeeping for cutting-plane loops with slack-row deletion.

    Tracks three disjoint facts about oracle row ids: *active* (currently in
    the model), *dropped* (was active, deleted as slack) and *permanent*
    (never deletable — the seed rows, plus every row that re-entered after a
    drop).  The permanence promotion is the anti-cycling guard: a row can be
    dropped at most once, so a loop that keeps finding the same violated row
    pins it instead of oscillating, and termination reduces to the original
    finite-row-set argument.
    """

    __slots__ = ("_active", "_active_set", "_permanent", "_dropped", "cuts_added", "rows_dropped", "re_entries", "peak_rows")

    def __init__(self, permanent_ids: Sequence[int]):
        self._active: List[int] = [int(i) for i in permanent_ids]
        self._active_set = set(self._active)
        if len(self._active_set) != len(self._active):
            raise LPError("duplicate ids in the permanent seed set")
        self._permanent = set(self._active)
        self._dropped: set = set()
        self.cuts_added = 0
        self.rows_dropped = 0
        self.re_entries = 0
        self.peak_rows = len(self._active)

    def __len__(self) -> int:
        return len(self._active)

    @property
    def active(self) -> List[int]:
        """The active row ids, in model (admission) order."""
        return self._active

    def is_permanent(self, row_id: int) -> bool:
        return int(row_id) in self._permanent

    def admit(self, row_ids) -> List[int]:
        """Admit rows into the active set; returns the ids that newly entered.

        A re-admitted previously-dropped row is promoted to permanent (the
        anti-cycling guard).
        """
        entered: List[int] = []
        for row_id in row_ids:
            row_id = int(row_id)
            if row_id in self._active_set:
                continue
            if row_id in self._dropped:
                self._dropped.discard(row_id)
                self._permanent.add(row_id)
                self.re_entries += 1
            self._active_set.add(row_id)
            self._active.append(row_id)
            entered.append(row_id)
        self.cuts_added += len(entered)
        self.peak_rows = max(self.peak_rows, len(self._active))
        return entered

    def retire(self, row_ids) -> List[int]:
        """Drop rows from the active set; returns the ids actually removed.

        Permanent rows and ids that are not active are silently skipped.
        """
        removable = []
        for row_id in row_ids:
            row_id = int(row_id)
            if row_id in self._active_set and row_id not in self._permanent:
                removable.append(row_id)
        if not removable:
            return []
        removed = set(removable)
        self._active = [i for i in self._active if i not in removed]
        self._active_set -= removed
        self._dropped |= removed
        self.rows_dropped += len(removable)
        return removable


__all__ = [
    "BACKEND_NAMES",
    "AntiCyclingLedger",
    "HighsBackend",
    "IncrementalModel",
    "LPBackend",
    "ScipyBackend",
    "highs_available",
    "resolve_backend",
    "validate_backend_name",
]
