"""Dense two-phase primal simplex for small equality-form linear programs.

Solves min c.x subject to A x = b, x >= 0.  Built for the tiny geometric
programs in this package (a handful of rows, a few dozen columns), so it
favors clarity and exact certificates over scale: Bland's rule everywhere
prevents cycling, and duals come from a direct solve against the final basis.

On infeasibility the result carries a Farkas vector y with A^T y <= 0 and
b^T y > 0; at an optimum it carries the dual vector y with A^T y <= c and
b^T y equal to the objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_equality_lp"]

_EPS = 1e-9
# Pivots allowed per phase before the solver gives up.
_MAX_PIVOTS = 5000


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None
    farkas: np.ndarray | None = None


def _pivot_loop(A, b, c, basis, x_B, allowed, tol):
    """Primal simplex iterations with Bland's rule over the first `allowed`
    columns; mutates basis and x_B."""
    in_basis = np.zeros(A.shape[1], dtype=bool)
    in_basis[basis] = True
    for _ in range(_MAX_PIVOTS):
        B = A[:, basis]
        try:
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("simplex basis became singular") from exc
        reduced = c - A.T @ y
        improving = np.flatnonzero((reduced[:allowed] < -tol) & ~in_basis[:allowed])
        if improving.size == 0:
            return "optimal"
        entering = int(improving[0])
        w = np.linalg.solve(B, A[:, entering])
        positive = np.flatnonzero(w > tol)
        if positive.size == 0:
            return "unbounded"
        ratios = x_B[positive] / w[positive]
        theta = ratios.min()
        near = positive[ratios <= theta + tol * (1.0 + abs(theta))]
        leave_pos = min(near, key=lambda i: basis[i])
        x_B -= theta * w
        x_B[leave_pos] = theta
        np.clip(x_B, 0.0, None, out=x_B)
        in_basis[basis[leave_pos]] = False
        in_basis[entering] = True
        basis[leave_pos] = entering
    raise RuntimeError(f"simplex exceeded {_MAX_PIVOTS} pivots")


def solve_equality_lp(c, A, b, tol: float = _EPS) -> LpResult:
    A = np.array(A, dtype=float, copy=True)
    b = np.array(b, dtype=float, copy=True)
    c = np.array(c, dtype=float, copy=True)
    if A.ndim != 2 or b.shape != (A.shape[0],) or c.shape != (A.shape[1],):
        raise ValueError("need A (m, n), b (m,), c (n,)")
    m, n = A.shape
    if m == 0 or n == 0:
        raise ValueError("empty program")

    # Normalize to b >= 0 so the artificial basis is feasible.
    sign = np.where(b < 0.0, -1.0, 1.0)
    A *= sign[:, None]
    b *= sign

    # Phase 1: drive the artificial variables to zero.
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    x_B = b.copy()
    status = _pivot_loop(A1, b, c1, basis, x_B, n + m, tol)
    if status != "optimal":
        raise RuntimeError("phase 1 cannot be unbounded; numerical failure")
    infeas = float(c1[basis] @ x_B)
    if infeas > tol:
        B = A1[:, basis]
        y = np.linalg.solve(B.T, c1[basis])
        return LpResult(status="infeasible", farkas=sign * y)

    # Pivot surviving artificials out of the basis; a row where no original
    # column can enter is redundant and gets dropped.
    drop_rows: list[int] = []
    for pos in range(m):
        if basis[pos] < n:
            continue
        x_B[pos] = 0.0
        B = A1[:, basis]
        z = np.linalg.solve(B.T, np.eye(m)[pos])
        row = z @ A
        in_basis = np.zeros(n + m, dtype=bool)
        in_basis[basis] = True
        candidates = np.flatnonzero(~in_basis[:n] & (np.abs(row) > tol))
        if candidates.size:
            basis[pos] = int(candidates[0])
        else:
            drop_rows.append(pos)
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows]
        A = A[keep]
        b = b[keep]
        sign = sign[keep]
        basis = [basis[i] for i in keep]
        x_B = x_B[np.array(keep, dtype=int)]
        m = len(keep)

    # Refresh the basic solution against the cleaned system.
    B = A[:, basis]
    x_B = np.linalg.solve(B, b)
    if np.any(x_B < -1e-7):
        raise RuntimeError("lost primal feasibility after phase 1")
    np.clip(x_B, 0.0, None, out=x_B)

    status = _pivot_loop(A, b, c, basis, x_B, n, tol)
    if status == "unbounded":
        return LpResult(status="unbounded")
    x = np.zeros(n)
    x[basis] = x_B
    y = np.linalg.solve(A[:, basis].T, c[basis])
    return LpResult(status="optimal", x=x, objective=float(c @ x), dual=sign * y)
