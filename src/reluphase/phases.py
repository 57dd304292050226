"""Slow/fast phase detection and the matching theoretical bound calculators.

Training splits into the iterations before the geometric condition first
holds on a class's owner directions (the slow phase T1) and the iterations
after (the fast phase T2).  The calculators bound, from distribution-level
constants alone: the per-class gradient magnitude (cp_upper_bound), the
probability mass of the spherical cap any unit direction keeps activated
(p_r_lower_bound), the length of the slow phase (t1_bound), and the summed
squared class losses over the fast phase (phase2_sum_bound).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DROP_TOL, GC_TOL, _lp_holds, gc_check, gc_slack_batch
from .training import TrainResult

__all__ = [
    "BoundInputs",
    "PhaseReport",
    "NormViolation",
    "sphere_area",
    "cp_upper_bound",
    "p_r_lower_bound",
    "t1_bound",
    "phase2_sum_bound",
    "monotonicity_step_threshold",
    "detect_phases",
    "monotonicity_audit",
    "owner_norm_violations",
    "nonowner_norm_violations",
]


@dataclass(frozen=True)
class BoundInputs:
    """Distribution- and run-level constants feeding the bound calculators.

    radius is a bound on the weight matrix norm along the run (measured, or
    assumed); data_min/data_max bound sample norms inside the class subspace;
    density_min/density_max bound the sampling density there.
    """

    v: float
    eta: float
    radius: float
    data_min: float
    data_max: float
    density_min: float
    density_max: float
    subspace_dim: int
    n_classes: int

    def __post_init__(self):
        for name in ("v", "eta", "radius", "data_max", "density_max"):
            if not (getattr(self, name) > 0.0 and math.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be positive and finite")
        if not (0.0 < self.data_min <= self.data_max):
            raise ValueError("need 0 < data_min <= data_max")
        if not (0.0 <= self.density_min <= self.density_max):
            raise ValueError("need 0 <= density_min <= density_max")
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be at least 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")


def sphere_area(m: int) -> float:
    """Surface area of the unit m-sphere: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    if m < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def cp_upper_bound(bi: BoundInputs) -> float:
    """Upper bound on any per-class gradient coefficient: data_max^(dim-1) * density_max."""
    return bi.data_max ** (bi.subspace_dim - 1) * bi.density_max


def _sin_power_integral(m: int, beta: float) -> float:
    """integral_0^beta sin(t)^m dt for 0 < beta < pi/2, in closed form.

    Up to pi/4, substituting u = sin t gives the all-positive series
    sum_n C(2n, n) / 4^n * sin(beta)^(m+2n+1) / (m+2n+1), whose terms shrink
    at least as fast as sin(beta)^2 <= 1/2.  Above pi/4, the upward recurrence
    I_j = ((j-1) I_(j-2) - sin(beta)^(j-1) cos(beta)) / j runs from
    I_0 = beta or I_1 = 2 sin(beta/2)^2; its rounding error grows by about
    1 / sin(beta)^2 <= 2 every second index, which keeps m <= 20 within
    3e-13 relative.  (Below pi/4 the same recurrence, or I_1 = 1 - cos(beta),
    cancels nearly every digit once beta is small.)
    """
    s = math.sin(beta)
    if beta <= math.pi / 4:
        coef, power, total, n = 1.0, s ** (m + 1), 0.0, 0
        while True:
            term = coef * power / (m + 2 * n + 1)
            if total + term == total:
                return total
            total += term
            coef *= (2 * n + 1) / (2 * n + 2)
            power *= s * s
            n += 1
    c = math.cos(beta)
    integral = 2.0 * math.sin(beta / 2.0) ** 2 if m % 2 else beta
    for j in range(2 + m % 2, m + 1, 2):
        integral = ((j - 1) * integral - s ** (j - 1) * c) / j
    return integral


def p_r_lower_bound(bi: BoundInputs) -> float:
    """Lower bound on the activated-cap mass for unit directions at radius R.

    With sin(beta) = 1 / (2 v data_max radius), the bound is
    density_min * (|S^(dim-2)| / |S^(dim-1)|) * integral_0^beta sin(t)^(dim-2) dt,
    requiring beta < pi/2, i.e. 2 v data_max radius > 1.  The closed-form
    integral keeps its accuracy only up to subspace_dim 22.
    """
    if bi.subspace_dim < 2:
        raise ValueError("cap bound needs subspace_dim >= 2")
    if bi.subspace_dim > 22:
        raise ValueError(f"cap bound is accurate only up to subspace_dim 22, got {bi.subspace_dim}")
    s = 2.0 * bi.v * bi.data_max * bi.radius
    if not (s > 1.0):
        raise ValueError(f"need 2 * v * data_max * radius > 1, got {s}")
    beta = math.asin(1.0 / s)
    integral = _sin_power_integral(bi.subspace_dim - 2, beta)
    ratio = sphere_area(bi.subspace_dim - 2) / sphere_area(bi.subspace_dim - 1)
    return bi.density_min * ratio * integral


def t1_bound(bi: BoundInputs) -> float:
    """Upper bound on the number of slow-phase iterations: C_p R / (v eta p_R^2)."""
    p_r = p_r_lower_bound(bi)
    if p_r == 0.0:
        raise ValueError("cap mass bound is zero (density_min = 0); slow-phase bound undefined")
    return cp_upper_bound(bi) * bi.radius / (bi.v * bi.eta * p_r**2)


def phase2_sum_bound(bi: BoundInputs) -> float:
    """Upper bound on the summed squared class losses over the fast phase:
    4 v n^2 C_p R^2 M^2 R / eta."""
    return (
        4.0
        * bi.v
        * bi.n_classes**2
        * cp_upper_bound(bi)
        * bi.radius**2
        * bi.data_max**2
        * bi.radius
        / bi.eta
    )


def monotonicity_step_threshold(r: float, bi: BoundInputs) -> float:
    """Largest step size for which the non-owner guarantee applies: below
    min(r / (cp * data_max^2), r / (2 * v * n_classes * data_max)) with cp
    from cp_upper_bound, non-owner norms above r cannot grow."""
    if not (r > 0.0):
        raise ValueError("r must be positive")
    cp = cp_upper_bound(bi)
    return min(r / (cp * bi.data_max**2), r / (2.0 * bi.v * bi.n_classes * bi.data_max))


@dataclass(frozen=True)
class PhaseReport:
    """Geometric-condition timeline for one class along a recorded run.

    The slow phase T1 is the snapshots where the condition fails and the fast
    phase T2 those where it holds, each with its summed squared class loss;
    first_hold is the time of the first hold, and persistence the share of
    snapshots from there on that hold.
    """

    class_label: int
    times: tuple[int, ...]
    gc_timeline: tuple[bool, ...]
    sum_sq_loss_t1: float
    sum_sq_loss_t2: float

    def _first_index(self) -> int | None:
        return self.gc_timeline.index(True) if True in self.gc_timeline else None

    @property
    def first_hold(self) -> int | None:
        first = self._first_index()
        return None if first is None else self.times[first]

    @property
    def t1_size(self) -> int:
        return self.gc_timeline.count(False)

    @property
    def t2_size(self) -> int:
        return self.gc_timeline.count(True)

    @property
    def persistence(self) -> float | None:
        first = self._first_index()
        return None if first is None else float(np.mean(self.gc_timeline[first:]))

    def to_json_dict(self) -> dict:
        return {
            "class_label": self.class_label,
            "times": list(self.times),
            "gc_timeline": list(self.gc_timeline),
            "first_hold": self.first_hold,
            "t1_size": self.t1_size,
            "t2_size": self.t2_size,
            "persistence": self.persistence,
            "sum_sq_loss_t1": self.sum_sq_loss_t1,
            "sum_sq_loss_t2": self.sum_sq_loss_t2,
        }


# Allowance for rounding in a computed slack: planar gaps come from arctan2
# and a sort (error ~1e-15); subset slacks from normals above the near-zero
# cutoff of gc_slack_batch (error below 1e-10).
_SLACK_ROUNDING = 1e-9


def _lp_band(k: int) -> float:
    """Half-width of the slack band around zero in which the LP decides."""
    q = 2.0 * k * GC_TOL
    if q >= 0.5:
        return math.inf
    return 2.0 * math.asin(q / (1.0 - q)) + _SLACK_ROUNDING


def detect_phases(result: TrainResult, class_label: int) -> PhaseReport:
    """Geometric-condition timeline of the class's owner directions over every record.

    Each record's weight matrix is one snapshot; for a faithful phase split
    train with record_every=1.  The records are read, never changed.  A
    snapshot whose owner columns are all numerically zero, or whose verdict
    is degenerate, counts as not holding.  The verdict is gc_check's (the LP
    with its certificate): "holds", at GC_TOL.

    The whole timeline is judged at once from the signed slack of
    gc_slack_batch over the (T, k, d) stack of owner directions: a slack below
    -band holds, one above band fails.  Of a positive slack only `> band` is
    read.  For d >= 3 gc_slack_batch returns a lower bound of it, which still
    exhibits a covering hemisphere when above band and goes to the LP
    otherwise, so the verdict is the same.  gc_check runs only where the
    slack cannot stand in for the LP:
      * snapshots with a column of norm <= DROP_TOL or a near-zero subset
        normal (shared rays) before any positive subset, whose slack is NaN;
      * snapshots with |slack| <= band;
      * for d != 2, snapshots whose slack holds, since only the planar slack
        bounds the LP optimum;
    and, as a check on the batch, at snapshot 0 and at every snapshot where
    the timeline flips, first_hold among them.  If a check disagrees with a
    batch verdict, the whole timeline is recomputed through gc_check.

    The band, for k owners and tol = GC_TOL: band = 2 asin(2 k tol / (1 - 2 k tol))
    + 1e-9, the last term covering rounding in the slack (everything goes to
    the LP once 2 k tol >= 1/2).  A planar max gap pi - delta leaves the disc of
    radius r = sin(delta / 2) inside the hull, and then the LP optimum is at
    least r / (k (1 + r)): the centroid c and the hull point -r c / |c| mix
    to zero with weight at least r / (k (|c| + r)) on every direction.  Below
    -band this bound is at least 2 tol, so the LP margin clears tol with room
    for its own rounding; the disc also keeps the rank guard satisfied.
    Above band the directions lie in an open half-plane (or, for d >= 3, in a
    closed hemisphere), which the LP can only call failing or degenerate.
    """
    owner_cols = result.params.output.owner_columns(class_label)
    if owner_cols.size == 0:
        raise ValueError(f"class {class_label} owns no hidden units")

    records = result.records
    W = records.weights[:, :, owner_cols]
    T, d, k = W.shape
    norms = np.linalg.norm(W, axis=1)
    kept = np.all(norms > DROP_TOL, axis=1)
    slack = np.full(T, np.nan)
    slack[kept] = gc_slack_batch(np.swapaxes(W[kept] / norms[kept, None, :], 1, 2))
    band = _lp_band(k)
    flags = slack < -band
    decided = flags | (slack > band)
    if d != 2:
        decided &= ~flags

    def lp_holds(i: int) -> bool:
        return _lp_holds(records.weights[i], owner_cols, gc_check)

    for i in np.flatnonzero(~decided):
        flags[i] = lp_holds(i)
    checks = np.concatenate(([0], np.flatnonzero(flags[1:] != flags[:-1]) + 1))
    if any(lp_holds(i) != flags[i] for i in checks if decided[i]):
        flags = np.array([lp_holds(i) for i in range(T)])

    # A class the run did not train on has no loss column; its losses are 0.
    labels = records.labels
    losses = records.loss_per_class[:, labels.index(class_label)] if class_label in labels else np.zeros(T)
    return PhaseReport(
        class_label=class_label,
        times=tuple(records.t.tolist()),
        gc_timeline=tuple(flags.tolist()),
        sum_sq_loss_t1=float((losses[~flags] ** 2).sum()),
        sum_sq_loss_t2=float((losses[flags] ** 2).sum()),
    )


@dataclass(frozen=True)
class NormViolation:
    t_from: int
    t_to: int
    unit: int
    kind: str  # "owner_decrease" | "nonowner_increase"
    delta: float


# A norm step counts as a violation only beyond this.
_NORM_TOL = 1e-12


def _norm_steps(norms: np.ndarray, times, cols, kind: str, flagged) -> list[NormViolation]:
    """NormViolations, in (time, unit) order, for the consecutive steps of the
    chosen columns that flagged(before, delta) marks."""
    cols = np.asarray(cols, dtype=int)
    before = norms[: len(times), cols]
    delta = np.diff(before, axis=0)
    steps, units = np.nonzero(flagged(before[:-1], delta))
    return [
        NormViolation(int(times[a]), int(times[a + 1]), int(cols[j]), kind, float(delta[a, j]))
        for a, j in zip(steps, units)
    ]


def owner_norm_violations(norms: np.ndarray, times, cols) -> list[NormViolation]:
    """Owner-unit norms must never drop: flag every consecutive decrease beyond _NORM_TOL."""
    return _norm_steps(norms, times, cols, "owner_decrease", lambda before, delta: delta < -_NORM_TOL)


def nonowner_norm_violations(norms: np.ndarray, times, cols, r: float) -> list[NormViolation]:
    """Non-owner norms above r must not grow; only meaningful below the step threshold."""
    return _norm_steps(
        norms, times, cols, "nonowner_increase", lambda before, delta: (before > r) & (delta > _NORM_TOL)
    )


def monotonicity_audit(
    result: TrainResult,
    class_label: int,
    r: float | None = None,
    bounds: BoundInputs | None = None,
) -> list[NormViolation]:
    """Audit a no-bias, single-class run against the norm monotonicity guarantees.

    Owner-unit decreases are always flagged.  Non-owner increases above radius
    r are flagged only when r and bound inputs are supplied and the run's step
    size sits below monotonicity_step_threshold; outside that regime the
    guarantee makes no claim, so nothing is checked.
    """
    if result.params.mode != "no-bias":
        raise ValueError("the monotonicity audit applies to no-bias runs only")
    if result.records.labels != (class_label,):
        raise ValueError(
            f"the audit needs a run trained on class {class_label} alone, "
            f"got train classes {result.records.labels}"
        )
    norms, times = result.records.neuron_norms, result.records.t
    owner_cols = result.params.output.owner_columns(class_label)
    violations = owner_norm_violations(norms, times, owner_cols)
    if r is not None and bounds is not None and result.config.eta < monotonicity_step_threshold(r, bounds):
        nonowner_cols = np.flatnonzero(result.params.output.owner != class_label)
        violations += nonowner_norm_violations(norms, times, nonowner_cols, r)
    return violations
