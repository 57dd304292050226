"""Geometric condition on unit weight directions, with certificates.

The condition asks whether the origin lies strictly inside the convex hull of
the normalized directions, equivalently whether no closed hemisphere contains
all of them.  The primary checker poses it as a linear program
(max epsilon s.t. sum lambda_j dir_j = 0, sum lambda_j = 1, lambda_j >= epsilon)
solved by the in-repo simplex, plus a span-rank guard: a positive optimum only
certifies the relative interior, so direction sets that do not span the space
are reported degenerate rather than holding.

Every non-degenerate answer carries a checkable witness: hull coefficients
for "holds", a unit separator with nonnegative dots for "fails".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Rng
from .simplex import solve_equality_lp

__all__ = [
    "DirectionSet",
    "GcCertificate",
    "gc_check",
    "gc_check_2d",
    "verify_certificate",
    "gc_probability",
    "gc_probability_mc",
]

# An LP margin or planar angle margin within this of zero is degenerate, and
# a certificate is rechecked to this.
GC_TOL = 1e-9
# A weight column at most this long has no direction and is left out.
DROP_TOL = 1e-12

_TWO_PI = 2.0 * math.pi
# Cofactor normals of unit directions carry rounding below ~1e-14 for small
# d, so a normal above this norm keeps the rounding of normalized dots below
# 1e-10.
_NEAR_ZERO_NORMAL = 1e-4
# Rng.normal pairs its uniforms within one call, so the chunk size fixes
# which numbers every estimate is drawn from.
_MC_CHUNK = 32768
# 8192-set blocks left landscape-mc's peak RSS 3.5 MiB higher, and 2048-set
# blocks no lower.
_MC_BLOCK = 4096
# gc_slack_batch's d >= 3 loop shifts the sets still in it to the front of
# its rows once they are at most this share of the sets it shifted last
# time.  On the first chunk of gc-prob's seed-0 (4, 8) cell, in _MC_BLOCK
# blocks, the loop took 3.1-5.9 us per set when it shifted at every
# departure, 2.8-4.1 at a share of 1/2, 2.4-3.4 at 3/4 and 2.5-3.3 at 9/10
# (medians of 15 passes in each of five runs, 2-vCPU Xeon, numpy 2.4); 3/4
# was the fastest share in four of the five runs.
_COMPACT_LIVE = 0.75


@dataclass(frozen=True)
class DirectionSet:
    """Unit direction rows (k, d)."""

    dirs: np.ndarray

    def __post_init__(self):
        dirs = np.array(self.dirs, dtype=float, copy=True)
        if dirs.ndim != 2 or dirs.shape[0] == 0:
            raise ValueError("need at least one direction")
        norms = np.linalg.norm(dirs, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("directions must be unit vectors to 1e-12")
        dirs.flags.writeable = False
        object.__setattr__(self, "dirs", dirs)

    @property
    def k(self) -> int:
        return self.dirs.shape[0]

    @property
    def d(self) -> int:
        return self.dirs.shape[1]

    @classmethod
    def from_weight_matrix(cls, W: np.ndarray, columns=None) -> "DirectionSet":
        """Normalize the chosen columns of W; columns with norm <= DROP_TOL are left out."""
        W = np.asarray(W, dtype=float)
        cols = np.arange(W.shape[1]) if columns is None else np.asarray(columns, dtype=int)
        norms = np.linalg.norm(W[:, cols], axis=0)
        keep = norms > DROP_TOL
        if not np.any(keep):
            raise ValueError("every selected column is numerically zero")
        return cls((W[:, cols[keep]] / norms[keep]).T)


@dataclass(frozen=True)
class GcCertificate:
    """Verdict plus witness.  margin is positive when the condition holds:
    gc_check's LP optimum, the least hull weight (None if the program was
    infeasible, i.e. the origin is not even in the affine hull), or
    gc_check_2d's angle, pi minus the largest gap between directions."""

    verdict: str  # "holds" | "fails" | "degenerate"
    margin: float | None
    hull_coeffs: np.ndarray | None = None
    separator: np.ndarray | None = None


def _separator_from_dual(y: np.ndarray, d: int) -> np.ndarray:
    head = y[:d]
    norm = np.linalg.norm(head)
    if norm == 0.0:
        raise RuntimeError("degenerate dual vector cannot separate")
    return -head / norm


def gc_check(ds: DirectionSet) -> GcCertificate:
    D = ds.dirs.T  # (d, k)
    d, k = D.shape
    s = D.sum(axis=1)
    A = np.zeros((d + 1, k + 2))
    A[:d, :k] = D
    A[:d, k] = s
    A[:d, k + 1] = -s
    A[d, :k] = 1.0
    A[d, k] = k
    A[d, k + 1] = -k
    b = np.zeros(d + 1)
    b[d] = 1.0
    c = np.zeros(k + 2)
    c[k] = -1.0
    c[k + 1] = 1.0

    res = solve_equality_lp(c, A, b, tol=GC_TOL)
    if res.status == "infeasible":
        return GcCertificate(verdict="fails", margin=None, separator=_separator_from_dual(res.farkas, d))
    if res.status != "optimal":
        raise RuntimeError(f"unexpected LP status {res.status}")
    eps = -res.objective
    if eps > GC_TOL:
        if np.linalg.matrix_rank(D) < d:
            return GcCertificate(verdict="degenerate", margin=eps)
        lam = res.x[:k] + eps
        return GcCertificate(verdict="holds", margin=eps, hull_coeffs=lam)
    if eps < -GC_TOL:
        return GcCertificate(verdict="fails", margin=eps, separator=_separator_from_dual(res.dual, d))
    return GcCertificate(verdict="degenerate", margin=eps)


def gc_check_2d(ds: DirectionSet) -> GcCertificate:
    """Planar oracle: the condition holds exactly when the largest angular gap
    between consecutive directions is below pi.  Witnesses come from elementary
    constructions, independent of the linear-programming path.

    The margin is an angle, pi minus the largest gap, while gc_check's margin
    is the LP's least hull weight, so the two degenerate bands of width GC_TOL
    differ: near the boundary one checker may call a set degenerate that the
    other decides.  They never reach opposite holds/fails verdicts."""
    if ds.d != 2:
        raise ValueError(f"planar checker needs d = 2, got d = {ds.d}")
    raw = np.arctan2(ds.dirs[:, 1], ds.dirs[:, 0]) % _TWO_PI
    order = np.argsort(raw)
    ang = raw[order]
    k = ang.size
    gaps = np.empty(k)
    gaps[: k - 1] = np.diff(ang)
    gaps[k - 1] = ang[0] + _TWO_PI - ang[k - 1]
    g = int(np.argmax(gaps))
    max_gap = float(gaps[g])
    margin = math.pi - max_gap  # same sign convention as the LP: positive means holds

    if max_gap > math.pi + GC_TOL:
        start = ang[(g + 1) % k]
        mid = start + (_TWO_PI - max_gap) / 2.0
        sep = np.array([math.cos(mid), math.sin(mid)])
        return GcCertificate(verdict="fails", margin=margin, separator=sep)
    if max_gap >= math.pi - GC_TOL:
        return GcCertificate(verdict="degenerate", margin=margin)

    # Holds: for each direction u_i, write -u_i as a nonnegative combination
    # a*u_p + b*u_q of the two directions whose wedge contains it, and
    # average the normalized combinations u_i + a*u_p + b*u_q = 0 over i.
    # Every direction then carries positive weight, and they span R^2.
    dirs = ds.dirs[order]
    lam = np.zeros(k)
    for i in range(k):
        pos = int(np.searchsorted(ang, (ang[i] + math.pi) % _TWO_PI))
        lo, hi = (pos - 1) % k, pos % k
        a, b = np.linalg.solve(np.column_stack([dirs[lo], dirs[hi]]), -dirs[i])
        a, b = max(a, 0.0), max(b, 0.0)  # clear fp noise; the wedge guarantees nonnegativity
        lam[[i, lo, hi]] += np.array([1.0, a, b]) / (1.0 + a + b)
    hull = np.empty(k)
    hull[order] = lam / k
    return GcCertificate(verdict="holds", margin=margin, hull_coeffs=hull)


def verify_certificate(ds: DirectionSet, cert: GcCertificate) -> bool:
    """Recheck a certificate against its direction set from scratch.

    A "holds" witness lambda sums the directions to the origin as a convex
    combination, and the directions whose lambda exceeds GC_TOL must span R^d,
    or the origin may lie on the hull's boundary.  The span test is the rank
    rule of gc_check's guard, written out: the least of the d singular values
    of those m directions must exceed max(m, d) * machine epsilon * the largest.
    """
    if cert.verdict == "holds":
        lam = cert.hull_coeffs
        if lam is None or lam.shape != (ds.k,):
            return False
        if np.any(lam < -GC_TOL):
            return False
        if abs(float(lam.sum()) - 1.0) > GC_TOL:
            return False
        if float(np.linalg.norm(lam @ ds.dirs)) > GC_TOL:
            return False
        support = ds.dirs[lam > GC_TOL]
        if support.shape[0] < ds.d:
            return False
        sv = np.linalg.svd(support, compute_uv=False)
        return bool(sv[-1] > max(support.shape) * np.finfo(float).eps * sv[0])
    if cert.verdict == "fails":
        n = cert.separator
        if n is None or n.shape != (ds.d,):
            return False
        if abs(float(np.linalg.norm(n)) - 1.0) > GC_TOL:
            return False
        return float((ds.dirs @ n).min()) >= -GC_TOL
    return cert.hull_coeffs is None and cert.separator is None


def _lp_holds(W: np.ndarray, columns=None, check=None) -> bool:
    """Whether the LP verdict on the chosen columns of W is "holds"; a set
    with no column longer than DROP_TOL does not hold.  The verdict is
    check's, gc_check unless a caller passes the gc_check it has bound, so
    that a wrapper or stand-in installed in the caller's module is used."""
    try:
        ds = DirectionSet.from_weight_matrix(W, columns)
    except ValueError:
        return False
    return (check or gc_check)(ds).verdict == "holds"


def gc_probability(d: int, k: int) -> float:
    """Closed-form probability that k symmetric random directions in R^d satisfy
    the condition: 2^(1-k) * sum_{j=d}^{k-1} C(k-1, j).  The sum is an exact
    big int, and its int true division by 2^(k-1) is correctly rounded."""
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    total = sum(math.comb(k - 1, j) for j in range(d, k))
    return total / 2 ** (k - 1)


def _max_gap(dirs: np.ndarray) -> np.ndarray:
    """Largest angular gap between consecutive directions of each planar set in a (T, k, 2) stack."""
    ang = np.sort(np.arctan2(dirs[:, :, 1], dirs[:, :, 0]), axis=1)
    gaps = np.diff(ang, axis=1)
    wrap = ang[:, 0] + _TWO_PI - ang[:, -1]
    return np.maximum(gaps.max(axis=1), wrap)


def _two_lane_sum(terms: list) -> np.ndarray:
    """Sum of d >= 2 rows in the order np.einsum gives a contiguous reduction
    axis of fewer than 8 doubles on numpy 2.4: even and odd terms in two
    lanes, then lane 0 + lane 1, (p0 + p2) + p1 for d = 3 and (p0 + p2) +
    (p1 + p3) for d = 4.  A left-to-right sum differs from einsum's in the
    last bit of about 39% of (30000, 8, 4) dots.  The terms are fresh rows
    and are summed in place."""
    lanes = terms[0], terms[1]
    for i in range(2, len(terms)):
        lanes[i % 2][...] += terms[i]
    return lanes[0] + lanes[1]


def _subset_normal(x: list, subset: tuple, d: int) -> list:
    """The d rows of the cofactor normal of the subset's directions, the
    common orthogonal vector of its d - 1 directions: component c is
    (-1)^c times the minor without column c.  A 2x2 minor is a0 b1 - a1 b0,
    and a 3x3 minor is expanded along its first row, each term a product of
    an entry and a 2x2 minor; from d = 5 each minor is np.linalg.det's.
    x[j][c] is component c of direction j over the sets the loop holds,
    one contiguous row."""
    if d == 3:
        a, b = (x[j] for j in subset)
        return [a[1] * b[2] - a[2] * b[1], -(a[0] * b[2] - a[2] * b[0]), a[0] * b[1] - a[1] * b[0]]
    if d == 4:
        # The six 2x2 minors of the last two directions, shared by the four
        # 3x3 cofactors.
        a, b, e = (x[j] for j in subset)
        minor = {(p, q): b[p] * e[q] - b[q] * e[p] for p, q in combinations(range(4), 2)}
        normal = []
        for c in range(4):
            c0, c1, c2 = (j for j in range(4) if j != c)
            det = a[c0] * minor[c1, c2] - a[c1] * minor[c0, c2] + a[c2] * minor[c0, c1]
            normal.append(-det if c % 2 else det)
        return normal
    # d >= 5: each minor is gathered as an (m, d-1, d-1) block for np.linalg.det.
    sub = np.stack([np.stack(x[j]) for j in subset]).transpose(2, 0, 1)
    return [(-1.0) ** c * np.linalg.det(np.delete(sub, c, axis=2)) for c in range(d)]


def gc_slack_batch(dirs: np.ndarray) -> np.ndarray:
    """Signed slack of the geometric condition for a (T, k, d) stack of
    unit-direction sets: negative where the origin is strictly inside the
    hull of the directions, positive where a closed hemisphere holds them all.

    For d = 2 the slack is max_gap - pi.  For d >= 3 it is the largest, over
    the subsets of d-1 directions, of max(min dot, -max dot) taken over the
    other directions' dots with the subset's unit normal.  A positive value
    exhibits a covering hemisphere.  A negative value rules one out, because a
    covering hemisphere, when one exists, can be taken orthogonal to d-1
    independent directions.  Sets with k <= d never satisfy the condition and
    get +inf.  Where a subset normal has norm at most _NEAR_ZERO_NORMAL
    (nearly dependent subset directions, such as shared or opposite rays)
    the normalized dots are not accurate, and the slack is NaN.

    A d >= 3 set leaves the subset loop as soon as its running slack is
    positive or NaN, since later subsets could only raise a positive slack or
    keep a NaN.  A negative slack or a NaN is therefore the same as over every
    subset, while a positive slack is a lower bound: the largest value over
    the subsets taken so far, some of which may lie beyond a near-zero normal.

    The d >= 3 loop runs on one component-major copy of the stack, a
    C-contiguous (k, d, T) array, so each component of each direction over
    the sets in the loop is one contiguous row.  A set's slack is recorded
    at the subset where it leaves, and a (T,) bool mask marks it off.
    Departed sets are compacted out of every row in place only once a
    quarter of the sets shifted last time has left (_COMPACT_LIVE); until
    then their later values are computed and never read.  Each set's values
    come from its own columns alone, so when it is compacted does not change
    them.  The loop's memory is that copy, a fixed number of (T,) rows (at
    most 20 for d = 3 and 4) and the mask, whatever the input's layout.  The
    dots and the normal's length are summed in numpy's order for d < 8
    (_two_lane_sum; the squares left to right, as np.add.reduce sums a short
    axis), so the slacks equal those of a loop on np.einsum and
    np.linalg.norm over a C-ordered stack bit for bit.
    """
    if dirs.ndim != 3:
        raise ValueError("need a (T, k, d) array")
    T, k, d = dirs.shape
    if k <= d:
        return np.full(T, np.inf)
    if d == 1:
        x = dirs[:, :, 0]
        return np.maximum(x.min(axis=1), -x.max(axis=1))
    if d == 2:
        return _max_gap(dirs) - math.pi
    stack = np.ascontiguousarray(np.moveaxis(dirs, 0, 2))
    slack = np.empty(T)
    # The first rows.size columns of stack hold the sets not yet shifted
    # out, and x[j][c] is the row of component c of direction j over them;
    # rows are their rows in dirs and running their running slacks.  live
    # marks those still in the loop, n_live of them: a set that leaves keeps
    # its columns until the next compaction, and its later values are not
    # read.
    rows, running, live = np.arange(T), np.full(T, -np.inf), np.ones(T, dtype=bool)
    n_live = T
    x = [list(block) for block in stack]
    for subset in combinations(range(k), d - 1):
        normal = _subset_normal(x, subset, d)
        dots = (_two_lane_sum([x[j][c] * normal[c] for c in range(d)]) for j in range(k) if j not in subset)
        lo = next(dots)
        hi = lo.copy()
        for dot in dots:
            np.minimum(lo, dot, out=lo)
            np.maximum(hi, dot, out=hi)
        side = np.maximum(lo, np.negative(hi, out=hi), out=lo)
        size = normal[0] * normal[0]
        for c in range(1, d):
            size += normal[c] * normal[c]
        del normal, dots, hi, lo
        np.sqrt(size, out=size)
        near_zero = size <= _NEAR_ZERO_NORMAL
        size[near_zero] = 1.0
        side /= size
        side[near_zero] = np.nan
        np.maximum(running, side, out=running)
        del side, size
        gone = ~(running <= 0.0)  # a positive or NaN slack
        gone &= live  # a set that left before keeps the slack it left with
        left = np.count_nonzero(gone)
        if left:
            slack[rows[gone]] = running[gone]
            live ^= gone
            n_live -= left
            if not n_live:
                break
            if n_live <= _COMPACT_LIVE * rows.size:
                keep = np.flatnonzero(live)
                rows, running, live = rows[keep], running[keep], live[keep]
                for row in stack.reshape(k * d, T):
                    row[:n_live] = row[keep]
                x = [list(block) for block in stack[:, :, :n_live]]
    slack[rows[live]] = running[live]
    return slack


def gc_probability_mc(d: int, k: int, trials: int, rng: Rng) -> tuple[float, float]:
    """Monte Carlo estimate and its standard error over `trials` direction sets.

    Directions are normalized Gaussian draws, judged by the sign of
    gc_slack_batch, which agrees with gc_check almost surely.  A set whose
    slack is NaN, with a subset normal too short to trust, is judged by
    gc_check itself, and an all-zero draw, with no direction, does not hold.

    The sets are drawn in chunks of _MC_CHUNK, each what one
    rng.normal((t, k, d)) call returns, so the chunk fixes the draws and
    the estimate.  Each chunk is read, normalized and judged in blocks of
    _MC_BLOCK sets, so the memory is a few blocks whatever trials is: at
    (k, d) = (8, 4) the peak is below three (_MC_BLOCK, k, d) blocks.  Each
    set's slack is computed on its own, so the block does not change it.
    """
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    if trials < 1:
        raise ValueError("trials must be positive")
    count = 0
    for done in range(0, trials, _MC_CHUNK):
        for raw in rng.normal_blocks(min(_MC_CHUNK, trials - done), (k, d), _MC_BLOCK):
            norms = np.linalg.norm(raw, axis=2)
            norms[norms == 0.0] = 1.0
            raw /= norms[:, :, None]
            slack = gc_slack_batch(raw)
            count += int((slack < 0.0).sum())
            count += sum(_lp_holds(raw[s].T) for s in np.flatnonzero(np.isnan(slack)))
            del raw, norms, slack  # so the next block is drawn without this one
    est = count / trials
    return est, math.sqrt(est * (1.0 - est) / trials)
