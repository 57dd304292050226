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
from functools import lru_cache
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
# Rng.normal pairs its uniforms within one call, so the chunk size fixes
# which numbers every estimate is drawn from.
_MC_CHUNK = 32768
# 8192-set blocks left landscape-mc's peak RSS 3.5 MiB higher, and 2048-set
# blocks no lower.
_MC_BLOCK = 4096


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


def _det_bound(d: int) -> float:
    """Bound on the rounding error of each determinant det[x_i; S] that
    gc_slack_batch computes from rows of norm at most r = 1 + 1e-12, so a
    computed value larger in size has the exact value's sign.

    d = 3, 4: each of the d! products of the Leibniz sum passes through at
    most n roundings (d = 3: a 2x2 minor 2, a product 1, a sum of three 2;
    d = 4: a 2x2 minor 2, the 3x3 cofactor 3, a product 1, a sum of four 3,
    in any order), so the error is at most gamma_n = n u / (1 - n u),
    u = 2^-53, times the permanent of |x| (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, Lemma 3.1), itself at most the product
    of the rows' l1 norms, sqrt(d) r each: 2.9e-15 at d = 3 (n = 5) and
    1.6e-14 at d = 4 (n = 9).  Underflow adds a few 2^-1074 at most.
    d >= 5: a minor of order m = d - 1 is np.linalg.det's, whose pivoted LU
    factors are exact for the minor plus E, |E_ij| <= gamma_m m 2^(m-1) r
    (Higham, Theorem 9.3), which moves it by at most (r + sqrt(m) max|E|)^m
    - r^m (multilinearity, Hadamard's inequality); numpy's sign *
    exp(sum log |u_ii|) adds m u (1/e + 2 m (m-1) ln 2) + 2 u at most, and
    the dot with x_i sqrt(d) r times that plus gamma_d r (1 + sqrt(d) times
    that).  The bound doubles the total: 5.4e-13 at d = 5.
    """
    u, r = 2.0**-53, 1.0 + 1e-12

    def gamma(n: int) -> float:
        return n * u / (1.0 - n * u)

    if d <= 4:
        return gamma(5 if d == 3 else 9) * d ** (d / 2) * r**d
    m = d - 1
    lu = (r + math.sqrt(m) * gamma(m) * m * 2 ** (m - 1) * r) ** m - r**m
    minor = lu + m * u * (1.0 / math.e + 2 * m * (m - 1) * math.log(2.0)) + 2 * u
    return 2.0 * (math.sqrt(d) * r * minor + gamma(d) * r * (1.0 + math.sqrt(d) * minor))


def _normals(x: np.ndarray, d: int):
    """(S, normal) for each (d-1)-subset S of directions 1..k-1 of a (k, d, T)
    stack x: the d rows over the sets of S's cofactor normal, normal . x_i =
    det[x_i; S], overwritten by the next S.  For d = 3 and 4 each cofactor
    is expanded along S[0] over the entries, or the six 2x2 minors, of S's
    last d - 2 directions, shared by each S that ends in them; from d = 5
    each cofactor is np.linalg.det's."""
    k, _, T = x.shape
    if d >= 5:
        for S in combinations(range(1, k), d - 1):
            sub = x[list(S)].transpose(2, 0, 1)
            yield S, [(-1.0) ** c * np.linalg.det(np.delete(sub, c, axis=2)) for c in range(d)]
        return
    keys = list(combinations(range(d), d - 2))
    normal, term, minors = np.empty((d, T)), np.empty(T), np.empty((len(keys), T))
    # plan[c]: (column of S[0], minor, subtract?) per term, a positive one first.
    plan = []
    for c in range(d):
        cols = [i for i in range(d) if i != c]
        terms = [(cols[t], minors[keys.index(tuple(cols[:t] + cols[t + 1 :]))], (c + t) % 2) for t in range(d - 1)]
        plan.append(sorted(terms, key=lambda term: term[2]))
    for tail in combinations(range(2, k), d - 2):
        if d == 3:
            minors[...] = x[tail[0]]
        else:
            b, e = x[tail[0]], x[tail[1]]
            for row, (p, q) in zip(minors, keys):
                np.multiply(b[p], e[q], out=row)
                row -= np.multiply(b[q], e[p], out=term)
        for j in range(1, tail[0]):
            a = x[j]
            for row, ((col, minor, _), *rest) in zip(normal, plan):
                np.multiply(a[col], minor, out=row)
                for col, minor, subtract in rest:
                    (np.subtract if subtract else np.add)(row, np.multiply(a[col], minor, out=term), out=row)
            yield (j, *tail), normal


@lru_cache(maxsize=16)
def _dot_rows(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(C(k, d-1), k-d+1) read-only arrays: for each (d-1)-subset S and each
    i outside it, the colex rank of S + {i}, and whether det[x_i; S] is its
    determinant negated (an odd number of S below i)."""
    rows, flip = [], []
    for S in combinations(range(k), d - 1):
        others = [i for i in range(k) if i not in S]
        rows.append([sum(math.comb(u, p + 1) for p, u in enumerate(sorted((*S, i)))) for i in others])
        flip.append([sum(s < i for s in S) % 2 for i in others])
    rows, flip = np.array(rows), np.array(flip)
    rows.flags.writeable = flip.flags.writeable = False
    return rows, flip


def gc_slack_batch(dirs: np.ndarray) -> np.ndarray:
    """Signed verdict of the geometric condition for a (T, k, d) stack of
    unit-direction sets: negative where the origin is strictly inside the
    hull of the directions, positive where a closed hemisphere holds them
    all, NaN where rounding leaves it open.  Sets with k <= d get +inf.  For
    d = 1 the value is the slack max(min x, -max x), for d = 2 max_gap - pi.

    For d >= 3 it is -1.0, +1.0 or NaN.  The dot of x_i with the cofactor
    normal of a (d-1)-subset S is det[x_i; S], (-1)^(members of S below i)
    times the determinant of S + {i} in index order, so each of the C(k, d)
    determinants is computed once, and its sign counts only where it
    exceeds _det_bound(d) in size.  The set holds when every S has a
    certainly positive and a certainly negative dot (a closed hemisphere
    holding a spanning set can be turned until its boundary holds d - 1
    independent directions, and a set that does not span has no nonzero
    determinant), and fails when all of some S's dots are certain and of
    one sign.  Any other set, such as one with a shared ray, is NaN.

    The memory is a C-contiguous (k, d, T) copy of the stack (none if dirs
    is a view of one), two bits per determinant and, for d = 3 and 4, 12
    float and 2 bool (T,) rows at most.
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
    x = np.ascontiguousarray(np.moveaxis(dirs, 0, 2))
    bound = _det_bound(d)
    # Bit t of sure[0, r] (sure[1, r]) is set where the determinant of the
    # d-subset of colex rank r is certainly positive (negative) in set t.
    sure = np.empty((2, math.comb(k, d), (T + 7) // 8), dtype=np.uint8)
    det, flag = np.empty(T), np.empty((2, T), dtype=bool)
    for S, normal in _normals(x, d):
        # The d-subsets (i, *S), i < S[0], have colex ranks r + i.
        r = sum(math.comb(s, p + 2) for p, s in enumerate(S))
        for i in range(S[0]):
            np.einsum("ct,ct->t", x[i], normal, out=det)
            np.greater(det, bound, out=flag[0])
            np.less(det, -bound, out=flag[1])
            sure[:, r + i] = np.packbits(flag, axis=1)
    rows, flip = _dot_rows(k, d)
    mixed = np.bitwise_or.reduce(sure[flip, rows], axis=1)
    mixed &= np.bitwise_or.reduce(sure[1 - flip, rows], axis=1)
    one_sided = np.bitwise_and.reduce((sure[0] | sure[1])[rows], axis=1) & ~mixed
    verdict = np.full(T, np.nan)
    verdict[np.unpackbits(np.bitwise_and.reduce(mixed, axis=0), count=T).view(bool)] = -1.0
    verdict[np.unpackbits(np.bitwise_or.reduce(one_sided, axis=0), count=T).view(bool)] = 1.0
    return verdict


def gc_probability_mc(d: int, k: int, trials: int, rng: Rng) -> tuple[float, float]:
    """Monte Carlo estimate and its standard error over `trials` direction sets.

    Directions are normalized Gaussian draws, judged by gc_slack_batch's
    sign.  A set it leaves open (NaN), such as one with a shared ray, is
    judged by gc_check, and an all-zero draw, with no direction, fails.

    The sets are drawn in chunks of _MC_CHUNK, each what one
    rng.normal((t, k, d)) call returns, so the chunk fixes the draws and
    the estimate.  Each chunk is read, normalized and judged in blocks of
    _MC_BLOCK sets, so the memory is a few blocks whatever trials is: at
    (k, d) = (8, 4) the peak is below three (_MC_BLOCK, k, d) blocks.  Each
    set is judged on its own, so the block does not change its verdict.
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
            # The (k, d, T) layout gc_slack_batch reads, so that the block is
            # held once while it is judged and freed before the next is drawn.
            dirs = np.moveaxis(np.ascontiguousarray(np.moveaxis(raw, 0, 2)), 2, 0)
            del raw, norms
            slack = gc_slack_batch(dirs)
            count += int((slack < 0.0).sum())
            count += sum(_lp_holds(dirs[s].T) for s in np.flatnonzero(np.isnan(slack)))
            del dirs, slack  # so the next block is drawn without this one
    est = count / trials
    return est, math.sqrt(est * (1.0 - est) / trials)
