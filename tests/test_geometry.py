import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from reluphase import (
    DirectionSet,
    GcCertificate,
    Rng,
    gc_check,
    gc_check_2d,
    gc_probability,
    gc_probability_mc,
    verify_certificate,
)
from reluphase import geometry
from reluphase.geometry import (
    _MC_BLOCK,
    _MC_CHUNK,
    GC_TOL,
    _lp_holds,
    _max_gap,
    gc_slack_batch,
)


def unit_rows(a):
    a = np.asarray(a, dtype=float)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


TRIPOD = unit_rows([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
QUARTER = unit_rows([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
ANTIPODAL = np.array([[1.0, 0.0], [-1.0, 0.0]])
OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])


class TestDirectionSet:
    def test_requires_unit_rows(self):
        with pytest.raises(ValueError, match="unit"):
            DirectionSet(np.array([[2.0, 0.0]]))

    def test_from_weight_matrix_normalizes_and_drops(self):
        W = np.array([[3.0, 0.0, 1e-15], [4.0, 2.0, 0.0]])
        ds = DirectionSet.from_weight_matrix(W)
        np.testing.assert_allclose(ds.dirs, [[0.6, 0.8], [0.0, 1.0]], atol=1e-12)

    def test_from_weight_matrix_column_selection(self):
        W = np.array([[1.0, 5.0, -1.0], [0.0, 5.0, 0.0]])
        ds = DirectionSet.from_weight_matrix(W, columns=[0, 2])
        np.testing.assert_allclose(ds.dirs, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)

    def test_all_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            DirectionSet.from_weight_matrix(np.zeros((2, 3)))


class TestGcCheck:
    def test_tripod_holds_with_third_margin(self):
        cert = gc_check(DirectionSet(TRIPOD))
        assert cert.verdict == "holds"
        assert cert.margin == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert verify_certificate(DirectionSet(TRIPOD), cert)

    def test_quarter_circle_fails_with_separator(self):
        ds = DirectionSet(QUARTER)
        cert = gc_check(ds)
        assert cert.verdict == "fails"
        assert verify_certificate(ds, cert)
        assert np.all(ds.dirs @ cert.separator >= -1e-9)

    def test_antipodal_pair_degenerate(self):
        ds = DirectionSet(ANTIPODAL)
        assert gc_check(ds).verdict == "degenerate"
        assert gc_check_2d(ds).verdict == "degenerate"

    def test_rank_deficient_spread_is_degenerate(self):
        # Three directions on a line through the origin in R^3: the LP optimum
        # is positive but the set cannot surround the origin in full dimension.
        dirs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert gc_check(DirectionSet(dirs)).verdict == "degenerate"

    def test_single_direction_fails(self):
        ds = DirectionSet(np.array([[0.0, 1.0]]))
        cert = gc_check(ds)
        assert cert.verdict == "fails"
        assert verify_certificate(ds, cert)

    def test_simplex_holds_in_3d(self):
        dirs = unit_rows([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        cert = gc_check(DirectionSet(dirs))
        assert cert.verdict == "holds"
        assert verify_certificate(DirectionSet(dirs), cert)

    def test_hull_coefficients_reconstruct_origin(self):
        cert = gc_check(DirectionSet(TRIPOD))
        lam = cert.hull_coeffs
        assert lam.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(lam >= GC_TOL / 2)
        np.testing.assert_allclose(lam @ TRIPOD, [0.0, 0.0], atol=1e-9)


def boundary_family():
    """The delta family: planar sets of k directions whose largest gap is
    pi +- delta, each with its (k, delta, gap, turn)."""
    for k in (3, 4, 6):
        for delta in np.logspace(-13, -5, 17):
            for gap in (math.pi - delta, math.pi + delta):
                for turn in (0.0, 0.3, 1.1, 2.5):
                    rest = gap + np.arange(1, k - 1) * (2 * math.pi - gap) / (k - 1)
                    ang = turn + np.concatenate([[0.0, gap], rest])
                    yield (k, delta, gap, turn), np.column_stack([np.cos(ang), np.sin(ang)])


class TestPlanarOracle:
    def test_requires_planar_input(self):
        with pytest.raises(ValueError):
            gc_check_2d(DirectionSet(unit_rows([[1, 1, 1]])))

    def test_margin_is_pi_minus_max_gap(self):
        cert = gc_check_2d(DirectionSet(TRIPOD))
        assert cert.verdict == "holds"
        assert cert.margin == pytest.approx(math.pi - 2 * math.pi / 3, abs=1e-12)

    def test_agrees_with_lp_on_random_sets(self):
        rng = Rng(77)
        both = {"holds": 0, "fails": 0}
        for i in range(200):
            k = 3 + i % 6
            ds = DirectionSet(unit_rows(rng.normal((k, 2))))
            a = gc_check(ds)
            b = gc_check_2d(ds)
            if "degenerate" in (a.verdict, b.verdict):
                continue
            assert a.verdict == b.verdict
            assert verify_certificate(ds, a)
            assert verify_certificate(ds, b)
            both[a.verdict] += 1
        assert min(both.values()) > 20  # both outcomes genuinely exercised

    def test_agrees_with_lp_at_the_boundary(self):
        # Largest gap pi +- delta: the two checkers' degenerate bands differ
        # (an angle against the LP's least hull weight), so near the boundary
        # one may say degenerate where the other decides.  They must never
        # decide opposite ways, and every decided certificate must verify.
        decided = {"holds": 0, "fails": 0}
        split = 0
        for case, dirs in boundary_family():
            ds = DirectionSet(dirs)
            verdicts = set()
            for cert in (gc_check(ds), gc_check_2d(ds)):
                if cert.verdict != "degenerate":
                    assert verify_certificate(ds, cert), (*case, cert.verdict)
                    decided[cert.verdict] += 1
                verdicts.add(cert.verdict)
            assert verdicts != {"holds", "fails"}, case
            split += len(verdicts) > 1
        assert min(decided.values()) > 50 and split > 0

    def test_planar_witnesses_verify(self):
        for dirs in (TRIPOD, QUARTER):
            ds = DirectionSet(dirs)
            cert = gc_check_2d(ds)
            assert verify_certificate(ds, cert)


class TestVerifyCertificate:
    def test_rejects_corrupted_hull_coefficients(self):
        ds = DirectionSet(TRIPOD)
        cert = gc_check(ds)
        bad = GcCertificate(verdict="holds", margin=cert.margin, hull_coeffs=cert.hull_coeffs + 0.1)
        assert not verify_certificate(ds, bad)

    def test_rejects_corrupted_separator(self):
        ds = DirectionSet(QUARTER)
        cert = gc_check(ds)
        bad = GcCertificate(verdict="fails", margin=cert.margin, separator=-cert.separator)
        assert not verify_certificate(ds, bad)

    def test_rejects_missing_witness(self):
        ds = DirectionSet(TRIPOD)
        assert not verify_certificate(ds, GcCertificate(verdict="holds", margin=0.1))

    @pytest.mark.parametrize(
        "dirs,lam",
        [
            ([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5]),
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.5, 0.5, 0.0]),
        ],
        ids=["antipodal-pair", "antipodal-pair-plus-unweighted"],
    )
    def test_rejects_hull_witness_on_the_boundary(self, dirs, lam):
        # The weights sum the directions to the origin, but the weighted
        # directions span only a line: the origin is on the hull's boundary.
        ds = DirectionSet(np.array(dirs))
        cert = GcCertificate(verdict="holds", margin=0.1, hull_coeffs=np.array(lam))
        assert not verify_certificate(ds, cert)

    def test_rejects_ill_conditioned_span(self):
        # A thin rhombus holds the origin inside for any eps > 0, with exact
        # weights 1/4.  At eps = 1e-17 its span falls below the conditioning
        # guard, where the LP's rank guard calls the set degenerate too.
        cert = GcCertificate(verdict="holds", margin=0.0, hull_coeffs=np.full(4, 0.25))
        for eps, interior in ((1e-10, True), (1e-17, False)):
            ds = DirectionSet(unit_rows([[1.0, eps], [1.0, -eps], [-1.0, eps], [-1.0, -eps]]))
            assert verify_certificate(ds, cert) is interior
            assert (gc_check(ds).verdict == "holds") is interior

    @pytest.mark.parametrize("check", [gc_check, gc_check_2d], ids=["lp", "planar"])
    def test_axis_square_witness_weights_every_direction(self, check):
        ds = DirectionSet(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        cert = check(ds)
        assert cert.verdict == "holds"
        assert np.all(cert.hull_coeffs > GC_TOL)
        assert verify_certificate(ds, cert)

    @pytest.mark.parametrize(
        "dirs, tamper",
        [
            # A hull weight below -GC_TOL; the weights still sum to 1.
            (OCTAHEDRON, {"hull_coeffs": np.array([2, 1, 1, 1, 1, -1]) / 5}),
            # Weights that sum to 1 but combine the directions to e1 / 5.
            (OCTAHEDRON, {"hull_coeffs": np.array([1, 1, 1, 0, 1, 1]) / 5}),
            # Weight 1/2 on e1 and on -e1: a support of 2 < d = 3 directions.
            (OCTAHEDRON, {"hull_coeffs": np.array([1, 0, 0, 1, 0, 0]) / 2}),
            (QUARTER, {"separator": np.array([0.6, 0.8, 0.0])}),
            (QUARTER, {"separator": np.array([1.2, 1.6])}),
        ],
        ids=["negative-weight", "off-origin", "short-support", "separator-shape", "separator-not-unit"],
    )
    def test_rejects_each_tampered_witness(self, dirs, tamper):
        ds = DirectionSet(dirs)
        cert = gc_check(ds)
        assert verify_certificate(ds, cert)
        assert not verify_certificate(ds, replace(cert, **tamper))

    def test_degenerate_certificate_carries_no_witness(self):
        ds = DirectionSet(ANTIPODAL)
        cert = gc_check(ds)
        assert verify_certificate(ds, cert)


class TestProbability:
    def test_exact_values(self):
        assert gc_probability(2, 3) == 0.25
        assert gc_probability(2, 4) == 0.5
        assert gc_probability(3, 5) == pytest.approx(5.0 / 16.0, abs=0)
        assert gc_probability(4, 8) == 0.5

    def test_k_at_most_d_is_zero(self):
        for d in range(1, 6):
            assert gc_probability(d, d) == 0.0
            assert gc_probability(d, max(d - 1, 1)) == 0.0

    def test_d1_closed_form(self):
        for k in range(2, 10):
            assert gc_probability(1, k) == pytest.approx(1.0 - 2.0 ** (1 - k), abs=0)

    def test_float_of_the_exact_fraction(self):
        # The int true division rounds the exact quotient correctly, as
        # float(Fraction(total, 2 ** (k - 1))) does.
        for k in range(1, 200):
            tail, want = 0, [0.0] * (k + 1)
            for j in range(k - 1, 0, -1):
                tail += math.comb(k - 1, j)
                want[j] = float(Fraction(tail, 2 ** (k - 1)))
            assert [gc_probability(d, k) for d in range(1, k + 1)] == want[1:]

    def test_wide_limit_approaches_one(self):
        assert gc_probability(2, 64) > 0.999

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            gc_probability(0, 3)
        with pytest.raises(ValueError):
            gc_probability(2, 0)


def det_batch(M):
    """Determinants of a stack of square matrices: the 2x2 and 3x3 formulas
    written out, and np.linalg.det from 4x4 on."""
    m = M.shape[-1]
    if m == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if m == 3:
        return (
            M[..., 0, 0] * (M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1])
            - M[..., 0, 1] * (M[..., 1, 0] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 0])
            + M[..., 0, 2] * (M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0])
        )
    return np.linalg.det(M)


def null_vectors_by_delete(sub):
    """Common orthogonal vector of d-1 directions in R^d, by cofactor
    expansion, each minor cut out with np.delete."""
    T, m, d = sub.shape
    out = np.empty((T, d))
    for c in range(d):
        minor = np.delete(sub, c, axis=2)
        out[:, c] = (-1.0) ** c * det_batch(minor)
    return out


# A subset normal no longer than this gives the reference slack NaN: its
# normalized dots carry rounding up to about 1e-10.
NEAR_ZERO_NORMAL = 1e-4


def reference_slacks(dirs):
    """The signed slack of each set, an oracle written apart from
    gc_slack_batch's determinant signs: negative where the condition holds,
    positive where a closed hemisphere holds the set.  For d >= 3 it is the
    largest, over every (d-1)-subset, of max(min dot, -max dot) over the
    other directions' dots with the subset's unit normal, and NaN where a
    subset normal is no longer than NEAR_ZERO_NORMAL."""
    T, k, d = dirs.shape
    if k <= d:
        return np.full(T, np.inf)
    if d == 1:
        x = dirs[:, :, 0]
        return np.maximum(x.min(axis=1), -x.max(axis=1))
    if d == 2:
        return _max_gap(dirs) - math.pi
    full = np.full(T, -np.inf)
    for subset in combinations(range(k), d - 1):
        normal = null_vectors_by_delete(dirs[:, subset, :])
        dots = np.einsum("tkd,td->tk", dirs, normal)
        size = np.linalg.norm(normal, axis=1)
        others = np.delete(dots, subset, axis=1)
        side = np.maximum(others.min(axis=1), -others.max(axis=1))
        near_zero = size <= NEAR_ZERO_NORMAL
        full = np.maximum(full, np.where(near_zero, np.nan, side / np.where(near_zero, 1.0, size)))
    return full


def assert_matches_reference(dirs):
    """For d <= 2, or k <= d, gc_slack_batch's value equals the reference
    slack bit for bit.  For d >= 3 it is a verdict, -1.0, +1.0 or NaN, and
    it has the sign of every reference slack that is a number larger than
    1e-9 in size.  Returns gc_slack_batch's values."""
    got = gc_slack_batch(dirs)
    full = reference_slacks(dirs)
    T, k, d = dirs.shape
    if d < 3 or k <= d:
        assert np.array_equal(got, full, equal_nan=True)
        return got
    assert np.all((got == -1.0) | (got == 1.0) | np.isnan(got))
    clear = np.abs(full) > 1e-9
    assert np.array_equal(np.sign(got[clear]), np.sign(full[clear]))
    return got


class TestBatchChecker:
    def test_matches_lp_verdicts(self):
        rng = Rng(31)
        for d in (1, 2, 3, 4):
            for k in (d + 1, d + 3):
                dirs = rng.normal((40, k, d))
                dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
                got = assert_matches_reference(dirs) < 0.0
                for t in range(40):
                    if d == 1:
                        expect = bool(np.any(dirs[t, :, 0] > 0) and np.any(dirs[t, :, 0] < 0))
                    else:
                        expect = gc_check(DirectionSet(dirs[t])).verdict == "holds"
                    assert got[t] == expect, (d, k, t)

    def test_k_at_most_d_always_false(self):
        rng = Rng(5)
        dirs = rng.normal((10, 3, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        assert np.all(gc_slack_batch(dirs) == np.inf)

    def test_slack_magnitudes(self):
        # planar: max_gap - pi; the quarter fan leaves a gap of 3 pi / 2
        planar = gc_slack_batch(np.stack([TRIPOD, QUARTER]))
        assert planar == pytest.approx([2 * math.pi / 3 - math.pi, math.pi / 2], abs=1e-12)
        # regular tetrahedron: every pair's unit normal puts the other two
        # vertices at dots +-2/sqrt(6).  From d = 3 on gc_slack_batch gives
        # the verdict alone.
        tetra = unit_rows([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        assert reference_slacks(tetra[None]) == pytest.approx([-2.0 / math.sqrt(6)], abs=1e-12)
        assert gc_slack_batch(tetra[None])[0] == -1.0
        # a shared ray gives its subset no nonzero determinant, so a set
        # that holds cannot be shown to: the verdict is open
        shared = unit_rows([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
        assert exact_inside(shared.tolist()) is True
        assert np.isnan(gc_slack_batch(shared[None])[0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_pruned_slack_agrees_with_full_slack(self, d):
        rng = Rng(40 + d)
        for k in range(1, d + 5):
            dirs = unit_rows(rng.normal((300 * k, d))).reshape(300, k, d)
            assert_matches_reference(dirs)

    def test_pruned_slack_agrees_on_shared_rays(self):
        # A subset holding both copies of the shared ray has no nonzero
        # determinant, so such a set is never called holding.
        rng = Rng(9)
        for d, k in ((3, 5), (4, 7)):
            dirs = unit_rows(rng.normal((200 * k, d))).reshape(200, k, d)
            dirs[::2, k - 1] = dirs[::2, k - 2]
            assert np.isnan(reference_slacks(dirs)[::2]).all()
            got = assert_matches_reference(dirs)
            assert not (got[::2] == -1.0).any()

    def test_a_set_leaves_once_its_slack_is_positive(self):
        # Subset (0, 1) has normal e2, and every other direction has y > 0,
        # so the set fails; the shared ray of directions 3 and 4, whose
        # subset has no normal, leaves that verdict as it is.
        ray = unit_rows([[0.3, 0.8, 0.1]])[0]
        dirs = np.stack([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], unit_rows([[-0.5, 0.5, -0.2]])[0], ray, ray])[None]
        assert np.isnan(reference_slacks(dirs)[0])
        assert assert_matches_reference(dirs)[0] == 1.0

    @pytest.mark.parametrize("d, k", [(3, 5), (4, 8), (4, 12)])
    def test_pruned_slack_agrees_on_the_mc_draws(self, d, k):
        raw = Rng(0).normal((_MC_CHUNK, k, d))
        dirs = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        holds = assert_matches_reference(dirs) < 0.0
        est, _ = gc_probability_mc(d, k, _MC_CHUNK, Rng(0))
        assert est == holds.sum() / _MC_CHUNK

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_empty_and_one_set_stacks(self, d):
        rng = Rng(70 + d)
        for k in range(1, d + 4):
            for T in (0, 1):
                dirs = unit_rows(rng.normal((max(T * k, 1), d)))[: T * k].reshape(T, k, d)
                got = assert_matches_reference(dirs)
                assert got.shape == (T,) and got.dtype == np.float64

    @pytest.mark.parametrize("d, k", [(3, 5), (4, 8), (5, 7)])
    def test_a_strided_view_gives_the_slack_of_its_contiguous_copy(self, d, k):
        # detect_phases passes np.swapaxes of a (T, d, k) stack, which
        # gc_slack_batch copies into its own layout.
        raw = Rng(80 + d).normal((2000, d, k))
        view = np.swapaxes(raw / np.linalg.norm(raw, axis=1, keepdims=True), 1, 2)
        assert not view.flags.c_contiguous
        got = gc_slack_batch(view)
        assert np.array_equal(got, assert_matches_reference(np.ascontiguousarray(view)), equal_nan=True)

    def test_peak_memory_is_one_component_major_copy_and_a_few_rows(self):
        # gc_slack_batch's docstring: one (k, d, T) copy of the stack plus a
        # few (T,) rows per subset and two bits per determinant, at most 20
        # rows in all for d = 3 and 4.
        for T, k, d in ((30000, 8, 4), (30000, 5, 3)):
            raw = Rng(0).normal((T, k, d))
            dirs = raw / np.linalg.norm(raw, axis=2, keepdims=True)
            tracemalloc.start()
            try:
                gc_slack_batch(dirs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= dirs.nbytes + 20 * T * 8, (k, d)

    @pytest.mark.parametrize("cell", range(4))
    def test_slack_equals_pruned_reference_on_default_gc_prob_draws(self, cell):
        # The first Monte Carlo batch of each default gc-prob cell (seed 0);
        # every d >= 3 set is decided without the LP.
        d, k = ((2, 3), (2, 4), (3, 5), (4, 8))[cell]
        raw = Rng(0).child(cell).normal((_MC_CHUNK, k, d))
        got = assert_matches_reference(raw / np.linalg.norm(raw, axis=2, keepdims=True))
        assert not np.isnan(got).any()

    def test_slack_equals_pruned_reference_where_sets_leave_mid_loop(self):
        # Shared rays on some sets and pairs opposite up to a 1e-7 turn on
        # others.  A short normal does not leave a set open, so every set
        # without a shared ray is decided; a set with one never holds, and
        # is often shown to fail by another subset.
        rng = Rng(12)
        raw = rng.normal((6000, 8, 4))
        raw[0::3, 7] = raw[0::3, 2]
        raw[1::4, 5] = -raw[1::4, 1] + 1e-7 * rng.normal((1500, 4))
        raw[2::5, 6] = raw[2::5, 0]
        dirs = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        got = assert_matches_reference(dirs)
        t = np.arange(6000)
        shared = (t % 3 == 0) | (t % 5 == 2)
        assert not np.isnan(got[~shared]).any()
        assert (got[(t % 4 == 1) & ~shared] == -1.0).sum() > 100
        assert not (got[shared] == -1.0).any()
        assert (got[shared] == 1.0).sum() > 100 and np.isnan(got[shared]).sum() > 100

    def test_mc_judges_a_nan_slack_by_the_lp(self):
        # One (3, 5) set of this draw, index 8069, has two nearly opposite
        # directions: the normal of that pair is short, so the reference
        # slack is NaN.  gc_slack_batch decides it as holding, as the LP
        # does, so the estimate counts it without an LP call.
        trials = 30000
        raw = Rng(8000).child(0).normal((trials, 5, 3))
        dirs = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        full = reference_slacks(dirs)
        undecided = np.flatnonzero(np.isnan(full))
        assert undecided.tolist() == [8069]
        assert gc_check(DirectionSet(dirs[8069])).verdict == "holds"
        got = gc_slack_batch(dirs)
        assert got[8069] == -1.0 and not np.isnan(got).any()
        est, _ = gc_probability_mc(3, 5, trials, Rng(8000).child(0))
        assert est == ((full < 0.0).sum() + 1) / trials
        assert est == (got < 0.0).sum() / trials

    def test_mc_sends_an_undecided_set_to_the_lp(self, monkeypatch):
        # With the verdict of set 8069 of the draw above left open, the
        # estimate asks the LP, which says it holds: the same estimate.
        trials = 30000
        real = gc_slack_batch

        def open_8069(dirs):
            verdict = real(dirs)
            if dirs.shape[0] == trials:
                verdict[8069] = np.nan
            return verdict

        calls = []

        def counted(W, columns=None, check=None):
            calls.append(W)
            return _lp_holds(W, columns, check)

        monkeypatch.setattr(geometry, "_MC_BLOCK", trials)
        monkeypatch.setattr(geometry, "gc_slack_batch", open_8069)
        monkeypatch.setattr(geometry, "_lp_holds", counted)
        est, _ = gc_probability_mc(3, 5, trials, Rng(8000).child(0))
        raw = Rng(8000).child(0).normal((trials, 5, 3))
        assert len(calls) == 1 and np.array_equal(calls[0], (raw[8069] / np.linalg.norm(raw[8069], axis=1)[:, None]).T)
        assert est == (real(raw / np.linalg.norm(raw, axis=2, keepdims=True)) < 0.0).sum() / trials

    def test_mc_decides_a_nearly_opposite_pair_without_the_lp(self, monkeypatch):
        # Set 38 of the (3, 5) opposite family has directions 0 and 1
        # opposite up to a 1e-9 turn; its LP raises "lost primal feasibility
        # after phase 1" (a strict xfail below).  Its determinants clear
        # the rounding bound, so gc-prob's Monte Carlo judges it alone.
        dirs = near_degenerate_sets("opposite", 3, 5, Rng(953), 40)[38]
        assert exact_inside(dirs.tolist()) is True

        def no_lp(*args, **kwargs):
            raise AssertionError("the LP was asked")

        class OneDraw:
            def normal_blocks(self, rows, shape, block):
                return iter([dirs[None].copy()])

        monkeypatch.setattr(geometry, "_lp_holds", no_lp)
        assert gc_slack_batch(dirs[None])[0] == -1.0
        assert gc_probability_mc(3, 5, 1, OneDraw()) == (1.0, 0.0)

    @pytest.mark.parametrize("d, k", [(3, 5), (4, 8)])
    def test_mc_estimate_equals_an_unblocked_reference(self, d, k):
        # A full chunk and a partial one, each drawn by one normal call and
        # judged whole, against the loop that reads them in blocks.
        trials, rng, count = _MC_CHUNK + 1001, Rng(40 + d), 0
        for done in range(0, trials, _MC_CHUNK):
            raw = rng.normal((min(_MC_CHUNK, trials - done), k, d))
            norms = np.linalg.norm(raw, axis=2, keepdims=True)
            dirs = raw / np.where(norms == 0.0, 1.0, norms)
            slack = gc_slack_batch(dirs)
            count += (slack < 0.0).sum() + sum(_lp_holds(dirs[s].T) for s in np.flatnonzero(np.isnan(slack)))
        ours = Rng(40 + d)
        est, _ = gc_probability_mc(d, k, trials, ours)
        assert est == count / trials
        assert ours.uniform() == rng.uniform()

    def test_mc_peak_memory_is_a_few_blocks(self):
        # gc_probability_mc's docstring: at (k, d) = (8, 4) the peak is
        # below three (_MC_BLOCK, k, d) blocks, whatever trials is.  The
        # unblocked loop peaked near 20 MiB here, 2.8 copies of the whole
        # (30000, 8, 4) draw.  A first call also allocates what it imports
        # and caches, about 0.7 MiB, so a short call runs first.
        d, k = 4, 8
        gc_probability_mc(d, k, 100, Rng(1))
        tracemalloc.start()
        try:
            gc_probability_mc(d, k, 30000, Rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * _MC_BLOCK * k * d * 8

    def test_lp_fallback_reads_zero_columns_as_not_holding(self):
        assert _lp_holds(np.zeros((3, 5))) is False
        tetra = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
        assert _lp_holds(tetra) is True
        assert _lp_holds(np.column_stack([tetra, np.zeros(3)]), [0, 1, 2, 4]) is False

    def test_mc_estimate_near_closed_form(self):
        est, se = gc_probability_mc(2, 3, 20000, Rng(0))
        assert se == pytest.approx(math.sqrt(est * (1 - est) / 20000), abs=1e-12)
        assert abs(est - 0.25) < 4 * se

    def test_mc_validates_arguments(self):
        with pytest.raises(ValueError):
            gc_probability_mc(2, 3, 0, Rng(0))


def exact_rank(rows):
    """Rank of integer rows by Gaussian elimination over the rationals."""
    rows, rank = [list(r) for r in rows], 0
    for c in range(len(rows[0])):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = Fraction(rows[i][c], rows[rank][c])
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_det(M):
    """Determinant of a square list of rows by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * exact_det([r[:j] + r[j + 1 :] for r in M[1:]]) for j in range(len(M)) if M[0][j])


def exact_inside(rows):
    """Oracle: the true verdict for a list of direction rows, the origin strictly inside their hull.

    Every float is a dyadic rational, so one power of two, the largest
    denominator, turns every row into integers and changes no sign.  The
    origin is strictly inside iff the rows span R^d and no closed hemisphere
    holds them all; a hemisphere that holds a spanning set can be turned
    until its boundary holds d-1 independent rows, so it is enough to try
    the cofactor normal of each (d-1)-subset with a nonzero normal: the set
    fails when every dot with it has one weak sign.  No LP, float or numpy.
    """
    exact = [[Fraction(x) for x in r] for r in rows]
    scale = max(f.denominator for r in exact for f in r)
    U = [[int(f * scale) for f in r] for r in exact]
    d = len(U[0])
    if exact_rank(U) < d:
        return False
    for subset in combinations(U, d - 1):
        normal = [(-1) ** c * exact_det([r[:c] + r[c + 1 :] for r in subset]) for c in range(d)]
        if any(normal):
            dots = [sum(a * b for a, b in zip(u, normal)) for u in U]
            if min(dots) >= 0 or max(dots) <= 0:
                return False
    return True


def assert_agrees_with_exact_oracle(dirs):
    """Every gc_check verdict on a (T, k, d) stack, and every gc_slack_batch
    verdict, equal the exact verdict.  A degenerate gc_check verdict is
    excused only where gc_check states it: a margin within GC_TOL of zero,
    or directions whose matrix_rank is below d (its span guard).  A planar
    slack within GC_TOL of zero claims no verdict; from d = 3 on every value
    but NaN does.  Returns the exact verdicts."""
    truth = [exact_inside(rows) for rows in dirs.tolist()]
    slack = gc_slack_batch(dirs)
    d = dirs.shape[2]
    for t, inside in enumerate(truth):
        cert = gc_check(DirectionSet(dirs[t]))
        if cert.verdict == "degenerate":
            assert abs(cert.margin) <= GC_TOL or np.linalg.matrix_rank(dirs[t]) < d, (t, cert.margin)
        else:
            assert (cert.verdict == "holds") == inside, (t, cert.verdict)
        if abs(slack[t]) > GC_TOL if d == 2 else not np.isnan(slack[t]):
            assert (slack[t] < 0.0) == inside, (t, slack[t])
    return truth


def near_degenerate_sets(family, d, k, rng, count):
    """count unit sets of one near-degenerate family as a (T, k, d) stack.
    opposite: direction 1 is -direction 0 turned by 1e-3 to 1e-12.  tight:
    the same turned by 1e-13 to 1e-15, about the rounding bound of
    gc_slack_batch's determinants.  shared: the last two directions are
    equal.  flat: the set lies inside a hyperplane, through a coordinate
    axis (exactly) on even rows and through a random normal (up to
    rounding) on odd rows."""
    dirs = unit_rows(rng.normal((count * k, d))).reshape(count, k, d)
    if family in ("opposite", "tight"):
        powers = np.arange(3, 13, 3) if family == "opposite" else np.arange(13, 16)
        nudge = 10.0 ** -powers[np.arange(count) % powers.size]
        dirs[:, 1] = -dirs[:, 0] + nudge[:, None] * dirs[:, 1]
    elif family == "shared":
        dirs[:, -1] = dirs[:, -2]
    else:
        dirs[::2, :, -1] = 0.0
        normal = unit_rows(rng.normal((count, d)))
        dirs[1::2] -= np.einsum("tkd,td->tk", dirs, normal)[1::2, :, None] * normal[1::2, None, :]
    return unit_rows(dirs.reshape(-1, d)).reshape(count, k, d)


# Where the oracle finds gc_check wrong; each case fails until gc_check is mended.
GC_CHECK_DEFECTS = {
    # Five directions within 3e-15 of a line: the span guard, matrix_rank at
    # its default tolerance, counts them as spanning, so the LP's 1/6 margin
    # reads "holds" where the exact verdict fails.
    ("flat", 2, 5): pytest.mark.xfail(strict=True, reason="gc_check holds on sets within rounding of a line"),
    # Set 38, whose directions 0 and 1 are opposite up to a 1e-9 turn:
    # solve_equality_lp raises "lost primal feasibility after phase 1".
    ("opposite", 3, 5): pytest.mark.xfail(strict=True, raises=RuntimeError, reason="the LP fails on a nearly opposite pair"),
}


class TestExactOracle:
    def test_oracle_on_known_sets(self):
        tetra = unit_rows([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        line = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for dirs, inside in ((TRIPOD, True), (OCTAHEDRON, True), (tetra, True), (QUARTER, False)):
            assert exact_inside(dirs.tolist()) is inside
        for dirs in (ANTIPODAL, line, OCTAHEDRON[[0, 1, 2, 3, 4]], np.vstack([tetra[:3], tetra[2]])):
            assert exact_inside(dirs.tolist()) is False
        # math.pi falls short of pi, so the second direction sits just above
        # the x-axis and the origin is strictly inside.
        below_pi = np.array([[1.0, 0.0], [math.cos(math.pi), math.sin(math.pi)], [0.0, -1.0]])
        assert exact_inside(below_pi.tolist()) is True

    @pytest.mark.parametrize("d, k, count", [(2, 3, 120), (2, 5, 120), (3, 5, 80), (4, 8, 30)])
    def test_checkers_agree_on_random_sets(self, d, k, count):
        raw = Rng(900 + 10 * d + k).normal((count, k, d))
        truth = assert_agrees_with_exact_oracle(raw / np.linalg.norm(raw, axis=2, keepdims=True))
        assert 0 < sum(truth) < count

    @pytest.mark.parametrize("family", ["opposite", "tight", "shared", "flat"])
    @pytest.mark.parametrize("d, k, count", [(2, 5, 120), (3, 5, 40), (4, 8, 12), (3, 7, 30), (5, 7, 30)])
    def test_checkers_agree_on_near_degenerate_sets(self, request, family, d, k, count):
        if (family, d, k) in GC_CHECK_DEFECTS:
            request.applymarker(GC_CHECK_DEFECTS[family, d, k])
        assert_agrees_with_exact_oracle(near_degenerate_sets(family, d, k, Rng(950 + d), count))

    @pytest.mark.parametrize("d, k, count", [(3, 5, 60), (4, 8, 24)])
    def test_tight_pairs_fall_on_both_sides_of_the_rounding_bound(self, d, k, count):
        # Turns of 1e-13 to 1e-15 leave some determinants of the nearly
        # opposite pair above the bound and some below it: some sets are
        # decided, and others stay open; the oracle checks every decision.
        dirs = near_degenerate_sets("tight", d, k, Rng(970 + d), count)
        assert_agrees_with_exact_oracle(dirs)
        open_sets = np.isnan(gc_slack_batch(dirs))
        assert 0 < open_sets.sum() < count

    def test_checkers_agree_on_the_delta_family(self):
        family = list(boundary_family())
        truth = []
        for k in (3, 4, 6):
            truth += assert_agrees_with_exact_oracle(np.stack([dirs for case, dirs in family if case[0] == k]))
        assert 0 < sum(truth) < len(truth)
