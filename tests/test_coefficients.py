"""Coefficient families: ellipticity quotients and oscillation functionals."""

import math

import numpy as np
import pytest

from kfplab.coefficients import (
    CoefficientField,
    LowerOrderTerms,
    ellipticity_check,
    osc_prime,
    osc_xv,
)
from kfplab.geometry import Cylinder, PhasePoint


def _const(matrix, delta, d=None):
    m = np.asarray(matrix, dtype=float)
    return CoefficientField(kind="constant_spd", d=d or m.shape[0], delta=delta, matrix=m)


def _smooth(fn, d, delta=0.1):
    return CoefficientField(kind="smooth_variable", d=d, delta=delta, fn=fn)


def _pair_average_abs_diff(fn, lo, hi, n=2048):
    # probability average of |fn(s) - fn(s')| over [lo, hi]^2, midpoint rule
    mid = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    vals = fn(mid)
    return float(np.mean(np.abs(vals[:, None] - vals[None, :])))


class TestEllipticity:
    def test_identity_passes_with_unit_quotients(self):
        a = _const(np.eye(3), delta=0.5)
        rep = ellipticity_check(a, n_samples=500, rng=np.random.default_rng(1))
        assert rep["ok"]
        assert rep["min_quotient"] == pytest.approx(1.0, abs=1e-12)
        assert rep["max_quotient"] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_at_the_declared_boundary_passes(self):
        a = _const(np.diag([2.0, 0.5]), delta=0.5)
        rep = ellipticity_check(a, n_samples=3000, rng=np.random.default_rng(2))
        assert rep["ok"]
        assert 0.5 <= rep["min_quotient"] <= rep["max_quotient"] <= 2.0

    def test_too_optimistic_delta_is_caught(self):
        a = _const(np.diag([2.0, 0.5]), delta=0.6)
        rep = ellipticity_check(a, n_samples=3000, rng=np.random.default_rng(3))
        assert not rep["ok"]

    def test_asymmetric_constant_matrix_rejected_at_construction(self):
        with pytest.raises(ValueError, match="symmetric"):
            _const([[1.0, 0.3], [0.0, 1.0]], delta=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="coefficient matrix must be finite"):
            _const([[1.0, 0.0], [0.0, bad]], delta=0.5)
        with pytest.raises(ValueError, match="coefficient matrix must be finite"):
            CoefficientField(kind="time_piecewise", d=1, delta=0.5,
                             breakpoints=(0.3,),
                             matrices=(np.eye(1), np.array([[bad]])))

    @pytest.mark.parametrize("breakpoints", [(0.6, 0.3), (0.3, 0.3), (0.3, math.nan), (-math.inf, 0.3)])
    def test_breakpoints_must_be_finite_and_strictly_increasing(self, breakpoints):
        # with (0.6, 0.3), eval at t = 0.45 used to pick the last piece
        with pytest.raises(ValueError, match="breakpoints must be finite and strictly increasing"):
            CoefficientField(kind="time_piecewise", d=1, delta=0.5, breakpoints=breakpoints,
                             matrices=(np.eye(1), 2.0 * np.eye(1), 0.5 * np.eye(1)))

    def test_matrix_must_match_the_dimension(self):
        with pytest.raises(ValueError, match="coefficient matrix must be 2 x 2"):
            _const(np.eye(1), delta=0.5, d=2)
        with pytest.raises(ValueError, match="coefficient matrix must be 1 x 1"):
            CoefficientField(kind="time_piecewise", d=1, delta=0.5, breakpoints=(0.3,),
                             matrices=(np.eye(1), np.eye(2)))

    @pytest.mark.parametrize("matrix", [[[0.0]], [[-1.0]], [[1.0, 0.0], [0.0, -1.0]],
                                        [[1.0, 2.0], [2.0, 1.0]]])
    def test_matrix_must_be_positive_definite(self, matrix):
        m = np.asarray(matrix, dtype=float)
        with pytest.raises(ValueError, match="coefficient matrix must be positive definite"):
            _const(m, delta=0.5)
        with pytest.raises(ValueError, match="coefficient matrix must be positive definite"):
            CoefficientField(kind="time_piecewise", d=len(m), delta=0.5, breakpoints=(0.3,),
                             matrices=(np.eye(len(m)), m))

    def test_asymmetric_smooth_field_rejected_by_check(self):
        def fn(t, x, v):
            out = np.zeros(t.shape + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
            out[..., 0, 1] = 0.5 * np.sin(t)
            return out

        a = _smooth(fn, d=2, delta=0.3)
        with pytest.raises(ValueError, match="asymmetric"):
            ellipticity_check(a, n_samples=200, rng=np.random.default_rng(4))

    def test_time_piecewise_uses_the_breakpoint_intervals(self):
        a = CoefficientField(
            kind="time_piecewise", d=1, delta=0.4,
            breakpoints=(0.0,), matrices=(np.array([[1.0]]), np.array([[2.0]])))
        got = a.eval(np.array([-0.5, 0.5]), np.zeros((2, 1)), np.zeros((2, 1)))
        assert got[0, 0, 0] == 1.0 and got[1, 0, 0] == 2.0

    def test_delta_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            _const(np.eye(2), delta=1.5)


class TestLandauLike:
    def test_eigenvalues_along_the_velocity_direction(self):
        # at v = n e1 the eigenvalues are mu1 (1+n)^-3 and mu2 (1+n)^-1
        a = CoefficientField(kind="landau_like", d=2, delta=0.05, mu1=4.0, mu2=8.0)
        for n in (0.0, 1.0, 3.0, 7.0):
            v = np.array([[n, 0.0]])
            A = a.eval(np.zeros(1), np.zeros((1, 2)), v)[0]
            eig = np.sort(np.linalg.eigvalsh(A))
            assert eig[0] == pytest.approx(4.0 * (1.0 + n) ** -3, rel=1e-12)
            assert eig[1] == pytest.approx(8.0 * (1.0 + n) ** -1, rel=1e-12)

    def test_annulus_rayleigh_floor_decays_cubically(self):
        a = CoefficientField(kind="landau_like", d=2, delta=0.05, mu1=4.0, mu2=8.0)
        rng = np.random.default_rng(5)
        for n in (0, 2, 5):
            radius = rng.uniform(n, n + 1, 4000)
            angle = rng.uniform(0.0, 2.0 * math.pi, 4000)
            v = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
            A = a.eval(np.zeros(4000), np.zeros((4000, 2)), v)
            xi = rng.standard_normal((4000, 2))
            xi /= np.linalg.norm(xi, axis=1, keepdims=True)
            q = np.einsum("ni,nij,nj->n", xi, A, xi)
            assert np.min(q) >= 4.0 * (2.0 + n) ** -3 - 1e-12
            assert np.min(q) <= 4.0 * (1.0 + n) ** -3 * 1.6

    def test_box_sampled_check_passes_with_a_generous_delta(self):
        a = CoefficientField(kind="landau_like", d=2, delta=0.05, mu1=4.0, mu2=8.0)
        rep = ellipticity_check(a, n_samples=4000, rng=np.random.default_rng(6))
        assert rep["ok"]

    def test_mu_ordering_enforced(self):
        with pytest.raises(ValueError, match="mu1"):
            CoefficientField(kind="landau_like", d=1, delta=0.1, mu1=2.0, mu2=1.0)


class TestOscXV:
    def _cyl(self, z0=None, r=0.8):
        z0 = z0 or PhasePoint(t=0.3, x=np.array([0.2]), v=np.array([-0.4]))
        return Cylinder(center=z0, r=r, R=r, side="past")

    def test_constant_coefficient_has_zero_oscillation(self):
        a = _const(np.eye(1), delta=0.5)
        value, se = osc_xv(a, self._cyl(), n_pairs=200, n_slices=4)
        assert value == 0.0 and se == 0.0

    def test_time_only_dependence_has_zero_oscillation(self):
        a = CoefficientField(
            kind="time_piecewise", d=1, delta=0.4,
            breakpoints=(0.0,), matrices=(np.array([[1.0]]), np.array([[2.0]])))
        value, se = osc_xv(a, self._cyl(), n_pairs=200, n_slices=8)
        assert value == 0.0 and se == 0.0

    def test_velocity_wave_matches_tensor_quadrature(self):
        eps, r = 0.8, 0.7
        z0 = PhasePoint(t=0.1, x=np.array([0.5]), v=np.array([0.3]))

        def fn(t, x, v):
            return (1.0 + eps * np.sin(v[..., 0]))[..., None, None] * np.eye(1)

        a = _smooth(fn, d=1)
        value, se = osc_xv(a, self._cyl(z0, r), rng=np.random.default_rng(7))
        oracle = eps * _pair_average_abs_diff(np.sin, z0.v[0] - r, z0.v[0] + r)
        assert abs(value - oracle) < 5.0 * se + 2e-3

    def test_oscillation_scales_linearly_with_the_coefficient(self):
        def fn(t, x, v):
            return (1.0 + 0.5 * np.sin(v[..., 0]) * np.cos(x[..., 0]))[..., None, None] * np.eye(1)

        def fn3(t, x, v):
            return 3.0 * fn(t, x, v)

        v1, _ = osc_xv(_smooth(fn, 1), self._cyl(), n_pairs=2000,
                       rng=np.random.default_rng(8))
        v3, _ = osc_xv(_smooth(fn3, 1), self._cyl(), n_pairs=2000,
                       rng=np.random.default_rng(8))
        assert v3 == pytest.approx(3.0 * v1, rel=1e-12)

    def test_adding_a_time_only_matrix_changes_nothing(self):
        def fn(t, x, v):
            return (1.0 + 0.5 * np.sin(v[..., 0]) * np.cos(x[..., 0]))[..., None, None] * np.eye(1)

        def fn_shifted(t, x, v):
            return fn(t, x, v) + (2.0 + np.sin(3.0 * t))[..., None, None] * np.eye(1)

        v1, _ = osc_xv(_smooth(fn, 1), self._cyl(), n_pairs=2000,
                       rng=np.random.default_rng(9))
        v2, _ = osc_xv(_smooth(fn_shifted, 1), self._cyl(), n_pairs=2000,
                       rng=np.random.default_rng(9))
        assert v2 == pytest.approx(v1, rel=1e-11, abs=1e-14)

    def test_frobenius_flag_on_a_scalar_field_gives_sqrt_d(self):
        def fn(t, x, v):
            return (1.0 + 0.4 * np.sin(v[..., 0] + v[..., 1]))[..., None, None] * np.eye(2)

        z0 = PhasePoint(t=0.0, x=np.zeros(2), v=np.zeros(2))
        Q = Cylinder(center=z0, r=0.6, R=0.6, side="past")
        vmax, _ = osc_xv(_smooth(fn, 2), Q, n_pairs=1500, rng=np.random.default_rng(10))
        vfro, _ = osc_xv(_smooth(fn, 2), Q, n_pairs=1500, rng=np.random.default_rng(10),
                         norm="fro")
        assert vfro == pytest.approx(math.sqrt(2.0) * vmax, rel=1e-12)

    def test_two_sided_or_anisotropic_cylinders_are_rejected(self):
        a = _const(np.eye(1), delta=0.5)
        z0 = PhasePoint(t=0.0, x=np.zeros(1), v=np.zeros(1))
        with pytest.raises(ValueError):
            osc_xv(a, Cylinder(center=z0, r=0.5, R=0.5, side="two_sided"))
        with pytest.raises(ValueError):
            osc_xv(a, Cylinder(center=z0, r=0.5, R=0.7, side="past"))

    def test_unknown_matrix_norm_rejected(self):
        a = _const(np.eye(1), delta=0.5)
        with pytest.raises(ValueError, match="norm"):
            osc_xv(a, self._cyl(), n_pairs=10, n_slices=2, norm="nuclear")


class TestOscPrime:
    def test_constant_coefficient_is_flat(self):
        a = _const(np.eye(2), delta=0.5)
        z = PhasePoint(t=0.0, x=np.zeros(2), v=np.zeros(2))
        value, se = osc_prime(a, 0.5, [z], n_pairs=100)
        assert value == 0.0 and se == 0.0

    def test_dominates_the_cylinder_average(self):
        # probes sit on the slanted slice centers, so the sup over them
        # bounds the slice mean up to sampling noise
        def fn(t, x, v):
            base = 1.0 + 0.3 * np.sin(t) + 0.4 * np.sin(x[..., 0]) + 0.5 * np.cos(v[..., 0])
            return base[..., None, None] * np.eye(1)

        a = _smooth(fn, d=1)
        z0 = PhasePoint(t=0.5, x=np.array([0.7]), v=np.array([0.9]))
        r = 0.6
        Q = Cylinder(center=z0, r=r, R=r, side="past")
        xv, se_xv = osc_xv(a, Q, rng=np.random.default_rng(11))
        probes = []
        for j in range(32):
            t = z0.t - r ** 2 * (j + 0.5) / 32
            probes.append(PhasePoint(t=t, x=z0.x - (t - z0.t) * z0.v, v=z0.v))
        pr, se_pr = osc_prime(a, r, probes, rng=np.random.default_rng(12))
        assert xv <= pr + 3.0 * (se_xv + se_pr)

    def test_holder_kink_produces_the_expected_dyadic_slope(self):
        kappa = 0.5

        def fn(t, x, v):
            rough = np.abs(np.sin(x[..., 0])) ** (kappa / 3.0) \
                + np.abs(np.sin(v[..., 0])) ** kappa
            return (1.0 + 0.5 * rough)[..., None, None] * np.eye(1)

        a = _smooth(fn, d=1)
        probes = [PhasePoint(t=0.0, x=np.zeros(1), v=np.zeros(1)),
                  PhasePoint(t=0.0, x=np.array([2.0]), v=np.array([1.0]))]
        radii = [2.0 ** -k for k in range(2, 6)]
        values = [osc_prime(a, r, probes, rng=np.random.default_rng(13))[0]
                  for r in radii]
        slope = np.polyfit(np.log(radii), np.log(values), 1)[0]
        assert abs(slope - kappa) <= 0.15 * kappa

    def test_smallness_radius_scales_with_the_threshold(self):
        # Lipschitz-in-v coefficient: the radius where the oscillation first
        # exceeds gamma0 should scale like gamma0 itself
        a = CoefficientField(kind="landau_like", d=1, delta=0.05, mu1=4.0, mu2=8.0)
        probe = [PhasePoint(t=0.0, x=np.zeros(1), v=np.zeros(1))]
        radii = np.geomspace(0.005, 0.64, 15)
        osc = np.array([osc_prime(a, r, probe, rng=np.random.default_rng(14))[0]
                        for r in radii])
        assert np.all(np.diff(osc) > 0)

        def crossing(gamma0):
            i = int(np.searchsorted(osc, gamma0))
            assert 0 < i < len(osc)
            # log-linear interpolation between the bracketing radii
            w = (math.log(gamma0) - math.log(osc[i - 1])) \
                / (math.log(osc[i]) - math.log(osc[i - 1]))
            return math.exp((1 - w) * math.log(radii[i - 1]) + w * math.log(radii[i]))

        gammas = [0.4, 0.2, 0.1]
        r0 = [crossing(g) for g in gammas]
        slope = np.polyfit(np.log(gammas), np.log(r0), 1)[0]
        assert abs(slope - 1.0) <= 0.25

    def test_empty_probe_list_rejected(self):
        a = _const(np.eye(1), delta=0.5)
        with pytest.raises(ValueError, match="probe"):
            osc_prime(a, 0.5, [])


class TestLowerOrderTerms:
    def test_bound_holds_for_bounded_fields(self):
        terms = LowerOrderTerms(
            b_fn=lambda t, x, v: np.sin(x),
            c_fn=lambda t, x, v: 0.5 * np.cos(t),
            L=1.5, lam=2.0)
        rep = terms.validate(d=1, rng=np.random.default_rng(15))
        assert rep["ok"] and rep["worst"] <= 1.5

    def test_violation_is_detected(self):
        terms = LowerOrderTerms(
            b_fn=lambda t, x, v: 3.0 * np.sin(x),
            c_fn=lambda t, x, v: np.zeros(t.shape),
            L=1.0)
        rep = terms.validate(d=1, rng=np.random.default_rng(16))
        assert not rep["ok"]

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LowerOrderTerms(b_fn=lambda t, x, v: x, c_fn=lambda t, x, v: t,
                            L=1.0, lam=-0.5)

    @pytest.mark.parametrize("L,lam", [(math.nan, 0.0), (1.0, math.nan)])
    def test_nan_bound_or_lambda_rejected(self, L, lam):
        with pytest.raises(ValueError, match="nonnegative"):
            LowerOrderTerms(b_fn=lambda t, x, v: x, c_fn=lambda t, x, v: t,
                            L=L, lam=lam)
