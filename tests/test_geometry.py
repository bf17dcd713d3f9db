"""Kinetic geometry: hand-checked values, quasi-triangle inequalities,
ball/cylinder sandwich, doubling, volumes, and the scaling map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfplab.geometry import (
    Cylinder,
    PhasePoint,
    QuasiMetricParams,
    cylinder_contains,
    cylinder_contains_batch,
    cylinder_volume,
    quasi_distance,
    quasi_distance_batch,
    scaling_map,
    scaling_map_inverse,
    slice_D,
    symmetrized_distance,
    symmetrized_distance_batch,
)


def zp(t, x, v):
    return PhasePoint(t=t, x=np.atleast_1d(float(x)), v=np.atleast_1d(float(v)))


def random_points(rng, n, d, lo=-10.0, hi=10.0):
    t = rng.uniform(lo, hi, size=n)
    x = rng.uniform(lo, hi, size=(n, d))
    v = rng.uniform(lo, hi, size=(n, d))
    return t, x, v


class TestQuasiDistanceValues:
    def test_identical_points_give_zero(self):
        z = zp(1.3, -0.2, 4.0)
        assert quasi_distance(z, z) == 0.0

    def test_pure_time_offset(self):
        # d=1, z=(1,0,0), z0=(0,0,0), c=1: only |t-t0|^{1/2} = 1 survives
        assert quasi_distance(zp(1, 0, 0), zp(0, 0, 0)) == 1.0

    def test_mixed_offsets_take_the_max(self):
        # z=(0,8,2), z0=(0,0,0): max(0, 8^{1/3}, 2) = 2
        assert quasi_distance(zp(0, 8, 2), zp(0, 0, 0)) == pytest.approx(2.0, abs=1e-15)

    def test_symmetrized_hand_value(self):
        # z=(1,0,0), z0=(0,0,1): rho(z,z0)=max(1,1,1)=1 since
        # x-x0+(t-t0)v0 = 1; rho(z0,z)=max(1,0,1)=1; sum 2
        z, z0 = zp(1, 0, 0), zp(0, 0, 1)
        assert symmetrized_distance(z, z0) == pytest.approx(2.0, abs=1e-15)

    def test_slant_sign_flag_changes_the_slant_term(self):
        z, z0 = zp(1, 0, 0), zp(0, 0, 1)
        plus = quasi_distance(z, z0, QuasiMetricParams(c=1.0, slant_sign=1))
        minus = quasi_distance(z, z0, QuasiMetricParams(c=1.0, slant_sign=-1))
        assert plus == pytest.approx(1.0)
        assert minus == pytest.approx(1.0)  # |-1|^{1/3} = 1 as well
        # an asymmetric case where the two conventions differ
        z = zp(1, 1, 0)
        assert quasi_distance(z, z0, QuasiMetricParams(slant_sign=1)) == pytest.approx(
            max(1.0, 2.0 ** (1 / 3)), abs=1e-15
        )
        assert quasi_distance(z, z0, QuasiMetricParams(slant_sign=-1)) == pytest.approx(1.0, abs=1e-15)

    def test_c_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            QuasiMetricParams(c=0.5)

    # c = inf made every x term NaN, and the A_p sampler then never returned
    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_c_must_be_finite(self, c):
        with pytest.raises(ValueError, match="anisotropy c must be finite"):
            QuasiMetricParams(c=c)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            t, x, v = random_points(rng, 50, d)
            t0, x0, v0 = random_points(rng, 50, d)
            params = QuasiMetricParams(c=2.5)
            got = quasi_distance_batch(t, x, v, t0, x0, v0, params)
            want = [
                quasi_distance(PhasePoint(t[i], x[i], v[i]), PhasePoint(t0[i], x0[i], v0[i]), params)
                for i in range(50)
            ]
            np.testing.assert_allclose(got, want, rtol=0, atol=0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("slant_sign", [1, -1])
@pytest.mark.parametrize("c", [1.0, 2.7])
def test_symmetrized_batch_equals_the_two_call_form(d, slant_sign, c):
    # the one-pass form shares the time and velocity terms and negates the
    # reverse slant; that must not change a single bit
    rng = np.random.default_rng(d)
    params = QuasiMetricParams(c=c, slant_sign=slant_sign)
    for n in (1, 7, 2000):
        z = random_points(rng, n, d)
        arrays = random_points(rng, n, d)
        scalars = (arrays[0][0], arrays[1][0], arrays[2][0])
        for z0 in (arrays, scalars):
            for a, b in ((z, z0), (z0, z)):
                want = quasi_distance_batch(*a, *b, params) + quasi_distance_batch(*b, *a, params)
                assert np.array_equal(symmetrized_distance_batch(*a, *b, params), want)


@pytest.mark.parametrize("slant_sign", [1, -1])
def test_quasi_triangle_inequalities_hold_exactly(slant_sign):
    """rho_c(z,z0) <= 2 rho_c(z0,z) and rho_c(z,z0) <= 2(rho_c(z,z1)+rho_c(z1,z0))
    on 1e5 random triples per dimension, c ~ U[1,10], coords ~ U[-10,10]."""
    rng = np.random.default_rng(20240811)
    n = 100_000
    for d in (1, 2, 3):
        t, x, v = random_points(rng, n, d)
        t0, x0, v0 = random_points(rng, n, d)
        t1, x1, v1 = random_points(rng, n, d)
        c = rng.uniform(1.0, 10.0, size=n)
        # evaluate with per-sample c by grouping: use the batch op per unique
        # formula instead; c enters only as a divisor of the slant term, so
        # run with c=1 and rescale is not valid for max().  Loop in chunks
        # with a vector c via direct formula:
        params_template = slant_sign

        def rho(ta, xa, va, tb, xb, vb):
            dt = ta - tb
            slant = xa - xb + params_template * dt[:, None] * vb
            return np.maximum.reduce(
                [
                    np.sqrt(np.abs(dt)),
                    np.cbrt(np.linalg.norm(slant, axis=1)) / c,
                    np.linalg.norm(va - vb, axis=1),
                ]
            )

        d_z_z0 = rho(t, x, v, t0, x0, v0)
        d_z0_z = rho(t0, x0, v0, t, x, v)
        d_z_z1 = rho(t, x, v, t1, x1, v1)
        d_z1_z0 = rho(t1, x1, v1, t0, x0, v0)
        assert np.all(d_z_z0 <= 2.0 * d_z0_z), f"quasi-symmetry violated, d={d}"
        assert np.all(d_z_z0 <= 2.0 * (d_z_z1 + d_z1_z0)), f"quasi-triangle violated, d={d}"


def _sample_two_sided_cylinder(rng, z0, r, c, n):
    """Uniform samples of the two-sided cylinder via the slant shear, which
    has unit Jacobian."""
    d = z0.d
    t = z0.t + r ** 2 * rng.uniform(-1.0, 1.0, size=n)
    # x = x0 - (t-t0) v0 + eta with |eta| < (cr)^3
    eta = rng.uniform(-1.0, 1.0, size=(n, d))
    if d > 1:
        # rejection to the Euclidean ball
        keep = np.linalg.norm(eta, axis=1) < 1.0
        while not np.all(keep):
            eta[~keep] = rng.uniform(-1.0, 1.0, size=(int((~keep).sum()), d))
            keep = np.linalg.norm(eta, axis=1) < 1.0
    eta *= (c * r) ** 3
    x = z0.x - (t - z0.t)[:, None] * z0.v + eta
    w = rng.uniform(-1.0, 1.0, size=(n, d))
    if d > 1:
        keep = np.linalg.norm(w, axis=1) < 1.0
        while not np.all(keep):
            w[~keep] = rng.uniform(-1.0, 1.0, size=(int((~keep).sum()), d))
            keep = np.linalg.norm(w, axis=1) < 1.0
    v = z0.v + r * w
    return t, x, v


def test_ball_cylinder_sandwich_by_rejection_sampling():
    """Every point of the rho_hat ball of radius r lies in the two-sided
    cylinder Q~_{r,cr}(z0), and every point of Q~_{r,cr}(z0) lies in the
    rho_hat ball of radius 3r.  Checked as implications over 10^4 rejection
    samples per configuration drawn from a strictly larger cylinder."""
    rng = np.random.default_rng(33)
    ball_hits = 0
    for d in (1, 2):
        for _ in range(5):
            z0 = PhasePoint(rng.uniform(-5, 5), rng.uniform(-5, 5, d), rng.uniform(-5, 5, d))
            r = float(rng.uniform(0.2, 3.0))
            c = float(rng.uniform(1.0, 4.0))
            params = QuasiMetricParams(c=c)
            Q = Cylinder(center=z0, r=r, R=c * r, side="two_sided")

            t, x, v = _sample_two_sided_cylinder(rng, z0, 1.2 * r, c, 10_000)
            rho = symmetrized_distance_batch(t, x, v, z0.t, z0.x, z0.v, params)
            in_cyl = cylinder_contains_batch(Q, t, x, v)
            in_ball = rho < r
            ball_hits += int(in_ball.sum())
            # ball of radius r inside Q~_{r,cr}
            assert np.all(in_cyl[in_ball])
            # Q~_{r,cr} inside the ball of radius 3r
            assert np.all(rho[in_cyl] < 3.0 * r)
    assert ball_hits > 100, "sampler never landed in the rho_hat ball; test is vacuous"


def test_doubling_ratio_bounded():
    """MC measure of the rho_hat ball of radius 2r over the ball of radius r,
    both intersected with {t <= T}, stays bounded over random configurations
    with the center in the closed half-space."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        d = 1
        T = float(rng.uniform(-2, 2))
        z0 = PhasePoint(T - abs(rng.uniform(0, 2)), rng.uniform(-5, 5, d), rng.uniform(-3, 3, d))
        r = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(1.0, 3.0))
        params = QuasiMetricParams(c=c)
        n = 4000

        def ball_measure(radius):
            Qbig = Cylinder(center=z0, r=radius, R=c * radius, side="two_sided")
            t, x, v = _sample_two_sided_cylinder(rng, z0, radius, c, n)
            rho = symmetrized_distance_batch(t, x, v, z0.t, z0.x, z0.v, params)
            frac = float(np.mean((rho < radius) & (t <= T)))
            return frac * cylinder_volume(Qbig)

        m2, m1 = ball_measure(2.0 * r), ball_measure(r)
        assert m1 > 0.0, "small ball measure vanished; sampler or geometry broken"
        worst = max(worst, m2 / m1)
    # theory-backed d=1 cap: |Q~_{2r}| / |Q_{r/3}| = 512 * 729 / 4; the
    # measured worst case sits far below it
    assert worst < 93312.0
    assert worst < 500.0, f"doubling ratio {worst} implausibly large for d=1"


class TestCylinders:
    # r ** 2 used to end in OverflowError inside osc_xv
    @pytest.mark.parametrize("r,R,match", [
        (math.inf, 1.0, r"r=inf overflows r\^2"),
        (1e200, 1.0, r"r=1e\+200 overflows r\^2"),
        (1.0, 1e120, r"R=1e\+120 overflows R\^3"),
    ], ids=["r_inf", "r_1e200", "R_1e120"])
    def test_radius_whose_power_overflows_is_refused(self, r, R, match):
        with pytest.raises(ValueError, match=match):
            Cylinder(zp(0, 0, 0), r, R)

    def test_center_membership_by_side(self):
        z0 = zp(0, 0, 0)
        assert not cylinder_contains(Cylinder(z0, 1.0, 1.0, side="past"), z0)
        assert cylinder_contains(Cylinder(z0, 1.0, 1.0, side="two_sided"), z0)

    def test_hand_membership(self):
        # Q_{1,1}(0), z=(-0.5, 0.9, 0.5): dt=-0.5 in (-1,0), |v|=0.5<1,
        # |x + dt*v0| = 0.9 < 1
        Q = Cylinder(zp(0, 0, 0), 1.0, 1.0, side="past")
        assert cylinder_contains(Q, zp(-0.5, 0.9, 0.5))
        assert not cylinder_contains(Q, zp(-0.5, 1.1, 0.5))
        assert not cylinder_contains(Q, zp(0.5, 0.0, 0.0))

    def test_slant_enters_membership(self):
        # center velocity shifts the x window by (t-t0) v0
        Q = Cylinder(zp(0, 0, 2.0), 1.0, 1.0, side="past")
        # at t=-0.5 the x-ball is centered at x0 + 0.5*v0 = 1.0
        assert cylinder_contains(Q, zp(-0.5, 1.0, 2.0))
        assert not cylinder_contains(Q, zp(-0.5, 0.0, 2.0))

    def test_hand_membership_d2(self):
        # Q_{1,1}(z0), z0 = (0, (0, 0), (1, 0)); at t = -0.5 the x-ball is
        # centered at x0 - (t - t0) v0 = (0.5, 0)
        z0 = PhasePoint(0.0, [0.0, 0.0], [1.0, 0.0])
        past = Cylinder(z0, 1.0, 1.0, side="past")
        inside = PhasePoint(-0.5, [0.5, 0.6], [1.3, 0.4])
        assert cylinder_contains(past, inside)
        # |v - v0| = 1 and |x + dt v0| = 1 sit on the strict boundaries
        assert not cylinder_contains(past, PhasePoint(-0.5, [0.5, 0.6], [1.0, 1.0]))
        assert not cylinder_contains(past, PhasePoint(-0.5, [0.5, 1.0], [1.3, 0.4]))
        # |x| = 0.6 but the slanted offset is 1.1
        assert not cylinder_contains(past, PhasePoint(-0.5, [-0.6, 0.0], [1.3, 0.4]))
        # the future half: only the two-sided cylinder keeps it
        ahead = PhasePoint(0.5, [-0.5, 0.6], [1.3, 0.4])
        assert not cylinder_contains(past, ahead)
        assert cylinder_contains(Cylinder(z0, 1.0, 1.0, side="two_sided"), ahead)

    def test_volumes_d1(self):
        Q = Cylinder(zp(0, 0, 0), 1.0, 1.0, side="past")
        assert cylinder_volume(Q) == pytest.approx(4.0, rel=1e-15)
        Q2 = Cylinder(zp(0, 0, 0), 1.0, 1.0, side="two_sided")
        assert cylinder_volume(Q2) == pytest.approx(8.0, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_volume_scaling(self, d):
        z0 = PhasePoint(0.0, np.zeros(d), np.zeros(d))
        v1 = cylinder_volume(Cylinder(z0, 1.0, 1.5, side="past"))
        v2 = cylinder_volume(Cylinder(z0, 2.0, 3.0, side="past"))
        assert v2 / v1 == pytest.approx(2.0 ** (2 + 4 * d), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_volume_against_monte_carlo(self, d):
        """MC volume of the slanted cylinder agrees within 3 standard errors."""
        rng = np.random.default_rng(5)
        z0 = PhasePoint(0.3, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d))
        r, R = 1.3, 2.1
        Q = Cylinder(z0, r, R, side="two_sided")
        # bounding box: t in +-r^2, x in slant center +- R^3, v in +- r
        n = 1_000_000
        t = z0.t + r ** 2 * rng.uniform(-1, 1, n)
        x = z0.x - (t - z0.t)[:, None] * z0.v + R ** 3 * rng.uniform(-1, 1, (n, d))
        v = z0.v + r * rng.uniform(-1, 1, (n, d))
        box_vol = 2 * r ** 2 * (2 * R ** 3) ** d * (2 * r) ** d
        hits = cylinder_contains_batch(Q, t, x, v)
        phat = hits.mean()
        mc = phat * box_vol
        se = box_vol * math.sqrt(phat * (1 - phat) / n)
        # d=1: the sheared box equals the cylinder, se = 0; allow roundoff
        assert abs(mc - cylinder_volume(Q)) < 3 * se + 1e-10 * box_vol


class TestSliceD:
    def test_slice_membership_follows_the_slant(self):
        z0 = zp(0, 0, 2.0)
        D = slice_D(z0, t=-0.5, r=1.0)
        np.testing.assert_allclose(D.x_center, [1.0])
        assert D.contains(1.2, 2.3)
        assert not D.contains(2.2, 2.3)
        assert not D.contains(1.0, 3.5)

    def test_slice_membership_d2(self):
        z0 = PhasePoint(0.0, [0.0, 0.0], [1.0, 0.0])
        D = slice_D(z0, t=-0.5, r=1.0)
        np.testing.assert_allclose(D.x_center, [0.5, 0.0])
        assert D.contains([0.5, 0.6], [1.3, 0.4])
        assert not D.contains([0.5, 0.6], [1.0, 1.0])
        assert not D.contains([0.5, 1.0], [1.3, 0.4])
        assert not D.contains([-0.6, 0.0], [1.3, 0.4])

    def test_slice_agrees_with_cylinder_sections(self):
        rng = np.random.default_rng(11)
        z0 = PhasePoint(0.2, rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        r = 1.1
        Q = Cylinder(z0, r, r, side="past")
        t = z0.t - 0.4 * r ** 2
        D = slice_D(z0, t, r)
        x = rng.uniform(-4, 4, (2000, 1))
        v = rng.uniform(-4, 4, (2000, 1))
        got = D.contains_batch(x, v)
        want = cylinder_contains_batch(Q, np.full(2000, t), x, v)
        np.testing.assert_array_equal(got, want)


class TestScalingMap:
    def test_hand_value(self):
        # d=1, r=2, z0=(0,0,1): (1,1,1) -> (4, 8*1+0-4*1, 2+1) = (4,4,3)
        z0, z = zp(0, 0, 1), zp(1, 1, 1)
        out = scaling_map(z, z0, 2.0)
        assert out.t == pytest.approx(4.0)
        assert out.x[0] == pytest.approx(4.0)
        assert out.v[0] == pytest.approx(3.0)

    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(0.1, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, t, x, v, t0, x0, v0, r):
        z, z0 = zp(t, x, v), zp(t0, x0, v0)
        back = scaling_map_inverse(scaling_map(z, z0, r), z0, r)
        assert abs(back.t - z.t) < 1e-12 * max(1.0, abs(z.t))
        assert abs(back.x[0] - z.x[0]) < 1e-10
        assert abs(back.v[0] - z.v[0]) < 1e-12 * max(1.0, abs(z.v[0]))

    def test_unit_cylinder_maps_onto_scaled_cylinder(self):
        """scaling_map sends Q_{1,1}(0) onto Q_{r,r}(z0) (same for the
        rho-balls), which is how all estimates reduce to unit scale."""
        rng = np.random.default_rng(2)
        z0 = PhasePoint(0.7, rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        r = 1.7
        unit = Cylinder(PhasePoint(0.0, np.zeros(1), np.zeros(1)), 1.0, 1.0, side="past")
        scaled = Cylinder(z0, r, r, side="past")
        t, x, v = random_points(rng, 4000, 1, -1.2, 1.2)
        inside_unit = cylinder_contains_batch(unit, t, x, v)
        mapped = [scaling_map(PhasePoint(t[i], x[i], v[i]), z0, r) for i in range(len(t))]
        mt = np.array([p.t for p in mapped])
        mx = np.array([p.x for p in mapped])
        mv = np.array([p.v for p in mapped])
        inside_scaled = cylinder_contains_batch(scaled, mt, mx, mv)
        np.testing.assert_array_equal(inside_unit, inside_scaled)
