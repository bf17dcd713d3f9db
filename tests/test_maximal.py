"""Maximal and sharp functions: exhaustive oracle equality and norm checks."""

import math

import numpy as np
import pytest

from kfplab.grids import GridField, GridSpec
from kfplab.maximal import (
    CylinderFamily,
    _sweep,
    coverage_counts,
    fs_check,
    hl_check,
    make_corpus,
    maximal,
    sharp,
)
from kfplab.norms import MixedNormSpec, mixed_norm


SMALL = GridSpec(d=1, n_t=8, n_x=8, n_v=8, t_lo=0.0, t_hi=0.7, L_x=1.3, L_v=1.1)


def _random_field(spec, seed):
    rng = np.random.default_rng(seed)
    return GridField(spec, rng.standard_normal(spec.shape))


def _brute(field, fam, mode):
    # independent per-(cylinder, node) loop; shares only the family's center
    # enumeration, which is part of the operator definition
    spec = field.spec
    tn, xn, vn = spec.t_nodes, spec.x_nodes, spec.v_nodes
    px, pv = 2.0 * spec.L_x, 2.0 * spec.L_v
    vals = field.values
    out = np.zeros(spec.shape)
    for r in fam.radii:
        r2 = r * r
        R3 = (fam.c * r) ** 3
        R2 = R3 * R3
        for t1, x1, v1 in fam.centers(spec, r):
            members, data = [], []
            for j in range(spec.n_t):
                if not (t1 - r2 < tn[j] < t1):
                    continue
                shift = x1[0] - (tn[j] - t1) * v1[0]
                for xi in range(spec.n_x):
                    w = xn[xi] - shift
                    w = w - px * np.round(w / px)
                    if not w * w < R2:
                        continue
                    for vi in range(spec.n_v):
                        u = vn[vi] - v1[0]
                        u = u - pv * np.round(u / pv)
                        if not u * u < r2:
                            continue
                        members.append((j, xi, vi))
                        data.append(vals[j, xi, vi])
            if not members:
                continue
            arr = np.asarray(data)
            if mode == "maximal":
                cand = np.sum(np.abs(arr)) / len(arr)
            else:
                mean = np.sum(arr) / len(arr)
                cand = np.sum(np.abs(arr - mean)) / len(arr)
            for j, xi, vi in members:
                if cand > out[j, xi, vi]:
                    out[j, xi, vi] = cand
    return out


class TestExhaustiveOracle:
    @pytest.mark.parametrize("c,T", [(1.0, math.inf), (1.0, 0.41), (2.0, math.inf)])
    def test_maximal_matches_brute_force(self, c, T):
        f = _random_field(SMALL, seed=21)
        fam = CylinderFamily.for_grid(SMALL, c=c, T=T)
        got = maximal(f, c=c, T=T, fam=fam).values
        want = _brute(f, fam, "maximal")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("T", [math.inf, 0.41])
    def test_sharp_matches_brute_force(self, T):
        f = _random_field(SMALL, seed=22)
        fam = CylinderFamily.for_grid(SMALL, c=1.0, T=T)
        got = sharp(f, T=T, fam=fam).values
        want = _brute(f, fam, "sharp")
        assert np.array_equal(got, want)

    def test_nodes_above_the_time_cut_get_zero(self):
        f = GridField(SMALL, np.ones(SMALL.shape))
        out = maximal(f, T=0.41).values
        above = SMALL.t_nodes > 0.41
        assert np.all(out[above] == 0.0)
        assert np.all(out[~above] > 0.0)


class TestPointwiseProperties:
    def test_constant_field_maximal_is_one(self):
        f = GridField(SMALL, np.ones(SMALL.shape))
        assert np.array_equal(maximal(f).values, np.ones(SMALL.shape))

    def test_family_covers_every_node_at_every_scale(self):
        fam = CylinderFamily.for_grid(SMALL)
        counts = coverage_counts(SMALL, fam)
        assert counts.shape[0] == len(fam.radii)
        assert np.min(counts) >= 1

    def test_lebesgue_surrogate_on_a_velocity_resolving_grid(self):
        # dv exceeds the smallest radius, so minimal cylinders see exactly
        # one velocity node; for f = g(v) >= 0 the sup then dominates |f|
        spec = GridSpec(d=1, n_t=8, n_x=8, n_v=8, t_lo=0.0, t_hi=0.07,
                        L_x=0.1, L_v=2.0)
        g = np.abs(np.sin(3.0 * spec.v_nodes)) + 0.2
        f = GridField(spec, np.broadcast_to(g, spec.shape).copy())
        out = maximal(f).values
        assert np.all(out >= f.values - 1e-14)

    def test_sublinearity(self):
        f = _random_field(SMALL, 23)
        g = _random_field(SMALL, 24)
        both = maximal(GridField(SMALL, f.values + g.values)).values
        assert np.all(both <= maximal(f).values + maximal(g).values + 1e-12)

    def test_sharp_of_constant_vanishes(self):
        # a dyadic level keeps every discrete average exact
        f = GridField(SMALL, np.full(SMALL.shape, 4.5))
        assert np.array_equal(sharp(f).values, np.zeros(SMALL.shape))
        g = GridField(SMALL, np.full(SMALL.shape, 4.2))
        assert np.all(np.abs(sharp(g).values) < 1e-14)

    def test_sharp_ignores_added_constants(self):
        f = _random_field(SMALL, 25)
        g = GridField(SMALL, f.values + 17.0)
        assert sharp(g).values == pytest.approx(sharp(f).values, abs=1e-11)

    def test_sharp_below_twice_maximal(self):
        f = _random_field(SMALL, 26)
        assert np.all(sharp(f).values <= 2.0 * maximal(f).values + 1e-12)

    def test_maximal_dominates_any_single_member_average(self):
        f = GridField(SMALL, np.abs(_random_field(SMALL, 27).values))
        fam = CylinderFamily.for_grid(SMALL)
        out = maximal(f, fam=fam).values
        r = fam.radii[0]
        picked = 0
        for t1, x1, v1 in fam.centers(SMALL, r):
            members = [(j, xi, vi)
                       for j in range(SMALL.n_t)
                       if t1 - r * r < SMALL.t_nodes[j] < t1
                       for xi in range(SMALL.n_x)
                       if abs(_mi(SMALL.x_nodes[xi] - x1[0] + (SMALL.t_nodes[j] - t1) * v1[0], 2 * SMALL.L_x)) < (fam.c * r) ** 3
                       for vi in range(SMALL.n_v)
                       if abs(_mi(SMALL.v_nodes[vi] - v1[0], 2 * SMALL.L_v)) < r]
            if not members:
                continue
            avg = np.mean([f.values[m] for m in members])
            for m in members:
                assert out[m] >= avg - 1e-12
            picked += 1
            if picked >= 5:
                break
        assert picked == 5


def _mi(delta, period):
    return delta - period * round(delta / period)


class TestFamilyValidation:
    def test_bad_constructions_rejected(self):
        with pytest.raises(ValueError):
            CylinderFamily(radii=())
        with pytest.raises(ValueError):
            CylinderFamily(radii=(0.5,), c=0.5)
        with pytest.raises(ValueError):
            maximal(_random_field(SMALL, 1), c=2.0,
                    fam=CylinderFamily.for_grid(SMALL, c=1.0))

    def test_single_time_node_rejected(self):
        spec = GridSpec(d=1, n_t=1, n_x=4, n_v=4, t_lo=0.0, t_hi=0.0,
                        L_x=1.0, L_v=1.0)
        with pytest.raises(ValueError):
            CylinderFamily.for_grid(spec)


CORPUS_SPEC = GridSpec(d=1, n_t=12, n_x=12, n_v=12, t_lo=0.0, t_hi=1.0,
                       L_x=2.0, L_v=2.0)
L2 = MixedNormSpec.unmixed(2.0, d=1)


class TestBatchInvariance:
    @pytest.mark.parametrize("c", [1.0, 2.0])
    @pytest.mark.parametrize("mode", ["maximal", "sharp"])
    def test_stacked_sweep_equals_single_field_sweeps(self, mode, c):
        single = {"maximal": maximal, "sharp": sharp}[mode]
        corpus = make_corpus(CORPUS_SPEC, 4, rng=np.random.default_rng(100))
        fam = CylinderFamily.for_grid(CORPUS_SPEC, c=c)
        stacked = _sweep(np.stack([f.values for f in corpus]), CORPUS_SPEC, fam, mode)
        for f, got in zip(corpus, stacked):
            assert np.array_equal(got, single(f, c=c, fam=fam).values)


class TestHLCheck:
    def test_constant_corpus_gives_ratio_one(self):
        f = GridField(CORPUS_SPEC, np.ones(CORPUS_SPEC.shape))
        assert hl_check([f], L2) == pytest.approx(1.0, rel=1e-12)

    def test_band_limited_corpus_is_finite_and_stable(self, tmp_path):
        big = make_corpus(CORPUS_SPEC, 100, rng=np.random.default_rng(31))
        csv_path = tmp_path / "hl.csv"
        r50 = hl_check(big[:50], L2, corpus_id="hl50", csv_path=csv_path)
        r100 = hl_check(big, L2, corpus_id="hl100", csv_path=csv_path)
        assert math.isfinite(r50) and r50 >= 1.0 - 1e-12
        assert r100 >= r50 - 1e-12
        assert (r100 - r50) / r50 <= 0.10
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "corpus_id,p,r,q,c,ratio,corpus_size"
        assert len(lines) == 3 and lines[1].startswith("hl50,2.0,2.0,2.0,1.0,")

    def test_anisotropic_family_stays_finite(self):
        corpus = make_corpus(CORPUS_SPEC, 10, rng=np.random.default_rng(32))
        ratio = hl_check(corpus, L2, c=4.0)
        assert math.isfinite(ratio) and ratio > 0

    def test_zero_norm_fields_are_skipped(self):
        zero = GridField(CORPUS_SPEC, np.zeros(CORPUS_SPEC.shape))
        bump = make_corpus(CORPUS_SPEC, 1, kind="bump",
                           rng=np.random.default_rng(33))[0]
        assert hl_check([zero, bump], L2) == hl_check([bump], L2)
        with pytest.raises(ValueError, match="nonzero"):
            hl_check([zero], L2)


class TestFSCheck:
    def test_single_bump_ratio_is_finite(self):
        bump = make_corpus(CORPUS_SPEC, 1, kind="bump",
                           rng=np.random.default_rng(34))[0]
        ratio = fs_check([bump], L2)
        assert math.isfinite(ratio) and ratio > 0

    def test_scaling_the_field_keeps_the_ratio(self):
        bump = make_corpus(CORPUS_SPEC, 1, kind="bump",
                           rng=np.random.default_rng(35))[0]
        double = GridField(CORPUS_SPEC, 2.0 * bump.values)
        assert fs_check([double], L2) == pytest.approx(fs_check([bump], L2), rel=1e-9)

    def test_corpus_growth_is_stable(self):
        big = make_corpus(CORPUS_SPEC, 40, kind="bump",
                          rng=np.random.default_rng(36))
        r20 = fs_check(big[:20], L2)
        r40 = fs_check(big, L2)
        assert (r40 - r20) / r20 <= 0.10


class TestMixedNormInterplay:
    def test_maximal_norm_bounded_in_a_weighted_space(self):
        # Hardy-Littlewood ratio stays finite with a nonunit A_p weight
        from kfplab.weights import ProductWeight, Weight1D

        w = ProductWeight(
            w0=Weight1D(kind="constant", level=1.0, p=2.0),
            wi=(Weight1D(kind="power", alpha=0.5, p=2.0),),
            K=4.0 / 3.0 + 1e-6)
        nspec = MixedNormSpec(p=2.0, r=(2.0,), q=2.0, weight=w)
        corpus = make_corpus(CORPUS_SPEC, 8, rng=np.random.default_rng(37))
        ratio = hl_check(corpus, nspec)
        assert math.isfinite(ratio) and ratio > 0
