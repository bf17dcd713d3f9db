"""Maximal and sharp functions: exhaustive oracle equality and norm checks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kfplab import maximal as maximal_module
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
TINY_D2 = GridSpec(d=2, n_t=4, n_x=4, n_v=4, t_lo=0.0, t_hi=0.5, L_x=1.3, L_v=1.1)


def _random_field(spec, seed):
    rng = np.random.default_rng(seed)
    return GridField(spec, rng.standard_normal(spec.shape))


def _mi(delta, period):
    return delta - period * round(delta / period)


def _min_image_norm2(deltas, period):
    total = 0.0
    for delta in deltas:
        delta = _mi(delta, period)
        total = total + delta * delta
    return total


def _brute(field, fam, mode):
    # independent per-(cylinder, node) loop over every axis; shares only the
    # family's center enumeration, which is part of the operator definition.
    # Mode 'count' returns per-scale membership counts.
    spec = field.spec
    tn, xn, vn = spec.t_nodes, spec.x_nodes, spec.v_nodes
    px, pv = 2.0 * spec.L_x, 2.0 * spec.L_v
    x_cells = list(itertools.product(range(spec.n_x), repeat=spec.d))
    v_cells = list(itertools.product(range(spec.n_v), repeat=spec.d))
    vals = field.values
    if mode == "count":
        out = np.zeros((len(fam.radii),) + spec.shape, dtype=np.int64)
    else:
        out = np.zeros(spec.shape)
    for s, r in enumerate(fam.radii):
        r2 = r * r
        R3 = (fam.c * r) ** 3
        R2 = R3 * R3
        for t1, x1, v1 in fam.centers(spec, r):
            v_mem = [vc for vc in v_cells
                     if _min_image_norm2([vn[i] - v1[a] for a, i in enumerate(vc)], pv) < r2]
            members = []
            for j in range(spec.n_t):
                if not (t1 - r2 < tn[j] < t1):
                    continue
                shift = [x1[a] - (tn[j] - t1) * v1[a] for a in range(spec.d)]
                for xc in x_cells:
                    if _min_image_norm2([xn[i] - shift[a] for a, i in enumerate(xc)], px) < R2:
                        members.extend((j,) + xc + vc for vc in v_mem)
            if not members:
                continue
            if mode == "count":
                for node in members:
                    out[(s,) + node] += 1
                continue
            arr = np.asarray([vals[node] for node in members])
            if mode == "maximal":
                cand = np.sum(np.abs(arr)) / len(arr)
            else:
                mean = np.sum(arr) / len(arr)
                cand = np.sum(np.abs(arr - mean)) / len(arr)
            for node in members:
                if cand > out[node]:
                    out[node] = cand
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

    @pytest.mark.parametrize("c,T", [(1.0, math.inf), (2.0, 0.41)])
    def test_d2_sweep_matches_brute_force(self, c, T):
        # every velocity center of a (r, t1) pass runs in one batch
        f = _random_field(TINY_D2, seed=28)
        fam = CylinderFamily.for_grid(TINY_D2, c=c, T=T)
        assert np.array_equal(maximal(f, c=c, T=T, fam=fam).values,
                              _brute(f, fam, "maximal"))
        assert np.array_equal(sharp(f, c=c, T=T, fam=fam).values,
                              _brute(f, fam, "sharp"))
        assert np.array_equal(coverage_counts(TINY_D2, fam),
                              _brute(f, fam, "count"))

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


class TestFamilyValidation:
    def test_bad_constructions_rejected(self):
        with pytest.raises(ValueError):
            CylinderFamily(radii=())
        with pytest.raises(ValueError):
            CylinderFamily(radii=(0.5,), c=0.5)
        with pytest.raises(ValueError):
            maximal(_random_field(SMALL, 1), c=2.0,
                    fam=CylinderFamily.for_grid(SMALL, c=1.0))

    @pytest.mark.parametrize("c", [math.inf, 1.0e110])
    def test_non_finite_x_extent_rejected(self, c):
        with pytest.raises(ValueError, match=r"\bc="):
            CylinderFamily(radii=(1.0,), c=c)
        with pytest.raises(ValueError, match=r"\bc="):
            CylinderFamily.for_grid(SMALL, c=c)

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

    @pytest.mark.parametrize("spec", [CORPUS_SPEC, TINY_D2], ids=["d1", "d2"])
    @pytest.mark.parametrize("mode", ["maximal", "sharp", "count"])
    def test_block_budget_does_not_change_results(self, monkeypatch, spec, mode):
        # a tiny budget splits every velocity-center chunk and every gather
        fields = np.random.default_rng(101).standard_normal((3,) + spec.shape)
        fam = CylinderFamily.for_grid(spec, c=2.0)
        want = _sweep(fields, spec, fam, mode)
        monkeypatch.setattr(maximal_module, "_BLOCK", 64)
        assert np.array_equal(_sweep(fields, spec, fam, mode), want)


class TestPlanCache:
    @pytest.mark.parametrize("spec", [CORPUS_SPEC, TINY_D2], ids=["d1", "d2"])
    @pytest.mark.parametrize("mode", ["maximal", "sharp", "count"])
    def test_cold_warm_and_over_budget_plans_agree(self, monkeypatch, spec, mode):
        monkeypatch.setattr(maximal_module, "_kept_plan", (None, ()))
        fields = np.random.default_rng(102).standard_normal((3,) + spec.shape)
        fam = CylinderFamily.for_grid(spec, c=2.0)
        m = 1 if mode == "count" else 3

        def sweep():
            if mode == "count":
                return coverage_counts(spec, fam)
            return _sweep(fields, spec, fam, mode)

        cold = sweep()
        assert maximal_module._kept_plan[0] == (spec, fam, m, maximal_module._BLOCK)
        built = []
        real = maximal_module._plan_chunks
        monkeypatch.setattr(maximal_module, "_plan_chunks",
                            lambda *args: built.append(args) or real(*args))
        warm = sweep()
        assert built == []
        monkeypatch.setattr(maximal_module, "_kept_plan", (None, ()))
        monkeypatch.setattr(maximal_module, "_PLAN_BUDGET", 0)
        streamed = sweep()
        assert len(built) == 1 and maximal_module._kept_plan == (None, ())
        assert np.array_equal(warm, cold) and np.array_equal(streamed, cold)

    def test_block_is_part_of_the_key(self, monkeypatch):
        fields = np.random.default_rng(103).standard_normal((3,) + TINY_D2.shape)
        fam = CylinderFamily.for_grid(TINY_D2)
        _sweep(fields, TINY_D2, fam, "sharp")
        assert maximal_module._kept_plan[0] == (TINY_D2, fam, 3, maximal_module._BLOCK)
        blocks = []
        real = maximal_module._plan_chunks
        monkeypatch.setattr(maximal_module, "_plan_chunks",
                            lambda *args: blocks.append(maximal_module._BLOCK) or real(*args))
        monkeypatch.setattr(maximal_module, "_BLOCK", 64)
        _sweep(fields, TINY_D2, fam, "sharp")
        assert blocks == [64]

    def test_cached_toolbox_plan_fits_the_budget(self, monkeypatch):
        # the perfbench toolbox sweep: 4 fields on a 12^3 grid, c = 1
        monkeypatch.setattr(maximal_module, "_kept_plan", (None, ()))
        fields = np.random.default_rng(104).standard_normal((4,) + CORPUS_SPEC.shape)
        fam = CylinderFamily.for_grid(CORPUS_SPEC)
        with monkeypatch.context() as mp:
            # a sweep that keeps no plan first, so numpy's lazy state is set up
            mp.setattr(maximal_module, "_PLAN_BUDGET", 0)
            _sweep(fields, CORPUS_SPEC, fam, "maximal")
        tracemalloc.start()
        try:
            _sweep(fields, CORPUS_SPEC, fam, "maximal")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        key, chunks = maximal_module._kept_plan
        assert key is not None
        assert sum(v_in.nbytes + x_in.nbytes + sum(a.nbytes for g in groups for a in g)
                   for _, _, _, v_in, x_in, groups in chunks) <= maximal_module._PLAN_BUDGET
        assert held <= 1_000_000  # its arrays and their Python objects


class TestSweepMemory:
    def test_d2_sharp_sweep_peak_stays_bounded(self):
        # the temporaries stay within the chunk budget; unchunked, one pass
        # over all velocity centers peaks at 9 MB or more here
        spec = GridSpec(d=2, n_t=3, n_x=8, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=2.0)
        fields = np.random.default_rng(38).standard_normal((4,) + spec.shape)
        fam = CylinderFamily.for_grid(spec)
        tracemalloc.start()
        try:
            _sweep(fields, spec, fam, "sharp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestHLCheck:
    def test_constant_corpus_gives_ratio_one(self):
        f = GridField(CORPUS_SPEC, np.ones(CORPUS_SPEC.shape))
        assert hl_check([f], L2) == pytest.approx(1.0, rel=1e-12)

    def test_band_limited_corpus_is_finite_and_stable(self):
        big = make_corpus(CORPUS_SPEC, 100, rng=np.random.default_rng(31))
        r50 = hl_check(big[:50], L2)
        r100 = hl_check(big, L2)
        assert math.isfinite(r50) and r50 >= 1.0 - 1e-12
        assert r100 >= r50 - 1e-12
        assert (r100 - r50) / r50 <= 0.10

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
