"""Empirical checks of the a priori estimates on solver output.

Each solved case yields one row: the six left-side terms of the Sobolev
estimate (zeroth order, velocity gradient and Hessian, the two fractional
position terms, and the transport derivative), the source norm on the
right side, and their ratio.  Rows aggregate into reports that drive three
kinds of checks:

  * frozen-cap sweeps: the largest ratio over a calibration corpus, padded
    with headroom and then frozen, must dominate a disjoint validation
    corpus (the estimates assert constants exist, never their values);
  * power-law fits: the worst-case ratio against the ellipticity multiplier
    follows ratio ~ delta^-theta, with a designed single-mode case whose
    exponent is known exactly;
  * localized inequalities: the Caccioppoli bound on nested slanted
    cylinders and the gradient interpolation inequality, again with fitted
    and then frozen constants.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientField
from .fractional import SpectralField, dv_frac_sixth_magnitude, frac_laplacian_x
from .geometry import Cylinder, PhasePoint, cylinder_contains_batch
from .grids import GridField, GridSpec
from .norms import (MixedNormSpec, mixed_norm, transport_derivative,
                    v_gradient_magnitude, v_hessian_magnitude,
                    x_gradient_magnitude, x_hessian_magnitude)
from .solver import (AnalyticSource, SolveConfig, SourceTerm, SpaceFactor,
                     TimeProfile, solve_duhamel)

__all__ = [
    "CSV_HEADER",
    "TERM_KEYS",
    "EstimateReport",
    "estimate_ratio",
    "random_source_corpus",
    "random_band_limited_corpus",
    "solve_corpus",
    "frozen_cap",
    "DeltaSweepResult",
    "delta_sweep",
    "designed_mode_factory",
    "lambda_mode_ratio",
    "cylinder_l2",
    "caccioppoli_check",
    "interpolation_fit",
    "interpolation_check",
]

CSV_HEADER = ("case_id", "delta", "lambda", "p", "r", "q", "weight",
              "term_u", "term_dv", "term_d2v", "term_fracx", "term_dvfrac",
              "term_transport", "rhs", "ratio")

TERM_KEYS = ("term_u", "term_dv", "term_d2v", "term_fracx", "term_dvfrac",
             "term_transport")

_STR_KEYS = ("case_id", "r", "weight")


@dataclass(frozen=True)
class EstimateReport:
    """Estimate rows plus fitted exponents and run metadata.

    The term columns store the summands as they enter the left side, with
    the lambda and sqrt(lambda) prefactors already applied, so every row
    satisfies ratio * rhs = sum of the term columns; construction enforces
    that identity.
    """

    rows: tuple
    exponents: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(dict(r) for r in self.rows))
        for row in self.rows:
            missing = [k for k in CSV_HEADER if k not in row]
            if missing:
                raise ValueError(f"row is missing columns {missing}")
            want = self.recompute_ratio(row)
            if not abs(row["ratio"] - want) <= 1e-12 * max(abs(want), 1.0):
                raise ValueError("stored ratio does not match the stored norms")

    @staticmethod
    def recompute_ratio(row: dict) -> float:
        return sum(row[k] for k in TERM_KEYS) / row["rhs"]

    @property
    def max_ratio(self) -> float:
        if not self.rows:
            raise ValueError("empty report has no ratios")
        return max(row["ratio"] for row in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row[k] for k in CSV_HEADER})

    @classmethod
    def from_csv(cls, path) -> "EstimateReport":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != CSV_HEADER:
                raise ValueError("unexpected report header")
            for raw in reader:
                rows.append({k: (raw[k] if k in _STR_KEYS else float(raw[k]))
                             for k in CSV_HEADER})
        return cls(tuple(rows))


def estimate_ratio(u: GridField, f: GridField, lam: float,
                   nspec: MixedNormSpec, *, case_id: str = "case",
                   delta: float = 1.0) -> dict:
    """One estimate row for a solution/source pair.

    Left side: lam ||u|| + lam^{1/2} ||Dv u|| + ||D2v u|| + ||frac_x u||
    + ||Dv frac_x^{1/2} u|| + ||Yu||, every norm taken in the given mixed
    spec; right side ||f||.
    """
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    rhs = mixed_norm(f, nspec)
    if rhs == 0:
        raise ValueError("zero right side leaves the ratio undefined")
    row = {
        "case_id": case_id,
        "delta": float(delta),
        "lambda": float(lam),
        "p": nspec.p,
        "r": ";".join(str(ri) for ri in nspec.r),
        "q": nspec.q,
        "weight": "unit" if nspec.weight is None else "custom",
        "term_u": lam * mixed_norm(u, nspec),
        "term_dv": math.sqrt(lam) * mixed_norm(v_gradient_magnitude(u), nspec),
        "term_d2v": mixed_norm(v_hessian_magnitude(u), nspec),
        "term_fracx": mixed_norm(frac_laplacian_x(u, 1.0 / 3.0), nspec),
        "term_dvfrac": mixed_norm(dv_frac_sixth_magnitude(u), nspec),
        "term_transport": mixed_norm(transport_derivative(u), nspec),
        "rhs": rhs,
    }
    row["ratio"] = sum(row[k] for k in TERM_KEYS) / rhs
    return row


def random_source_corpus(seed: int, n_cases: int, out_spec: GridSpec) -> tuple:
    """Gaussian-modulated pulse sources that decay well inside the box.

    The corpus shape is fixed: pulse centers in the middle 0.3-0.7 of the
    time window with widths 0.08-0.14 of it; Gaussian centers within 0.25
    of the half-lengths, widths 0.07-0.11 of them and frequencies up to 2.
    The tails at the torus edge then fall below roughly 1e-9 of the peak,
    keeping the periodized solve consistent with plain point samples.
    Returns (case_id, source) pairs; deterministic in the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = out_spec.d
    window = out_spec.t_hi - out_spec.t_lo
    cases = []
    for i in range(n_cases):
        profile = TimeProfile(
            kind="pulse",
            center=out_spec.t_lo + window * rng.uniform(0.3, 0.7),
            width=window * rng.uniform(0.08, 0.14),
            poly=(1.0, rng.uniform(-0.3, 0.3)))
        factor = SpaceFactor(
            kind="gaussian",
            amplitude=rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)),
            x_center=tuple(rng.uniform(-0.25, 0.25, d) * out_spec.L_x),
            x_sigma=out_spec.L_x * rng.uniform(0.07, 0.11),
            x_freq=tuple(rng.uniform(0.0, 2.0, d)),
            x_phase=tuple(rng.uniform(0.0, 2.0 * math.pi, d)),
            v_center=tuple(rng.uniform(-0.25, 0.25, d) * out_spec.L_v),
            v_sigma=out_spec.L_v * rng.uniform(0.07, 0.11),
            v_freq=tuple(rng.uniform(0.0, 2.0, d)),
            v_phase=tuple(rng.uniform(0.0, 2.0 * math.pi, d)))
        cases.append((f"g{i:02d}", AnalyticSource((SourceTerm(profile, factor),))))
    return tuple(cases)


def random_band_limited_corpus(seed: int, n_cases: int, spec: GridSpec, *,
                               x_band: int = 3) -> tuple:
    """Random real fields with spectrum confined to a low-frequency block
    (|velocity index| <= 3) and time dependence of harmonic order <= 2."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if spec.n_x <= 2 * x_band or spec.n_v <= 6:
        raise ValueError("band exceeds the grid Nyquist block")
    xidx = np.arange(-x_band, x_band + 1) % spec.n_x
    vidx = np.arange(-3, 4) % spec.n_v
    s = np.linspace(0.0, 1.0, spec.n_t)
    fields = []
    for _ in range(n_cases):
        curve = rng.normal() * np.ones_like(s)
        for j in range(1, 3):
            curve = curve + rng.normal() * np.cos(j * math.pi * s)
            curve = curve + rng.normal() * np.sin(j * math.pi * s)
        block_shape = (len(xidx),) * spec.d + (len(vidx),) * spec.d
        block = rng.normal(size=block_shape) + 1j * rng.normal(size=block_shape)
        coeffs = np.zeros(spec.shape, dtype=complex)
        sel = np.ix_(np.arange(spec.n_t), *([xidx] * spec.d), *([vidx] * spec.d))
        coeffs[sel] = curve.reshape((-1,) + (1,) * 2 * spec.d) * block
        fields.append(SpectralField(spec, coeffs).to_grid())
    return tuple(fields)


def solve_corpus(corpus, a: CoefficientField, lam: float, out_spec: GridSpec,
                 nspec: MixedNormSpec, *, config: SolveConfig | None = None,
                 delta_label: float | None = None) -> EstimateReport:
    """Solve every corpus source and collect estimate rows.

    Cases whose sampled source has zero norm are skipped (the ratio is
    undefined there).  delta_label overrides the delta column; the default
    records the coefficient field's declared ellipticity.
    """
    rows = []
    for case_id, src in corpus:
        u = solve_duhamel(a, lam, src, out_spec, config)
        fg = src.sample(out_spec)
        if mixed_norm(fg, nspec) == 0:
            continue
        rows.append(estimate_ratio(
            u, fg, lam, nspec, case_id=case_id,
            delta=a.delta if delta_label is None else delta_label))
    meta = {"grid": (out_spec.n_t, out_spec.n_x, out_spec.n_v),
            "d": out_spec.d, "lam": float(lam)}
    return EstimateReport(tuple(rows), {}, meta)


def frozen_cap(report: EstimateReport, headroom: float = 1.2) -> float:
    """Cap fitted on a calibration report: the largest ratio plus headroom.
    Freeze the returned value before touching the validation corpus."""
    if not headroom >= 1.0:
        raise ValueError("headroom below one would shave the fitted cap")
    return headroom * report.max_ratio


@dataclass(frozen=True)
class DeltaSweepResult:
    """Worst-case ratios per ellipticity multiplier and their power-law fit.

    slope is the log-log slope of worst ratio against delta; theta_hat is
    its negation, the exponent in ratio ~ delta^-theta.  fit_residual is
    the largest absolute log deviation from the fitted line.
    """

    deltas: tuple
    worst_ratios: tuple
    slope: float
    theta_hat: float
    fit_residual: float
    report: EstimateReport


def delta_sweep(factories, deltas, lam: float, out_spec: GridSpec,
                nspec: MixedNormSpec) -> DeltaSweepResult:
    """Sweep a = delta * I over the given multipliers and fit the worst-case
    ratio growth.

    factories holds (case_id, make) pairs with make(delta) returning the
    source for that multiplier, so warm-up windows can stretch as the
    diffusion slows down.  A single multiplier yields NaN fit fields.
    """
    deltas = tuple(float(dd) for dd in deltas)
    if not deltas or not all(0.0 < dd <= 1.0 for dd in deltas):
        raise ValueError("multipliers must lie in (0, 1]")
    rows = []
    worst = []
    for dd in deltas:
        a = CoefficientField(kind="constant_spd", d=out_spec.d,
                             delta=min(dd, 1.0 - 1e-12),
                             matrix=dd * np.eye(out_spec.d))
        part = solve_corpus([(case_id, make(dd)) for case_id, make in factories],
                            a, lam, out_spec, nspec, delta_label=dd)
        rows.extend(part.rows)
        worst.append(max((row["ratio"] for row in part.rows), default=0.0))
    if len(deltas) >= 2:
        logd = np.log(deltas)
        logw = np.log(worst)
        coeff = np.polyfit(logd, logw, 1)
        slope = float(coeff[0])
        resid = float(np.max(np.abs(np.polyval(coeff, logd) - logw)))
    else:
        slope = math.nan
        resid = math.nan
    report = EstimateReport(tuple(rows),
                            {"slope": slope, "theta_hat": -slope},
                            {"deltas": deltas, "lam": float(lam)})
    return DeltaSweepResult(deltas, tuple(worst), slope, -slope, resid, report)


def designed_mode_factory():
    """Worst-case single-mode source for the delta sweep: cos(v), on from
    -30/delta to 100 and constant in position.

    The warm-up start stretches like 1/delta so the output window only
    sees the steady state u = cos(v) / (delta + lam); at lam = 0 the sweep
    ratio is then 1/delta exactly.  Frequency 1 must sit on the velocity
    frequency lattice of the output grid.
    """
    def make(delta: float) -> AnalyticSource:
        profile = TimeProfile(kind="boxcar", start=-30.0 / delta, stop=100.0)
        factor = SpaceFactor(kind="v_mode", mode_freq=(1.0,), mode_phase=0.0)
        return AnalyticSource((SourceTerm(profile, factor),))

    return make


def lambda_mode_ratio(delta: float, xi_norm: float, lam: float) -> float:
    """Closed-form zeroth-order ratio lam ||u|| / ||f|| for the steady
    velocity mode at frequency magnitude xi_norm under a = delta * I: the
    mode solves (delta xi^2 + lam) u_hat = f_hat, so the ratio is
    lam / (delta xi^2 + lam), which never exceeds one."""
    if delta <= 0 or lam < 0 or xi_norm == 0 and lam == 0:
        raise ValueError("need delta > 0, lam >= 0, and a nonzero symbol")
    return lam / (delta * xi_norm ** 2 + lam)


def cylinder_l2(g: GridField, Q: Cylinder) -> float:
    """Rectangle-rule L2 norm of g over the grid nodes inside the cylinder."""
    spec = g.spec
    if spec.n_t < 2:
        raise ValueError("cylinder norm needs a time window")
    t, x, v = spec.mesh()
    mask = cylinder_contains_batch(Q, t.ravel(), x.reshape(-1, spec.d),
                                   v.reshape(-1, spec.d))
    cell = spec.dt * spec.dx ** spec.d * spec.dv ** spec.d
    return math.sqrt(float(np.sum(g.values.ravel()[mask] ** 2)) * cell)


def caccioppoli_check(u: GridField, f: GridField, delta: float,
                      center: PhasePoint, r1: float, R1: float,
                      r2: float, R2: float, *,
                      n_cap: float | None = None) -> dict:
    """Localized velocity-derivative bound on nested slanted cylinders.

    With f the full operator output (source plus lam u absorbed), checks

      delta^-2 (r2-r1)^-1 ||Dv u|| + ||D2v u||   over Q_{r1,R1}

    against

      delta^-1 ||f|| + delta^-4 ((r2-r1)^-2 + r2 (R2-R1)^-3) ||u||
                                                 over Q_{r2,R2}.

    With n_cap None the row only reports the pieces and their ratio (the
    fitting pass); otherwise passed states whether ratio <= n_cap.
    """
    if not (0.0 < r1 < r2 and 0.0 < R1 < R2):
        raise ValueError("radii must be nested: 0 < r1 < r2 and 0 < R1 < R2")
    inner = Cylinder(center=center, r=r1, R=R1, side="past")
    outer = Cylinder(center=center, r=r2, R=R2, side="past")
    lhs_dv = delta ** -2 / (r2 - r1) * cylinder_l2(v_gradient_magnitude(u), inner)
    lhs_d2v = cylinder_l2(v_hessian_magnitude(u), inner)
    rhs_f = delta ** -1 * cylinder_l2(f, outer)
    rhs_u = (delta ** -4 * ((r2 - r1) ** -2 + r2 * (R2 - R1) ** -3)
             * cylinder_l2(u, outer))
    lhs = lhs_dv + lhs_d2v
    rhs = rhs_f + rhs_u
    if lhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs
    return {
        "r1": r1, "R1": R1, "r2": r2, "R2": R2, "delta": delta,
        "lhs_dv": lhs_dv, "lhs_d2v": lhs_d2v, "lhs": lhs,
        "rhs_f": rhs_f, "rhs_u": rhs_u, "rhs": rhs, "ratio": ratio,
        "n_cap": n_cap,
        "passed": None if n_cap is None else bool(ratio <= n_cap),
    }


def _interpolation_norms(u: GridField, nspec: MixedNormSpec) -> tuple:
    return (mixed_norm(x_gradient_magnitude(u), nspec),
            mixed_norm(x_hessian_magnitude(u), nspec),
            mixed_norm(u, nspec))


def interpolation_fit(corpus, eps_set, nspec: MixedNormSpec) -> float:
    """Smallest constant N with ||Dx u|| <= eps ||D2x u|| + N eps^-1 ||u||
    across the corpus and every eps in the set."""
    need = 0.0
    for u in corpus:
        grad, hess, zero = _interpolation_norms(u, nspec)
        for eps in eps_set:
            gap = grad - eps * hess
            if gap <= 0.0:
                continue
            if zero == 0.0:
                return math.inf
            need = max(need, gap * eps / zero)
    return need


def interpolation_check(corpus, eps_set, nspec: MixedNormSpec,
                        n_frozen: float) -> dict:
    """Assert the gradient interpolation inequality with a frozen constant.

    worst_excess is the largest violation ||Dx u|| - eps ||D2x u||
    - n_frozen eps^-1 ||u|| over the corpus; the check passes when it is
    not positive.
    """
    worst = -math.inf
    count = 0
    for u in corpus:
        grad, hess, zero = _interpolation_norms(u, nspec)
        for eps in eps_set:
            worst = max(worst, grad - eps * hess - n_frozen / eps * zero)
            count += 1
    return {"passed": bool(worst <= 0.0), "worst_excess": worst,
            "n_frozen": n_frozen, "cases": count}
