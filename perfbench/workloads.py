"""The benchmark's workloads: inputs made from a seed, one timed case, checks.

Every workload is a closed loop with one client: the next case starts only
after the previous one has returned.  A workload's constructor makes its
inputs (part of set-up), ``warmup()`` runs case 0 once untimed, and
``case(i)`` is the timed unit.  ``check_case`` checks one case right after
it, off the clock and untraced, and returns what ``check_run`` needs;
outputs are not kept otherwise, so memory does not grow with the number of
cases.  ``check_run`` receives (case index, kept data) pairs and does the
checks that need more runs of the program, after the timed window and
untraced.

Workloads reach kfplab only through public names, looked up on the module
at call time (``solver.solve_duhamel``, ``cli.main``, ...) so that the
tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from kfplab import cli, solver, weights
from kfplab.coefficients import CoefficientField, LowerOrderTerms
from kfplab.geometry import PhasePoint
from kfplab.grids import GridSpec
from kfplab.verification import TERM_KEYS, EstimateReport

POOL = 64  # distinct inputs made per run; cases cycle through them

CLOSURE_BOUND = 1e-6     # criterion 01
HL_FLOOR = 1.0 - 1e-12   # criterion 07: the maximal function dominates |f|
KINETIC_CAP = 50.0       # criterion 06
REFINED_SOLVER = {"quad_order": 16, "h0": 1e-4, "growth": 1.1}
SERIAL_CHECKS = 8        # cli_estimate requests compared with --workers 1


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY keeps its tests fast."""

    closure_grid: tuple          # (n_t, n_x, n_v)
    estimate_grid: tuple
    estimate_cases: int
    maximal_grid: int
    maximal_fields: int
    kinetic_configs: int
    kinetic_samples: int


FULL = Sizes(closure_grid=(65, 64, 64), estimate_grid=(17, 24, 24),
             estimate_cases=8, maximal_grid=12, maximal_fields=4,
             kinetic_configs=16, kinetic_samples=5000)
TINY = Sizes(closure_grid=(17, 48, 48), estimate_grid=(5, 8, 8),
             estimate_cases=2, maximal_grid=8, maximal_fields=4,
             kinetic_configs=2, kinetic_samples=400)


def child_seeds(seed: int, n: int) -> list:
    """n independent 32-bit seeds spawned from the run seed."""
    return [int(c.generate_state(1)[0])
            for c in np.random.SeedSequence(seed).spawn(n)]


def _quiet_main(argv) -> int:
    """cli.main with its stdout discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Closure:
    """Criterion-01 Gaussian pulses plus one always-on velocity mode per
    source on a 65 x 64 x 64 grid, A = I, lambda = 1; one case is one solve.
    The solver's arithmetic is nearly all of the case time."""

    name = "closure"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        n_t, n_x, n_v = sizes.closure_grid
        self.spec = GridSpec(d=1, n_t=n_t, n_x=n_x, n_v=n_v, t_lo=0.0,
                             t_hi=1.0, L_x=8.0 * math.pi, L_v=3.0 * math.pi)
        self.a = CoefficientField(kind="constant_spd", d=1, delta=0.5,
                                  matrix=np.eye(1))
        self.lam = 1.0
        self.lot = LowerOrderTerms(b_fn=lambda t, x, v: np.zeros(np.shape(x)),
                                   c_fn=lambda t, x, v: np.zeros(np.shape(t)),
                                   L=0.0, lam=self.lam)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        base = math.pi / self.spec.L_v   # velocity frequency lattice step
        self.sources = [self._source(rng, base) for _ in range(POOL)]

    @staticmethod
    def _source(rng, base):
        pulse = solver.SourceTerm(
            solver.TimeProfile(kind="pulse", center=float(rng.uniform(0.4, 0.65)),
                               width=float(rng.uniform(0.4, 0.55)),
                               poly=(1.0, float(rng.uniform(-0.3, 0.3)))),
            solver.SpaceFactor(kind="gaussian",
                               amplitude=float(rng.uniform(0.5, 1.5)),
                               x_center=(float(rng.uniform(-2.0, 2.0)),),
                               x_sigma=float(rng.uniform(2.2, 3.0)),
                               x_freq=(float(rng.uniform(0.0, 0.3)),),
                               x_phase=(float(rng.uniform(0.0, 1.0)),),
                               v_center=(float(rng.uniform(-0.5, 0.5)),),
                               v_sigma=float(rng.uniform(0.9, 1.1)),
                               v_freq=(float(rng.uniform(0.0, 0.4)),),
                               v_phase=(float(rng.uniform(0.0, 1.0)),)))
        # switched on long before t = 0, so the window sees the steady mode
        mode = solver.SourceTerm(
            solver.TimeProfile(kind="boxcar", start=-40.0, stop=50.0),
            solver.SpaceFactor(kind="v_mode",
                               amplitude=float(rng.uniform(0.2, 0.6)),
                               mode_freq=(int(rng.integers(1, 7)) * base,),
                               mode_phase=float(rng.uniform(0.0, 2.0 * math.pi))))
        return solver.AnalyticSource((pulse, mode))

    def warmup(self):
        self.case(0)

    def case(self, i):
        return solver.solve_duhamel(self.a, self.lam, self.sources[i % POOL],
                                    self.spec)

    def check_case(self, i, u) -> tuple:
        """(failure or None, {check name: value}, what check_run needs)."""
        fs = self.sources[i % POOL].sample(self.spec).values
        resid = solver.apply_operator(self.a, self.lot, u).values - fs
        rel = math.sqrt(np.mean(resid ** 2)) / math.sqrt(np.mean(fs ** 2))
        failure = None
        if not rel <= CLOSURE_BOUND:
            failure = f"closure residual {rel:.3e} > {CLOSURE_BOUND:g}"
        return failure, {"closure_rel_max": rel}, None

    def check_run(self, kept) -> tuple:
        """(per-case failures, {check name: (value, samples)}) from the
        (index, kept) pairs; kept is None where a case raised."""
        return [None] * len(kept), {}


class CliEstimate:
    """In-process `verify-estimate` requests at the default --workers, one
    child seed per request, 8 cases each on a 17 x 24 x 24 grid with a
    time-piecewise coefficient spanning the admissible range (1, 9, 40 at
    delta 0.02) and the weighted (2, 3, 4) mixed norm.  Small solves, so
    per-call overhead, the estimate stack, config handling, CSV output and
    the thread pool all weigh in; the A = 40 piece shows the h0 defect."""

    name = "cli_estimate"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.dir = workdir
        n_t, n_x, n_v = sizes.estimate_grid
        cfg = {
            "grid": {"d": 1, "n_t": n_t, "n_x": n_x, "n_v": n_v, "t_lo": 0.0,
                     "t_hi": 1.0, "L_x": 5.0, "L_v": 5.0},
            "coefficients": {"kind": "time_piecewise", "delta": 0.02,
                             "breakpoints": [0.35, 0.7],
                             "values": [1.0, 9.0, 40.0]},
            "lam": 1.0,
            "norm": {"p": 2.0, "r": [3.0], "q": 4.0,
                     "weight": {"t": {"kind": "power", "alpha": 0.5},
                                "v": [{"kind": "power", "alpha": 0.5}]}},
            "corpus": {"n_cases": sizes.estimate_cases},
            "csv": "estimate.csv",
        }
        self.config = workdir / "estimate.yaml"
        self.config.write_text(yaml.safe_dump(cfg))
        refined = dict(cfg, solver=REFINED_SOLVER, csv="refined.csv")
        self.refined_config = workdir / "refined.yaml"
        self.refined_config.write_text(yaml.safe_dump(refined))
        self.seeds = child_seeds(seed, POOL)
        self.first = {}   # seed -> CSV text of its first run

    def _request(self, seed, extra=(), refined=False) -> tuple:
        """One verify-estimate request; returns (exit code, CSV text)."""
        config, csv = ((self.refined_config, "refined.csv") if refined
                       else (self.config, "estimate.csv"))
        code = _quiet_main(["verify-estimate", "--config", str(config),
                            "--out", str(self.dir), "--seed", str(seed),
                            *extra])
        return code, (self.dir / csv).read_text() if code == 0 else ""

    def warmup(self):
        code, text = self.case(0)
        if code == 0:
            self.first[self.seeds[0]] = text

    def case(self, i):
        return self._request(self.seeds[i % POOL])

    def check_case(self, i, out) -> tuple:
        code, text = out
        if code != 0:
            return f"exit code {code}", {}, None
        # the first request repeats the warm-up's seed
        if self.first.setdefault(self.seeds[i % POOL], text) != text:
            return "CSV differs from an earlier run of the seed", {}, None
        return None, {}, text

    def _report(self, text: str) -> EstimateReport:
        path = self.dir / "check.csv"
        path.write_text(text)
        return EstimateReport.from_csv(path)

    def _round_trips(self, text: str) -> bool:
        try:
            report = self._report(text)
        except ValueError:
            return False
        path = self.dir / "roundtrip.csv"
        report.to_csv(path)
        return path.read_text() == text

    def check_run(self, kept) -> tuple:
        serial = {}
        failures = []
        for n, (i, text) in enumerate(kept):
            if text is None:
                failures.append(None)
                continue
            if not self._round_trips(text):
                failures.append("CSV does not round-trip through from_csv")
                continue
            seed = self.seeds[i % POOL]
            if n < SERIAL_CHECKS and seed not in serial:
                serial[seed] = self._request(seed, ("--workers", "1"))
            if serial.get(seed, (0, text)) != (0, text):
                failures.append("CSV differs from the --workers 1 run")
                continue
            failures.append(None)
        # one refined reference per invocation, on the seed of the first
        # timed request
        if not kept or kept[0][1] is None:
            return failures, {"selfconv_rel_max": (math.nan, 0)}
        first, text = kept[0]
        code, ref = self._request(self.seeds[first % POOL], ("--workers", "1"),
                                  refined=True)
        if code != 0:
            return failures, {"selfconv_rel_max": (math.nan, 0)}
        got = self._report(text).rows
        want = self._report(ref).rows
        dev = max(abs(g[k] - w[k]) / abs(w[k])
                  for g, w in zip(got, want) for k in TERM_KEYS if w[k] != 0)
        return failures, {"selfconv_rel_max": (dev, len(got))}


class Toolbox:
    """No solver: one round is a `maximal-bench` request (hl and fs over a
    seeded corpus on a 12^3 grid) and a block of criterion-06 kinetic A_p
    configurations.  The cylinder sweep, the Monte Carlo sampler and the
    symmetrized distance do nearly all the work."""

    name = "toolbox"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.dir = workdir
        self.sizes = sizes
        n = sizes.maximal_grid
        cfg = {
            "grid": {"d": 1, "n_t": n, "n_x": n, "n_v": n, "t_lo": 0.0,
                     "t_hi": 1.0, "L_x": 2.0, "L_v": 2.0},
            "norm": {"p": 2.0, "r": [2.0], "q": 2.0},
            "c": 1.0,
            "corpus": {"n_fields": sizes.maximal_fields, "kind": "band_limited"},
            "csv": "maximal.csv",
        }
        self.config = workdir / "maximal.yaml"
        self.config.write_text(yaml.safe_dump(cfg))
        self.seeds = child_seeds(seed, POOL)

    def warmup(self):
        self.case(0)

    def case(self, i):
        seed = self.seeds[i % POOL]
        code = _quiet_main(["maximal-bench", "--config", str(self.config),
                            "--out", str(self.dir), "--seed", str(seed)])
        ratios = {}
        if code == 0:
            for line in (self.dir / "maximal.csv").read_text().splitlines()[1:]:
                kind, ratio = line.split(",")[:2]
                ratios[kind] = float(ratio)
        rng = np.random.default_rng([seed, 1])  # apart from the corpus stream
        n_samples = self.sizes.kinetic_samples
        quotients = []
        for _ in range(self.sizes.kinetic_configs):
            z0 = PhasePoint(rng.uniform(-3, 3), rng.uniform(-3, 3, 1),
                            rng.uniform(-2, 2, 1))
            r = float(rng.uniform(0.2, 2.5))
            c = float(rng.uniform(1.0, 3.0))
            val, _ = weights.kinetic_ap_functional(0.5, 2.0, r, z0, c=c,
                                                   n_samples=n_samples, rng=rng)
            quotients.append(val)
        z0 = PhasePoint(0.0, np.array([2.0]), np.array([-1.0]))
        unweighted = weights.kinetic_ap_functional(0.0, 2.0, 1.3, z0, c=2.0,
                                                   n_samples=n_samples, rng=rng)
        return code, ratios, quotients, unweighted

    def check_case(self, i, out) -> tuple:
        code, ratios, quotients, (val0, se0) = out
        hl, fs = ratios.get("hl", math.nan), ratios.get("fs", math.nan)
        if code != 0:
            failure = f"maximal-bench exit code {code}"
        elif not hl >= HL_FLOOR:
            failure = f"hl ratio {hl!r} below {HL_FLOOR!r}"
        elif not (math.isfinite(fs) and fs > 0):
            failure = f"fs ratio {fs!r} is not finite and positive"
        elif not max(quotients) < KINETIC_CAP:
            failure = f"kinetic quotient {max(quotients):.3f} >= {KINETIC_CAP:g}"
        elif not abs(val0 - 1.0) <= 3.0 * se0 + 1e-12:
            failure = (f"alpha = 0 quotient {val0!r} is not 1 within 3 "
                       f"standard errors ({se0!r})")
        else:
            failure = None
        return failure, {}, None

    def check_run(self, kept) -> tuple:
        return [None] * len(kept), {}


WORKLOADS = {w.name: w for w in (Closure, CliEstimate, Toolbox)}
