"""kfplab benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports kfplab from its ``src``
directory.  Set-up is the import plus SETUPS builds of the workload, each
making the inputs from the seed and running one untimed warm-up case;
``setup_s`` is the import time plus the median build.  Then cases run back
to back in this process for ``--seconds``; each is checked right after it,
off the clock and untraced.  With ``--trace 1`` every other case runs with
the tracer installed; the cases in between give the tracer's overhead.
Checks that need more runs of the program run after the window.

Output: ``metric`` and ``check`` lines, the environment, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
result is also written to ``perfbench/out/<workload>-trace<0|1>.json`` and a
traced run's spans to ``perfbench/out/<workload>-spans.jsonl.gz``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5                # builds per run; setup_s takes their median

END_TO_END = {            # name -> unit
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_s": "s",
    "peak_rss_mb": "MB",
}

# Checks printed next to the metrics: name -> unit.  Each failed case also
# counts in the result's "failed".
CHECKS = {
    "closure_rel_max": "rel",
    "selfconv_rel_max": "rel",
    "failed_frac": "ratio",
}

# Per-layer metrics, each per traced case: (name, unit, source, key).
# source "span" reads a span total (calls, busy, self), "count" a counter
# the tracer kept, "derived" a ratio computed in per_layer_metrics.
PER_LAYER = (
    ("solver.solve_duhamel.calls", "count/case", "span", "calls"),
    ("solver.solve_duhamel.busy_s", "s/case", "span", "busy"),
    ("solver.solve_duhamel.self_s", "s/case", "span", "self"),
    ("solver.lattice_points", "count/case", "count", None),
    ("solver.AnalyticSource.sample.busy_s", "s/case", "span", "busy"),
    ("solver.apply_operator.busy_s", "s/case", "span", "busy"),
    ("fractional.SpectralField.to_grid.calls", "count/case", "span", "calls"),
    ("fractional.SpectralField.to_grid.busy_s", "s/case", "span", "busy"),
    ("fractional.frac_laplacian_x.busy_s", "s/case", "span", "busy"),
    ("fractional.dv_frac_sixth_magnitude.busy_s", "s/case", "span", "busy"),
    ("norms.mixed_norm.calls", "count/case", "span", "calls"),
    ("norms.mixed_norm.busy_s", "s/case", "span", "busy"),
    ("norms.transport_derivative.busy_s", "s/case", "span", "busy"),
    ("norms.v_gradient_magnitude.busy_s", "s/case", "span", "busy"),
    ("norms.v_hessian_magnitude.busy_s", "s/case", "span", "busy"),
    ("norms.spectral_derivative.calls", "count/case", "count", None),
    ("verification.solve_corpus.busy_s", "s/case", "span", "busy"),
    ("verification.solve_corpus.self_s", "s/case", "span", "self"),
    ("verification.estimate_ratio.calls", "count/case", "span", "calls"),
    ("verification.estimate_ratio.self_s", "s/case", "span", "self"),
    ("verification.random_source_corpus.busy_s", "s/case", "span", "busy"),
    ("verification.EstimateReport.to_csv.busy_s", "s/case", "span", "busy"),
    ("verification.csv_bytes", "B/case", "count", None),
    ("cli.main.calls", "count/case", "span", "calls"),
    ("cli.main.wall_s", "s/case", "span", "busy"),
    ("cli.main.self_s", "s/case", "span", "self"),
    ("cli.concurrency", "ratio", "derived", None),
    ("coefficients.CoefficientField.eval.calls", "count/case", "count", None),
    ("maximal.make_corpus.busy_s", "s/case", "span", "busy"),
    ("maximal.hl_check.self_s", "s/case", "span", "self"),
    ("maximal.fs_check.self_s", "s/case", "span", "self"),
    ("maximal.cylinders", "count/case", "count", None),
    ("grids.GridField.from_callable.busy_s", "s/case", "span", "busy"),
    ("weights.kinetic_ap_functional.calls", "count/case", "span", "calls"),
    ("weights.kinetic_ap_functional.self_s", "s/case", "span", "self"),
    ("weights.accept_ratio", "ratio", "derived", None),
    ("geometry.symmetrized_distance_batch.calls", "count/case", "span", "calls"),
    ("geometry.symmetrized_distance_batch.busy_s", "s/case", "span", "busy"),
    ("geometry.symmetrized_distance_batch.points", "count/case", "count", None),
    ("trace.spans", "count/case", "derived", None),
    ("trace.overhead", "ratio", "derived", None),
)


def _import_kfplab():
    """Put the checkout's src first on the path and import from there only."""
    src = ROOT / "src"
    if not (src / "kfplab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kfplab sources under {src}; run from a "
                 f"kfplab checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import kfplab
    if Path(kfplab.__file__).resolve().parent != (src / "kfplab").resolve():
        sys.exit(f"perfbench: imported kfplab from {kfplab.__file__}, "
                 f"not from {src}")


def environment() -> dict:
    """Machine and software facts recorded with every result."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def set_up(workload: str, seed: int, sizes, workdir: Path) -> tuple:
    """Build the workload from the seed and warm it up with one untimed
    case, SETUPS times.  Returns the last build and the median time of a
    build."""
    import workloads
    took = []
    for _ in range(SETUPS):
        s0 = time.perf_counter()
        wl = workloads.WORKLOADS[workload](seed, sizes, workdir)
        wl.warmup()
        took.append(time.perf_counter() - s0)
    return wl, statistics.median(took)


def window(wl, seconds: float, tracer=None) -> dict:
    """Run cases 0, 1, ... of a set-up workload back to back for the given
    seconds.  Each case is checked right after it, off the clock and
    untraced.  With a tracer, every other case runs traced."""
    times, traced, reasons, kept, accuracy = [], [], [], [], {}
    paused = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        on = tracer is not None and i % 2 == 0
        if on:
            tracer.install()
        c0 = time.perf_counter()
        try:
            with tracer.request(i) if on else contextlib.nullcontext():
                out = wl.case(i)
        except Exception:  # a failing case is counted, not fatal
            out = None
            if "case raised an exception" not in reasons:
                traceback.print_exc(file=sys.stderr)
        c1 = time.perf_counter()
        if on:
            tracer.uninstall()
        times.append(c1 - c0)
        traced.append(on)
        keep = None
        if out is None:
            reasons.append("case raised an exception")
        else:
            failure, acc, keep = wl.check_case(i, out)
            reasons.append(failure)
            for name, value in acc.items():
                accuracy.setdefault(name, []).append(value)
        kept.append((i, keep))
        del out
        paused += time.perf_counter() - c1
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or i >= 2):
            break
    return {
        "elapsed_s": time.perf_counter() - start - paused,
        "case_s": times, "traced": traced, "reasons": reasons, "kept": kept,
        "accuracy": accuracy,
    }


def per_layer_metrics(tracer, n_traced: int, traced_s: list,
                      untraced_s: list) -> dict:
    totals = tracer.totals()
    out = {}
    for name, unit, source, key in PER_LAYER:
        if source == "span":
            value = totals.get(name.rsplit(".", 1)[0], {}).get(key, 0) / n_traced
        elif source == "count":
            value = tracer.counts.get(name, 0) / n_traced
        elif name == "cli.concurrency":
            main = totals.get("cli.main")
            value = main["child_busy"] / main["busy"] if main else 0.0
        elif name == "weights.accept_ratio":
            draws = tracer.counts.get("weights.draws", 0)
            value = tracer.counts.get("weights.accepted", 0) / draws if draws else 0.0
        elif name == "trace.spans":
            value = len(tracer.spans) / n_traced
        else:  # trace.overhead
            value = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
        out[name] = {"value": value, "unit": unit, "n": n_traced}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, sizes,
        workdir: Path, import_s: float = 0.0) -> dict:
    """One benchmark invocation in this process: set up, run the timed
    window, then the checks that need more runs of the program.  import_s
    is how long importing kfplab took, counted in setup_s.  Returns the
    full result."""
    from tracer import Tracer

    wl, build_s = set_up(workload, seed, sizes, workdir)
    tracer = Tracer() if trace else None
    win = window(wl, seconds, tracer)

    run_fail, run_checks = wl.check_run(win["kept"])
    reasons = [r or rf for r, rf in zip(win["reasons"], run_fail)]
    checks = {name: {"value": max(vals), "n": len(vals)}
              for name, vals in win["accuracy"].items()}
    for name, (value, n) in run_checks.items():
        checks[name] = {"value": value, "n": n}
    n_failed = sum(r is not None for r in reasons)
    checks["failed_frac"] = {"value": n_failed / len(reasons), "n": len(reasons)}
    correct = n_failed == 0 and not any(math.isnan(c["value"])
                                        for c in checks.values())

    times, traced = win["case_s"], win["traced"]
    if trace:
        metrics = per_layer_metrics(
            tracer, sum(traced), [t for t, on in zip(times, traced) if on],
            [t for t, on in zip(times, traced) if not on])
    else:
        values = {
            "setup_s": (import_s + build_s, SETUPS),
            "cases_per_s": (len(times) / win["elapsed_s"], len(times)),
            "case_p50_s": (statistics.median(times), len(times)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, 1),
        }
        metrics = {name: {"value": values[name][0], "unit": unit,
                          "n": values[name][1]}
                   for name, unit in END_TO_END.items()}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": correct, "attempted": len(reasons),
        "failed": n_failed, "metrics": metrics, "checks": checks,
        "case_s": times, "failures": [r for r in reasons if r is not None],
        "tracer": tracer,
    }


def report(result: dict, env: dict, out_dir: Path = OUT) -> None:
    """Print the human-readable lines, write the result files, and print
    the contract's JSON line last."""
    w, tr = result["workload"], result["trace"]
    print(f"# perfbench {w} seed={result['seed']} seconds={result['seconds']} "
          f"trace={tr}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    for name, c in result["checks"].items():
        print(f"check {name} = {c['value']:.3e} {CHECKS[name]} (n={c['n']})")
    for reason in result["failures"][:5]:
        print(f"# failed: {reason}")
    out_dir.mkdir(exist_ok=True)
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"{w}-spans.jsonl.gz")
    (out_dir / f"{w}-trace{tr}.json").write_text(
        json.dumps(dict(result, env=env), indent=1))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _import_kfplab()
    import workloads
    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     workloads.FULL, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(result, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
