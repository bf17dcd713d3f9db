"""Configuration-driven command line front end.

One YAML config file drives each subcommand; every config is validated
against a strict schema (unknown keys rejected) before any computation.
Exit codes: 0 success, 1 a checked invariant failed (its identifier is
printed), 2 config or usage error, an unwritable output path included.
All randomness flows from a single root seed through SeedSequence spawns,
so artifacts are bit-identical for identical config and seed on one
platform.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import numbers
import operator
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .coefficients import CoefficientField, osc_prime, osc_xv
from .geometry import Cylinder, PhasePoint, QuasiMetricParams, quasi_distance_batch
from .grids import GridSpec
from .maximal import CylinderFamily, fs_check, hl_check, make_corpus
from .norms import MixedNormSpec, check_transport_grid
from .solver import (AnalyticSource, SolveConfig, SourceTerm, SpaceFactor,
                     TimeProfile, check_history_start, solve_duhamel)
from .verification import EstimateReport, random_source_corpus, solve_corpus
from .weights import ProductWeight, Weight1D, ap_constant_1d

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Anything wrong with the config or its use of the library."""


class CheckFailure(Exception):
    """A checked invariant failed; 'invariant' names it in the output."""

    def __init__(self, invariant: str, detail: str):
        super().__init__(detail)
        self.invariant = invariant


# keys of every command; the flags of the same name override them
_COMMON = {
    "seed": {"type": "integer", "minimum": 0, "exclusiveMaximum": 2 ** 64},
    "out": {"type": "string"},
    "workers": {"type": "integer", "minimum": 1},
}

_NUMS = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_TYPES = {"int": {"type": "integer"}, "float": {"type": "number"},
          "float | None": {"type": "number"}, "str": {"type": "string"},
          "tuple": _NUMS}


def _strict(properties: dict, required=None, **more) -> dict:
    """A mapping section that takes exactly these properties, the listed ones
    required; more adds keywords after the rest, in their order."""
    schema = {"type": "object", "properties": properties}
    if required is not None:
        schema["required"] = required
    return {**schema, "additionalProperties": False, **more}


def _command(properties: dict, required=None) -> dict:
    """A command's config: the _COMMON keys, then the command's own."""
    return _strict({**_COMMON, **properties}, required)


def _fields_schema(cls) -> dict:
    """The section that cls(**section) takes: exactly its fields, typed by
    annotation, those without a default required.  cls checks the values."""
    fields = dataclasses.fields(cls)
    return _strict({f.name: _TYPES[f.type] for f in fields},
                   [f.name for f in fields
                    if f.default is dataclasses.MISSING])


_GRID = _fields_schema(GridSpec)
_PROFILE = _fields_schema(TimeProfile)
_FACTOR = _fields_schema(SpaceFactor)
_SOLVER = _fields_schema(SolveConfig)

_COEFF = _strict({
    "kind": {"enum": ["constant_spd", "time_piecewise"]},
    "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "value": {"type": "number"},
    "matrix": {"type": "array", "items": _NUMS, "minItems": 1},
    "breakpoints": {"type": "array", "items": {"type": "number"}},
    "values": {"type": "array", "items": {"type": "number"}},
}, ["kind", "delta"],
    # each kind takes its own keys: value xor matrix; breakpoints and values
    allOf=[
        {"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
         "then": {"propertyNames": {"enum": ["kind", "delta", *keys]}, **rule}}
        for kind, keys, rule in [
            ("constant_spd", ["value", "matrix"],
             {"if": {"required": ["matrix"]}, "else": {"required": ["value"]},
              "then": {"propertyNames": {"enum": ["kind", "delta", "matrix"]}}}),
            ("time_piecewise", ["breakpoints", "values"],
             {"required": ["breakpoints", "values"]})]])

_SOURCE = _strict({
    "terms": {
        "type": "array",
        "minItems": 1,
        "items": _strict({"profile": _PROFILE, "factor": _FACTOR},
                         ["profile", "factor"]),
    },
}, ["terms"])

_WEIGHT1D = _strict({
    "kind": {"enum": ["constant", "power", "step"]},
    "level": {"type": "number", "exclusiveMinimum": 0},
    "alpha": {"type": "number"},
    "center": {"type": "number"},
    "breaks": {"type": "array", "items": {"type": "number"}},
    "levels": {"type": "array", "items": {"type": "number"}},
}, ["kind"])

_NORM = _strict({
    "p": {"type": "number", "exclusiveMinimum": 1},
    "r": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 1},
          "minItems": 1},
    "q": {"type": "number", "exclusiveMinimum": 1},
    "T": {"type": "number"},
    "weight": _strict({
        "t": _WEIGHT1D,
        "v": {"type": "array", "items": _WEIGHT1D, "minItems": 1},
        "K": {"type": "number", "exclusiveMinimum": 0},
    }, ["t", "v"]),
}, ["p", "r", "q"])

SCHEMAS = {
    "solve": _command({
        "grid": _GRID, "coefficients": _COEFF,
        "lam": {"type": "number", "minimum": 0},
        "source": _SOURCE, "solver": _SOLVER,
        "dump": {"type": "string"},
    }, ["grid", "coefficients", "lam", "source"]),
    "verify-estimate": _command({
        "grid": _GRID, "coefficients": _COEFF,
        "lam": {"type": "number", "minimum": 0},
        "norm": _NORM, "solver": _SOLVER,
        "corpus": _strict({"n_cases": {"type": "integer", "minimum": 1}},
                          ["n_cases"]),
        "cap": {"type": "number", "exclusiveMinimum": 0},
        "csv": {"type": "string"},
    }, ["grid", "coefficients", "lam", "norm", "corpus"]),
    "geometry-test": _command({
        "n_triples": {"type": "integer", "minimum": 1},
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1},
                 "minItems": 1},
    }, ["n_triples"]),
    "weights-ap": _command({
        "p": {"type": "number", "exclusiveMinimum": 1},
        "alphas": {"type": "array", "items": {"type": "number"},
                   "minItems": 1},
        "csv": {"type": "string"},
    }, ["p", "alphas"]),
    "maximal-bench": _command({
        "grid": _GRID, "norm": _NORM,
        "c": {"type": "number", "minimum": 1},
        "corpus": _strict({
            "n_fields": {"type": "integer", "minimum": 1},
            "kind": {"enum": ["band_limited", "bump"]},
        }, ["n_fields"]),
        "csv": {"type": "string"},
    }, ["grid", "norm", "corpus"]),
    "vmo": _command({
        "coefficients": _COEFF,
        "radii": {"type": "array", "minItems": 1,
                  "items": {"type": "number", "exclusiveMinimum": 0}},
        "center": _strict({"t": {"type": "number"}, "x": _NUMS, "v": _NUMS},
                          ["t", "x", "v"]),
        "n_pairs": {"type": "integer", "minimum": 100},
        "n_slices": {"type": "integer", "minimum": 2},
        "n_probes": {"type": "integer", "minimum": 1},
        "expect_time_only": {"type": "boolean"},
        "csv": {"type": "string"},
    }, ["coefficients", "radii", "center"]),
    "report": _command({
        "inputs": {"type": "array", "items": {"type": "string"}},
        "summary": {"type": "string"},
    }),
}


# JSON Schema's integer admits 2.0, which no integer key can use
_KINDS = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": numbers.Number, "integer": int}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum")}


def _is(x, kind: str) -> bool:
    return isinstance(x, _KINDS[kind]) and isinstance(x, bool) == (kind == "boolean")


def _errors(schema: dict, x, path=()):
    """Yield (-len(path), path, rank, message) for each keyword of schema that
    x fails, in jsonschema 4.26's order and words; rank: schema names no type
    that x has.  The first error of greatest key e[:3] is its best_match."""
    rank = "type" not in schema or not _is(x, schema["type"])
    for key, arg in schema.items():
        found, subs = [], []
        if key == "type" and rank:
            found = [f"{x!r} is not of type {arg!r}"]
        elif key in _BOUNDS and _is(x, "number") and _BOUNDS[key][0](x, arg):
            found = [f"{x!r} is {_BOUNDS[key][1]} of {arg!r}"]
        elif key == "enum" and x not in arg:
            found = [f"{x!r} is not one of {arg!r}"]
        elif key == "const" and x != arg:
            found = [f"{arg!r} was expected"]
        elif key == "minItems" and _is(x, "array") and len(x) < arg:
            found = [f"{x!r} {'should be non-empty' if arg == 1 else 'is too short'}"]
        elif key == "required" and _is(x, "object"):
            found = [f"{k!r} is a required property" for k in arg if k not in x]
        elif key == "additionalProperties" and _is(x, "object") and arg is False:
            extra = sorted((k for k in x if k not in schema["properties"]), key=str)
            found = [f"Additional properties are not allowed ({str(extra)[1:-1]} "
                     f"{'were' if extra[1:] else 'was'} unexpected)"] * bool(extra)
        elif key == "properties" and _is(x, "object"):
            subs = [(s, x[k], path + (k,)) for k, s in arg.items() if k in x]
        elif key == "items" and _is(x, "array"):
            subs = [(arg, item, path + (i,)) for i, item in enumerate(x)]
        elif key == "propertyNames" and _is(x, "object"):
            subs = [(arg, k, path) for k in x]
        elif key == "allOf":
            subs = [(s, x, path) for s in arg]
        elif key == "if":
            branch = "else" if any(_errors(arg, x)) else "then"
            subs = [(schema.get(branch, {}), x, path)]
        yield from ((-len(path), path, rank, message) for message in found)
        for sub in subs:
            yield from _errors(*sub)


def _schema_violation(schema: dict, cfg) -> tuple | None:
    """(path, message) of the best_match among cfg's errors, None if valid."""
    best = max(_errors(schema, cfg), key=lambda e: e[:3], default=None)
    return best and best[1::2]


_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_config(command: str, path: str, flags: dict) -> dict:
    """The config file's mapping with the set command-line flags merged in,
    checked against the command's schema."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = yaml.load(text, Loader=_FAST_LOADER)
    except Exception:
        # libyaml words its errors differently: SafeLoader's result or
        # error stands, so every message matches the pure-Python parser's
        try:
            cfg = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    cfg.update(flags)
    error = _schema_violation(SCHEMAS[command], cfg)
    if error is not None:
        where = "/".join(map(str, error[0])) or "<root>"
        raise ConfigError(f"schema violation at {where}: {error[1]}")
    return cfg


def _checked(section: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); a value that fn rejects is a config error of
    the section."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _build(cls, section: str, values: dict):
    """cls(**values) with lists passed as tuples, checked as the section."""
    return _checked(section, cls, **{k: tuple(v) if isinstance(v, list) else v
                                     for k, v in values.items()})


def _build_coefficients(cfg: dict, d: int) -> CoefficientField:
    """Coefficients at the grid dimension d.  A scalar value, a 1x1 matrix
    and each piecewise value multiply the d-dimensional identity."""
    try:
        if cfg["kind"] == "constant_spd":
            matrix = np.array(cfg.get("matrix") or [[cfg["value"]]], float)
            if matrix.shape == (1, 1):
                matrix = matrix[0, 0] * np.eye(d)
            elif matrix.shape[0] != d:
                raise ConfigError(f"coefficient dimension {matrix.shape[0]} "
                                  f"does not match grid {d}")
            return CoefficientField(kind="constant_spd", d=d,
                                    delta=cfg["delta"], matrix=matrix)
        mats = tuple(val * np.eye(d) for val in cfg["values"])
        return CoefficientField(kind="time_piecewise", d=d, delta=cfg["delta"],
                                breakpoints=tuple(cfg["breakpoints"]),
                                matrices=mats)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"coefficients: {exc}") from exc


def _build_source(cfg: dict) -> AnalyticSource:
    terms = tuple(SourceTerm(_build(TimeProfile, "source", term["profile"]),
                             _build(SpaceFactor, "source", term["factor"]))
                  for term in cfg["terms"])
    return _build(AnalyticSource, "source", {"terms": terms})


def _build_norm(cfg: dict, d: int) -> MixedNormSpec:
    r = tuple(cfg["r"])
    if len(r) != d:
        raise ConfigError(f"norm lists {len(r)} velocity exponents for "
                          f"dimension {d}")
    # the exponents are checked, naming their keys, before the weights take them
    spec = _build(MixedNormSpec, "norm", {"p": cfg["p"], "r": r, "q": cfg["q"],
                                          "T": cfg.get("T", math.inf)})
    if "weight" not in cfg:
        return spec
    wcfg = cfg["weight"]
    if len(wcfg["v"]) != d:
        raise ConfigError("weight lists the wrong number of velocity factors")
    weight = _build(ProductWeight, "norm", {
        "w0": _build(Weight1D, "norm", {**wcfg["t"], "p": cfg["q"]}),
        "wi": tuple(_build(Weight1D, "norm", {**wc, "p": ri})
                    for wc, ri in zip(wcfg["v"], r)),
        "K": wcfg.get("K", math.inf)})
    return _checked("norm", dataclasses.replace, spec, weight=weight)


def _build_sections(command: str, cfg: dict) -> dict:
    """The library objects of the config's sections, each checked as it is
    built, so a dry run rejects what a run would reject."""
    built = {}
    if "grid" in cfg:
        built["grid"] = _build(GridSpec, "grid", cfg["grid"])
        if command == "verify-estimate":
            _checked("grid", check_transport_grid, built["grid"])
    if "center" in cfg:
        built["center"] = _build(PhasePoint, "center", cfg["center"])
    if "coefficients" in cfg:
        d = built["grid"].d if "grid" in built else built["center"].d
        built["coefficients"] = _build_coefficients(cfg["coefficients"], d)
    if "source" in cfg:
        built["source"] = _build_source(cfg["source"])
        _checked("source", built["source"].check_modes, built["grid"])
    if "norm" in cfg:
        built["norm"] = _build_norm(cfg["norm"], built["grid"].d)
    if "solver" in SCHEMAS[command]["properties"]:
        built["solver"] = _build(SolveConfig, "solver", cfg.get("solver", {}))
    if command == "geometry-test":
        built["dims"] = cfg.get("dims", [1, 2, 3])
    if command == "maximal-bench":
        built["family"] = _checked("maximal-bench", CylinderFamily.for_grid,
                                   built["grid"], c=cfg.get("c", 1.0),
                                   T=built["norm"].T)
    if command == "verify-estimate":
        built["corpus"] = _checked("corpus", random_source_corpus, cfg["seed"],
                                   cfg["corpus"]["n_cases"], built["grid"])
    if "solver" in built:  # what each of the run's solves would refuse
        sources = ([built["source"]] if "source" in built
                   else [source for _, source in built["corpus"]])
        for source in sources:
            _checked(command, check_history_start, built["coefficients"],
                     cfg["lam"], source, built["grid"], built["solver"])
    if command == "weights-ap":
        built["weights"] = [_build(Weight1D, "weights-ap",
                                   {"kind": "power", "p": cfg["p"], "alpha": alpha})
                            for alpha in cfg["alphas"]]
    if command == "vmo":
        built["cylinders"] = [_build(Cylinder, "radii",
                                     {"center": built["center"], "r": r, "R": r})
                              for r in cfg["radii"]]
    return built


def _parallel_map(fn, items, workers: int) -> list:
    """Order-preserving map; a thread pool when workers exceed one, so the
    reduction and any CSV output stay deterministic."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_rows(path: Path, header: tuple, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(header))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in header})


def _cmd_solve(cfg: dict, built: dict, out_dir: Path) -> None:
    spec = built["grid"]
    try:
        u = solve_duhamel(built["coefficients"], cfg["lam"], built["source"],
                          spec, built["solver"])
    except ValueError as exc:
        raise ConfigError(f"solve: {exc}") from exc
    path = out_dir / cfg.get("dump", "solution.bin")
    u.dump(path)
    center = u.values[spec.n_t // 2]
    print(f"dump={path}")
    print(f"center_slice_max={np.max(np.abs(center)):.15e}")


def _cmd_verify_estimate(cfg: dict, built: dict, out_dir: Path) -> None:
    spec, a, nspec = built["grid"], built["coefficients"], built["norm"]

    def one(case):
        return solve_corpus([case], a, cfg["lam"], spec, nspec,
                            config=built["solver"])

    try:
        parts = _parallel_map(one, list(built["corpus"]), cfg["workers"])
    except ValueError as exc:
        raise ConfigError(f"verify-estimate: {exc}") from exc
    rows = [row for part in parts for row in part.rows]
    if not rows:
        raise CheckFailure("estimate_nonempty",
                           "every corpus case had a zero right side")
    report = EstimateReport(tuple(rows), metadata={"seed": cfg["seed"]})
    path = out_dir / cfg.get("csv", "estimate.csv")
    report.to_csv(path)
    print(f"csv={path}")
    print(f"cases={len(rows)}")
    print(f"max_ratio={report.max_ratio:.15e}")
    if "cap" in cfg and report.max_ratio > cfg["cap"]:
        raise CheckFailure("estimate_cap",
                           f"max ratio {report.max_ratio} exceeds cap "
                           f"{cfg['cap']}")


def _cmd_geometry_test(cfg: dict, built: dict, out_dir: Path) -> None:
    n = cfg["n_triples"]
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    for d in built["dims"]:
        bad_sym = 0
        bad_tri = 0
        checked = 0
        while checked < n:
            m = min(50_000, n - checked)
            params = QuasiMetricParams(c=float(rng.uniform(1.0, 10.0)))
            pts = [[rng.uniform(-10.0, 10.0, shape) for shape in (m, (m, d), (m, d))]
                   for _ in range(3)]
            (t, x, v), (t0, x0, v0), (t1, x1, v1) = pts
            d_z_z0 = quasi_distance_batch(t, x, v, t0, x0, v0, params)
            d_z0_z = quasi_distance_batch(t0, x0, v0, t, x, v, params)
            d_z_z1 = quasi_distance_batch(t, x, v, t1, x1, v1, params)
            d_z1_z0 = quasi_distance_batch(t1, x1, v1, t0, x0, v0, params)
            # a non-finite distance checks nothing, so it counts as a violation
            finite = np.isfinite(d_z_z0 + d_z0_z + d_z_z1 + d_z1_z0)
            bad_sym += int(np.sum(~(finite & (d_z_z0 <= 2.0 * d_z0_z))))
            bad_tri += int(np.sum(~(finite & (d_z_z0 <= 2.0 * (d_z_z1 + d_z1_z0)))))
            checked += m
        print(f"checked {checked} triples in d={d}: "
              f"quasi_symmetry violations={bad_sym}, "
              f"quasi_triangle violations={bad_tri}")
        if bad_sym:
            raise CheckFailure("quasi_symmetry", f"d={d}: {bad_sym} violations")
        if bad_tri:
            raise CheckFailure("quasi_triangle", f"d={d}: {bad_tri} violations")


def _cmd_weights_ap(cfg: dict, built: dict, out_dir: Path) -> None:
    p = cfg["p"]
    rows = []
    for w in built["weights"]:
        constant = ap_constant_1d(w, p)
        rows.append({"alpha": w.alpha, "p": p, "constant": constant,
                     "finite": math.isfinite(constant)})
    path = out_dir / cfg.get("csv", "weights_ap.csv")
    _write_rows(path, ("alpha", "p", "constant", "finite"), rows)
    print(f"csv={path}")
    for row in rows:
        print(f"alpha={row['alpha']} constant={row['constant']}")
    for row in rows:
        in_class = -1.0 < row["alpha"] < p - 1.0
        if in_class is not row["finite"]:
            raise CheckFailure(
                "ap_power_class",
                f"alpha={row['alpha']} finite={row['finite']} but the class "
                f"window (-1, {p - 1}) says {in_class}")


def _cmd_maximal_bench(cfg: dict, built: dict, out_dir: Path) -> None:
    spec, nspec = built["grid"], built["norm"]
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    corpus = make_corpus(spec, cfg["corpus"]["n_fields"],
                         cfg["corpus"].get("kind", "band_limited"), rng)
    c = built["family"].c
    rows = []
    for kind, check in (("hl", hl_check), ("fs", fs_check)):
        t0 = time.perf_counter()
        try:
            ratio = check(corpus, nspec, c=c, fam=built["family"])
        except ValueError as exc:
            raise ConfigError(f"maximal-bench: {exc}") from exc
        elapsed = time.perf_counter() - t0
        rows.append({"kind": kind, "ratio": ratio, "seconds": elapsed,
                     "corpus_size": len(corpus), "c": c})
        print(f"{kind}_ratio={ratio:.6e} seconds={elapsed:.3f}")
    path = out_dir / cfg.get("csv", "maximal.csv")
    _write_rows(path, ("kind", "ratio", "seconds", "corpus_size", "c"), rows)
    print(f"csv={path}")
    for row in rows:
        if not math.isfinite(row["ratio"]):
            raise CheckFailure("maximal_ratio_finite",
                               f"{row['kind']} ratio is {row['ratio']}")


def _cmd_vmo(cfg: dict, built: dict, out_dir: Path) -> None:
    a, center = built["coefficients"], built["center"]
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    n_pairs = cfg.get("n_pairs", 4000)
    n_slices = cfg.get("n_slices", 16)
    n_probes = cfg.get("n_probes", 8)
    rows = []
    for Q in built["cylinders"]:
        r = Q.r
        osc, osc_err = osc_xv(a, Q, n_pairs=n_pairs, n_slices=n_slices,
                              rng=rng)
        probes = [PhasePoint(t=center.t - rng.uniform(0.0, r ** 2),
                             x=center.x + rng.uniform(-1.0, 1.0, center.d),
                             v=center.v + rng.uniform(-1.0, 1.0, center.d))
                  for _ in range(n_probes)]
        prime, prime_err = osc_prime(a, r, probes, n_pairs=n_pairs, rng=rng)
        rows.append({"r": r, "osc_xv": osc, "osc_xv_err": osc_err,
                     "osc_prime": prime, "osc_prime_err": prime_err})
        print(f"r={r} osc_xv={osc:.6e} osc_prime={prime:.6e}")
    path = out_dir / cfg.get("csv", "vmo.csv")
    _write_rows(path, ("r", "osc_xv", "osc_xv_err", "osc_prime",
                       "osc_prime_err"), rows)
    print(f"csv={path}")
    if cfg.get("expect_time_only", False):
        for row in rows:
            if row["osc_xv"] > 3.0 * row["osc_xv_err"] + 1e-12:
                raise CheckFailure(
                    "osc_time_only",
                    f"r={row['r']}: osc_xv={row['osc_xv']} exceeds 3 sigma "
                    f"of a time-only coefficient")


def _cmd_report(cfg: dict, built: dict, out_dir: Path) -> None:
    names, summary = cfg.get("inputs"), cfg.get("summary", "summary.csv")
    if names:
        paths = [out_dir / name for name in names]
    else:
        paths = sorted(p for p in out_dir.glob("*.csv")
                       if p.name != summary)
    if not paths:
        raise ConfigError("no CSV inputs to merge")
    rows = []
    for path in paths:
        try:
            with open(path, newline="") as fh:
                data = list(csv.DictReader(fh))
            ratios = [float(row["ratio"]) for row in data
                      if "ratio" in row and row["ratio"] not in ("", None)]
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        rows.append({"file": path.name, "rows": len(data),
                     "max_ratio": max(ratios) if ratios else ""})
    path = out_dir / summary
    _write_rows(path, ("file", "rows", "max_ratio"), rows)
    print(f"summary={path}")
    for row in rows:
        print(f"{row['file']}: rows={row['rows']} max_ratio={row['max_ratio']}")


_RUNNERS = {
    "solve": _cmd_solve,
    "verify-estimate": _cmd_verify_estimate,
    "geometry-test": _cmd_geometry_test,
    "weights-ap": _cmd_weights_ap,
    "maximal-bench": _cmd_maximal_bench,
    "vmo": _cmd_vmo,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kfplab",
        description="Numerical laboratory for a model kinetic equation: "
                    "solve cases, verify estimate ratios, and benchmark the "
                    "geometric toolbox from YAML configs.")
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=None, help="output directory "
                        "(overrides the config; default '.')")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed (overrides the config; default 0)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: available cores)")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and print the plan only")
    args = parser.parse_args(argv)

    flags = {key: getattr(args, key) for key in _COMMON
             if getattr(args, key) is not None}
    try:
        cfg = _load_config(args.command, args.config, flags)
        cfg.setdefault("seed", 0)
        cfg.setdefault("workers", os.cpu_count() or 1)
        out_dir = Path(cfg.get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        built = _build_sections(args.command, cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dry_run:
        print(f"plan: {args.command} config={args.config} out={out_dir} "
              f"seed={cfg['seed']} workers={cfg['workers']}")
        keys = ", ".join(sorted(set(cfg) - set(_COMMON)))
        print(f"plan: validated sections: {keys or '<defaults>'}")
        return EXIT_OK

    try:
        _RUNNERS[args.command](cfg, built, out_dir)
    except CheckFailure as exc:
        print(f"FAIL {exc.invariant}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
