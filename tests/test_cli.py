"""Command line front end: schema validation, exit codes, artifacts, and
reproducibility of CSV output under identical config and seed."""

import copy
import csv
import dataclasses
import functools
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

import kfplab
from kfplab import cli
from kfplab import maximal as maximal_module
from kfplab.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, SCHEMAS, main
from kfplab.coefficients import CoefficientField
from kfplab.grids import GridField, GridSpec
from kfplab.solver import (AnalyticSource, SolveConfig, SourceTerm,
                           SpaceFactor, TimeProfile, solve_duhamel)


# the CLI's schema check before it had its own validator, kept as the oracle:
# jsonschema's latest draft with an integer type that refuses 2.0, and its
# best_match among the errors
_DRAFT = validator_for({})
_ORACLE = extend(_DRAFT, type_checker=_DRAFT.TYPE_CHECKER.redefine(
    "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)))
_OWN_VIOLATION = cli._schema_violation


def _oracle_violation(schema, cfg):
    error = best_match(_ORACLE(schema).iter_errors(cfg))
    return error and (tuple(error.absolute_path), error.message)


@pytest.fixture(autouse=True)
def _checked_against_the_oracle(monkeypatch):
    """Every config that a test here loads also checks that the CLI's own
    validator reports jsonschema's error, or none where jsonschema has none."""
    def checked(schema, cfg):
        got = _OWN_VIOLATION(schema, cfg)
        assert got == _oracle_violation(schema, cfg)
        return got

    monkeypatch.setattr(cli, "_schema_violation", checked)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def _steady_solve_config():
    return {
        "grid": {"d": 1, "n_t": 9, "n_x": 4, "n_v": 32, "t_lo": 0.0,
                 "t_hi": 1.0, "L_x": 2.0, "L_v": 2.0 * math.pi},
        "coefficients": {"kind": "constant_spd", "value": 1.0, "delta": 0.9},
        "lam": 1.0,
        "source": {"terms": [{
            "profile": {"kind": "boxcar", "start": -26.0, "stop": 50.0},
            "factor": {"kind": "v_mode", "mode_freq": [1.0],
                       "mode_phase": 0.0},
        }]},
    }


def _pulse_solve_config():
    """The steady config with a Gaussian pulse term, which the history
    quadrature solves."""
    payload = _steady_solve_config()
    term = payload["source"]["terms"][0]
    term["profile"] = {"kind": "pulse", "center": 0.5, "width": 0.2}
    term["factor"] = {"kind": "gaussian", "x_center": [0.0],
                      "x_freq": [0.0], "x_phase": [0.0],
                      "v_center": [0.0], "v_freq": [0.0], "v_phase": [0.0]}
    return payload


def _src_env():
    """The environment with this package's source tree first on PYTHONPATH."""
    src = str(Path(kfplab.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _capped_main(args):
    """main(args) in a child process capped at 1 GiB of address space, with
    one BLAS thread and a 60 s timeout, so a regression that lays out too
    many panels fails without exhausting the machine."""
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from kfplab.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(_src_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code] + args,
                          capture_output=True, text=True, env=env, timeout=60)


def _d2_solve_config(coefficients):
    return {
        "grid": {"d": 2, "n_t": 3, "n_x": 4, "n_v": 8, "t_lo": 0.0,
                 "t_hi": 1.0, "L_x": 2.0, "L_v": 2.0 * math.pi},
        "coefficients": coefficients,
        "lam": 1.0,
        "source": {"terms": [{
            "profile": {"kind": "boxcar", "start": -3.0, "stop": 0.6},
            "factor": {"kind": "v_mode", "mode_freq": [1.0, 0.5],
                       "mode_phase": 0.2},
        }]},
    }


def _estimate_config(n_cases=2):
    return {
        "grid": {"d": 1, "n_t": 9, "n_x": 16, "n_v": 16, "t_lo": 0.0,
                 "t_hi": 1.0, "L_x": 5.0, "L_v": 5.0},
        "coefficients": {"kind": "constant_spd", "value": 1.0,
                         "delta": 0.999},
        "lam": 1.0,
        "norm": {"p": 2.0, "r": [2.0], "q": 2.0},
        "corpus": {"n_cases": n_cases},
    }


class TestSolveCommand:
    def test_steady_config_dumps_half_amplitude(self, tmp_path, capsys):
        cfg = _write(tmp_path, "solve.yaml", _steady_solve_config())
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "center_slice_max=" in out
        field = GridField.load(tmp_path / "solution.bin")
        center = field.values[field.spec.n_t // 2]
        assert np.max(np.abs(center)) == pytest.approx(0.5, abs=1e-8)

    def test_dry_run_plans_without_artifacts(self, tmp_path, capsys):
        cfg = _write(tmp_path, "solve.yaml", _steady_solve_config())
        code = main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--dry-run"])
        assert code == EXIT_OK
        assert "plan:" in capsys.readouterr().out
        assert not (tmp_path / "solution.bin").exists()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        payload = _steady_solve_config()
        payload["unexpected"] = 1
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.yaml")])
        assert code == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unclosed\n")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    # libyaml parses first; a failure is re-parsed so SafeLoader words it
    @pytest.mark.parametrize("text", ["grid: [1, 2\n", "a: b: c\n", "\tkey: 1\n"],
                             ids=["unclosed-flow", "nested-mapping", "leading-tab"])
    def test_invalid_yaml_message_is_safe_loaders(self, tmp_path, capsys, text):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        with pytest.raises(yaml.YAMLError) as want:
            yaml.load(text, Loader=yaml.SafeLoader)
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config is not valid YAML: {want.value}\n")

    def test_off_lattice_mode_is_config_error(self, tmp_path, capsys):
        payload = _steady_solve_config()
        payload["source"]["terms"][0]["factor"]["mode_freq"] = [1.03]
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("coefficients", [
        {"kind": "constant_spd", "value": 2.0, "delta": 0.4},
        {"kind": "constant_spd", "matrix": [[2.0]], "delta": 0.4},
    ])
    def test_scalar_coefficients_build_at_the_grid_dimension(self, tmp_path,
                                                              coefficients):
        payload = _d2_solve_config(coefficients)
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        got = GridField.load(tmp_path / "solution.bin")
        a = CoefficientField(kind="constant_spd", d=2, delta=0.4,
                             matrix=2.0 * np.eye(2))
        src = AnalyticSource((SourceTerm(
            TimeProfile(kind="boxcar", start=-3.0, stop=0.6),
            SpaceFactor(kind="v_mode", mode_freq=(1.0, 0.5), mode_phase=0.2)),))
        want = solve_duhamel(a, 1.0, src, got.spec)
        assert np.array_equal(got.values, want.values)

    # the schema's minimum admits .nan and .inf; with .inf the quadrature's
    # first step is 0 and its panel ladder would never advance
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lam_is_config_error(self, tmp_path, capsys, lam):
        payload = _steady_solve_config()
        payload["lam"] = lam
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "nonnegative" in capsys.readouterr().err

    # the schema admits .nan and .inf for every number; the solve used to
    # spin forever (pulse width, t_hi), print nan (amplitude, x_sigma,
    # poly, value), return zeros (center) or die on a nan cast (t_lo)
    @pytest.mark.parametrize("where,key,value", [
        ("profile", "width", math.inf), ("grid", "t_hi", math.inf),
        ("factor", "amplitude", math.nan), ("factor", "x_sigma", math.inf),
        ("profile", "poly", [math.nan]), ("coefficients", "value", math.inf),
        ("profile", "center", math.nan), ("grid", "t_lo", -math.inf)])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, where,
                                              key, value):
        payload = _pulse_solve_config()
        term = payload["source"]["terms"][0]
        parts = {"grid": payload["grid"], "factor": term["factor"],
                 "coefficients": payload["coefficients"],
                 "profile": term["profile"]}
        parts[where][key] = value
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err

    # a zero first panel never advances the quadrature's panel ladder, so
    # both overflows used to spin the solve forever; a dry run passed them,
    # and the run printed numpy's overflow warning before the config error
    @pytest.mark.parametrize("where,key,value,quantity,dry_run", [
        (*case, dry_run) for case in [
            ("grid", "L_x", 1.0e-300, "the largest squared x wavenumber overflows"),
            ("coefficients", "value", 1.0e+308,
             "A's top eigenvalue 1e+308 times the largest squared x wavenumber")]
        for dry_run in (False, True)],
        ids=["tiny_L_x", "tiny_L_x_dry", "huge_value", "huge_value_dry"])
    def test_zero_first_panel_is_config_error(self, tmp_path, capsys, where,
                                              key, value, quantity, dry_run):
        payload = _pulse_solve_config()
        payload["coefficients"]["delta"] = 0.5
        payload[where][key] = value
        cfg = _write(tmp_path, "solve.yaml", payload)
        argv = ["solve", "--config", cfg, "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: solve: ") and quantity in err
        assert err.count("\n") == 1
        assert not (tmp_path / "solution.bin").exists()

    # _panels laid out about 5e299 ladder points in a Python set and the
    # process was killed, while a dry run passed; the child's address space
    # is capped, so a regression fails here without exhausting the machine
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
    def test_history_span_of_too_many_panels_is_config_error(self, tmp_path,
                                                             dry_run):
        payload = _pulse_solve_config()
        payload["grid"].update(n_t=3, t_hi=1.0e+300)
        payload["source"]["terms"][0]["factor"]["amplitude"] = 1.0e+300
        cfg = _write(tmp_path, "solve.yaml", payload)
        proc = _capped_main(["solve", "--config", cfg, "--out", str(tmp_path)]
                            + ["--dry-run"] * dry_run)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr == ("config error: solve: the history span "
                               "[0, 1e+300] would take more than 100000 "
                               "panels\n")
        assert not (tmp_path / "solution.bin").exists()

    # with h0 = 1e-10 and growth 1 + 1e-7 the panel ladder steps by h0 about
    # 1e7 times before its steps grow, and the run ended in MemoryError in
    # _panels while a dry run passed; at growth 1.000011 and 1.00002 it
    # steps by h0 fewer times, but takes about 1.2e6 and 7e5 steps in all,
    # and both modes passed while the run took 12-20 s
    @pytest.mark.parametrize("growth,dry_run", [
        (growth, dry_run) for growth in (1.0000001, 1.000011, 1.00002)
        for dry_run in (False, True)],
        ids=["run", "dry_run", "1.000011_run", "1.000011_dry_run",
             "1.00002_run", "1.00002_dry_run"])
    def test_ladder_start_of_too_many_panels_is_config_error(self, tmp_path,
                                                             growth, dry_run):
        payload = _pulse_solve_config()
        payload["solver"] = {"h0": 1.0e-10, "growth": growth}
        cfg = _write(tmp_path, "solve.yaml", payload)
        proc = _capped_main(["solve", "--config", cfg, "--out", str(tmp_path)]
                            + ["--dry-run"] * dry_run)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr == (f"config error: solve: the panel ladder from "
                               f"h0 = 1e-10 at growth {growth} would take "
                               f"more than 100000 panels\n")
        assert not (tmp_path / "solution.bin").exists()

    def test_matrix_dimension_must_match_the_grid(self, tmp_path, capsys):
        payload = _steady_solve_config()
        payload["coefficients"] = {"kind": "constant_spd", "delta": 0.4,
                                   "matrix": [[2.0, 0.0], [0.0, 2.0]]}
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "does not match grid" in capsys.readouterr().err

    # a v_mode solve at value 0 or -1 used to exit 0 (at -1 a backward heat
    # flow), a gaussian one died with a traceback, and unsorted breakpoints
    # picked the last piece between them
    @pytest.mark.parametrize("coefficients", [
        {"kind": "constant_spd", "value": 0.0, "delta": 0.5},
        {"kind": "constant_spd", "value": -1.0, "delta": 0.5},
        {"kind": "time_piecewise", "breakpoints": [0.6, 0.3],
         "values": [1.0, 2.0, 0.5], "delta": 0.4},
    ], ids=["zero", "negative", "unsorted"])
    def test_unusable_coefficients_are_config_error(self, tmp_path, capsys,
                                                    coefficients):
        payload = _steady_solve_config()
        payload["coefficients"] = coefficients
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error: coefficients:" in capsys.readouterr().err

    # each of these used to exit 0: a constant A ran with the piecewise
    # keys dropped, the piecewise one with value and matrix dropped, and
    # the matrix won over the value
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
    @pytest.mark.parametrize("coefficients,key", [
        ({"kind": "constant_spd", "value": 1.0, "breakpoints": [0.5],
          "values": [1.0, 9.0]}, "breakpoints"),
        ({"kind": "time_piecewise", "value": 5.0, "matrix": [[3.0]],
          "breakpoints": [0.5], "values": [1, 2]}, "matrix"),
        ({"kind": "constant_spd", "value": 1.0, "matrix": [[4.0]]}, "value"),
    ], ids=["constant_with_pieces", "piecewise_with_value",
            "value_and_matrix"])
    def test_key_the_kind_does_not_take_is_schema_violation(
            self, tmp_path, capsys, coefficients, key, dry_run):
        payload = _steady_solve_config()
        payload["coefficients"] = {**coefficients, "delta": 0.4}
        cfg = _write(tmp_path, "solve.yaml", payload)
        argv = ["solve", "--config", cfg, "--out", str(tmp_path)]
        assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"schema violation at coefficients: '{key}' is not one of" in err
        assert not (tmp_path / "solution.bin").exists()

    @pytest.mark.parametrize("key", ["exponent_cut", "h_max"])
    def test_fixed_solver_constants_are_not_settable(self, tmp_path, capsys,
                                                     key):
        payload = _steady_solve_config()
        payload["solver"] = {key: 1.0}
        cfg = _write(tmp_path, "solve.yaml", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "schema violation at solver" in capsys.readouterr().err

    def test_vmo_center_dimensions_must_agree(self, tmp_path, capsys):
        cfg = _write(tmp_path, "vmo.yaml", {
            "coefficients": {"kind": "constant_spd", "delta": 0.4, "value": 1.0},
            "radii": [0.5],
            "center": {"t": 0.0, "x": [0.0, 0.1], "v": [0.2]},
        })
        assert main(["vmo", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error: center:" in capsys.readouterr().err

    def test_console_script_is_installed(self, tmp_path):
        exe = shutil.which("kfplab")
        assert exe is not None
        cfg = _write(tmp_path, "solve.yaml", _steady_solve_config())
        proc = subprocess.run([exe, "solve", "--config", cfg, "--dry-run"],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "plan:" in proc.stdout

    def test_module_entry_point_runs_a_dry_run(self, tmp_path):
        # the one entry that works without the console script installed
        cfg = _write(tmp_path, "solve.yaml", _steady_solve_config())
        proc = subprocess.run([sys.executable, "-m", "kfplab.cli", "solve",
                               "--config", cfg, "--dry-run"],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == EXIT_OK
        assert "plan:" in proc.stdout


class TestVerifyEstimateCommand:
    def test_empty_corpus_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "est.yaml", _estimate_config(n_cases=0))
        assert main(["verify-estimate", "--config", cfg]) == EXIT_CONFIG
        assert "n_cases" in capsys.readouterr().err

    def test_runs_and_reports_max_ratio(self, tmp_path, capsys):
        cfg = _write(tmp_path, "est.yaml", _estimate_config())
        code = main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path), "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "max_ratio=" in out
        with open(tmp_path / "estimate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_csv_is_bit_identical_across_runs_and_workers(self, tmp_path):
        cfg = _write(tmp_path, "est.yaml", _estimate_config())
        for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            code = main(["verify-estimate", "--config", cfg, "--out",
                         str(out), "--seed", "11", "--workers", workers])
            assert code == EXIT_OK
        blob = (tmp_path / "a" / "estimate.csv").read_bytes()
        assert (tmp_path / "b" / "estimate.csv").read_bytes() == blob
        assert (tmp_path / "c" / "estimate.csv").read_bytes() == blob

    def test_cap_failure_names_the_invariant(self, tmp_path, capsys):
        payload = _estimate_config()
        payload["cap"] = 1e-6
        cfg = _write(tmp_path, "est.yaml", payload)
        code = main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)])
        assert code == EXIT_FAIL
        assert "FAIL estimate_cap" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        payload = _estimate_config()
        payload["seed"] = 5
        cfg = _write(tmp_path, "est.yaml", payload)
        main(["verify-estimate", "--config", cfg, "--out",
              str(tmp_path / "cfg_seed")])
        main(["verify-estimate", "--config", cfg, "--out",
              str(tmp_path / "flag_seed"), "--seed", "5"])
        assert ((tmp_path / "cfg_seed" / "estimate.csv").read_bytes()
                == (tmp_path / "flag_seed" / "estimate.csv").read_bytes())

    # the corpus shape is fixed, so a range key is refused as unknown, reversed
    # or not
    @pytest.mark.parametrize("lo_key, hi_key", [("sigma_lo", "sigma_hi"),
                                                ("width_lo", "width_hi")])
    def test_reversed_corpus_range_is_config_error(self, tmp_path, capsys,
                                                   lo_key, hi_key):
        payload = _estimate_config()
        payload["corpus"].update({lo_key: 0.12, hi_key: 0.08})
        cfg = _write(tmp_path, "est.yaml", payload)
        code = main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: schema violation at corpus: ")
        assert f"'{lo_key}'" in err and f"'{hi_key}'" in err

    @pytest.mark.parametrize("t_factor", [
        {"kind": "power", "alpha": 0.5},
        {"kind": "step", "breaks": [0.3, 0.6], "levels": [1.0, 2.0, 0.5]},
    ], ids=["power", "step"])
    def test_weighted_norm_runs(self, tmp_path, t_factor):
        # the weighted (2, 3, 4) norm of the benchmark's estimate workload
        payload = _estimate_config()
        payload["norm"] = {"p": 2.0, "r": [3.0], "q": 4.0,
                           "weight": {"t": t_factor,
                                      "v": [{"kind": "power", "alpha": 0.5}]}}
        cfg = _write(tmp_path, "est.yaml", payload)
        code = main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / "estimate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["weight"] == "custom" for row in rows)

    def test_wrong_number_of_velocity_factors(self, tmp_path, capsys):
        payload = _estimate_config()
        payload["norm"]["weight"] = {"t": {"kind": "constant", "level": 1.0},
                                     "v": [{"kind": "constant"}] * 2}
        cfg = _write(tmp_path, "est.yaml", payload)
        code = main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "wrong number of velocity factors" in capsys.readouterr().err

    def test_unsorted_step_breaks_are_config_error(self, tmp_path, capsys):
        payload = _estimate_config()
        payload["norm"]["weight"] = {
            "t": {"kind": "step", "breaks": [0.6, 0.3],
                  "levels": [1.0, 2.0, 0.5]},
            "v": [{"kind": "constant"}]}
        cfg = _write(tmp_path, "est.yaml", payload)
        code = main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error: norm:" in capsys.readouterr().err

    def test_refined_solver_runs(self, tmp_path):
        payload = _estimate_config()
        payload["solver"] = {"quad_order": 16, "h0": 1.0e-4, "growth": 1.1}
        cfg = _write(tmp_path, "est.yaml", payload)
        assert main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)]) == EXIT_OK

    # n_t = 1 used to fail on the corpus's pulse width, and n_t = 2 only
    # after every case was solved, on the transport derivative
    @pytest.mark.parametrize("dry_run", [False, True],
                             ids=["run", "dry_run"])
    @pytest.mark.parametrize("n_t,t_hi", [(1, 0.0), (2, 1.0)])
    def test_fewer_than_three_time_nodes_is_config_error(
            self, tmp_path, capsys, monkeypatch, n_t, t_hi, dry_run):
        monkeypatch.setattr(cli, "random_source_corpus",
                            lambda *args, **kw: pytest.fail("corpus built"))
        payload = _estimate_config()
        payload["grid"].update(n_t=n_t, t_hi=t_hi)
        cfg = _write(tmp_path, "est.yaml", payload)
        assert main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)] + ["--dry-run"] * dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: grid:" in err and "n_t" in err

    # the transport stencil divided by a subnormal spacing: the run printed
    # numpy's overflow warning and exited 2 on a ratio mismatch that named
    # no key, while a dry run passed
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
    def test_subnormal_time_spacing_is_config_error(self, tmp_path, capsys,
                                                    dry_run):
        payload = _estimate_config()
        payload["grid"]["t_hi"] = 1.0e-320
        cfg = _write(tmp_path, "est.yaml", payload)
        argv = ["verify-estimate", "--config", cfg, "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: grid: time-node spacing "
                              "(t_hi - t_lo) / (n_t - 1) = 1.24999e-321 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "estimate.csv").exists()

    def test_h0_beyond_h_max_is_config_error(self, tmp_path, capsys):
        payload = _estimate_config()
        payload["solver"] = {"h0": 3.0}
        cfg = _write(tmp_path, "est.yaml", payload)
        assert main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)]) == EXIT_CONFIG
        assert "config error: solver:" in capsys.readouterr().err


def test_runtime_import_leaves_out_scipy():
    # scipy serves only the test oracles in kfplab.fractional, which import
    # scipy.integrate when called; at run time its second BLAS would start
    # a second thread pool beside numpy's
    code = ("import sys, kfplab.cli, kfplab.solver, kfplab.verification, "
            "kfplab.maximal; print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env())
    assert proc.stdout.strip() == "False"


def test_runtime_import_leaves_out_jsonschema():
    # jsonschema is the test oracle of the CLI's own schema validator; at run
    # time its stack cost every CLI process about 5 MB and 50 ms of import
    stack = ("jsonschema", "referencing", "rpds", "attrs",
             "jsonschema_specifications")
    code = ("import sys, kfplab.cli, kfplab.solver, kfplab.verification, "
            "kfplab.maximal; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {stack!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env())
    assert proc.stdout.strip() == "[]"


class TestUnwritableOutput:
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "solve.yaml", _steady_solve_config())
        blocker = tmp_path / "taken"
        blocker.write_text("")
        code = main(["solve", "--config", cfg, "--out", str(blocker)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(blocker) in err

    def test_csv_in_missing_directory_is_config_error(self, tmp_path, capsys):
        payload = _estimate_config()
        payload["csv"] = "missing/dir/est.csv"
        cfg = _write(tmp_path, "est.yaml", payload)
        code = main(["verify-estimate", "--config", cfg, "--out",
                     str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "missing/dir/est.csv" in err

    def test_dump_in_missing_directory_is_config_error(self, tmp_path, capsys):
        payload = _steady_solve_config()
        payload["dump"] = "nodir/solution.bin"
        cfg = _write(tmp_path, "solve.yaml", payload)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nodir/solution.bin" in err


class TestGeometryCommand:
    def test_triples_are_counted_and_pass(self, tmp_path, capsys):
        cfg = _write(tmp_path, "geo.yaml",
                     {"n_triples": 20000, "dims": [1, 2]})
        assert main(["geometry-test", "--config", cfg, "--out",
                     str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "checked 20000 triples in d=1" in out
        assert "checked 20000 triples in d=2" in out

    def test_non_finite_distance_is_a_violation(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(cli, "quasi_distance_batch",
                            lambda t, *args: np.full(len(t), math.inf))
        cfg = _write(tmp_path, "geo.yaml", {"n_triples": 10, "dims": [1]})
        assert main(["geometry-test", "--config", cfg, "--out",
                     str(tmp_path)]) == EXIT_FAIL
        captured = capsys.readouterr()
        assert "quasi_symmetry violations=10, quasi_triangle violations=10" in captured.out
        assert captured.err.startswith("FAIL quasi_symmetry")

    # the draw window is fixed, so a c window or a box is an unknown key
    def test_bad_c_window_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "geo.yaml",
                     {"n_triples": 10, "c_lo": 5.0, "c_hi": 2.0})
        assert main(["geometry-test", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: schema violation at <root>: ")
        assert "'c_hi', 'c_lo' were unexpected" in err

    # numpy's uniform draw used to end in OverflowError, exit 1
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry"])
    @pytest.mark.parametrize("key,value", [
        ("c_hi", ".inf"), ("c_lo", ".inf"), ("box", ".inf"), ("box", "1.0e+308"),
        ("box", "1.0e+200")])
    def test_non_finite_draw_range_is_config_error(self, tmp_path, capsys,
                                                   key, value, dry_run):
        cfg = tmp_path / "geo.yaml"
        cfg.write_text(f"n_triples: 10\n{key}: {value}\n")
        assert main(["geometry-test", "--config", str(cfg), "--out",
                     str(tmp_path)] + ["--dry-run"] * dry_run) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: schema violation at <root>: ")
        assert f"'{key}' was unexpected" in captured.err
        assert "checked" not in captured.out


class TestWeightsCommand:
    def test_power_weight_table(self, tmp_path, capsys):
        cfg = _write(tmp_path, "w.yaml",
                     {"p": 2.0, "alphas": [-1.5, -0.5, 0.0, 0.5, 1.5]})
        assert main(["weights-ap", "--config", cfg, "--out",
                     str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "weights_ap.csv", newline="") as fh:
            rows = {float(r["alpha"]): r for r in csv.DictReader(fh)}
        assert rows[-1.5]["finite"] == "False"
        assert rows[1.5]["finite"] == "False"
        for alpha in (-0.5, 0.0, 0.5):
            assert rows[alpha]["finite"] == "True"
            assert float(rows[alpha]["constant"]) >= 1.0 - 1e-9

    # p = inf printed a meaningless constant and alpha = nan an infinite one,
    # both with exit 0
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry"])
    @pytest.mark.parametrize("p,alpha,key", [(".inf", "0.5", "p"),
                                             ("2.0", ".nan", "alpha")],
                             ids=["p_inf", "alpha_nan"])
    def test_non_finite_exponent_is_config_error(self, tmp_path, capsys, p,
                                                 alpha, key, dry_run):
        cfg = tmp_path / "w.yaml"
        cfg.write_text(f"p: {p}\nalphas: [{alpha}]\n")
        assert main(["weights-ap", "--config", str(cfg), "--out",
                     str(tmp_path)] + ["--dry-run"] * dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: weights-ap: ")
        assert re.search(rf"\b{key}\b", err)
        assert not (tmp_path / "weights_ap.csv").exists()


class TestMaximalCommand:
    def test_bench_writes_finite_ratios_with_timing(self, tmp_path, capsys):
        cfg = _write(tmp_path, "m.yaml", {
            "grid": {"d": 1, "n_t": 5, "n_x": 8, "n_v": 8, "t_lo": 0.0,
                     "t_hi": 1.0, "L_x": 2.0, "L_v": 2.0},
            "norm": {"p": 2.0, "r": [2.0], "q": 2.0},
            "corpus": {"n_fields": 2},
        })
        assert main(["maximal-bench", "--config", cfg, "--out",
                     str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "maximal.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        kinds = {row["kind"] for row in rows}
        assert kinds == {"hl", "fs"}
        for row in rows:
            assert np.isfinite(float(row["ratio"]))
            assert float(row["seconds"]) >= 0.0

    def test_cold_and_warm_plan_give_the_same_csv(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(maximal_module, "_kept_plan", (None, ()))
        cfg = _write(tmp_path, "m.yaml", {
            "grid": {"d": 1, "n_t": 6, "n_x": 8, "n_v": 8, "t_lo": 0.0,
                     "t_hi": 1.0, "L_x": 2.0, "L_v": 2.0},
            "norm": {"p": 2.0, "r": [2.0], "q": 2.0},
            "corpus": {"n_fields": 3},
        })
        tables = []
        for run in ("cold", "warm"):
            assert main(["maximal-bench", "--config", cfg, "--out",
                         str(tmp_path / run), "--seed", "5"]) == EXIT_OK
            assert maximal_module._kept_plan[0] is not None
            with open(tmp_path / run / "maximal.csv", newline="") as fh:
                tables.append([{k: v for k, v in row.items() if k != "seconds"}
                               for row in csv.DictReader(fh)])
        assert tables[0] == tables[1] and len(tables[0]) == 2

    # an infinite exponent made every norm 1, so both ratios read 1.0 and the
    # run passed; a NaN cut ended in a misleading family mismatch
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry"])
    @pytest.mark.parametrize("norm,key", [
        ("{p: .inf, r: [2.0], q: 2.0}", "p"),
        ("{p: 2.0, r: [.inf], q: .inf}", "r"),
        ("{p: 2.0, r: [2.0], q: 2.0, T: .nan}", "T"),
        # a weight takes q as its class exponent, so q is checked first
        ("{p: 2.0, r: [2.0], q: .inf, weight: {t: {kind: power, alpha: 0.5},"
         " v: [{kind: power, alpha: 0.5}]}}", "q"),
    ], ids=["p_inf", "r_q_inf", "T_nan", "weighted_q_inf"])
    def test_non_finite_norm_is_config_error(self, tmp_path, capsys, norm, key,
                                             dry_run):
        cfg = tmp_path / "m.yaml"
        cfg.write_text(
            "grid: {d: 1, n_t: 5, n_x: 8, n_v: 8, t_lo: 0.0, t_hi: 1.0,"
            " L_x: 2.0, L_v: 2.0}\n"
            f"norm: {norm}\n"
            "corpus: {n_fields: 2}\n")
        assert main(["maximal-bench", "--config", str(cfg), "--out",
                     str(tmp_path)] + ["--dry-run"] * dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: norm: " in err and re.search(rf"\b{key}\b", err)
        assert not (tmp_path / "maximal.csv").exists()

    # (c r)^3 used to overflow into a traceback
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry"])
    @pytest.mark.parametrize("c", [".inf", "1.0e+110"])
    def test_non_finite_x_extent_is_config_error(self, tmp_path, capsys, c,
                                                 dry_run):
        cfg = tmp_path / "m.yaml"
        cfg.write_text(
            "grid: {d: 1, n_t: 5, n_x: 8, n_v: 8, t_lo: 0.0, t_hi: 1.0,"
            " L_x: 2.0, L_v: 2.0}\n"
            "norm: {p: 2.0, r: [2.0], q: 2.0}\n"
            f"c: {c}\n"
            "corpus: {n_fields: 2}\n")
        assert main(["maximal-bench", "--config", str(cfg), "--out",
                     str(tmp_path)] + ["--dry-run"] * dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: maximal-bench: anisotropy c=" in err


class TestVmoCommand:
    def test_time_only_coefficients_have_zero_oscillation(self, tmp_path):
        cfg = _write(tmp_path, "vmo.yaml", {
            "coefficients": {"kind": "time_piecewise", "delta": 0.3,
                             "breakpoints": [0.5], "values": [1.0, 0.6]},
            "radii": [0.5, 1.0],
            "center": {"t": 0.0, "x": [0.0], "v": [0.0]},
            "n_pairs": 500,
            "n_slices": 8,
            "expect_time_only": True,
        })
        assert main(["vmo", "--config", cfg, "--out",
                     str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "vmo.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert float(row["osc_xv"]) <= 1e-12

    # r ** 2 overflowed in osc_xv and an infinite r broke numpy's draw,
    # both with exit 1, while a dry run passed
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry"])
    @pytest.mark.parametrize("radius", [".inf", "1.0e+200"])
    def test_overflowing_radius_is_config_error(self, tmp_path, capsys, radius,
                                                dry_run):
        cfg = tmp_path / "vmo.yaml"
        cfg.write_text(
            "coefficients: {kind: constant_spd, delta: 0.4, value: 1.0}\n"
            f"radii: [0.5, {radius}]\n"
            "center: {t: 0.0, x: [0.0], v: [0.0]}\n"
            "n_pairs: 100\n")
        assert main(["vmo", "--config", str(cfg), "--out",
                     str(tmp_path)] + ["--dry-run"] * dry_run) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: radii: ")
        assert not (tmp_path / "vmo.csv").exists()


class TestReportCommand:
    def test_merges_csv_artifacts(self, tmp_path, capsys):
        est = _write(tmp_path, "est.yaml", _estimate_config())
        main(["verify-estimate", "--config", est, "--out", str(tmp_path)])
        wcfg = _write(tmp_path, "w.yaml", {"p": 2.0, "alphas": [0.5]})
        main(["weights-ap", "--config", wcfg, "--out", str(tmp_path)])
        rcfg = _write(tmp_path, "r.yaml", {})
        assert main(["report", "--config", rcfg, "--out",
                     str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = {row["file"]: row for row in csv.DictReader(fh)}
        assert "estimate.csv" in rows and "weights_ap.csv" in rows
        assert float(rows["estimate.csv"]["max_ratio"]) > 0.0

    def test_merges_the_listed_inputs(self, tmp_path):
        (tmp_path / "a.csv").write_text("ratio\n1.5\n2.5\n")
        (tmp_path / "b.csv").write_text("kind\nhl\n")
        (tmp_path / "unlisted.csv").write_text("ratio\n9.0\n")
        rcfg = _write(tmp_path, "r.yaml", {"inputs": ["a.csv", "b.csv"]})
        assert main(["report", "--config", rcfg, "--out",
                     str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"file": "a.csv", "rows": "2", "max_ratio": "2.5"},
                        {"file": "b.csv", "rows": "1", "max_ratio": ""}]

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("ratio\n1.5\n")
        rcfg = _write(tmp_path, "r.yaml", {"inputs": ["a.csv", "gone.csv"]})
        assert main(["report", "--config", rcfg, "--out",
                     str(tmp_path)]) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_ratio_is_config_error(self, tmp_path, capsys):
        # float("abc") used to end in a ValueError traceback, exit 1
        (tmp_path / "a.csv").write_text("ratio\nabc\n")
        rcfg = _write(tmp_path, "r.yaml", {"inputs": ["a.csv"]})
        assert main(["report", "--config", rcfg, "--out",
                     str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read ") and "a.csv" in err
        assert not (tmp_path / "summary.csv").exists()

    def test_empty_directory_is_config_error(self, tmp_path, capsys):
        rcfg = _write(tmp_path, "r.yaml", {})
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--config", rcfg, "--out",
                     str(empty)]) == EXIT_CONFIG


def test_every_command_schema_passes_the_metaschema():
    # configs are validated without re-checking the schema on each load
    for schema in SCHEMAS.values():
        validator_for(schema).check_schema(schema)


def test_every_nested_section_refuses_unknown_keys():
    # a typo in a nested section must fail as loudly as one at the top
    def objects(node):
        if isinstance(node, dict):
            if node.get("type") == "object":
                yield node
            for value in node.values():
                yield from objects(value)
        elif isinstance(node, list):
            for value in node:
                yield from objects(value)

    nodes = [node for schema in SCHEMAS.values() for node in objects(schema)]
    assert len(nodes) > len(SCHEMAS)
    for node in nodes:
        assert node.get("additionalProperties") is False, sorted(node["properties"])


@pytest.mark.parametrize("schema,cls", [
    (cli._GRID, GridSpec), (cli._PROFILE, TimeProfile),
    (cli._FACTOR, SpaceFactor), (cli._SOLVER, SolveConfig),
], ids=["grid", "profile", "factor", "solver"])
def test_schema_keys_are_the_dataclass_fields(schema, cls):
    # the CLI passes these sections to the dataclasses as keyword arguments
    assert set(schema["properties"]) == {f.name for f in dataclasses.fields(cls)}


def _dataclass_sections(payload):
    """The sections of a solve config that the CLI passes to a dataclass."""
    payload["solver"] = {}
    term = payload["source"]["terms"][0]
    return {"grid": payload["grid"], "profile": term["profile"],
            "factor": term["factor"], "solver": payload["solver"]}


# each range the section schemas used to restate is checked once, by the
# dataclass the section builds, and its message names the key; a dry run
# builds the sections too
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("where,values,key", [
    ("grid", {"d": 0}, "d"), ("grid", {"n_t": 0}, "n_t"),
    ("grid", {"n_x": 0}, "n_x"), ("grid", {"n_v": 0}, "n_v"),
    ("grid", {"L_x": 0.0}, "L_x"), ("grid", {"L_v": 0.0}, "L_v"),
    ("profile", {"kind": "step"}, "kind"),
    ("factor", {"kind": "plane_wave"}, "kind"),
    ("profile", {"width": 0.0}, "width"),
    ("profile", {"kind": "pulse", "width": 0.0}, "width"),
    ("factor", {"kind": "gaussian", "x_sigma": 0.0}, "x_sigma"),
    ("factor", {"kind": "gaussian", "v_sigma": 0.0}, "v_sigma"),
    ("factor", {"x_sigma": 0.0}, "x_sigma"),
    ("factor", {"v_sigma": 0.0}, "v_sigma"),
    ("solver", {"quad_order": 3}, "quad_order"),
    ("solver", {"quad_order": 101}, "quad_order"),
    ("solver", {"growth": 1.0}, "growth"), ("solver", {"h0": 0.0}, "h0"),
], ids=["d", "n_t", "n_x", "n_v", "L_x", "L_v", "profile_kind",
        "factor_kind", "boxcar_width", "pulse_width", "gaussian_x_sigma",
        "gaussian_v_sigma", "v_mode_x_sigma", "v_mode_v_sigma", "quad_order",
        "quad_order_101", "growth", "h0"])
def test_out_of_range_value_is_config_error_naming_the_key(
        tmp_path, capsys, where, values, key, dry_run):
    payload = _steady_solve_config()
    _dataclass_sections(payload)[where].update(values)
    cfg = _write(tmp_path, "solve.yaml", payload)
    argv = ["solve", "--config", cfg, "--out", str(tmp_path)]
    assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
    err = capsys.readouterr().err
    section = where if where in ("grid", "solver") else "source"
    assert f"config error: {section}:" in err
    assert re.search(rf"\b{key}\b", err)


# JSON Schema's integer type admits 2.0, which used to pass the schema and
# end in a TypeError traceback
@pytest.mark.parametrize("command,section,key,value", [
    ("solve", "grid", "n_t", 9.0), ("solve", "solver", "quad_order", 8.0),
    ("verify-estimate", "corpus", "n_cases", 2.0),
    ("maximal-bench", "corpus", "n_fields", 2.0),
    ("geometry-test", None, "n_triples", 100.0),
    ("geometry-test", "dims", 0, 1.0), ("geometry-test", None, "workers", 2.0),
    ("vmo", None, "n_pairs", 4000.0), ("vmo", None, "n_slices", 8.0),
    ("vmo", None, "n_probes", 4.0),
], ids=["n_t", "quad_order", "n_cases", "n_fields", "n_triples", "dims",
        "workers", "n_pairs", "n_slices", "n_probes"])
def test_integer_valued_float_is_schema_violation(tmp_path, capsys, command,
                                                  section, key, value):
    payload = {"solve": _steady_solve_config(),
               "verify-estimate": _estimate_config(),
               "maximal-bench": {"grid": _estimate_config()["grid"],
                                 "norm": {"p": 2.0, "r": [2.0], "q": 2.0},
                                 "corpus": {"n_fields": 2}},
               "geometry-test": {"n_triples": 100, "dims": [1]},
               "vmo": {"coefficients": {"kind": "constant_spd", "delta": 0.4,
                                        "value": 1.0},
                       "radii": [0.5],
                       "center": {"t": 0.0, "x": [0.0], "v": [0.0]}}}[command]
    # a section is a mapping, or for dims a list indexed by key
    (payload.setdefault(section, {}) if section else payload)[key] = value
    cfg = _write(tmp_path, "cfg.yaml", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    path = f"{section}/{key}" if section else key
    assert (f"schema violation at {path}: {value} is not of type 'integer'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("where,path", [
    ("grid", "grid"), ("profile", "source/terms/0/profile"),
    ("factor", "source/terms/0/factor"), ("solver", "solver")])
def test_unknown_key_in_a_dataclass_section_is_schema_violation(
        tmp_path, capsys, where, path):
    payload = _steady_solve_config()
    _dataclass_sections(payload)[where]["colour"] = 1.0
    cfg = _write(tmp_path, "solve.yaml", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"schema violation at {path}" in capsys.readouterr().err


# [|t|^1/2]_{A_4} and [|v|^1/2]_{A_3} exceed 1, so K = 0.1 is false;
# verify-estimate used to accept it
@pytest.mark.parametrize("command", ["verify-estimate", "maximal-bench"])
def test_false_weight_bound_is_config_error(tmp_path, capsys, command):
    if command == "verify-estimate":
        payload = _estimate_config()
    else:
        payload = {"grid": {"d": 1, "n_t": 5, "n_x": 8, "n_v": 8, "t_lo": 0.0,
                            "t_hi": 1.0, "L_x": 2.0, "L_v": 2.0},
                   "corpus": {"n_fields": 2}}
    payload["norm"] = {"p": 2.0, "r": [3.0], "q": 4.0,
                       "weight": {"t": {"kind": "power", "alpha": 0.5},
                                  "v": [{"kind": "power", "alpha": 0.5}],
                                  "K": 0.1}}
    cfg = _write(tmp_path, "cfg.yaml", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error: norm:" in capsys.readouterr().err


# a dry run once passed these four while a run exited 2; the corpus ranges
# are unknown keys now
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry"])
@pytest.mark.parametrize("command,change,message", [
    ("verify-estimate", {"sigma_lo": 0.2, "sigma_hi": 0.1},
     "schema violation at corpus: Additional properties are not allowed "
     "('sigma_hi', 'sigma_lo' were unexpected)"),
    ("verify-estimate", {"width_lo": 0.2, "width_hi": 0.1},
     "schema violation at corpus: Additional properties are not allowed "
     "('width_hi', 'width_lo' were unexpected)"),
    ("solve", [0.7], "source: v_mode frequency must sit on the velocity "
                     "frequency lattice"),
    ("solve", [17.0], "source: v_mode frequency beyond the grid Nyquist"),
], ids=["sigma", "width", "off_lattice", "beyond_nyquist"])
def test_dry_run_rejects_what_a_run_rejects(tmp_path, capsys, command, change,
                                            message, dry_run):
    if command == "solve":
        payload = _steady_solve_config()
        payload["source"]["terms"][0]["factor"]["mode_freq"] = change
    else:
        payload = _estimate_config()
        payload["corpus"].update(change)
    cfg = _write(tmp_path, "cfg.yaml", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.bin"))


# a dry run passed these while the run's solve refused them: the solver's
# frequency lattice stops at dimension 2, and a source must match the grid
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("case", ["solve_d3", "solve_source_d", "estimate_d3"])
def test_dimension_refusal_is_the_same_in_both_modes(tmp_path, capsys, case,
                                                     dry_run):
    if case == "solve_d3":
        command, payload = "solve", _pulse_solve_config()
        payload["grid"].update(d=3, n_x=4, n_v=4)
        payload["source"]["terms"][0]["factor"].update(
            {key: [0.0] * 3 for key in ("x_center", "x_freq", "x_phase",
                                        "v_center", "v_freq", "v_phase")})
    elif case == "solve_source_d":
        command, payload = "solve", _steady_solve_config()
        payload["grid"]["d"] = 2
    else:
        command, payload = "verify-estimate", _estimate_config(n_cases=1)
        payload["grid"].update(d=3, n_x=4, n_v=4)
        payload["norm"]["r"] = [2.0] * 3
    message = ("source/grid dimension mismatch" if case == "solve_source_d"
               else "frequency lattices above dimension 2 do not fit in memory")
    cfg = _write(tmp_path, "cfg.yaml", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {command}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


# the verify-estimate corpus and the geometry-test draws have a fixed shape,
# so a key that would move them is an unknown key
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry"])
@pytest.mark.parametrize("key", ["margin", "sigma_lo", "sigma_hi", "freq_max",
                                 "width_lo", "width_hi", "c_lo", "c_hi", "box"])
def test_fixed_shape_keys_are_unknown(tmp_path, capsys, key, dry_run):
    if key in ("c_lo", "c_hi", "box"):
        command, payload = "geometry-test", {"n_triples": 10, key: 1.0}
    else:
        command, payload = "verify-estimate", _estimate_config()
        payload["corpus"][key] = 1.0
    cfg = _write(tmp_path, "cfg.yaml", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: schema violation at ")
    assert f"'{key}' was unexpected" in captured.err
    assert "checked" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


class TestFlagValidation:
    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "solve.yaml", _steady_solve_config())
        code = main(["solve", "--config", cfg, "--seed", "-3"])
        assert code == EXIT_CONFIG

    def test_zero_workers_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "solve.yaml", _steady_solve_config())
        code = main(["solve", "--config", cfg, "--workers", "0"])
        assert code == EXIT_CONFIG


def _valid_configs():
    """Valid configs per command; between them they set every key that
    SCHEMAS takes and take each branch of the coefficient rules."""
    solve = _pulse_solve_config()
    solve.update(seed=3, out="o", workers=2, dump="u.bin",
                 solver={"quad_order": 8, "h0": 0.01, "growth": 1.3})
    term = solve["source"]["terms"][0]
    term["profile"]["poly"] = [1.0, 0.5]
    term["factor"].update(amplitude=2.0, x_sigma=1.0, v_sigma=1.0,
                          mode_freq=[0.0], mode_phase=0.0)
    piecewise = _steady_solve_config()
    piecewise["coefficients"] = {"kind": "time_piecewise", "delta": 0.4,
                                 "breakpoints": [0.5], "values": [1.0, 0.6]}
    piecewise["source"]["terms"][0]["profile"]["width"] = 1.0
    matrix = _d2_solve_config({"kind": "constant_spd", "delta": 0.4,
                               "matrix": [[2.0, 0.0], [0.0, 2.0]]})
    estimate = _estimate_config()
    estimate.update(cap=10.0, csv="e.csv", solver={"growth": 1.1})
    estimate["norm"].update(T=1.0, weight={
        "t": {"kind": "step", "breaks": [0.3], "levels": [1.0, 2.0]},
        "v": [{"kind": "power", "alpha": 0.5, "center": 0.0},
              {"kind": "constant", "level": 1.0}],
        "K": 10.0})
    grid = {"d": 1, "n_t": 5, "n_x": 8, "n_v": 8, "t_lo": 0.0, "t_hi": 1.0,
            "L_x": 2.0, "L_v": 2.0}
    return {
        "solve": [solve, piecewise, matrix],
        "verify-estimate": [estimate, _estimate_config()],
        "geometry-test": [{"n_triples": 10, "dims": [1, 2]}],
        "weights-ap": [{"p": 2.0, "alphas": [-0.5, 0.5], "csv": "w.csv"}],
        "maximal-bench": [{"grid": grid, "norm": {"p": 2.0, "r": [2.0],
                                                  "q": 2.0},
                           "c": 1.5, "corpus": {"n_fields": 2, "kind": "bump"},
                           "csv": "m.csv"}],
        "vmo": [{"coefficients": {"kind": "constant_spd", "delta": 0.4,
                                  "value": 1.0},
                 "radii": [0.5, 1.0],
                 "center": {"t": 0.0, "x": [0.0], "v": [0.0]},
                 "n_pairs": 100, "n_slices": 2, "n_probes": 1,
                 "expect_time_only": True, "csv": "v.csv"}],
        "report": [{"inputs": ["a.csv"], "summary": "s.csv"}, {}],
    }


# replacement values: each type, the bounds the schemas draw, the kinds
# their enums and consts name, and empty or small sections
_VALUES = [None, True, False, 0, 1, -1, 2, 99, 2 ** 64, 0.0, 1.0, 9.0, -3.5,
           1.0e+300, math.inf, math.nan, "x", "constant_spd", "time_piecewise",
           "power", "bump", [], [1.0], [[1.0]], ["a"], {}, {"kind": "constant"}]
_NEW_KEYS = ["box", "kind", "delta", "value", "matrix", "breakpoints", "values",
             "n_t", 1]


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _one_mutation(draw, command):
    """A valid config of the command with one key dropped or added, or one
    value replaced: retyped, past a bound, emptied or of another kind."""
    cfg = copy.deepcopy(draw(st.sampled_from(_valid_configs()[command])))
    path = draw(st.sampled_from(list(_paths(cfg))))
    parent = functools.reduce(operator.getitem, path[:-1], cfg)
    target = parent[path[-1]] if path else cfg
    value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    how = draw(st.sampled_from(["drop", "add", "replace"]))
    if how == "add" and isinstance(target, dict):
        target[draw(st.sampled_from(_NEW_KEYS))] = value
    elif how == "add" and isinstance(target, list):
        target.append(value)
    elif how == "drop" and path:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = value
    return cfg


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_valid_configs_pass_both_validators(command):
    for cfg in _valid_configs()[command]:
        assert _OWN_VIOLATION(SCHEMAS[command], cfg) is None
        assert _oracle_violation(SCHEMAS[command], cfg) is None


@pytest.mark.parametrize("command", sorted(SCHEMAS))
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_schema_violation_is_jsonschemas_best_match(command, data):
    cfg = data.draw(_one_mutation(command))
    assert (_OWN_VIOLATION(SCHEMAS[command], cfg)
            == _oracle_violation(SCHEMAS[command], cfg))
