"""Fast checks of the benchmark itself, at the TINY problem size.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(workload, trace, tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir(exist_ok=True)
    return bench.run(workload, seed=5, seconds=0.01, trace=trace,
                     sizes=workloads.TINY, workdir=workdir)


def test_contract_lists_every_workload_and_metric():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in CONTRACT["per_layer"]] == [
        name for name, *_ in bench.PER_LAYER]
    for m in CONTRACT["end_to_end"]:
        assert m["unit"] == bench.END_TO_END[m["name"]]
    units = {name: unit for name, unit, *_ in bench.PER_LAYER}
    for m in CONTRACT["per_layer"]:
        assert m["unit"] == units[m["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_in_the_contract(workload, trace, tmp_path,
                                             capsys):
    result = _run(workload, bool(trace), tmp_path)
    bench.report(result, {"test": True}, tmp_path / "out")
    lines = capsys.readouterr().out.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == declared
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed and set(printed) == set(declared)
    checks = [line.split()[1] for line in lines if line.startswith("check ")]
    assert "failed_frac" in checks and set(checks) <= set(bench.CHECKS)
    for m in final["metrics"].values():
        assert math.isfinite(m["value"])


@pytest.mark.parametrize("workload", ["cli_estimate", "toolbox", "closure"])
def test_traced_spans_nest_and_self_times_are_nonnegative(workload, tmp_path):
    result = _run(workload, True, tmp_path)
    tracer = result["tracer"]
    spans = {s[0]: s for s in tracer.spans}
    assert spans
    threads = set()
    for sid, name, start, end, parent, thread, request in spans.values():
        assert start <= end
        threads.add(thread)
        if parent is None:
            assert name == "request"
            continue
        p = spans[parent]
        assert p[2] <= start and end <= p[3], (name, p[1])
        assert p[6] == request
    for sid, self_s in tracer.self_times().items():
        assert 0.0 <= self_s <= spans[sid][3] - spans[sid][2]
    if workload == "cli_estimate":
        # pool threads nest under cli.main through the client thread
        assert len(threads) > 1
        mains = {sid for sid, s in spans.items() if s[1] == "cli.main"}
        assert any(s[1] == "verification.solve_corpus" and s[4] in mains
                   for s in spans.values())


def _scaled_solve(monkeypatch):
    raw = workloads.solver.solve_duhamel

    def scaled(*args, **kwargs):
        u = raw(*args, **kwargs)
        return u.like(1.001 * u.values)

    monkeypatch.setattr(workloads.solver, "solve_duhamel", scaled)


def _drifting_estimate(monkeypatch):
    import kfplab.verification as verification
    raw = verification.estimate_ratio
    calls = iter(range(1, 10 ** 6))

    def drift(*args, **kwargs):
        row = raw(*args, **kwargs)
        row["term_u"] *= 1.0 + 1e-9 * next(calls)
        row["ratio"] = sum(row[k] for k in verification.TERM_KEYS) / row["rhs"]
        return row

    monkeypatch.setattr(verification, "estimate_ratio", drift)


def _inflated_quotient(monkeypatch):
    raw = workloads.weights.kinetic_ap_functional
    monkeypatch.setattr(
        workloads.weights, "kinetic_ap_functional",
        lambda alpha, *a, **k: (60.0, 0.1) if alpha else raw(alpha, *a, **k))


@pytest.mark.parametrize("workload, corrupt", [
    ("closure", _scaled_solve),
    ("cli_estimate", _drifting_estimate),
    ("toolbox", _inflated_quotient),
])
def test_corrupted_output_is_counted_as_failed(workload, corrupt, tmp_path,
                                               monkeypatch):
    corrupt(monkeypatch)
    result = _run(workload, False, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["checks"]["failed_frac"]["value"] == 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
