"""Self-tests of the benchmark harness: ``python -m pytest bench``."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
from framedprod import (  # noqa: E402
    assemble, cut, embedding, frame, frontends, generators, tripods, verify)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = 0.02        # size factor that keeps a run of every workload quick


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "framedprod" or name.startswith("framedprod.")
            for attr, value in vars(mod).items()}


def test_wrappers_cover_the_lookup_sites_and_restore_every_binding():
    before = _bindings()
    with tracing.traced(tracing.Tracer()) as tracer:
        for mod in (embedding, assemble, cut, tripods, frame, frontends,
                    generators):
            assert mod.trace_faces is not before[(mod.__name__, "trace_faces")]
        assert assemble.tripod_partition is not before[
            ("framedprod.assemble", "tripod_partition")]
        for name in tracing.TRACED["verify"]:
            assert getattr(verify, name) is not before[("framedprod.verify", name)]
        harness.run_pass(harness.build_instances("torus_large", 1, SMOKE),
                         tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_bindings_are_restored_when_the_block_raises():
    before = _bindings()
    with pytest.raises(KeyError):
        with tracing.traced(tracing.Tracer()):
            raise KeyError("boom")
    assert all(_bindings()[k] is v for k, v in before.items())


def test_self_times_add_up_to_the_outer_call():
    tr = tracing.Tracer()
    t0 = time.perf_counter()
    tr.call("outer", lambda: tr.call("inner", sum, (range(100000),), {}), (), {})
    total = time.perf_counter() - t0
    inner = tr.self_s[("setup", "inner")]
    outer = tr.self_s[("setup", "outer")]
    assert 0 < outer < inner
    assert inner + outer == pytest.approx(total, rel=0.2)
    assert tr.calls == {("setup", "outer"): 1, ("setup", "inner"): 1}


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    a = harness.build_instances(workload, 7, SMOKE)
    assert a == harness.build_instances(workload, 7, SMOKE)
    assert a != harness.build_instances(workload, 8, SMOKE)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_run_passes_the_gate_and_emits_the_declared_metrics(workload, trace):
    result, record = harness.run(workload, 3, 0.0, trace, scale=SMOKE)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and not record["problems"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        if workload == "tri_large":
            assert all(v == 0 for k, v in values.items() if k.startswith("cut."))
        if workload != "reductions_batch":
            assert all(v == 0 for k, v in values.items()
                       if k.startswith("frontends."))
        assert values["verify.verify_certificate_calls"] == 2 * len(
            record["inputs"])
    else:
        assert values["ok_frac"] == 1.0 and all(v > 0 for v in values.values())
        assert all(len(p["probe_s"]) == 3 for p in record["passes"])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_growth_exponent_of_a_power_law():
    assert sweep.growth([10, 20, 40], [1.0, 4.0, 16.0]) == pytest.approx(2.0)
    assert sweep.growth([10, 20], [0.0, 0.0]) is None


def test_smoke_sweep():
    ns, table = sweep.sweep("torus", 1, scale=0.05)
    assert ns == sorted(ns) and ns[-1] >= 8 * ns[0]
    assert all(len(ts) == len(ns) for ts in table.values())
    assert all(t > 0 for t in table["tripods.tripod_partition_s"])


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tri_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
