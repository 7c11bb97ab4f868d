"""Tests for the benchmark itself, on tiny inputs."""

import json
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

from bench import cold_cli, distance, run, sweep
from bench.harness import REF_NOMINAL_S, ROOT, KernelSampler, Op, Pass
from bench.tracer import Tracer
from grlcodes import appendix, classify, hull, linalg
from grlcodes.gf import field_new

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAP_ROWS = {"A.1", "A.5", "B.5(delta=2)"}


@pytest.fixture()
def tiny(monkeypatch):
    """Shrink every workload to a few cheap operations."""
    real_load = appendix.load_rows
    monkeypatch.setattr(appendix, "load_rows", lambda which="all": [
        r for r in real_load(which) if r.id in CHEAP_ROWS])
    monkeypatch.setattr(distance, "RANDOM_FIELDS", {25: "5^2"})
    monkeypatch.setattr(distance, "SHAPES", ((2, 3, 5),))
    monkeypatch.setattr(sweep, "FIELDS", [("E1", 25), ("H1", 5)])
    monkeypatch.setattr(cold_cli, "REPORT_FIELDS", ("3^4",))
    monkeypatch.setattr(cold_cli, "COUNTS", (("5", 3, False),))
    monkeypatch.setattr(cold_cli, "SMALL_FIELDS", ("11",))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    result, lines = run.run(workload, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_wrong_expected_row_counts_as_failed(tiny, monkeypatch):
    real_prepare = distance.prepare

    def prepare_with_wrong_expectation(seed):
        state = real_prepare(seed)
        state.expect["A.1"] = dict(state.expect["A.1"], d=99)
        return state

    monkeypatch.setattr(distance, "prepare", prepare_with_wrong_expectation)
    result, lines = run.run("distance", seed=3, seconds=0, trace=0)
    assert result["failed"] == 1 and not result["correct"]
    assert any("FAILED pass 0 A.1" in line for line in lines)


def test_disagreeing_count_and_grs_verdict_fail_the_gate():
    inv_count = cold_cli.Invocation("count q=5 k=3", ["count"])
    inv_nongrs = cold_cli.Invocation("nongrs 11", ["nongrs"], k=3, l=2)
    state = cold_cli.State(workdir=None, mix=[inv_count, inv_nongrs], env={})
    bad = Pass(ops=[
        Op(inv_count.key, 0.1, json.dumps({"agree": False})),
        Op(inv_nongrs.key, 0.1,
           json.dumps({"certificate": {"verdict": "grs"}})),
    ], pass_s=0.2, wall=0.2, items=2, latency=[0.1, 0.1])
    assert set(cold_cli.check(state, [bad])) == {(0, inv_count.key),
                                                  (0, inv_nongrs.key)}


def test_corrected_time_follows_the_op_not_the_host():
    def at(speed):
        ops = [Op("a", 0.1 * speed, ref=REF_NOMINAL_S * speed),
               Op("b", 0.3 * speed, ref=REF_NOMINAL_S * speed)]
        return Pass(ops=ops, pass_s=0.4 * speed, wall=0.4 * speed, items=2,
                    latency=[0.1 * speed, 0.3 * speed])

    ops = run.corrected_ops([at(1.0), at(1.6), at(1.3)])
    assert [op.key for op in ops] == ["a", "b"]
    assert [op.seconds for op in ops] == pytest.approx([0.1, 0.3])


def test_kernel_sampler_runs_during_cpu_work_and_stops():
    sampler = KernelSampler(0.005)
    with sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.1:
            pass
    taken = len(sampler.samples)
    assert taken >= 3 and 0 < sampler.spent < 0.1
    t0 = perf_counter()
    while perf_counter() - t0 < 0.05:
        pass
    assert len(sampler.samples) == taken


def test_tracer_patches_importing_modules_and_restores_them():
    rank, mat_mul = linalg.rank, linalg.mat_mul
    tracer = Tracer()
    tracer.install()
    try:
        assert classify.rank is not rank and hull.rank is classify.rank
        assert hull.mat_mul is linalg.mat_mul is not mat_mul
        classify.rank(linalg.Matrix.identity(field_new(3), 2))
    finally:
        tracer.uninstall()
    assert classify.rank is rank and hull.rank is rank
    assert linalg.mat_mul is mat_mul
    assert tracer.calls["linalg.rank"] == 1
    assert tracer.calls["linalg.rref"] == 1
    assert tracer.self_s["linalg.rank"] <= tracer.total["linalg.rank"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
