"""Tests of the benchmark itself: seeded generators with planted optima, the
answer check, the tracer's patching, agreement of traced and untraced runs,
and the command-line contract."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

import hitpaths  # noqa: E402
from hitpaths.instance_io import Solution  # noqa: E402
from hitpaths.oracle import SetSystem, exact_min_hitting_set  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert workloads.digest(first) == workloads.digest(workloads.generate(workload, 7))
    assert workloads.digest(first) != workloads.digest(workloads.generate(workload, 8))


def _oracle_opt(n, targets):
    size, _ = exact_min_hitting_set(SetSystem.build(n, targets), n)
    return size


@pytest.mark.parametrize("seed", range(6))
def test_planted_optimum_is_the_optimum(seed):
    rng = random.Random(seed)
    for k in (1, 3):
        edges, targets, opt = workloads.large_instance(rng, 30, k)
        assert _oracle_opt(30, targets) == opt
    n, edges, targets, opt = workloads.flower_instance(rng, 3, 8, 1, 2, 4)
    assert _oracle_opt(n, targets) == opt


def test_scaling_cases_match_the_package_family():
    bench = pytest.importorskip("hitpaths.bench")
    for k in (3, 4):
        n, edges, targets, t = workloads.scaling_skeleton(k)
        ref = bench.scaling_instance(k)
        assert (n, t) == (ref.graph.n, ref.t)
        assert {tuple(sorted(e)) for e in edges} == set(ref.graph.edges)
        assert sorted(targets) == sorted(ref.paths)


def _scaling_k3_case():
    return next(c for c in workloads.generate("scaling", 1) if c.name.startswith("scaling-k3"))


def test_check_answer_rejects_corrupted_certificate_and_flipped_verdict():
    case = _scaling_k3_case()
    inst = hitpaths.parse_instance(case.text)
    sol = hitpaths.solve(inst)
    assert run.check_answer(case, inst, sol, hitpaths) == ""
    dropped = Solution("YES", frozenset(sorted(sol.chosen)[1:]), None)
    assert run.check_answer(case, inst, dropped, hitpaths)
    if sol.certificate is not None:
        wrong_witness = Solution("YES", sol.chosen, tuple(reversed(sol.certificate)))
        assert run.check_answer(case, inst, wrong_witness, hitpaths)
    assert run.check_answer(case, inst, Solution("NO"), hitpaths)


def test_flipped_verdicts_and_exceptions_count_as_failed(monkeypatch):
    case = _scaling_k3_case()
    monkeypatch.setattr(hitpaths.fpt, "solve", lambda inst, stats=None: Solution("NO"))
    assert "verdict NO" in run.run_case(0, case, hitpaths).problem

    def broken(inst, stats=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(hitpaths.fpt, "solve", broken)
    assert "RuntimeError" in run.run_case(0, case, hitpaths).problem


def _mixed_cases():
    flower = [c for c in workloads.generate("flower", 3) if "-many-" in c.name][:3]
    large = workloads.generate("large", 3)[:1]
    return [_scaling_k3_case()] + flower + large


def test_traced_and_untraced_runs_agree_on_verdicts_and_counters():
    cases = _mixed_cases()
    plain = run.run_rounds(cases, hitpaths, 60, rounds=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_rounds(cases, hitpaths, 60, rounds=2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [o.problem for o in plain.outcomes + traced.outcomes] == [""] * 4 * len(cases)
    assert [(o.verdict, o.counters) for o in plain.outcomes] == [
        (o.verdict, o.counters) for o in traced.outcomes
    ]
    _assert_per_layer_names(run.per_layer(tracer, plain, traced), tracer.absent)


def _assert_per_layer_names(metrics, absent):
    """Every per-layer metric is printed unless its layer is reported absent."""
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) <= names
    missing = names - set(metrics)
    assert all(any(name.startswith(a) for a in absent) for name in missing), missing


def test_tracer_patches_every_binding_and_restores_them():
    original = getattr(hitpaths.flower, "make_flower", None)
    if original is None or getattr(hitpaths.fpt, "make_flower", None) is not original:
        pytest.skip("fpt no longer binds flower.make_flower")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hitpaths.fpt.make_flower is not original
        assert hitpaths.fpt.make_flower is hitpaths.flower.make_flower
    finally:
        tracer.uninstall()
    assert hitpaths.fpt.make_flower is original
    assert hitpaths.flower.make_flower is original


def test_missing_layer_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install([("fpt.gone", "fpt", "no_such_function", ("fpt.gone.count",), None)])
    tracer.uninstall()
    assert tracer.absent == ["fpt.gone", "fpt.gone.count"]


def _run_cli(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "flower", "--seed", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_cli_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run_cli(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_the_metrics_of_its_section(trace):
    proc = _run_cli(run.ROOT, "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line)["report"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
    if trace:
        _assert_per_layer_names(result["metrics"], report["absent"])
    else:
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
