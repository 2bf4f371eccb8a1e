"""End-to-end and per-layer benchmark of the hitpaths solver.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload scaling|large|flower|all \
        --seed N --seconds S --trace 0|1

The benchmark imports the package from ``src/`` of the checkout it sits in
and refuses to run without it. It generates one round of instance texts
from the seed (see workloads.py) and runs rounds in a closed loop from one
process: one client, no threads, the next instance starting only after the
previous one was verified. Each instance is timed from ``parse_instance``
through ``solve`` to the benchmark's own check of the answer; whole rounds
run until ``--seconds`` have passed. Times are reported in reference
seconds, scaled by a calibration routine timed around every instance (see
speed.py), so that the machine's drifting speed does not read as a change
in the program.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs rounds
untraced for half the time and then as many rounds traced, and reports the
per-layer metrics per round: inclusive (``.s``) and self (``.self_s``)
seconds of each layer's spans, call counts and the layers' own counters.
Spans are written to ``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the inputs' digest, the environment, the counters and
the first failures. A wrong verdict, an invalid certificate, an exception,
a per-instance timeout or a counter that does not repeat exactly counts as
a failure, and any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 9
INSTANCE_TIMEOUT_S = 20.0
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile

# Per-layer metrics: (metric, span name, field of Tracer.summary) for timed
# spans and call counts; the tracer's own counters and the SolveStats sums
# are added by name.
SPAN_METRICS = (
    ("instance_io.parse_instance.s", "instance_io.parse_instance", "s"),
    ("fpt.solve.s", "fpt.solve", "s"),
    ("fpt.solve.self_s", "fpt.solve", "self_s"),
    ("fpt.preprocess.s", "fpt.preprocess", "s"),
    ("fpt.component_budgets.s", "fpt.component_budgets", "s"),
    ("fpt.build_flower_branch.s", "fpt.build_flower_branch", "s"),
    ("fpt.build_flower_branch.calls", "fpt.build_flower_branch", "calls"),
    ("flower.make_flower.s", "flower.make_flower", "s"),
    ("flower.solve_flower.s", "flower.solve_flower", "s"),
    ("flower.solve_flower.self_s", "flower.solve_flower", "self_s"),
    ("flower.solve_flower.calls", "flower.solve_flower", "calls"),
    ("flower.canonical_table.s", "flower.canonical_table", "s"),
    ("flower.canonical_table.calls", "flower.canonical_table", "calls"),
    ("mvsat.signed_to_classical.s", "mvsat.signed_to_classical", "s"),
    ("mvsat.solve_2sat.s", "mvsat.solve_2sat", "s"),
    ("treecycle.stab_intervals.s", "treecycle.stab_intervals", "s"),
    ("treecycle.stab_intervals.calls", "treecycle.stab_intervals", "calls"),
    ("treecycle.hit_paths_in_cycle.s", "treecycle.hit_paths_in_cycle", "s"),
    ("graph.adjacency.calls", "graph.adjacency", "calls"),
    ("graph.cyclomatic_number.calls", "graph.cyclomatic_number", "calls"),
    ("bench.verify.s", "bench.verify", "s"),
)
COUNTER_METRICS = (
    "fpt.branch.infeasible",
    "fpt.branch.direct",
    "fpt.branch.flower",
    "flower.solve_flower.yes",
    "flower.canonical_table.cells",
    "mvsat.bool_vars",
    "mvsat.bool_clauses",
    "mvsat.unsat",
)
STATS_METRICS = ("branches_enumerated", "branches_after_filter")


class InstanceTimeout(Exception):
    pass


@dataclasses.dataclass
class Outcome:
    case: int  # index within the round
    seconds: float  # less the calibration samples taken inside the instance
    verdict: str
    counters: tuple
    problem: str  # empty when the answer was verified
    samples: list  # calibration samples taken while the instance ran


def check_answer(case: workloads.Case, inst, sol, hp) -> str:
    """Why `sol` is not a correct answer for `case`, or '' if it is."""
    if sol.verdict != case.expected:
        return f"verdict {sol.verdict}, expected {case.expected}"
    if sol.verdict != "YES":
        return ""
    chosen = set(sol.chosen)
    if len(chosen) > case.t:
        return f"certificate has {len(chosen)} vertices, budget {case.t}"
    if not all(1 <= v <= case.n for v in chosen):
        return "certificate names a vertex outside the graph"
    missed = any(chosen.isdisjoint(p) for p in case.targets)
    if missed or hp.instance_io.unhit_targets(inst, chosen):
        return "certificate misses a target"
    cert = sol.certificate
    if cert is not None and (
        len(cert) != len(case.targets)
        or any(w not in chosen or w not in p for w, p in zip(cert, case.targets))
    ):
        return "per-target witnesses do not match the certificate"
    return ""


def solve_stats(stats) -> tuple:
    """The integer fields of a SolveStats, which must repeat exactly."""
    return tuple((k, v) for k, v in sorted(vars(stats).items()) if v is None or isinstance(v, int))


def run_case(index: int, case: workloads.Case, hp, tracer=None) -> Outcome:
    """Parse, solve and verify one instance; never raises for a solver fault.

    A timer interrupts a long instance to take calibration samples, whose
    time is not counted, and to enforce the timeout.
    """
    verdict, counters, problem = "", (), ""
    samples: list[float] = []
    paused = 0.0
    deadline = time.perf_counter() + INSTANCE_TIMEOUT_S

    def on_tick(signum, frame):
        nonlocal paused
        t = time.perf_counter()
        if t > deadline:
            raise InstanceTimeout(f"instance exceeded {INSTANCE_TIMEOUT_S:g} s")
        samples.append(speed.sample())
        paused += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, on_tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, speed.FIRST_TICK_S, speed.TICK_S)
    try:
        inst = hp.instance_io.parse_instance(case.text)
        stats = hp.fpt.SolveStats()
        sol = hp.fpt.solve(inst, stats=stats)
        verdict, counters = sol.verdict, solve_stats(stats)
        with tracer.span("bench.verify") if tracer else contextlib.nullcontext():
            problem = check_answer(case, inst, sol, hp)
    except Exception as exc:  # a solver fault is a failed instance, not a crash
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0 - paused
        signal.signal(signal.SIGALRM, previous)
    return Outcome(index, elapsed, verdict, counters, problem, samples)


@dataclasses.dataclass
class Pass:
    """Outcomes of whole rounds run back to back, with a calibration sample
    taken before each instance and one after the last."""

    outcomes: list
    rounds: int
    calibration: list

    def scaled(self) -> list[float]:
        """Each outcome's time in reference seconds."""
        bounds = zip(self.outcomes, self.calibration, self.calibration[1:])
        return [speed.to_reference(o.seconds, (a, *o.samples, b)) for o, a, b in bounds]


def run_rounds(cases, hp, seconds: float, rounds: int = 0, tracer=None) -> Pass:
    """Run whole rounds until `seconds` have passed, or exactly `rounds`.

    An instance whose verdict or SolveStats differ from its first round is
    marked failed, and so is a round whose traced counters differ from the
    first round's. A pass that overruns its time by far stops mid-round.
    """
    run = Pass([], 0, [])
    first: dict[int, tuple] = {}
    seen: Counter = Counter()
    first_counts = None
    t0 = time.perf_counter()
    hard_stop = t0 + 2 * seconds + INSTANCE_TIMEOUT_S
    while (run.rounds < rounds) if rounds else (time.perf_counter() - t0 < seconds):
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.instance = len(run.outcomes)
            run.calibration.append(speed.sample())
            out = run_case(i, case, hp, tracer)
            key = (out.verdict, out.counters)
            if not out.problem and first.setdefault(i, key) != key:
                out.problem = "verdict or SolveStats differ from the first round"
            run.outcomes.append(out)
            if time.perf_counter() > hard_stop:
                run.calibration.append(speed.sample())
                return run
        run.rounds += 1
        if tracer is not None:
            counts = tracer.counters - seen
            seen = tracer.counters.copy()
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts and not run.outcomes[-1].problem:
                run.outcomes[-1].problem = "traced counters differ from the first round"
    run.calibration.append(speed.sample())
    return run


def setup(workload: str, seed: int):
    """Import the package and build the inputs SETUP_REPEATS times.

    Returns the package, the cases and the median set-up time in reference
    seconds.
    """
    times, calibration = [], [speed.sample()]
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "hitpaths" or m.startswith("hitpaths.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        hp = importlib.import_module("hitpaths")
        for module in ("fpt", "instance_io"):
            importlib.import_module(f"hitpaths.{module}")
        cases = workloads.generate(workload, seed)
        times.append(time.perf_counter() - t0)
        calibration.append(speed.sample())
    if Path(hp.__file__).resolve().parent != SRC / "hitpaths":
        raise RuntimeError(f"imported hitpaths from {hp.__file__}, not from {SRC}")
    return hp, cases, statistics.median(speed.bracketed(times, calibration))


def environment(seed: int, cases) -> dict:
    return {
        "seed": seed,
        "instances_per_round": len(cases),
        "input_digest": workloads.digest(cases),
        "source_digest": _source_digest(),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hitpaths").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    """HEAD of the checkout's own git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _failures(outcomes, cases) -> list[str]:
    return [f"{cases[o.case].name}: {o.problem}" for o in outcomes if o.problem]


def end_to_end(run: Pass, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, in reference seconds, and their details."""
    lat = sorted(run.scaled())
    ok = sum(1 for o in run.outcomes if not o.problem)
    beyond = min(TAIL_SAMPLES, len(lat) - 1)
    tail_rank = len(lat) - 1 - beyond
    metrics = {
        "instances_per_s": {"value": ok / sum(lat), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "latency_tail_s": {"value": lat[tail_rank], "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    measured = [o.seconds for o in run.outcomes]
    details = {
        "failed_frac": {"value": (len(lat) - ok) / len(lat), "unit": "1"},
        "latency_tail_percentile": 100 * (tail_rank + 1) / len(lat),
        "latency_samples": len(lat),
        "latency_samples_beyond_tail": beyond,
        "unscaled": {
            "instances_per_s": ok / sum(measured),
            "latency_p50_s": statistics.median(measured),
            "calibration_median_s": statistics.median(run.calibration),
        },
    }
    return metrics, details


def per_layer(tracer: spans.Tracer, plain: Pass, traced: Pass) -> dict:
    """Per-round per-layer metrics of the traced pass, in reference seconds."""
    scaled = traced.scaled()
    factors = [s / o.seconds if o.seconds else 1.0 for s, o in zip(scaled, traced.outcomes)]
    summary = tracer.summary(factors)
    absent = set(tracer.absent)
    rounds = max(traced.rounds, 1)
    metrics = {}
    for metric, span, field in SPAN_METRICS:
        if span in absent:
            continue
        value = summary.get(span, {field: 0})[field] / rounds
        if field == "calls":
            metrics[metric] = {"value": round(value), "unit": "count"}
        else:
            metrics[metric] = {"value": value, "unit": "s"}
    for name in COUNTER_METRICS:
        if name not in absent:
            metrics[name] = {"value": round(tracer.counters[name] / rounds), "unit": "count"}
    per_round = _stats_sums(traced.outcomes, rounds)
    for field in STATS_METRICS:
        metrics[f"fpt.{field}"] = {"value": per_round.get(field, 0), "unit": "count"}
    solve = summary.get("fpt.solve")
    coverage = solve["child_s"] / solve["s"] if solve and solve["s"] else 0.0
    metrics["trace.coverage"] = {"value": coverage, "unit": "ratio"}
    overhead = sum(scaled) - sum(plain.scaled())
    metrics["trace.overhead_s"] = {"value": overhead / rounds, "unit": "s"}
    return metrics


def _stats_sums(outcomes, rounds: int) -> dict:
    """SolveStats fields summed over the instances of one round."""
    sums: dict = {}
    for o in outcomes:
        for field, value in o.counters:
            if isinstance(value, int):
                sums[field] = sums.get(field, 0) + value
    return {field: total // max(rounds, 1) for field, total in sums.items()}


def _compare_passes(plain, traced) -> int:
    """Mark traced outcomes whose verdict or SolveStats differ from the
    untraced outcome of the same instance; returns how many differ."""
    differ = 0
    for a, b in zip(plain, traced):
        if not b.problem and (a.verdict, a.counters) != (b.verdict, b.counters):
            b.problem = "verdict or SolveStats differ between traced and untraced runs"
            differ += 1
    return differ


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    hp, cases, setup_s = setup(workload, seed)
    report = {"workload": workload, "seconds": seconds, "trace": int(trace)}
    report.update(environment(seed, cases))

    if not trace:
        run = run_rounds(cases, hp, seconds)
        metrics, details = end_to_end(run, setup_s)
        report.update(details)
        attempted = run.outcomes
    else:
        run = run_rounds(cases, hp, seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_rounds(cases, hp, seconds / 2, rounds=max(run.rounds, 1), tracer=tracer)
        finally:
            tracer.uninstall()
        report["traced_vs_untraced_mismatches"] = _compare_passes(run.outcomes, traced.outcomes)
        metrics = per_layer(tracer, run, traced)
        report["absent"] = tracer.absent
        report["counters_per_round"] = {
            k: v // max(run.rounds, 1) for k, v in sorted(tracer.counters.items())
        }
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload}-seed{seed}.tsv"
        tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        attempted = run.outcomes + traced.outcomes

    report["rounds"] = run.rounds
    report["solve_stats_per_round"] = _stats_sums(run.outcomes, run.rounds)
    failures = _failures(attempted, cases)
    report["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": metrics,
    }
    shown = dict(metrics, **({"failed_frac": report["failed_frac"]} if not trace else {}))
    for name, m in sorted(shown.items()):
        print(f"{workload:8s} {name:32s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hitpaths" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hitpaths'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        worst = 0
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
        return worst
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
