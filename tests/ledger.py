"""Answer ledger: the solver's answer on a fixed corpus, one line per instance.

Each line holds the instance name, the verdict, the SolveStats and a digest
of the chosen set and certificate. A solve that raises is recorded as
{"name": ..., "raised": <exception class name>} instead, so that --check
names every such instance rather than stopping at the first traceback. The
corpus is agreement seeds 0-1,499, scaling_instance(2..4), the first 40
cases of each benchmark workload and 300 disconnected inputs.

    python tests/ledger.py           # rewrite tests/ledger.json (refused
                                     # while some solve raises)
    python tests/ledger.py --check   # exit 1 and name every changed instance

Not collected by pytest (the file name does not start with test_).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hitpaths import SolveStats, parse_instance, solve  # noqa: E402
from hitpaths.bench import _agreement_instance, scaling_instance  # noqa: E402

import workloads  # noqa: E402
from conftest import disconnected_instance  # noqa: E402

LEDGER = Path(__file__).resolve().parent / "ledger.json"


def corpus():
    """(name, instance) pairs, in ledger order."""
    for seed in range(1500):
        yield f"agreement-{seed}", _agreement_instance(seed)
    for k in (2, 3, 4):
        yield f"scaling_instance-{k}", scaling_instance(k)
    for workload in workloads.WORKLOADS:
        cases, seed = [], 0
        while len(cases) < 40:
            seed += 1
            batch = workloads.generate(workload, seed)
            cases += [(f"{workload}-seed{seed}-{c.name}", c) for c in batch]
        for name, case in cases[:40]:
            yield name, parse_instance(case.text)
    rng = random.Random(113)
    for i in range(300):
        yield f"disconnected-{i}", disconnected_instance(rng)


def entry(name, inst) -> dict:
    stats = SolveStats()
    try:
        sol = solve(inst, stats)
    except Exception as exc:  # recorded as the answer, never written
        return {"name": name, "raised": type(exc).__name__}
    answer = json.dumps([sorted(sol.chosen), sol.certificate])
    return {
        "name": name,
        "verdict": sol.verdict,
        "stats": vars(stats),
        "answer": hashlib.sha256(answer.encode()).hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the ledger, write nothing"
    )
    args = parser.parse_args(argv)
    entries = [entry(name, inst) for name, inst in corpus()]
    if not args.check:
        raised = [e for e in entries if "raised" in e]
        for e in raised:
            print(f"raised: {e['name']}: {e['raised']}")
        if raised:
            print(f"{len(raised)} solves raised; the ledger is left as it was")
            return 1
        LEDGER.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
        print(f"wrote {len(entries)} entries to {LEDGER.name}")
        return 0
    want = {e["name"]: e for e in json.loads(LEDGER.read_text())}
    got = {e["name"]: e for e in entries}
    changed = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    for name in changed:
        print(f"changed: {name}\n  ledger: {want.get(name)}\n  now:    {got.get(name)}")
    print(f"{len(got)} instances, {len(changed)} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
