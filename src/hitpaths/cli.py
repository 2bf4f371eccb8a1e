"""Command-line front end.

Verbs: solve, oracle, gen, reduce, verify, bench. Solution lines go to
stdout; diagnostics and statistics go to stderr. Exit codes: 0 for YES or
success, 1 for NO, 2 for any error. The oracle, the generators and the
benchmark harnesses are imported by the verbs that use them, so `solve`
and a YES `verify` load only what a solve runs.
"""

from __future__ import annotations

import argparse
import sys

from .errors import HitPathsError, ParseError
from .fpt import SolveStats, solve
from .instance_io import (
    parse_instance,
    parse_signed_formula,
    parse_solution,
    unhit_targets,
    write_instance,
    write_signed_formula,
    write_solution,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitpaths",
        description="Exact solvers for hitting prescribed paths in graphs of small cyclomatic number.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="run the FPT solver on an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--stats", action="store_true", help="print branch statistics to stderr")

    p_oracle = sub.add_parser("oracle", help="run the brute-force reference solver")
    p_oracle.add_argument("instance")

    p_gen = sub.add_parser("gen", help="emit a seeded random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--paths", type=int, required=True)
    p_gen.add_argument("--max-path-len", type=int, default=6)
    p_gen.add_argument(
        "--t-policy", choices=["random", "opt", "opt-1", "opt+1"], default="random"
    )
    p_gen.add_argument("--out", help="output file (default stdout)")

    p_reduce = sub.add_parser("reduce", help="apply a hardness construction")
    p_reduce.add_argument("construction", choices=["clique3sat", "sat3tree", "sat3fvs2"])
    p_reduce.add_argument("infile")
    p_reduce.add_argument("outfile")
    p_reduce.add_argument(
        "--clique-k", type=int, default=3, help="clique size for clique3sat (default 3)"
    )

    p_verify = sub.add_parser("verify", help="check a claimed solution against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", choices=["agreement", "scaling"], required=True)
    p_bench.add_argument("--count", type=int, default=500, help="instances for the agreement suite")
    p_bench.add_argument("--seed", type=int, default=0)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _emit(text: str, out_path=None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    stats = SolveStats()
    sol = solve(inst, stats=stats)
    sys.stdout.write(write_solution(sol))
    if args.stats:
        print(
            f"stats: k={stats.k} high_degree={stats.high_degree}"
            f" components={stats.components}"
            f" branches={stats.branches_enumerated}"
            f" after_filter={stats.branches_after_filter}"
            f" flower_calls={stats.flower_calls}"
            f" solution_cost={stats.solution_cost}",
            file=sys.stderr,
        )
    return EXIT_YES if sol.verdict == "YES" else EXIT_NO


def _cmd_oracle(args) -> int:
    from .oracle import reference_verdict

    inst = parse_instance(_read(args.instance))
    sol = reference_verdict(inst)
    sys.stdout.write(write_solution(sol))
    return EXIT_YES if sol.verdict == "YES" else EXIT_NO


def _cmd_gen(args) -> int:
    from .reductions import GeneratorConfig, gen_random_instance

    cfg = GeneratorConfig(
        seed=args.seed,
        k=args.k,
        n=args.n,
        num_paths=args.paths,
        max_path_len=args.max_path_len,
        t_policy=args.t_policy,
    )
    inst = gen_random_instance(cfg)
    _emit(write_instance(inst), args.out)
    return EXIT_YES


def _cmd_reduce(args) -> int:
    from . import reductions

    if args.construction == "clique3sat":
        inst = parse_instance(_read(args.infile))
        formula = reductions.clique_to_signed3sat(inst.graph, args.clique_k)
        _emit(write_signed_formula(formula), args.outfile)
        return EXIT_YES
    formula = parse_signed_formula(_read(args.infile))
    if args.construction == "sat3tree":
        out = reductions.signed3sat_to_subtree_instance(formula)
    else:
        out = reductions.signed3sat_to_fvs2_instance(formula)
    _emit(write_instance(out), args.outfile)
    return EXIT_YES


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    claim = parse_solution(_read(args.solution))
    if claim.verdict == "NO":
        # a NO claim is checked against the exact reference
        from .oracle import reference_verdict

        if reference_verdict(inst).verdict == "NO":
            print("verified: NO claim confirmed by the reference solver", file=sys.stderr)
            return EXIT_YES
        print("error: claimed NO but the instance is feasible", file=sys.stderr)
        return EXIT_ERROR
    bad = [v for v in claim.chosen if not (1 <= v <= inst.graph.n)]
    if bad:
        print(f"error: solution vertex {bad[0]} out of range", file=sys.stderr)
        return EXIT_ERROR
    if len(claim.chosen) > inst.t:
        print(
            f"error: solution uses {len(claim.chosen)} vertices, budget is {inst.t}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    missed = unhit_targets(inst, claim.chosen)
    if missed:
        print(f"error: target {missed[0] + 1} is not hit", file=sys.stderr)
        return EXIT_ERROR
    print("verified: solution hits every target within budget", file=sys.stderr)
    return EXIT_YES


def _cmd_bench(args) -> int:
    from .bench import run_agreement, run_scaling

    if args.suite == "agreement":
        rep = run_agreement(args.count, base_seed=args.seed)
        print("suite      instances  agreements  mismatches  median_s  max_branches")
        print(
            f"agreement  {rep.total:9d}  {rep.agreements:10d}  {len(rep.mismatches):10d}"
            f"  {rep.median_time:8.4f}  {rep.max_branches:12d}"
        )
        if rep.mismatches:
            print(f"mismatching seeds: {rep.mismatches}", file=sys.stderr)
            return EXIT_ERROR
        return EXIT_YES
    rep = run_scaling()
    print("k   branches  median_s")
    for k in sorted(rep.branch_counts):
        print(f"{k:<3d} {rep.branch_counts[k]:8d}  {rep.median_times[k]:.6f}")
    print(f"branch ratio: {rep.branch_ratio:.1f}")
    print(f"time ratio:   {rep.time_ratio:.1f}")
    return EXIT_YES


_DISPATCH = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "bench" and args.count < 1:
            parser.error(f"argument --count: {args.count} is below 1")
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_YES
    try:
        return _DISPATCH[args.verb](args)
    except (HitPathsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
