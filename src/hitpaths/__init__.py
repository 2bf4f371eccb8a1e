"""Exact solvers for hitting prescribed simple paths in graphs of small
cyclomatic number, with flower-graph and signed 2-SAT machinery and a CLI.

Importing the package loads only the modules a solve runs. The reference
oracle and the hardness-construction generators, which no solve calls, are
imported from their own modules: `hitpaths.oracle` (SetSystem,
exact_min_hitting_set) and `hitpaths.reductions` (GeneratorConfig,
gen_random_instance and the constructions)."""

from .errors import (
    CapExceeded,
    ClauseTooWide,
    FlowerShapeViolation,
    HitPathsError,
    InfeasibleConfig,
    InvariantViolation,
    NotAPath,
    ParseError,
    TooFewEdges,
    ValidationError,
)
from .flower import (
    FlowerInstance,
    canonical_table,
    fragment_literal,
    make_flower,
    solve_flower,
)
from .fpt import PreprocessResult, SolveStats, preprocess, solve
from .graph import (
    Graph,
    PathComponent,
    connect_components,
    cyclomatic_number,
    high_degree_set,
    path_components,
)
from .instance_io import (
    KIND_PATHS,
    KIND_SUBGRAPHS,
    HitPathsInstance,
    Solution,
    make_instance,
    parse_instance,
    parse_signed_formula,
    parse_solution,
    write_instance,
    write_signed_formula,
    write_solution,
)
from .mvsat import (
    GE,
    LE,
    BoolCnf,
    SignedFormula,
    signed_to_classical,
    solve_2sat,
    solve_tors2sat,
)
from .treecycle import (
    hit_paths_in_cycle,
    stab_intervals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
