"""Text formats for problem instances, signed formulas, and solutions.

All formats are line based in the DIMACS spirit: whitespace-separated
tokens, comment lines starting with "c", a single "p" header line first.

Instance file::

    p hitpaths <n> <m> <p> <t>     (or "p hitsub" for the subgraph variant)
    e <u> <v>                      (m edge lines)
    s <k> <v1> ... <vk>            (p target lines; ordered walk for
                                    hitpaths, vertex set for hitsub)

Signed formula file::

    p scnf <n> <N> <c>
    <lit> ... 0                    (c clause lines; literal +i:b means
                                    x_i >= b, -i:b means x_i <= b)

Solution file: "s <size> <v1> ... <vk>" for YES, "s -1" for NO.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .errors import ParseError, ValidationError
from .graph import Graph, path_in
from .mvsat import SignedFormula

KIND_PATHS = "paths"
KIND_SUBGRAPHS = "subgraphs"


class HitPathsInstance(NamedTuple):
    graph: Graph
    paths: tuple[tuple[int, ...], ...]
    t: int
    kind: str = KIND_PATHS


class Solution(NamedTuple):
    verdict: str  # "YES" or "NO"
    chosen: frozenset[int] = frozenset()
    certificate: Optional[tuple[int, ...]] = None  # hitting vertex per path


def make_instance(graph: Graph, paths, t: int, kind: str = KIND_PATHS) -> HitPathsInstance:
    """Validate and freeze an instance. Duplicate targets are retained. Path
    targets are checked in bulk, and one by one only to name a bad one."""
    if kind not in (KIND_PATHS, KIND_SUBGRAPHS):
        raise ValidationError(f"unknown instance kind {kind!r}")
    ids = graph.vertices()  # ascending, so n ids from 1 to n are exactly 1..n
    if len(ids) != graph.n or (ids and (next(iter(ids)), next(reversed(ids))) != (1, graph.n)):
        raise ValidationError("vertex ids are not exactly 1..n")
    if not (0 <= t <= graph.n):
        raise ValidationError(f"budget t={t} out of range 0..{graph.n}")
    adj = graph.adjacency()
    if kind == KIND_PATHS:  # path_in of every target, in bulk
        paths = [*map(tuple, paths)]
        tails = chain.from_iterable(map(itemgetter(slice(-1)), paths))  # where each step starts
        heads = chain.from_iterable(map(itemgetter(slice(1, None)), paths))  # and where it ends
        with suppress(TypeError):  # an unhashable vertex, raised by path_in at its target
            if (
                all(paths)
                and [*map(len, map(set, paths))] == [*map(len, paths)]
                and all(map(adj.__contains__, map(itemgetter(0), paths)))
                and all(map(set.__contains__, map(adj.__getitem__, tails), heads))
            ):
                return HitPathsInstance(graph, tuple(paths), t, kind)
    frozen = []
    for idx, p in enumerate(paths):
        seq = tuple(p)
        if kind == KIND_PATHS:
            if not path_in(adj, seq):
                raise ValidationError(f"target {idx + 1} is not a simple path of the graph")
        else:
            seq = tuple(sorted(seq))
            if len(set(seq)) != len(seq) or not seq:
                raise ValidationError(f"target {idx + 1} is not a nonempty vertex set")
            if any(not (1 <= v <= graph.n) for v in seq):
                raise ValidationError(f"target {idx + 1} has a vertex out of range")
            if len(graph.components(seq)) != 1:
                raise ValidationError(f"target {idx + 1} does not induce a connected subgraph")
        frozen.append(seq)
    return HitPathsInstance(graph, tuple(frozen), t, kind)


def unhit_targets(inst: HitPathsInstance, chosen) -> list[int]:
    """0-based indices of targets missed by the chosen vertex set."""
    cs = set(chosen)
    return [i for i, p in enumerate(inst.paths) if cs.isdisjoint(p)]


def certificate_for(paths, chosen) -> Optional[tuple[int, ...]]:
    """For each target, the smallest chosen vertex on it; None if one is missed."""
    cs = set(chosen)
    try:
        return tuple(map(min, map(cs.intersection, paths)))
    except ValueError:  # min of an empty intersection: a missed target
        return None


def _content_lines(text: str) -> Iterator[list[str]]:
    """Each non-blank, non-comment line's tokens, yielded one line at a time."""
    for raw in text.splitlines():
        tokens = raw.split()
        if tokens and tokens[0] != "c":
            yield tokens


def _int(tok: str, what: str) -> int:
    """An optionally signed ASCII decimal: on ASCII text without '_', int()
    takes exactly that (elsewhere also 1_0 and non-ASCII digits)."""
    if tok.isascii() and "_" not in tok:
        try:
            return int(tok)
        except ValueError:
            pass
    raise ParseError(f"bad {what} token {tok!r}")


def _ints(tokens, what: str, ids: Optional[dict[str, int]] = None) -> list[int]:
    """_int over many tokens: one lookup per token in the table ids of
    canonical spellings, else one ASCII and '_' test of the joined tokens
    and one map(int, ...); token by token only to name a bad one."""
    if ids:
        try:
            return list(map(ids.__getitem__, tokens))
        except KeyError:  # another spelling ('+5', '007'), an id off the table or a bad token
            pass
    joined = "".join(tokens)
    if joined.isascii() and "_" not in joined:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    return [_int(tok, what) for tok in tokens]


def parse_instance(text: str) -> HitPathsInstance:
    lines = map(str.split, text.splitlines())  # split in C, one line at a time
    header = next((tokens for tokens in lines if tokens and tokens[0] != "c"), None)
    if header is None or header[0] != "p":
        raise ParseError("missing 'p' header line")
    if len(header) != 6 or header[1] not in ("hitpaths", "hitsub"):
        raise ParseError(f"bad header {' '.join(header)!r}")
    kind = KIND_PATHS if header[1] == "hitpaths" else KIND_SUBGRAPHS
    n, m, p, t = _ints(header[2:], "header field")
    # each kind of token is converted in one _ints call per file
    end_tokens: list[str] = []  # every edge line whole, its tags deleted after the loop
    size_tokens: list[str] = []  # the announced size of every target line
    vertex_tokens: list[str] = []  # the vertex tokens of all target lines
    cuts = [0]  # where each target line's vertex tokens end
    for tokens in filter(None, lines):  # a blank line splits to []
        tag = tokens[0]
        if tag == "e":
            if len(tokens) != 3:
                raise ParseError(f"bad edge line {' '.join(tokens)!r}")
            end_tokens += tokens
        elif tag == "s":
            if len(tokens) < 2:
                raise ParseError(f"bad target line {' '.join(tokens)!r}")
            size_tokens.append(tokens[1])
            vertex_tokens += tokens[2:]
            cuts.append(len(vertex_tokens))
        elif tag != "c":
            raise ParseError(f"unknown line tag {tag!r}")
    del end_tokens[::3]  # the "e" tags
    # ids spelled as str(v) convert by lookup, at most one entry per token
    ids = {str(v): v for v in range(1, min(n, len(end_tokens) + len(vertex_tokens)) + 1)}
    ends = _ints(end_tokens, "vertex", ids)
    vs = _ints(vertex_tokens, "vertex", ids)
    targets = []
    for k, a, b in zip(_ints(size_tokens, "target size"), cuts, cuts[1:]):
        if k != b - a:
            raise ParseError(f"target line announces {k} vertices, has {b - a}")
        targets.append(tuple(vs[a:b]))
    if len(ends) // 2 != m:
        raise ParseError(f"header announces {m} edges, found {len(ends) // 2}")
    if len(targets) != p:
        raise ParseError(f"header announces {p} targets, found {len(targets)}")
    graph = Graph.from_ends(n, ends[::2], ends[1::2])
    return make_instance(graph, targets, t, kind)


def write_instance(inst: HitPathsInstance) -> str:
    word = "hitpaths" if inst.kind == KIND_PATHS else "hitsub"
    g = inst.graph
    lines = [f"p {word} {g.n} {g.m} {len(inst.paths)} {inst.t}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    for p in inst.paths:
        lines.append("s " + " ".join(str(x) for x in (len(p),) + p))
    return "\n".join(lines) + "\n"


def parse_signed_formula(text: str) -> SignedFormula:
    lines = _content_lines(text)
    header = next(lines, None)
    if header is None or header[0] != "p":
        raise ParseError("missing 'p' header line")
    if len(header) != 5 or header[1] != "scnf":
        raise ParseError(f"bad header {' '.join(header)!r}")
    n, nvals, c = _ints(header[2:], "header field")
    if n < 0 or nvals < 1:
        raise ValidationError(f"bad variable or truth value count {n}/{nvals}")
    clauses = []
    for tokens in lines:
        if tokens[-1] != "0":
            raise ParseError("clause line not terminated by 0")
        lits = []
        for tok in tokens[:-1]:
            if len(tok) < 4 or tok[0] not in "+-" or ":" not in tok:
                raise ParseError(f"bad literal token {tok!r}")
            var_s, _, bound_s = tok[1:].partition(":")
            op = ">=" if tok[0] == "+" else "<="
            lits.append((_int(var_s, "variable index"), op, _int(bound_s, "bound")))
        clauses.append(tuple(lits))
    if len(clauses) != c:
        raise ParseError(f"header announces {c} clauses, found {len(clauses)}")
    return SignedFormula(n, nvals, tuple(clauses))


def write_signed_formula(f: SignedFormula) -> str:
    lines = [f"p scnf {f.num_vars} {f.num_values} {len(f.clauses)}"]
    for clause in f.clauses:
        toks = [("+" if op == ">=" else "-") + f"{var}:{bound}" for var, op, bound in clause]
        lines.append(" ".join(toks + ["0"]))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> Solution:
    lines = list(_content_lines(text))
    if len(lines) != 1 or lines[0][0] != "s":
        raise ParseError("expected a single 's' line")
    tokens = lines[0]
    if len(tokens) < 2:
        raise ParseError("'s' line lacks the solution size")
    size = _int(tokens[1], "solution size")
    if size == -1:
        if len(tokens) != 2:
            raise ParseError("NO solution line carries no vertices")
        return Solution("NO")
    vs = _ints(tokens[2:], "vertex")
    if size != len(vs):
        raise ParseError(f"solution announces {size} vertices, has {len(vs)}")
    if len(set(vs)) != len(vs):
        raise ValidationError("duplicate vertex in solution")
    return Solution("YES", frozenset(vs))


def write_solution(sol: Solution) -> str:
    if sol.verdict == "NO":
        return "s -1\n"
    vs = sorted(sol.chosen)
    return "s " + " ".join(str(x) for x in [len(vs)] + vs) + "\n"
