"""Command-line interface: graph file ingestion, subcommands, JSON/DOT output.

Graph files are line oriented: ``vertex NAME`` declares a vertex, ``edge SRC
DST`` adds an edge (repeat the line for parallel edges), ``#`` starts a
comment.  Exit codes: 0 success, 1 failed property check, 2 input error,
3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from operator import add

from .graphs import CapExceeded, Digraph, bits
from . import lattice as _lattice
from . import oracle as _oracle
from .census import simple_graphs
from .lattice import ConLattice, enumerate_lattice
from .triples import WangTriple, atoms

JSON_FORMAT = 1
CENSUS_BOUND_DEFAULT = 5
# the strings of one JSON list or DOT block are joined this many at a time
SLICE = 1 << 15

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_TOKEN = re.compile(r"\S+")


class GraphParseError(ValueError):
    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_graph_text(text: str) -> Digraph:
    """Parse the line-oriented graph format, with positions on errors."""
    names = []
    index = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        # (token, 1-based column) for each whitespace-separated token
        spans = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not spans:
            continue
        keyword, col = spans[0]
        tokens = [tok for tok, _ in spans]
        if keyword == "vertex":
            if len(tokens) != 2:
                raise GraphParseError("vertex takes exactly one name",
                                      lineno, col)
            name = tokens[1]
            if name in index:
                raise GraphParseError(f"duplicate vertex {name!r}",
                                      lineno, spans[1][1])
            index[name] = len(names)
            names.append(name)
        elif keyword == "edge":
            if len(tokens) != 3:
                raise GraphParseError("edge takes a source and a range",
                                      lineno, col)
            for name, name_col in spans[1:]:
                if name not in index:
                    raise GraphParseError(f"unknown vertex {name!r}",
                                          lineno, name_col)
            edges.append((index[tokens[1]], index[tokens[2]]))
        else:
            raise GraphParseError(f"unknown directive {keyword!r}", lineno, col)
    if not names:
        raise GraphParseError("no vertices declared", 1)
    return Digraph(names, edges)


def parse_graph_file(path: str) -> Digraph:
    # a byte-order mark is no part of the first directive
    if path == "-":
        return parse_graph_text(sys.stdin.read().removeprefix("\ufeff"))
    with open(path, encoding="utf-8-sig") as handle:
        return parse_graph_text(handle.read())


def format_graph(graph: Digraph) -> str:
    lines = [f"vertex {name}" for name in graph.names]
    lines += [f"edge {graph.names[s]} {graph.names[r]}" for s, r in graph.edges]
    return "\n".join(lines) + "\n"


# -- JSON and DOT rendering ----------------------------------------------------


def triple_json(t: WangTriple) -> dict:
    # every triple a command renders has the default f = ()
    return {"H": t.graph.vertex_names(t.H), "W": t.graph.vertex_names(t.W)}


def graph_json(graph: Digraph) -> dict:
    return {"vertices": list(graph.names),
            "edges": [[graph.names[s], graph.names[r]] for s, r in graph.edges]}


def dot_escape(text: str) -> str:
    """text inside a DOT double-quoted string: backslash and quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def lattice_json(lat: ConLattice, properties: bool = False) -> str:
    """The document of `lattice --json`, written as text: the bytes
    json.dumps gives for {"format", "vertices", "edges", "elements",
    "covers", "bottom", "top"} and, with properties, "properties", with no
    list built per cover nor dict per element."""
    graph = lat.graph
    head = json.dumps({"format": JSON_FORMAT, **graph_json(graph)})
    # each element is triple_json of its masks: an acyclic graph's triples
    # have no cycle function.  Each name is escaped once, as json.dumps
    # escapes it, and each mask named once: a lattice repeats each H
    # across all its W, so a few hundred masks name thousands of elements.
    quoted = list(map(encode_basestring_ascii, graph.names))

    @cache
    def names(mask):
        return "[" + ", ".join([quoted[v] for v in bits(mask)]) + "]"

    elements = (f'{{"H": {names(H)}, "W": {names(W)}}}' for H, W in lat.masks)
    # each list's pieces end in the separator; the last is dropped
    parts = [head[:-1], ', "elements": [',
             *_in_slices(elements, lat.n, ", ")[:-1], '], "covers": [',
             *_cover_slices(lat, [f"[{i}, " for i in range(lat.n)],
                            [f"{j}]" for j in range(lat.n)], ", ")[:-1],
             f'], "bottom": {lat.bottom}, "top": {lat.top}']
    if properties:
        parts.append(', "properties": ' + json.dumps(lattice_properties(lat)))
    parts.append("}")
    return "".join(parts)


def lattice_properties(lat: ConLattice) -> dict:
    usm = _lattice.is_upper_semimodular(lat)
    lsm = _lattice.is_lower_semimodular(lat)
    return {
        "elements": lat.n,
        "upper_semimodular": usm,
        "lower_semimodular": lsm,
        "modular": usm and lsm,
        "distributive": usm and lsm and _lattice._irreducibles_match_length(lat),
        "atomistic": _lattice.is_atomistic_lattice(lat),
    }


def lattice_dot(lat: ConLattice) -> str:
    # each label is the element's triple as repr prints it
    names = lat.graph.vertex_names
    braces = cache(lambda mask: dot_escape("{" + ",".join(names(mask)) + "}"))
    labels = (f'  n{i} [label="({braces(H)}, {braces(W)}, ∅)"];'
              for i, (H, W) in enumerate(lat.masks))
    head = [f"n{j};" for j in range(lat.n)]
    edges = _cover_slices(lat, [f"  n{i} -> " for i in range(lat.n)], head,
                          "\n")
    # every chain from the bottom to an element has |H u W| steps, and the
    # elements are numbered by that size
    size = [(H | W).bit_count() for H, W in lat.masks]
    ranks = ["  {rank=same; " + " ".join(map(head.__getitem__, rank)) + "}\n"
             for _, rank in groupby(range(lat.n), size.__getitem__)]
    return "".join(["digraph conlat {\n  rankdir=BT;\n  node [shape=box];\n",
                    *_in_slices(labels, lat.n, "\n"),
                    *edges,
                    *ranks, "}\n"])


def _cover_slices(lat, tail, head, sep):
    """_in_slices of the covers, cover (i, j) written tail[i] + head[j]:
    the text of each index is formatted once, not once per cover."""
    covers = map(add, map(tail.__getitem__, lat.cover_from),
                 map(head.__getitem__, lat.cover_to))
    return _in_slices(covers, len(lat.cover_from), sep)


def _in_slices(strings, count, sep):
    """The count strings of an iterator, each followed by sep, as pieces
    that each join at most SLICE of them: no join holds one string per
    element or cover of the whole lattice."""
    pieces = []
    for _ in range(0, count, SLICE):
        pieces += (sep.join(islice(strings, SLICE)), sep)
    return pieces


# -- subcommands -----------------------------------------------------------------


def _require_cap(option, value):
    """A cap counts at least one thing; a lower one is an input error."""
    if value < 1:
        raise ValueError(f"{option} must be at least 1, not {value}")


def _emit(doc, human_lines, as_json):
    if as_json:
        # no document holds a cycle, so the circular-reference check finds none
        print(json.dumps(doc, check_circular=False))
    else:
        for line in human_lines:
            print(line)


def cmd_check(args) -> int:
    graph = parse_graph_file(args.path)
    forked = graph.vertex_names(graph.forked_vertices())
    doc = {"format": JSON_FORMAT}
    doc.update(graph_json(graph))
    doc["forked"] = forked
    doc["lower_semimodular"] = _lattice.predicate_lower_semimodular(graph)
    try:
        doc["condition_iv"] = _lattice.predicate_condition_iv(graph)
    except ValueError as exc:
        doc["condition_iv"] = None
        doc["condition_iv_error"] = str(exc)
    doc["atomistic_predicate"] = _lattice.predicate_atomistic(graph)
    the_atoms = atoms(graph)
    doc["atoms"] = [triple_json(t) for t in the_atoms]
    if args.json:
        _emit(doc, (), True)
        return EXIT_OK
    lines = [
        f"graph: {graph.n} vertices, {graph.m} edges",
        "forked vertices: " + (", ".join(forked) if forked else "(none)"),
        f"lower-semimodular: {'yes' if doc['lower_semimodular'] else 'no'}",
    ]
    if doc["condition_iv"] is None:
        lines.append(f"condition (iv): n/a ({doc['condition_iv_error']})")
    else:
        lines.append(f"condition (iv): {'yes' if doc['condition_iv'] else 'no'}")
    lines.append(
        f"atomistic: {'yes' if doc['atomistic_predicate'] else 'no'}")
    lines.append(f"atoms ({len(the_atoms)}): "
                 + ", ".join(repr(t) for t in the_atoms))
    _emit(doc, lines, False)
    return EXIT_OK


def cmd_lattice(args) -> int:
    _require_cap("--cap", args.cap)
    if args.dot == "-" and args.json:
        raise ValueError("--dot - and --json both write to stdout; "
                         "give --dot a file name")
    graph = parse_graph_file(args.path)
    if not graph.is_acyclic():
        print("error: graph has cycles, so its congruence lattice is "
              "infinite; use 'check' for the pointwise predicates",
              file=sys.stderr)
        return EXIT_INPUT
    lat = enumerate_lattice(graph, cap=args.cap)
    if args.dot == "-":
        # the DOT takes the place of the text summary
        sys.stdout.write(lattice_dot(lat))
        return EXIT_OK
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(lattice_dot(lat))
    if args.json:
        # the document is already its one line of text
        _emit(None, [lattice_json(lat, properties=args.properties)], False)
        return EXIT_OK
    lines = [f"elements: {lat.n}",
             f"covers: {len(lat.cover_from)}",
             f"bottom covers: {lat.cover_from.count(lat.bottom)}"]
    if args.properties:
        for key, val in lattice_properties(lat).items():
            if key != "elements":
                lines.append(f"{key.replace('_', '-')}: "
                             f"{'yes' if val else 'no'}")
    if args.dot:
        lines.append(f"DOT written to {args.dot}")
    _emit(None, lines, False)
    return EXIT_OK


def cmd_generators(args) -> int:
    _require_cap("--cap", args.cap)
    graph = parse_graph_file(args.path)
    gens = _lattice.minimal_generating_set(graph)
    lat = enumerate_lattice(graph, cap=args.cap)
    # the join-irreducibles are the one minimal join-generating set of a
    # finite lattice: a set containing them generates it, and only they
    # generate it minimally
    irreducible = _lattice.join_irreducibles(lat)
    given = _lattice.element_indices(lat, gens)
    ok = given == irreducible
    if set(irreducible) <= set(given):
        closure = lat.n
    else:
        closure = len(_lattice.generated_sublattice(lat, gens))
    doc = {"format": JSON_FORMAT}
    doc.update(graph_json(graph))
    doc["generators"] = [triple_json(t) for t in gens]
    doc["lattice_elements"] = lat.n
    doc["closure_elements"] = closure
    doc["closure_check"] = "PASS" if ok else "FAIL"
    code = EXIT_OK if ok else EXIT_FAIL
    if args.json:
        _emit(doc, (), True)
        return code
    lines = [f"generators ({len(gens)}):"]
    lines += [f"  {t!r}" for t in gens]
    lines.append(f"closure check: {doc['closure_check']} "
                 f"({closure} of {lat.n} elements)")
    _emit(doc, lines, False)
    return code


def cmd_oracle(args) -> int:
    _require_cap("--oracle-cap", args.oracle_cap)
    graph = parse_graph_file(args.path)
    table = _oracle.build_semigroup(graph, element_cap=args.oracle_cap)
    bad = _oracle.associativity_violations(table)
    report = _oracle.verify_isomorphism(graph, table=table)
    failures = list(report.failures)
    if bad:
        failures.insert(0, f"{len(bad)} associativity violations")
    ok = report.passed and not bad
    doc = {"format": JSON_FORMAT}
    doc.update(graph_json(graph))
    doc["semigroup_size"] = report.semigroup_size
    doc["lattice_elements"] = report.lattice_size
    doc["congruences"] = report.congruence_count
    doc["result"] = "PASS" if ok else "FAIL"
    doc["failures"] = failures
    lines = [f"semigroup size: {report.semigroup_size}",
             f"lattice elements: {report.lattice_size}",
             f"congruences: {report.congruence_count}",
             f"oracle check: {doc['result']}"]
    lines += [f"  {msg}" for msg in failures]
    _emit(doc, lines, args.json)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_census(args) -> int:
    if args.max_vertices < 1:
        raise ValueError("census needs at least one vertex")
    _require_cap("--bound", args.bound)
    if args.max_vertices > args.bound:
        raise CapExceeded("census vertices (--bound)", args.max_vertices,
                          args.bound)
    groups = []
    for n in range(1, args.max_vertices + 1):
        entries = []
        for g in simple_graphs(n, connected=True):
            entries.append({
                "edges": [[int(g.names[s]), int(g.names[r])]
                          for s, r in g.edges],
                "lower_semimodular": _lattice.predicate_lower_semimodular(g),
            })
        groups.append({"vertices": n, "graphs": entries})
    doc = {"format": JSON_FORMAT, "max_vertices": args.max_vertices,
           "census": groups}
    lines = []
    for group in groups:
        total = len(group["graphs"])
        good = sum(1 for e in group["graphs"] if e["lower_semimodular"])
        lines.append(f"{group['vertices']} vertices: {total} connected "
                     f"simple graphs, {good} lower-semimodular")
        for e in group["graphs"]:
            mark = "+" if e["lower_semimodular"] else "-"
            shown = " ".join(f"{s}->{r}" for s, r in e["edges"]) or "(no edges)"
            lines.append(f"  {mark} {shown}")
    _emit(doc, lines, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gislat",
        description="Congruence lattices of graph inverse semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_cap=True):
        p.add_argument("path", help="graph file, or - for stdin")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if with_cap:
            p.add_argument("--cap", type=int, default=_lattice.DEFAULT_LATTICE_CAP,
                           help="lattice element cap")

    p = sub.add_parser("check", help="graph-level predicates and atoms")
    add_common(p, with_cap=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lattice", help="enumerate the full lattice (acyclic)")
    add_common(p)
    p.add_argument("--dot", metavar="FILE",
                   help="write a DOT Hasse diagram (- for stdout)")
    p.add_argument("--properties", action="store_true",
                   help="include the lattice property summary")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("generators", help="minimal generating set (simple)")
    add_common(p)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("oracle", help="brute-force congruence cross-check")
    add_common(p, with_cap=False)
    p.add_argument("--oracle-cap", type=int,
                   default=_oracle.DEFAULT_ELEMENT_CAP,
                   help="semigroup size cap")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("census", help="classify small connected simple graphs")
    p.add_argument("max_vertices", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--bound", type=int, default=CENSUS_BOUND_DEFAULT,
                   help="largest permitted vertex count")
    p.set_defaults(func=cmd_census)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
