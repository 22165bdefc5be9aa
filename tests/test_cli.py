import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from time import monotonic

import pytest

from gislat import cli, graphs, lattice, oracle
from gislat.census import acyclic_multigraphs, connected_simple_graphs
from gislat.cli import (GraphParseError, format_graph, lattice_dot,
                        lattice_json, lattice_properties, main,
                        parse_graph_text, PARSER)
from gislat.graphs import CapExceeded, Digraph, bits, build_graph
from gislat.lattice import FiniteLattice, enumerate_lattice
from gislat.triples import WangTriple

import oracles
from conftest import make_split_graph, make_atomistic_example

SPLIT_TEXT = """\
# a feeds b, which splits to two sinks
vertex a
vertex b
vertex c
vertex d
edge a b
edge b c
edge b d
"""

LOOP_TEXT = "vertex v\nedge v v\n"

PARALLEL_TEXT = """\
vertex l
vertex m
vertex r
edge m l
edge m l
edge m r
edge m r
"""


SRC = str(Path(__file__).resolve().parents[1] / "src")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_module(*args):
    """`python -m gislat ARGS` in a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "gislat", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_parse_split_graph():
    g = parse_graph_text(SPLIT_TEXT)
    assert g == make_split_graph()


def test_parse_parallel_edges():
    g = parse_graph_text(PARALLEL_TEXT)
    assert g.m == 4 and g.has_parallel_edges()


def test_round_trip_fixed_graphs():
    for g in [make_split_graph(), make_atomistic_example(), parse_graph_text(LOOP_TEXT)]:
        assert parse_graph_text(format_graph(g)) == g


def test_round_trip_random_graphs():
    rnd = random.Random(53)
    for _ in range(25):
        n = rnd.randint(1, 5)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(0, 7))]
        g = Digraph([f"v{i}" for i in range(n)], edges)
        assert parse_graph_text(format_graph(g)) == g


def test_parse_errors_carry_positions():
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("")
    assert err.value.line == 1
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex a\nedge a b\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex a\nvertex a\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex a\nnonsense a\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex a\nedge a\n")
    assert err.value.line == 2


def test_parse_error_column_after_keyword(capsys, monkeypatch):
    # the name 'e' also occurs inside the keyword 'edge'
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex x\nedge e x\n")
    assert (err.value.line, err.value.column) == (2, 6)
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex x\n  edge x  dg\n")
    assert (err.value.line, err.value.column) == (2, 11)
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex e\nedge e e e\n")
    assert (err.value.line, err.value.column) == (2, 1)
    # a repeated vertex is reported at its name, not at the keyword
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("vertex a\nvertex a\n")
    assert (err.value.line, err.value.column) == (2, 8)
    assert str(err.value) == "line 2, column 8: duplicate vertex 'a'"
    monkeypatch.setattr("sys.stdin", io.StringIO("vertex x\nedge e x\n"))
    assert main(["check", "-"]) == 2
    assert "line 2, column 6: unknown vertex 'e'" in capsys.readouterr().err


def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch):
    """A graph that starts with a UTF-8 byte-order mark, in a file or on
    stdin, gives the output of the same graph without it."""
    plain = tmp_path / "plain.graph"
    plain.write_text(SPLIT_TEXT, encoding="utf-8")
    marked = tmp_path / "marked.graph"
    marked.write_bytes(b"\xef\xbb\xbf" + SPLIT_TEXT.encode())

    def outputs(path):
        got = []
        for command in ("check", "lattice"):
            got.append((main([command, path, "--json"]),
                        *capsys.readouterr()))
        return got

    expected = outputs(str(plain))
    assert [code for code, *_ in expected] == [0, 0]
    assert outputs(str(marked)) == expected
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + SPLIT_TEXT))
    assert (main(["check", "-", "--json"]), *capsys.readouterr()) == expected[0]


def test_lattice_dot(tmp_path):
    """Each rank line lists, in index order, exactly the elements whose
    longest chain from the bottom has its length, ranks in length order."""
    for g in [make_split_graph()] + connected_simple_graphs(5)[::30]:
        lat = enumerate_lattice(g)
        dot = lattice_dot(lat)
        assert dot.count("[label=") == lat.n
        assert dot.count(" -> ") == len(lat.cover_from)
        longest = [0] * lat.n
        for i in range(lat.n):
            for j in bits(lat.cover_up[i]):
                longest[j] = max(longest[j], longest[i] + 1)
        expected = [[i for i in range(lat.n) if longest[i] == d]
                    for d in range(longest[lat.top] + 1)]
        ranks = [[int(k) for k in re.findall(r"n(\d+)", line)]
                 for line in dot.splitlines() if "rank=same" in line]
        assert ranks == expected, g


def test_cmd_check_split_graph(tmp_path, capsys):
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["check", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == 1
    assert doc["lower_semimodular"] is False
    assert doc["forked"] == ["b"]
    assert doc["condition_iv"] is False
    assert doc["atomistic_predicate"] is False
    assert len(doc["atoms"]) == 3


def test_cmd_check_atomistic_example(tmp_path, capsys):
    path = write(tmp_path, "atomistic.graph", format_graph(make_atomistic_example()))
    assert main(["check", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atomistic_predicate"] is True
    assert doc["lower_semimodular"] is True


def test_cmd_check_loop(tmp_path, capsys):
    path = write(tmp_path, "loop.graph", LOOP_TEXT)
    assert main(["check", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["condition_iv"] is None
    assert "condition_iv_error" in doc
    assert len(doc["atoms"]) == 1


def test_cmd_check_human_output(tmp_path, capsys):
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "forked vertices: b" in out
    assert "lower-semimodular: no" in out


def test_cmd_check_prints_the_cycle_values_of_cyclic_atoms(tmp_path,
                                                           capsys):
    """The one atom of a -> b with a loop on each is ({}, {b}, f) with f
    infinite on both loops: b's loop is unstored, a's leaves H u W.  The
    human output says so rather than printing f as 1."""
    path = write(tmp_path, "loops.graph",
                 "vertex a\nvertex b\nedge a a\nedge a b\nedge b b\n")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "atoms (1): ({}, {b}, {forced: ∞ elsewhere})\n" in out


def test_cmd_check_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.graph", "vertex a\nedge a z\n")
    assert main(["check", path]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.graph")]) == 2


def test_cmd_lattice(tmp_path, capsys):
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    dot_file = tmp_path / "out.dot"
    assert main(["lattice", path, "--json", "--properties",
                 "--dot", str(dot_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 14
    assert doc["properties"]["upper_semimodular"] is True
    assert doc["properties"]["lower_semimodular"] is False
    assert dot_file.read_text().count("[label=") == 14
    bottom_covers = sum(1 for i, j in doc["covers"] if i == doc["bottom"])
    assert bottom_covers == 3


def test_cmd_lattice_check_properties_agree(tmp_path, capsys):
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    main(["check", path, "--json"])
    check_doc = json.loads(capsys.readouterr().out)
    main(["lattice", path, "--json", "--properties"])
    lattice_doc = json.loads(capsys.readouterr().out)
    assert (check_doc["lower_semimodular"]
            == lattice_doc["properties"]["lower_semimodular"])


def test_lattice_properties_decides_each_semimodularity_once(monkeypatch):
    """lattice_properties runs each semimodularity check once and agrees
    with the library's modular and distributive checks."""
    calls = []

    def counted(name):
        real = getattr(lattice, name)
        return lambda lat: calls.append(name) or real(lat)

    for name in ("is_upper_semimodular", "is_lower_semimodular"):
        monkeypatch.setattr(lattice, name, counted(name))
    four_chain = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    diamond = build_graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"),
                                   ("c", "d")])
    for g in (make_split_graph(), four_chain, diamond):
        lat = enumerate_lattice(g)
        props = lattice_properties(lat)
        assert sorted(calls) == ["is_lower_semimodular", "is_upper_semimodular"]
        assert props["modular"] == lattice.is_modular(lat)
        assert props["distributive"] == lattice.is_distributive(lat)
        calls.clear()


def test_cmd_lattice_rejects_cycles(tmp_path, capsys):
    path = write(tmp_path, "loop.graph", LOOP_TEXT)
    assert main(["lattice", path]) == 2
    assert "check" in capsys.readouterr().err


def test_cmd_lattice_cap(tmp_path, capsys):
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["lattice", path, "--cap", "5"]) == 3


def test_cmd_lattice_default_cap(tmp_path, capsys):
    # nine disjoint edges: 4**9 = 262,144 elements, refused before any is built
    text = "".join(f"vertex a{i}\nvertex b{i}\nedge a{i} b{i}\n"
                   for i in range(9))
    path = write(tmp_path, "disjoint9.graph", text)
    start = monotonic()
    assert main(["lattice", path, "--properties"]) == 3
    assert monotonic() - start < 10.0
    assert "262144" in capsys.readouterr().err


DISJOINT25_TEXT = "".join(f"vertex a{i}\nvertex b{i}\nedge a{i} b{i}\n"
                          for i in range(25))
STAR40_TEXT = "vertex t\n" + "".join(f"vertex s{i}\nedge s{i} t\n"
                                     for i in range(40))


@pytest.mark.parametrize("command, text", [
    ("lattice", DISJOINT25_TEXT), ("generators", DISJOINT25_TEXT),
    ("lattice", STAR40_TEXT)], ids=["lattice", "generators", "star"])
def test_lattice_cap_trips_before_every_hereditary_set(
        command, text, tmp_path, capsys):
    # 3**25 and 2**40 + 1 hereditary sets, each giving at least one element:
    # the element cap trips long before the hereditary-set cap, on the
    # hereditary set that passes it
    path = write(tmp_path, "g.graph", text)
    start = monotonic()
    assert main([command, path]) == 3
    assert monotonic() - start < 0.5
    assert capsys.readouterr().err == \
        "error: 40001 lattice elements, more than the cap of 40000\n"


def test_lattice_cap_caches_no_partial_hereditary_list():
    g = make_split_graph()
    with pytest.raises(CapExceeded):
        enumerate_lattice(g, cap=5)
    assert len(g.hereditary_sets()) == 6


# names that json.dumps escapes (a quote, a backslash, a control character)
# or writes as \u escapes (é, 日本), and that DOT escapes (quote, backslash)
ESCAPED_NAMES = Digraph(['a"b', "c\\d", "é", "日本", "\x01"],
                        [(0, 1), (1, 2), (0, 3), (3, 4)])


# 1,024 elements and 5,120 covers: indices of four digits
PATH10 = Digraph([f"v{i}" for i in range(10)], list(zip(range(9), range(1, 10))))


def assert_rendering_matches_triples(graphs_, tmp_path, capsys):
    """`lattice --json`, with and without --properties, prints the bytes
    json.dumps gives for the document built as a dict from the triples,
    and --dot writes the DOT rendered from the triples."""
    path = tmp_path / "g.graph"
    dot = tmp_path / "g.dot"
    for g in graphs_:
        path.write_text(format_graph(g), encoding="utf-8")
        lat = enumerate_lattice(g)
        for properties in (False, True):
            argv = ["lattice", str(path), "--json"]
            assert main(argv + ["--properties"] * properties) == 0
            doc = oracles.lattice_json_by_triples(lat, properties)
            assert capsys.readouterr() == (
                json.dumps(doc, check_circular=False) + "\n", ""), g
        assert main(["lattice", str(path), "--dot", str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text(encoding="utf-8") == \
            oracles.lattice_dot_by_triples(lat), g


def test_rendering_from_masks_matches_rendering_from_triples(tmp_path,
                                                             capsys):
    graphs_ = (connected_simple_graphs(5) + acyclic_multigraphs(4, 5)
               + [make_split_graph(), ESCAPED_NAMES, PATH10])
    assert any(g.has_parallel_edges() for g in graphs_)
    assert_rendering_matches_triples(graphs_, tmp_path, capsys)
    # the top element names every vertex, each escaped as json.dumps does
    text = lattice_json(enumerate_lattice(ESCAPED_NAMES))
    assert ('{"H": ["a\\"b", "c\\\\d", "\\u00e9", "\\u65e5\\u672c", '
            '"\\u0001"], "W": []}], "covers"') in text


def test_rendering_in_short_slices_matches_rendering_from_triples(
        tmp_path, capsys, monkeypatch):
    """Elements, covers and DOT lines joined three at a time: every
    lattice of at least four elements crosses a slice boundary."""
    monkeypatch.setattr(cli, "SLICE", 3)
    graphs_ = connected_simple_graphs(5) + [ESCAPED_NAMES, PATH10]
    assert_rendering_matches_triples(graphs_, tmp_path, capsys)


def test_dot_to_stdout(tmp_path, capsys, monkeypatch):
    """`--dot -` prints the DOT in place of the summary and writes no file
    named -; the graph itself may come from stdin too."""
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    expected = lattice_dot(enumerate_lattice(make_split_graph()))
    assert main(["lattice", path, "--dot", "-"]) == 0
    assert capsys.readouterr() == (expected, "")
    monkeypatch.setattr("sys.stdin", io.StringIO(SPLIT_TEXT))
    assert main(["lattice", "-", "--dot", "-"]) == 0
    assert capsys.readouterr() == (expected, "")
    assert not (tmp_path / "-").exists()


def test_dot_to_stdout_with_json_is_an_input_error(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["lattice", path, "--json", "--dot", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--dot -" in err and "--json" in err
    assert not (tmp_path / "-").exists()


def test_dot_to_stdout_with_properties_is_an_input_error(tmp_path, capsys,
                                                         monkeypatch):
    """--dot - takes the place of the text summary, which is where the
    properties are printed, so asking for both is refused, not answered
    with the DOT alone."""
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["lattice", path, "--properties", "--dot", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (err.startswith("error: ") and "--dot -" in err
            and "--properties" in err)
    assert not (tmp_path / "-").exists()


def test_dot_labels_escape_quotes_and_backslashes(tmp_path):
    """A vertex name may hold " or \\; each label stays one DOT string, and
    unescaped it is the element's triple as repr prints it."""
    path = write(tmp_path, "quoted.graph",
                 'vertex a"b\nvertex c\\d\nedge a"b c\\d\n')
    dot = tmp_path / "quoted.dot"
    assert main(["lattice", path, "--dot", str(dot)]) == 0
    text = dot.read_text(encoding="utf-8")
    assert '  n1 [label="({}, {a\\"b}, ∅)"];' in text
    assert '  n2 [label="({c\\\\d}, {}, ∅)"];' in text
    lat = enumerate_lattice(parse_graph_text(Path(path).read_text()))
    labels = re.findall(r'^  n\d+ \[label="((?:[^"\\]|\\.)*)"\];$', text,
                        re.MULTILINE)
    assert [re.sub(r"\\(.)", r"\1", s) for s in labels] == \
        [repr(t) for t in lat.elements]
    assert text == oracles.lattice_dot_by_triples(lat)


def test_subcommand_options_match_frozen_table():
    """Every subcommand's options, frozen: a knob added or removed shows
    here first."""
    sub = next(a for a in PARSER._actions if a.dest == "command")
    got = {name: sorted(opt for action in p._actions
                        for opt in action.option_strings
                        if opt not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == {
        "check": ["--json"],
        "lattice": ["--cap", "--dot", "--json", "--properties"],
        "generators": ["--cap", "--json"],
        "oracle": ["--json", "--oracle-cap"],
        "census": ["--bound", "--json"],
    }


def test_lattice_command_builds_no_triple(tmp_path, monkeypatch, capsys):
    """`lattice` renders JSON, DOT and the laws from the (H, W) masks."""
    built = []
    proved = WangTriple.__dict__["_proved"].__func__
    init = WangTriple.__init__

    def counting_proved(cls, *args):
        built.append("_proved")
        return proved(cls, *args)

    def counting_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    monkeypatch.setattr(WangTriple, "_proved", classmethod(counting_proved))
    monkeypatch.setattr(WangTriple, "__init__", counting_init)
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    dot = str(tmp_path / "split.dot")
    assert main(["lattice", path, "--json", "--dot", dot, "--properties"]) == 0
    assert len(json.loads(capsys.readouterr().out)["elements"]) == 14
    assert built == []
    # the counters do count: the triples are built once something reads them
    enumerate_lattice(make_split_graph()).elements
    assert built == ["_proved"] * 14


def test_lattice_builds_no_cover_rows(tmp_path, monkeypatch, capsys):
    """Plain `lattice` and `lattice --json --dot` read the two cover
    columns and build neither n-bit row of covers."""
    built = []
    build = cli.enumerate_lattice

    def kept(graph, cap):
        built.append(build(graph, cap))
        return built[-1]

    monkeypatch.setattr(cli, "enumerate_lattice", kept)
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    dot = tmp_path / "split.dot"
    assert main(["lattice", path]) == 0
    assert "covers: 25\nbottom covers: 3\n" in capsys.readouterr().out
    assert main(["lattice", path, "--json", "--dot", str(dot)]) == 0
    covers = json.loads(capsys.readouterr().out)["covers"]
    assert dot.read_text().count(" -> ") == len(covers) == 25
    assert len(built) == 2
    for lat in built:
        assert not {"cover_up", "cover_dn"} & vars(lat).keys()


def test_cmd_lattice_chord11_properties(tmp_path, capsys):
    names = [f"v{i}" for i in range(11)]
    chord11 = build_graph(names, [(names[i], names[i + 1]) for i in range(10)]
                          + [("v0", "v2")])
    path = write(tmp_path, "chord11.graph", format_graph(chord11))
    start = monotonic()
    assert main(["lattice", path, "--json", "--properties"]) == 0
    assert monotonic() - start < 10.0
    props = json.loads(capsys.readouterr().out)["properties"]
    assert props == {"elements": 1026, "upper_semimodular": True,
                     "lower_semimodular": True, "modular": True,
                     "distributive": True, "atomistic": False}
    # the cubic modular and distributive oracles are out of reach at this
    # size; a distributive lattice is modular
    lat = enumerate_lattice(chord11)
    order = FiniteLattice(lat.n, *oracles.cover_columns(
        oracles.transitive_reduction(oracles.all_pairs_order(lat.elements))))
    assert oracles.upper_semimodular(order)
    assert oracles.lower_semimodular(order)
    assert oracles.distributive_by_join_primes(order)
    assert not oracles.atomistic(order)


def test_cmd_lattice_six_vertex_dag(tmp_path, capsys):
    rnd = random.Random(59)
    dag = build_graph("abcdef",
                      [(a, b) for i, a in enumerate("abcdef")
                       for b in "abcdef"[i + 1:] if rnd.random() < 0.5])
    path = write(tmp_path, "dag6.graph", format_graph(dag))
    code = main(["lattice", path, "--json"])
    if code == 0:
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["elements"]) >= 2
    else:
        assert code == 3


def test_cmd_generators(tmp_path, capsys):
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["generators", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["generators"]) == 5
    assert doc["closure_check"] == "PASS"
    assert doc["closure_elements"] == doc["lattice_elements"] == 14


def test_cmd_generators_fails_without_a_join_irreducible(tmp_path, capsys,
                                                         monkeypatch):
    full = lattice.minimal_generating_set
    monkeypatch.setattr(lattice, "minimal_generating_set",
                        lambda graph: full(graph)[1:])
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["generators", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["closure_check"] == "FAIL"
    assert doc["closure_elements"] < doc["lattice_elements"] == 14


def test_cmd_generators_fails_a_generating_set_that_is_not_minimal(
        tmp_path, capsys, monkeypatch):
    """Adding the top keeps the set generating, so only the minimality
    check fails it."""
    full = lattice.minimal_generating_set
    monkeypatch.setattr(lattice, "minimal_generating_set",
                        lambda graph: full(graph) + [WangTriple(graph,
                                                                graph.full, 0)])
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["generators", path]) == 1
    assert "closure check: FAIL (14 of 14 elements)" in capsys.readouterr().out
    assert main(["generators", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["closure_check"] == "FAIL"
    assert doc["closure_elements"] == doc["lattice_elements"] == 14


@pytest.mark.parametrize("command, code", [("check", 0), ("generators", 0)])
def test_json_builds_no_text_lines(command, code, tmp_path, capsys,
                                   monkeypatch):
    """Under --json, check and generators build none of their text lines,
    whose triple reprs each scan every edge; the text output still shows
    the triples."""
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    real = WangTriple.__repr__

    def no_repr(t):
        raise AssertionError("a text line was built under --json")

    monkeypatch.setattr(WangTriple, "__repr__", no_repr)
    assert main([command, path, "--json"]) == code
    assert json.loads(capsys.readouterr().out)["format"] == 1
    monkeypatch.setattr(WangTriple, "__repr__", real)
    assert main([command, path]) == code
    assert "({c}, {}, ∅)" in capsys.readouterr().out


def test_cmd_generators_rejects_parallel(tmp_path, capsys):
    path = write(tmp_path, "par.graph", PARALLEL_TEXT)
    assert main(["generators", path]) == 2
    assert "simple" in capsys.readouterr().err


def test_cmd_oracle(tmp_path, capsys):
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["oracle", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "PASS"
    assert doc["semigroup_size"] == 24
    assert doc["congruences"] == 14


def test_cmd_oracle_cap(tmp_path, capsys):
    # the complete DAG on 6 vertices has 1,366 semigroup elements
    dense = build_graph("abcdef",
                        [(a, b) for i, a in enumerate("abcdef")
                         for b in "abcdef"[i + 1:]])
    path = write(tmp_path, "dense.graph", format_graph(dense))
    assert main(["oracle", path]) == 3
    assert "cap" in capsys.readouterr().err


def test_cmd_oracle_congruence_cap_trips_at_once(tmp_path, capsys,
                                                 monkeypatch):
    """6 disjoint edges make a 31-element semigroup with 4,096 congruences,
    under the element cap but over the congruence cap, which trips before
    the isomorphism check closes any triple's seed pairs."""
    def no_closure(t, table):
        raise AssertionError("a triple was closed before the cap tripped")

    monkeypatch.setattr(oracle, "realize_triple", no_closure)
    text = "".join(f"vertex a{i}\nvertex b{i}\nedge a{i} b{i}\n"
                   for i in range(6))
    path = write(tmp_path, "edges.graph", text)
    start = monotonic()
    assert main(["oracle", path]) == 3
    assert monotonic() - start < 5.0
    cap = oracle.CONGRUENCE_CAP
    assert re.fullmatch(rf"error: \d+ congruences, more than the cap of {cap}\n",
                        capsys.readouterr().err)


def test_cmd_oracle_rejects_cycles(tmp_path, capsys):
    path = write(tmp_path, "loop.graph", LOOP_TEXT)
    assert main(["oracle", path]) == 2
    assert "graph has cycles" in capsys.readouterr().err


def test_cmd_oracle_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(SPLIT_TEXT))
    assert main(["oracle", "-"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cmd_census(capsys):
    assert main(["census", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 connected simple graphs, 1 lower-semimodular" in out
    assert main(["census", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    counts = [len(group["graphs"]) for group in doc["census"]]
    assert counts == [1, 1, 4]


def test_cmd_census_bound(capsys):
    assert main(["census", "6"]) == 3
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["census", "0", "--bound", "-1"], "census needs at least one vertex"),
    (["census", "-2", "--bound", "-5"], "census needs at least one vertex"),
    (["census", "3", "--bound", "0"], "--bound must be at least 1, not 0"),
    (["lattice", "-", "--cap", "0"], "--cap must be at least 1, not 0"),
    (["generators", "-", "--cap", "-1"], "--cap must be at least 1, not -1"),
    (["oracle", "-", "--oracle-cap", "-3"],
     "--oracle-cap must be at least 1, not -3"),
], ids=["census-vertices-first", "census-both-negative", "census-bound",
        "lattice", "generators", "oracle"])
def test_caps_below_one_are_input_errors(argv, message, monkeypatch, capsys):
    """A cap that admits nothing is a bad option, not a cap reached: exit
    2 before the graph is read, and the census's vertex count is checked
    before its bound."""
    import io
    stdin = io.StringIO(SPLIT_TEXT)
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert stdin.tell() == 0


K4_TEXT = "".join(f"vertex v{i}\n" for i in range(4)) + "".join(
    f"edge v{i} v{j}\n" for i in range(4) for j in range(4) if i != j)


@pytest.mark.parametrize("text, argv, patch, what, size, cap", [
    (SPLIT_TEXT, ["lattice"], (graphs, "HEREDITARY_CAP", 5),
     "hereditary sets", 6, 5),
    # 6 hereditary sets, each giving at least one element: the 14 elements
    # are counted once the hereditary sets fit under the cap, and the
    # hereditary sets trip it before any W is listed when they do not
    (SPLIT_TEXT, ["lattice", "--cap", "6"], None, "lattice elements", 14, 6),
    (SPLIT_TEXT, ["lattice", "--cap", "5"], None, "lattice elements", 6, 5),
    (SPLIT_TEXT, ["oracle", "--oracle-cap", "5"], None, "paths", 6, 5),
    (SPLIT_TEXT, ["oracle", "--oracle-cap", "10"], None,
     "semigroup elements", 24, 10),
    (SPLIT_TEXT, ["oracle"], (oracle, "CONGRUENCE_CAP", 13),
     "congruences", 14, 13),
    (None, ["census", "6"], None, "census vertices (--bound)", 6, 5),
], ids=["hereditary", "lattice", "lattice-hereditary", "paths", "semigroup",
        "congruences", "census"])
def test_every_cap_exits_3_naming_what_size_and_cap(
        text, argv, patch, what, size, cap, tmp_path, monkeypatch, capsys):
    """Each cap a command reaches raises CapExceeded carrying what was
    counted, the size reached and the cap, and main prints the three with
    exit 3."""
    if patch:
        monkeypatch.setattr(*patch)
    if text is not None:
        argv = argv[:1] + [write(tmp_path, "g.graph", text)] + argv[1:]
    args = PARSER.parse_args(argv)
    with pytest.raises(CapExceeded) as info:
        args.func(args)
    assert (info.value.what, info.value.size, info.value.cap) == (what, size, cap)
    assert main(argv) == 3
    assert capsys.readouterr().err == \
        f"error: {size} {what}, more than the cap of {cap}\n"


def test_no_command_lists_cycles(tmp_path, monkeypatch, capsys):
    """With no cycle allowed, `check` still reports on K4, and the commands
    that need an acyclic or simple graph refuse it as input: acyclicity is
    read off reachability, not off a cycle list."""
    monkeypatch.setattr(graphs, "CYCLE_CAP", 0)
    path = write(tmp_path, "k4.graph", K4_TEXT)
    assert main(["check", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forked"] == [] and doc["atomistic_predicate"] is True
    for command, message in [("lattice", "graph has cycles"),
                             ("generators", "requires a simple graph"),
                             ("oracle", "graph has cycles")]:
        assert main([command, path]) == 2
        assert message in capsys.readouterr().err


def diamond_chain(k):
    """k diamonds in a row, a_i -> b_i -> a_{i+1} and a_i -> c_i -> a_{i+1}:
    a DAG with 2**k paths from a_0 to a_k."""
    lines = ["vertex a0"]
    for i in range(k):
        lines += [f"vertex b{i}", f"vertex c{i}", f"vertex a{i + 1}",
                  f"edge a{i} b{i}", f"edge a{i} c{i}",
                  f"edge b{i} a{i + 1}", f"edge c{i} a{i + 1}"]
    return "\n".join(lines) + "\n"


def test_diamond_chain_lists_no_paths(tmp_path, capsys):
    """A cycle search that walks every path never ends on 40 diamonds;
    one that stays inside strongly connected components does no work, and
    the oracle's path cap trips at once."""
    text = diamond_chain(40)
    g = parse_graph_text(text)
    assert (g.n, g.m) == (121, 160)
    start = monotonic()
    assert g.is_acyclic() and g.cycles() == []
    path = write(tmp_path, "diamonds.graph", text)
    assert main(["check", path]) == 0
    assert main(["oracle", path]) == 3
    assert monotonic() - start < 10.0
    assert capsys.readouterr().err == \
        "error: 401 paths, more than the cap of 400\n"


def test_unreadable_paths_exit_2(tmp_path, capsys):
    """A directory given as the graph file, or as the --dot file, is an
    input error, reported without a traceback."""
    assert main(["check", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["lattice", path, "--dot", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_parser_is_reused_across_calls(tmp_path, capsys):
    """One process runs several commands on the one module-level parser;
    each prints what the same command prints in a fresh interpreter."""
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    calls = [["lattice", path, "--json"], ["lattice", path],
             ["lattice", path, "--cap", "2"], ["check", path, "--json"]]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 3, 0]
    for argv, got in zip(calls, in_process):
        alone = run_module(*argv)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv


def test_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    path = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    assert main(["lattice", path, "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["elements"]) == 14


def test_module_entry_point(tmp_path):
    split = write(tmp_path, "split_graph.graph", SPLIT_TEXT)
    done = run_module("check", split, "--json")
    assert done.returncode == 0
    assert '"format": 1' in done.stdout
    done = run_module("lattice")
    assert done.returncode == 2
    assert "usage:" in done.stderr
    loop = write(tmp_path, "loop.graph", LOOP_TEXT)
    assert run_module("lattice", loop).returncode == 2
