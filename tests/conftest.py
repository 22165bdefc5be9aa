import pytest

from gislat.graphs import build_graph
from gislat.lattice import FiniteLattice
from gislat.triples import WangTriple

import oracles


def make_split_graph():
    """a feeds b which splits to the sinks c and d; its lattice has 14
    elements and is not lower-semimodular."""
    return build_graph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])


def make_path3():
    return build_graph("abc", [("a", "b"), ("b", "c")])


def make_loop():
    return build_graph("v", [("v", "v")])


def make_parallel_pair():
    """Middle vertex with two parallel edges into each of two sinks."""
    return build_graph("lmr", [("m", "l"), ("m", "l"), ("m", "r"), ("m", "r")])


def make_two_loop_scc():
    """Two vertices with a loop each and opposite edges between them."""
    return build_graph("xy", [("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")])


def make_atomistic_example():
    """An 11-vertex graph, with a two-vertex looped core, on which every
    congruence is a join of atoms."""
    names = [f"v{i}" for i in range(1, 12)]
    edges = [("v1", "v6"), ("v2", "v8"), ("v3", "v8"), ("v4", "v8"),
             ("v5", "v6"), ("v6", "v9"), ("v7", "v10"), ("v8", "v11"),
             ("v9", "v10"), ("v9", "v9"), ("v10", "v9"), ("v10", "v10")]
    return build_graph(names, edges)


def n5():
    """The pentagon: 0 < 1 < 4 against 0 < 2 < 3 < 4."""
    return FiniteLattice(5, [0, 0, 1, 2, 3], [1, 2, 4, 3, 4])


def m3():
    """The diamond: 0 < 1, 2, 3 < 4."""
    return FiniteLattice(5, [0, 0, 0, 1, 2, 3], [1, 2, 3, 4, 4, 4])


def chain(k):
    """The k-element chain 0 < 1 < ... < k - 1."""
    return FiniteLattice(k, list(range(k - 1)), list(range(1, k)))


def brute_force_type_congruences(g):
    """Sink congruences plus (H, {v}) for containment-minimal hereditary H
    leaving v a single out-edge; direct search over all hereditary sets."""
    out = []
    hsets = g.hereditary_sets()
    for v in range(g.n):
        if not g.out_edges[v]:
            out.append(WangTriple(g, 1 << v, 0))
            continue
        good = [H for H in hsets
                if not H >> v & 1 and oracles.out_degree_minus(g, v, H) == 1]
        for H in good:
            if not any(other != H and other & ~H == 0 for other in good):
                out.append(WangTriple(g, H, 1 << v))
    return out


# acceptance criteria report one PASS/FAIL line each at the end of the run
_acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        _acceptance_results[item.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_acceptance_results):
        verdict = "PASS" if _acceptance_results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"  {name}: {verdict}")


@pytest.fixture
def split_graph():
    return make_split_graph()


@pytest.fixture
def path3():
    return make_path3()


@pytest.fixture
def loop():
    return make_loop()


@pytest.fixture
def parallel_pair():
    return make_parallel_pair()
