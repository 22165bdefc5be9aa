"""Property tests of the triple calculus on small cyclic multigraphs, with
loops, back edges, parallel edges and non-trivial cycle functions, and of
its mask steps against the edge scans in tests/oracles.py."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gislat.graphs import Digraph
from gislat.triples import (INF, WangTriple, _cover_kind, join, leq, meet,
                            meet_no_fork)

import oracles
from test_triples import lattice_law_suite

VALUES = (1, 2, 3, 4, 6, 12, INF)


@st.composite
def multigraphs(draw, max_n=4, max_m=7):
    """Any edges i -> j, loops and repeats included."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    return Digraph([f"v{i}" for i in range(n)], edges)


@st.composite
def forked_cyclic_multigraphs(draw, max_n=4, max_m=7):
    """The edges 0 -> 1 and 0 -> 2, which fork vertex 0, a loop at 1 or 2,
    and each further drawn edge after which some vertex is still forked:
    multigraphs() draws a cyclic graph with a forked vertex about once in
    200."""
    n = draw(st.integers(3, max_n))
    names = [f"v{i}" for i in range(n)]
    vertex = st.integers(0, n - 1)
    loop = draw(st.sampled_from((1, 2)))
    edges = [(0, 1), (0, 2), (loop, loop)]
    for edge in draw(st.lists(st.tuples(vertex, vertex), max_size=max_m - 3)):
        if Digraph(names, edges + [edge]).forked_vertices():
            edges.append(edge)
    return Digraph(names, edges)


@st.composite
def triples_on(draw, g):
    """H hereditary, W eligible for H, f drawn on the cycles through W."""
    H = draw(st.sampled_from(g.hereditary_sets()))
    eligible = [v for v in range(g.n)
                if not H >> v & 1 and oracles.out_degree_minus(g, v, H) == 1]
    picks = draw(st.lists(st.booleans(), min_size=len(eligible),
                          max_size=len(eligible)))
    W = sum(1 << v for v, pick in zip(eligible, picks) if pick)
    free = [c for c in g.cycles_in(H | W) if g.cycle_sources(c) & ~H]
    values = draw(st.lists(st.sampled_from(VALUES), min_size=len(free),
                           max_size=len(free)))
    return WangTriple(g, H, W, dict(zip(free, values)))


@st.composite
def graph_and_triples(draw):
    g = draw(st.one_of(multigraphs(), forked_cyclic_multigraphs()))
    return g, draw(st.lists(triples_on(g), min_size=1, max_size=4))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph_and_triples())
def test_calculus_laws_on_cyclic_multigraphs(drawn):
    g, ts = drawn
    lattice_law_suite(ts)
    if not g.forked_vertices():
        for t1 in ts:
            for t2 in ts:
                assert meet_no_fork(t1, t2) == meet(t1, t2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph_and_triples())
def test_mask_steps_match_edge_scans(drawn):
    """join, meet and meet_no_fork take the H and W that scanning each
    vertex's out-edges gives, leq answers what testing every cycle
    answers, and each comparable pair has the cover shape that scanning
    every cycle and hereditary set gives."""
    g, ts = drawn
    fork_free = not g.forked_vertices()
    for t1 in ts:
        for t2 in ts:
            below = leq(t1, t2)
            assert below == oracles.leq_by_scan(t1, t2)
            if below:
                assert _cover_kind(t1, t2) == oracles.cover_kind_by_scan(t1, t2)
            j, m = join(t1, t2), meet(t1, t2)
            assert (j.H, j.W) == oracles.join_hw_by_edges(t1, t2)
            assert (m.H, m.W) == oracles.meet_hw_by_edges(t1, t2)
            if fork_free:
                m = meet_no_fork(t1, t2)
                assert (m.H, m.W) == oracles.meet_hw_by_edges(t1, t2)
