import random
import re
from itertools import product

import pytest

from gislat import graphs
from gislat.census import acyclic_multigraphs
from gislat.graphs import (CapExceeded, Digraph, build_graph, canonical_rotation,
                           mask_of)
from gislat.lattice import predicate_atomistic
from gislat.triples import WangTriple, join, leq

import oracles

from conftest import (make_split_graph, make_loop, make_parallel_pair, make_path3,
                      make_two_loop_scc, make_atomistic_example)


def random_graph(rnd, max_n=5, max_m=8):
    n = rnd.randint(1, max_n)
    m = rnd.randint(0, max_m)
    edges = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(m)]
    return Digraph([f"v{i}" for i in range(n)], edges)


def brute_force_cycles(g):
    """Independent cycle enumeration: every edge tuple up to length n,
    kept when it closes up with pairwise distinct sources."""
    found = set()
    for length in range(1, g.n + 1):
        for seq in product(range(g.m), repeat=length):
            srcs = [g.edges[e][0] for e in seq]
            if len(set(srcs)) != length:
                continue
            ok = all(g.edges[seq[i]][1] == g.edges[seq[(i + 1) % length]][0]
                     for i in range(length))
            if ok:
                found.add(canonical_rotation(seq))
    return sorted(found)


def test_build_graph_split():
    g = make_split_graph()
    assert g.n == 4 and g.m == 3
    assert g.names == ("a", "b", "c", "d")
    assert g.edges == ((0, 1), (1, 2), (1, 3))


def test_build_graph_degenerate():
    assert build_graph(["v"], []).m == 0
    g = build_graph(["v"], [("v", "v")])
    assert g.edges == ((0, 0),)


def test_build_graph_errors():
    # the first name seen a second time is named, not the first listed
    for make in (Digraph, build_graph):
        with pytest.raises(ValueError, match="duplicate vertex name 'b'"):
            make(["a", "b", "c", "b", "a"], [])
    with pytest.raises(ValueError, match="unknown vertex name 'b'"):
        build_graph(["a"], [("a", "b")])


def test_digraph_rejects_endpoints_that_are_not_vertex_ids():
    """A float or a bool is not truncated to a vertex id, and a string is
    not parsed as one; ints and what operator.index takes are ids."""
    for edge in ((0, 1.9), (0.0, 1), (False, True), (0, True), ("0", 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"edge endpoints are not vertex ids: {edge!r}")):
            Digraph(["a", "b"], [edge])
    class One:
        def __index__(self):
            return 1

    g = Digraph(["a", "b"], [(0, 1), (One(), 1)])
    assert g.edges == ((0, 1), (1, 1))
    assert all(type(x) is int for edge in g.edges for x in edge)
    with pytest.raises(ValueError, match="out of range"):
        Digraph(["a", "b"], [(0, 2)])


def test_geq(split_graph, loop):
    a, b, c, d = range(4)
    assert split_graph.geq(a, c)
    assert not split_graph.geq(c, d)
    assert loop.geq(0, 0)


def test_geq_reflexive_transitive():
    rnd = random.Random(7)
    for _ in range(50):
        g = random_graph(rnd)
        for v in range(g.n):
            assert g.geq(v, v)
        for _ in range(40):
            u, v, w = (rnd.randrange(g.n) for _ in range(3))
            if g.geq(u, v) and g.geq(v, w):
                assert g.geq(u, w)


def test_is_hereditary(split_graph):
    assert split_graph.is_hereditary(split_graph.vertex_set("cd"))
    assert not split_graph.is_hereditary(split_graph.vertex_set("b"))
    assert split_graph.is_hereditary(0)


def test_hereditary_closure(split_graph):
    g = split_graph
    assert g.hereditary_closure(g.vertex_set("a")) == g.full
    assert g.hereditary_closure(g.vertex_set("c")) == g.vertex_set("c")
    assert g.hereditary_closure(g.vertex_set("b")) == g.vertex_set("bcd")


def test_hereditary_closure_properties():
    rnd = random.Random(11)
    for _ in range(40):
        g = random_graph(rnd)
        for _ in range(10):
            s = rnd.randrange(g.full + 1)
            t = rnd.randrange(g.full + 1)
            cs = g.hereditary_closure(s)
            assert cs | s == cs
            assert g.hereditary_closure(cs) == cs
            assert g.is_hereditary(cs)
            if s | t == t:
                assert cs | g.hereditary_closure(t) == g.hereditary_closure(t)


def test_hereditary_sets_split_graph(split_graph):
    expected = sorted(
        (h for h in range(16) if split_graph.is_hereditary(h)),
        key=lambda h: (h.bit_count(), h))
    got = split_graph.hereditary_sets()
    assert got == expected
    assert len(got) == 6
    named = {frozenset(split_graph.vertex_names(h)) for h in got}
    assert named == {frozenset(), frozenset("c"), frozenset("d"),
                     frozenset("cd"), frozenset("bcd"), frozenset("abcd")}


def test_hereditary_sets_small():
    assert build_graph(["v"], []).hereditary_sets() == [0, 1]
    assert make_loop().hereditary_sets() == [0, 1]


def test_hereditary_sets_cap_names_the_cap(monkeypatch):
    # the split graph has 6 hereditary sets; a fresh graph caches none yet
    monkeypatch.setattr(graphs, "HEREDITARY_CAP", 5)
    with pytest.raises(CapExceeded,
                       match="6 hereditary sets, more than the cap of 5"):
        make_split_graph().hereditary_sets()
    monkeypatch.setattr(graphs, "HEREDITARY_CAP", 6)
    assert len(make_split_graph().hereditary_sets()) == 6


def test_hereditary_sets_cap_holds_once_cached(monkeypatch):
    g = make_split_graph()
    assert len(g.hereditary_sets()) == 6
    monkeypatch.setattr(graphs, "HEREDITARY_CAP", 5)
    with pytest.raises(CapExceeded,
                       match="6 hereditary sets, more than the cap of 5"):
        g.hereditary_sets()
    monkeypatch.setattr(graphs, "HEREDITARY_CAP", 6)
    assert len(g.hereditary_sets()) == 6


@pytest.mark.parametrize("cap", [10, 40, 100])
def test_hereditary_cap_trips_on_the_set_past_it(cap):
    """On 6 disjoint edges (3**6 = 729 hereditary sets) the enumeration
    stops on the set that passes the cap, not at the end of a doubling."""
    g = Digraph(range(12), [(2 * i, 2 * i + 1) for i in range(6)])
    with pytest.raises(CapExceeded) as info:
        g.hereditary_sets(cap)
    assert (info.value.size, info.value.cap) == (cap + 1, cap)


def test_hereditary_sets_match_brute_force():
    rnd = random.Random(3)
    for _ in range(40):
        g = random_graph(rnd)
        brute = sorted((h for h in range(g.full + 1) if g.is_hereditary(h)),
                       key=lambda h: (h.bit_count(), h))
        assert g.hereditary_sets() == brute


def test_hereditary_sets_closed_under_union_intersection():
    rnd = random.Random(5)
    for _ in range(25):
        g = random_graph(rnd)
        sets = set(g.hereditary_sets())
        for h1 in sets:
            for h2 in sets:
                assert h1 | h2 in sets
                assert h1 & h2 in sets


def test_is_downward_directed(split_graph):
    assert split_graph.is_downward_directed(split_graph.vertex_set("abc"))
    assert not split_graph.is_downward_directed(split_graph.vertex_set("cd"))
    assert not split_graph.is_downward_directed(0)


def test_strongly_connected_components(split_graph, loop):
    assert split_graph.strongly_connected_components() == [1, 2, 4, 8]
    assert loop.strongly_connected_components() == [1]
    g = make_two_loop_scc()
    assert g.strongly_connected_components() == [3]


def test_succ_masks_the_ranges_of_out_edges():
    """succ[v] is the OR of 1 << r over v's out-edges, loops and parallel
    edges included."""
    rnd = random.Random(5)
    fixed = [make_split_graph(), make_loop(), make_parallel_pair(),
             make_two_loop_scc(), make_atomistic_example()]
    for g in fixed + [random_graph(rnd) for _ in range(300)]:
        assert len(g.succ) == g.n
        for v in range(g.n):
            assert g.succ[v] == mask_of(g.edges[e][1] for e in g.out_edges[v])


def test_eligible(split_graph):
    """eligible(H) holds b once one of its two out-edges survives H, never
    a vertex of H, and no vertex whose one surviving range two parallel
    edges reach."""
    g = split_graph
    b = g.vertex("b")
    assert g.eligible(g.vertex_set("c")) == g.vertex_set("ab")
    assert g.eligible(0) == g.vertex_set("a")
    assert g.eligible(g.vertex_set("bcd")) == 0
    assert oracles.out_degree_minus(g, b, g.vertex_set("c")) == 1
    assert oracles.out_degree_minus(g, b, 0) == 2
    with pytest.raises(ValueError):
        oracles.out_degree_minus(g, b, g.vertex_set("bcd"))
    g = make_parallel_pair()
    assert oracles.out_degree_minus(g, g.vertex("m"), g.vertex_set("l")) == 2
    assert not g.eligible(g.vertex_set("l")) >> g.vertex("m") & 1


def test_cycles_loop_and_acyclic(split_graph, loop):
    assert loop.cycles_in(1) == [(0,)]
    assert loop.cycles_in(0) == []
    assert split_graph.cycles() == []


def test_cycles_two_loop_scc():
    g = make_two_loop_scc()
    assert len(g.cycles_in(3)) == 3
    assert g.cycles_in(1) == [(0,)]


def test_cycles_match_brute_force():
    rnd = random.Random(17)
    for _ in range(30):
        g = random_graph(rnd, max_n=4, max_m=6)
        assert g.cycles() == brute_force_cycles(g)


def test_cycles_canonical_and_monotone():
    rnd = random.Random(19)
    for _ in range(25):
        g = random_graph(rnd, max_n=4, max_m=6)
        for c in g.cycles():
            srcs = [g.edges[e][0] for e in c]
            assert len(set(srcs)) == len(srcs)
            assert canonical_rotation(c) == c
        for _ in range(5):
            h2 = rnd.randrange(g.full + 1)
            h1 = h2 & rnd.randrange(g.full + 1)
            assert set(g.cycles_in(h1)) <= set(g.cycles_in(h2))


def test_cycle_queries_read_the_cache_in_any_order():
    rnd = random.Random(43)
    for _ in range(25):
        g = random_graph(rnd, max_n=4, max_m=6)
        fresh = Digraph(g.names, g.edges)
        # queries that fill the cache themselves, before cycles() is called
        assert fresh.is_acyclic() == (not brute_force_cycles(g))
        assert fresh.cycles_in(fresh.full) == brute_force_cycles(g)
        listed = fresh.cycles()
        listed.append(("not", "a", "cycle"))
        assert fresh.cycles() == brute_force_cycles(g)
        for c in fresh.cycles():
            assert fresh.cycle_sources(c) == mask_of(g.edges[e][0] for e in c)


def complete_digraph(k):
    names = [f"v{i}" for i in range(k)]
    return build_graph(names, [(a, b) for a in names for b in names if a != b])


def test_cycle_cap_names_the_phase_count_and_cap(monkeypatch):
    """K4 has 20 cycles: a cap of 20 lets them through, a cap of 19 raises
    CapExceeded, on every call, and so does the calculus that lists them.
    leq reads only stored cycle values, so it holds on the bottom with the
    cap tripped."""
    monkeypatch.setattr(graphs, "CYCLE_CAP", 20)
    assert len(complete_digraph(4).cycles()) == 20
    monkeypatch.setattr(graphs, "CYCLE_CAP", 19)
    g = complete_digraph(4)
    message = "20 cycles, more than the cap of 19"
    for _ in range(2):
        with pytest.raises(CapExceeded, match=message):
            g.cycles()
    bottom = WangTriple(g, 0, 0)
    with pytest.raises(CapExceeded) as info:
        join(bottom, bottom)
    assert (info.value.what, info.value.size, info.value.cap) == ("cycles", 20, 19)
    assert leq(bottom, bottom)


def on_cycle_by_reach(g):
    """Vertices with an out-edge whose range reaches back to them."""
    return mask_of(v for v in range(g.n)
                   if any(g.reach[g.edges[e][1]] >> v & 1 for e in g.out_edges[v]))


def multigraph_family():
    """The acyclic multigraphs on 4 vertices with up to 6 edges, and 600
    seeded random multigraphs with loops, back edges and parallel edges."""
    rnd = random.Random(41)
    return acyclic_multigraphs(4, 6) + [random_graph(rnd, 6, 10)
                                        for _ in range(600)]


def test_reach_answers_what_the_cycle_list_answers():
    """Acyclicity, lying on a cycle and the atomistic predicate read off
    reachability agree with the cycle list, on the acyclic multigraphs and
    on random multigraphs with loops, back edges and parallel edges."""
    seen = set()
    for g in multigraph_family():
        cycles = g.cycles()
        on_cycle = 0
        for c in cycles:
            on_cycle |= g.cycle_sources(c)
        atomistic = predicate_atomistic(g)
        assert g.is_acyclic() == (not cycles)
        assert on_cycle_by_reach(g) == on_cycle
        assert atomistic == oracles.atomistic_predicate(g)
        seen |= {("cyclic", bool(cycles)), ("atomistic", atomistic),
                 ("loop", any(s == r for s, r in g.edges)),
                 ("parallel", g.has_parallel_edges())}
    assert len(seen) == 8


def test_masks_match_edge_by_edge_counts():
    """once, eligible(H) for every hereditary H, the lone ranges and the
    forked vertices agree with counting out-edges one by one, and
    is_downward_directed on every vertex set with the test over pairs, on
    multigraphs with loops and parallel edges: the family below and 1,400
    more seeded digraphs on up to 6 vertices, 2,000 random ones in all."""
    rnd = random.Random(67)
    seen = set()
    for g in (multigraph_family()
              + [random_graph(rnd, 6, 12) for _ in range(1400)]
              + [make_loop(), make_two_loop_scc(), make_parallel_pair()]):
        for v in range(g.n):
            ranges = [g.edges[e][1] for e in g.out_edges[v]]
            assert g.once[v] == mask_of(r for r in ranges
                                        if ranges.count(r) == 1)
            assert g.lone_ranges(v) == oracles.lone_ranges_by_edges(g, v)
        for H in g.hereditary_sets():
            assert g.eligible(H) == mask_of(
                v for v in range(g.n) if not H >> v & 1
                and oracles.out_degree_minus(g, v, H) == 1)
        assert g.forked_vertices() == oracles.forked_by_edges(g)
        for H in range(1 << g.n):
            directed = g.is_downward_directed(H)
            assert directed == oracles.downward_directed_by_pairs(g, H)
            seen.add(("directed", directed))
        seen |= {("forked", bool(g.forked_vertices())),
                 ("parallel", g.has_parallel_edges()),
                 ("cyclic", not g.is_acyclic())}
    assert len(seen) == 8


def test_forked_vertices(split_graph):
    assert split_graph.forked_vertices() == split_graph.vertex_set("b")
    assert make_path3().forked_vertices() == 0
    assert make_parallel_pair().forked_vertices() == 0


def test_forked_empty_when_outdegrees_le_one():
    rnd = random.Random(23)
    for _ in range(40):
        n = rnd.randint(1, 5)
        edges = []
        for v in range(n):
            if rnd.random() < 0.7:
                edges.append((v, rnd.randrange(n)))
        g = Digraph([str(i) for i in range(n)], edges)
        assert g.forked_vertices() == 0


def test_forked_iff_condition_iv_fails_for_simple_graphs():
    rnd = random.Random(29)
    tried = 0
    while tried < 60:
        g = random_graph(rnd, max_n=5, max_m=7)
        if not g.is_simple():
            continue
        tried += 1
        assert ((g.forked_vertices() == 0)
                == oracles.condition_iv_by_pairs(g))


def test_weak_connectivity_and_simplicity():
    assert make_split_graph().is_weakly_connected()
    assert not build_graph("ab", []).is_weakly_connected()
    assert make_split_graph().is_simple()
    assert not make_parallel_pair().is_simple()
    assert not make_loop().is_simple()


def test_paths(split_graph):
    assert split_graph.path_range((0, ())) == 0
    assert split_graph.path_range((0, (0, 1))) == 2


def test_atomistic_example_shape():
    g = make_atomistic_example()
    assert g.n == 11 and g.m == 12
    core = g.vertex_set(["v9", "v10"])
    assert core in g.strongly_connected_components()
    assert len(g.cycles_in(core)) == 3


def networkx_graphs(nx):
    """Seeded (vertex count, edges, networkx graph) triples: 300 random
    simple digraphs with self-loops, and 300 random multigraphs on 1 to 7
    vertices with a loop and a parallel edge each."""
    out = []
    for seed in range(300):
        rnd = random.Random(seed)
        n = rnd.randint(1, 6)
        p = rnd.random()
        edges = [(u, v) for u in range(n) for v in range(n) if rnd.random() < p]
        out.append((n, edges, nx.DiGraph(edges)))
    for seed in range(300):
        rnd = random.Random(f"multigraph {seed}")
        n = rnd.randint(1, 7)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(0, 2 * n))]
        v = rnd.randrange(n)
        edges.append((v, v))
        edges.append(rnd.choice(edges))
        rnd.shuffle(edges)
        out.append((n, edges, nx.MultiDiGraph(edges)))
    return out


def test_graph_layer_matches_networkx():
    """Reachability, strongly connected components in least-member order
    and the cycle count against networkx, on seeded random simple digraphs
    with self-loops and multigraphs with loops and parallel edges.  A
    networkx cycle is a vertex sequence; it is as many cycles of edges as
    the product of the edge counts along it."""
    nx = pytest.importorskip("networkx")
    for n, edges, ref in networkx_graphs(nx):
        g = Digraph([f"v{i}" for i in range(n)], edges)
        ref.add_nodes_from(range(n))
        for v in range(n):
            assert g.reach[v] == mask_of(nx.descendants(ref, v) | {v}), edges
        assert g.strongly_connected_components() == [
            mask_of(c) for c in sorted(nx.strongly_connected_components(ref),
                                       key=min)], edges
        count = 0
        for cycle in nx.simple_cycles(ref):
            ways = 1
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                ways *= ref.number_of_edges(u, v)
            count += ways
        assert len(g.cycles()) == count, edges
