import random
import re

import pytest

from gislat.graphs import Digraph, bits, build_graph
from gislat.triples import (INF, WangTriple, _cover_kind, atoms, covers,
                            downward_directed_check, divides, ext_gcd,
                            ext_lcm, generating_pairs, is_prime, join, leq,
                            meet, meet_no_fork, vertex_element)
from gislat.census import acyclic_multigraphs

import oracles
from conftest import make_path3, make_two_loop_scc


def make_looptail():
    # t feeds v, v carries a loop: the smallest graph mixing H, W and f
    return build_graph("tv", [("t", "v"), ("v", "v")])


def all_triples(g, f_values=(1,)):
    """Every Wang triple of g, cycle functions drawn from f_values u {INF}."""
    out = []
    for H in g.hereditary_sets():
        elig = [v for v in range(g.n)
                if not H >> v & 1 and oracles.out_degree_minus(g, v, H) == 1]
        for pick in range(1 << len(elig)):
            W = 0
            for k, v in enumerate(elig):
                if pick >> k & 1:
                    W |= 1 << v
            free = [c for c in g.cycles_in(H | W) if g.cycle_sources(c) & ~H]
            def assign(i, fmap):
                if i == len(free):
                    out.append(WangTriple(g, H, W, dict(fmap)))
                    return
                for val in list(f_values) + [INF]:
                    assign(i + 1, fmap + [(free[i], val)])
            assign(0, [])
    return out


def test_extended_divisibility():
    assert divides(3, 6) and not divides(6, 3)
    assert divides(5, INF) and divides(INF, INF) and not divides(INF, 5)
    assert ext_gcd(4, 6) == 2 and ext_gcd(4, INF) == 4 and ext_gcd(INF, INF) == INF
    assert ext_lcm(4, 6) == 12 and ext_lcm(4, INF) == INF
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(INF)


def test_validate(split_graph, loop):
    t = WangTriple(split_graph, split_graph.vertex_set("c"), split_graph.vertex_set("b"))
    assert t.H == split_graph.vertex_set("c")
    with pytest.raises(ValueError):
        WangTriple(split_graph, 0, split_graph.vertex_set("b"))
    t = WangTriple(loop, 0, 1, {(0,): 6})
    assert t.value((0,)) == 6


def test_validate_rejects_bad_f(loop):
    with pytest.raises(ValueError):
        WangTriple(loop, 1, 0, {(0,): 6})  # cycle inside H must map to 1
    with pytest.raises(ValueError, match="cycles inside H must map to 1"):
        WangTriple(loop, 1, 0, {(0,): INF})
    with pytest.raises(ValueError):
        WangTriple(loop, 0, 0, {(0,): 6})  # cycle outside H u W must map to INF
    with pytest.raises(ValueError):
        WangTriple(loop, 0, 1, {(0,): 0})
    with pytest.raises(ValueError):
        WangTriple(loop, 0, 1, {(1, 2): 3})
    # the pair form: each cycle is made a tuple before it is keyed, and a
    # cycle given twice is named rather than the last value kept
    assert WangTriple(loop, 0, 1, [([0], 6)]) == WangTriple(loop, 0, 1, {(0,): 6})
    with pytest.raises(ValueError, match=re.escape("cycle (0,) given twice")):
        WangTriple(loop, 0, 1, [((0,), 6), ((0,), 1)])


def test_unknown_cycles_are_value_errors(split_graph, loop):
    """A cycle the graph does not have, or one not in canonical rotation,
    is a ValueError naming it, from the constructor and from value."""
    edge = WangTriple(build_graph("ab", [("a", "b")]), 0, 0)
    looped = WangTriple(loop, 0, 1, {(0,): 2})
    for t, cycle in ((edge, (0,)), (looped, (1,)), (looped, (0, 0))):
        message = re.escape(f"unknown or non-canonical cycle {cycle!r}")
        with pytest.raises(ValueError, match=message):
            t.value(cycle)
        with pytest.raises(ValueError, match=message):
            WangTriple(t.graph, t.H, t.W, {cycle: 2})
    assert looped.value([0]) == 2


def test_validate_rejects_bool_values(loop):
    """A bool is an int, but True is not the cycle value 1."""
    for H, W, val in ((0, 1, True), (1, 0, True), (0, 1, False)):
        with pytest.raises(ValueError, match="positive integers"):
            WangTriple(loop, H, W, {(0,): val})


def test_validate_rejects_masks_that_are_not_vertex_sets(split_graph):
    """A bool is an int, but no vertex set, and a float or a string is not
    taken for one: each is a ValueError naming the mask.  What
    operator.index takes is a mask, stored as an int."""
    c = split_graph.vertex_set("c")
    for H, W, name, bad in ((True, False, "H", True), (1.0, 0, "H", 1.0),
                            (c, False, "W", False), (c, "2", "W", "2"),
                            (c, None, "W", None)):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} is not a vertex-set mask: {bad!r}")):
            WangTriple(split_graph, H, W)

    class C:
        def __index__(self):
            return c

    t = WangTriple(split_graph, C(), 0)
    assert type(t.H) is int and t == WangTriple(split_graph, c, 0)


def test_f_normalisation(loop):
    assert WangTriple(loop, 0, 1, {(0,): INF}).f == ()
    assert WangTriple(loop, 1, 0, {(0,): 1}).f == ()
    assert WangTriple(loop, 0, 1, {(0,): 4}).f == (((0,), 4),)


def test_generating_pairs_split_graph(split_graph):
    c, b = split_graph.vertex("c"), split_graph.vertex("b")
    t = WangTriple(split_graph, 1 << c, 1 << b)
    # b's surviving edge is b -> d, edge id 2
    assert generating_pairs(t) == [
        (vertex_element(c), None),
        (vertex_element(b), ((b, (2,)), (b, (2,)))),
    ]


def test_generating_pairs_trivial_and_loop(split_graph, loop):
    assert generating_pairs(WangTriple(split_graph, 0, 0)) == []
    t = WangTriple(loop, 0, 1, {(0,): 2})
    assert generating_pairs(t) == [
        (vertex_element(0), ((0, (0,)), (0, (0,)))),
        (((0, (0, 0)), (0, ())), vertex_element(0)),
    ]


def test_leq_basics(split_graph, loop):
    bottom = WangTriple(split_graph, 0, 0)
    for t in all_triples(split_graph):
        assert leq(bottom, t)
    f6 = WangTriple(loop, 0, 1, {(0,): 6})
    f3 = WangTriple(loop, 0, 1, {(0,): 3})
    assert leq(f6, f3) and not leq(f3, f6)
    tc = WangTriple(split_graph, split_graph.vertex_set("c"), split_graph.vertex_set("b"))
    td = WangTriple(split_graph, split_graph.vertex_set("d"), split_graph.vertex_set("b"))
    assert not leq(tc, td) and not leq(td, tc)


def test_leq_rejects_mixed_graphs(split_graph, loop):
    with pytest.raises(ValueError):
        leq(WangTriple(split_graph, 0, 0), WangTriple(loop, 0, 0))


def test_join_bifurcation(split_graph):
    tc = WangTriple(split_graph, split_graph.vertex_set("c"), split_graph.vertex_set("b"))
    td = WangTriple(split_graph, split_graph.vertex_set("d"), split_graph.vertex_set("b"))
    assert join(tc, td) == WangTriple(split_graph, split_graph.vertex_set("bcd"), 0)
    assert meet(tc, td) == WangTriple(split_graph, 0, 0)


def test_join_meet_loop_gcd_lcm(loop):
    f4 = WangTriple(loop, 0, 1, {(0,): 4})
    f6 = WangTriple(loop, 0, 1, {(0,): 6})
    assert join(f4, f6) == WangTriple(loop, 0, 1, {(0,): 2})
    assert meet(f4, f6) == WangTriple(loop, 0, 1, {(0,): 12})


def test_meet_no_fork_path():
    g = make_path3()
    a, b, c = range(3)
    t1 = WangTriple(g, 0, 1 << a)
    t2 = WangTriple(g, 0, (1 << a) | (1 << b))
    assert meet_no_fork(t1, t2) == t1
    t3 = WangTriple(g, 1 << c, 1 << a)
    t4 = WangTriple(g, 0, 1 << b)
    assert meet_no_fork(t3, t4) == WangTriple(g, 0, 0)
    assert meet_no_fork(t3, t4) == meet(t3, t4)


def test_meet_no_fork_rejects_forked(split_graph):
    """b is forked, so the guard refuses every pair of the split graph's
    triples, whatever their meet."""
    bottom = WangTriple(split_graph, 0, 0)
    atom = WangTriple(split_graph, 0, split_graph.vertex_set("a"))
    for t1, t2 in ((bottom, bottom), (bottom, atom), (atom, atom)):
        with pytest.raises(ValueError, match="graph has forked vertices"):
            meet_no_fork(t1, t2)


def test_meet_no_fork_matches_meet_on_loop_graph(loop):
    ts = all_triples(loop, f_values=(1, 2, 3, 4, 6))
    for t1 in ts:
        for t2 in ts:
            assert meet_no_fork(t1, t2) == meet(t1, t2)


def test_covers_prime_quotient(loop):
    f6 = WangTriple(loop, 0, 1, {(0,): 6})
    f3 = WangTriple(loop, 0, 1, {(0,): 3})
    f12 = WangTriple(loop, 0, 1, {(0,): 12})
    assert covers(f6, f3)
    assert not covers(f12, f3)


def test_covers_reads_only_the_interval():
    """An H-growing cover looks only at the vertices of H2 \\ H1: 21
    isolated vertices give the graph 3 * 2**21 hereditary sets, past
    HEREDITARY_CAP, while H2 \\ H1 is {a, b}."""
    g = build_graph(["a", "b"] + [f"i{k}" for k in range(21)], [("a", "b")])
    assert covers(WangTriple(g, 0, g.vertex_set("a")),
                  WangTriple(g, g.vertex_set("ab"), 0))


def test_wide_h_growing_pair_trips_no_cap():
    """On 21 isolated vertices (2**21 hereditary sets, past HEREDITARY_CAP)
    the bottom and the top differ in H by every vertex, and any one vertex
    makes a hereditary set between them: no cover, and no cap."""
    g = Digraph([f"i{k}" for k in range(21)], [])
    bottom, top = WangTriple(g, 0, 0), WangTriple(g, g.full, 0)
    assert not covers(bottom, top)
    with pytest.raises(ValueError, match="not an H-growing cover pair"):
        downward_directed_check(bottom, top)


def test_covers_acyclic(split_graph):
    bottom = WangTriple(split_graph, 0, 0)
    ta = WangTriple(split_graph, 0, split_graph.vertex_set("a"))
    assert covers(bottom, ta)
    with pytest.raises(ValueError):
        covers(ta, bottom)
    with pytest.raises(ValueError):
        covers(ta, ta)


def test_atoms(split_graph, loop):
    got = set(atoms(split_graph))
    assert got == {WangTriple(split_graph, 0, split_graph.vertex_set("a")),
                   WangTriple(split_graph, split_graph.vertex_set("c"), 0),
                   WangTriple(split_graph, split_graph.vertex_set("d"), 0)}
    assert atoms(loop) == [WangTriple(loop, 0, 1)]
    single = build_graph(["v"], [])
    assert atoms(single) == [WangTriple(single, 1, 0)]


def test_atoms_have_empty_open_interval_below(loop):
    bottom = WangTriple(loop, 0, 0)
    grid = all_triples(loop, f_values=tuple(range(1, 13)))
    for a in atoms(loop):
        for t in grid:
            assert not (leq(bottom, t) and leq(t, a)
                        and t != bottom and t != a)


def forked_cyclic_multigraphs(rnd, count):
    """Random multigraphs on at most 4 vertices, loops and parallel edges
    included, kept when they have a forked vertex and 1 to 3 cycles."""
    out = []
    while len(out) < count:
        n = rnd.randint(1, 4)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(2, 5))]
        g = Digraph([f"v{i}" for i in range(n)], edges)
        if g.forked_vertices() and not g.is_acyclic() and len(g.cycles()) <= 3:
            out.append(g)
    return out


def test_covers_match_brute_force_on_forked_cyclic_multigraphs():
    """covers(t1, t2) holds iff no triple of the grid lies strictly between.
    The grid's finite values are the divisors of 12, so it holds every
    triple between t1 and t2 unless some cycle goes from INF under t1 to a
    finite value under t2, whose multiples leave the grid: such pairs are
    skipped.  On every pair leq, and on every comparable pair the cover
    shape, agree with the oracles that scan every cycle."""
    seen = set()
    for g in forked_cyclic_multigraphs(random.Random(7), 40):
        ts = all_triples(g, f_values=(1, 2, 3, 4, 6, 12))
        cycles = g.cycles()
        up = []
        for a in ts:
            row = 0
            for j, b in enumerate(ts):
                below = leq(a, b)
                assert below == oracles.leq_by_scan(a, b), (g, a, b)
                row |= below << j
            up.append(row)
        down = [sum(1 << i for i in range(len(ts)) if up[i] >> j & 1)
                for j in range(len(ts))]
        for i, t1 in enumerate(ts):
            for j in bits(up[i] & ~(1 << i)):
                t2 = ts[j]
                assert _cover_kind(t1, t2) == \
                    oracles.cover_kind_by_scan(t1, t2), (g, t1, t2)
                if any(t1.value(c) == INF and t2.value(c) != INF
                       for c in cycles):
                    continue
                cover = up[i] & down[j] == 1 << i | 1 << j
                assert covers(t1, t2) == cover, (g, t1, t2)
                if cover:
                    seen.add("h" if t1.H != t2.H else
                             "w" if t1.W != t2.W else "f")
    assert seen == {"h", "w", "f"}


def test_downward_directed_check_cyclic():
    g = make_looptail()
    t1 = WangTriple(g, 0, g.vertex_set("v"), {(1,): 1})
    t2 = WangTriple(g, g.vertex_set("v"), 0)
    assert covers(t1, t2)
    assert downward_directed_check(t1, t2)
    assert not covers(WangTriple(g, 0, g.vertex_set("v"), {(1,): 2}), t2)


def test_downward_directed_check():
    g = make_path3()
    t1 = WangTriple(g, 0, g.vertex_set("b"))
    t2 = WangTriple(g, g.vertex_set("bc"), 0)
    assert covers(t1, t2)
    assert downward_directed_check(t1, t2)
    bottom = WangTriple(g, 0, 0)
    with pytest.raises(ValueError):
        downward_directed_check(bottom, WangTriple(g, 0, g.vertex_set("a")))


def test_dead_end_with_parallel_edges_into_h():
    """v has two parallel edges into s and one edge each into a and b, so
    it keeps one out-edge outside H1 = {s, a} and one outside H2 = {s, b},
    and none outside H1 u H2: it is a dead end.  w has one edge into v and
    one into s, so it joins J after v."""
    g = build_graph("sabvw", [("v", "s"), ("v", "s"), ("v", "a"), ("v", "b"),
                              ("w", "v"), ("w", "s")])
    t1 = WangTriple(g, g.vertex_set("sa"), g.vertex_set("vw"))
    t2 = WangTriple(g, g.vertex_set("sb"), g.vertex_set("v"))
    for s, t in ((t1, t2), (t2, t1)):
        assert join(s, t) == WangTriple(g, g.full, 0)
        assert meet(s, t) == WangTriple(g, g.vertex_set("s"), 0)
        assert (join(s, t).H, join(s, t).W) == oracles.join_hw_by_edges(s, t)
        assert (meet(s, t).H, meet(s, t).W) == oracles.meet_hw_by_edges(s, t)


def assert_calculus_result(r, t1, t2, combine):
    """r passes the validating constructor and takes, on every cycle, the
    combined values of t1 and t2: the checks join and the meets skip."""
    g = r.graph
    assert WangTriple(g, r.H, r.W, dict(r.f)) == r
    for c in g.cycles():
        assert r.value(c) == combine(t1.value(c), t2.value(c)), (t1, t2, c)


def lattice_law_suite(ts):
    for t1 in ts:
        assert join(t1, t1) == t1 and meet(t1, t1) == t1
        fork_free = not t1.graph.forked_vertices()
        for t2 in ts:
            j, m = join(t1, t2), meet(t1, t2)
            assert j == join(t2, t1) and m == meet(t2, t1)
            assert leq(t1, j) and leq(m, t1)
            assert join(t1, m) == t1 and meet(t1, j) == t1
            assert leq(t1, t2) == (j == t2) == (m == t1)
            assert_calculus_result(j, t1, t2, ext_gcd)
            assert_calculus_result(m, t1, t2, ext_lcm)
            if fork_free:
                assert_calculus_result(meet_no_fork(t1, t2), t1, t2, ext_lcm)


def test_lattice_laws_acyclic_multigraphs():
    for g in acyclic_multigraphs(3, 3):
        ts = all_triples(g)
        lattice_law_suite(ts)
        for t1 in ts:
            for t2 in ts:
                for t3 in ts:
                    assert join(join(t1, t2), t3) == join(t1, join(t2, t3))
                    assert meet(meet(t1, t2), t3) == meet(t1, meet(t2, t3))


def test_lattice_laws_cyclic():
    g = make_looptail()
    ts = all_triples(g, f_values=(1, 2, 3, 4, 6, 12))
    lattice_law_suite(ts)


def test_no_fork_meet_agrees_across_fork_free_multigraphs():
    for g in acyclic_multigraphs(3, 3):
        if g.forked_vertices():
            continue
        ts = all_triples(g)
        for t1 in ts:
            for t2 in ts:
                assert meet_no_fork(t1, t2) == meet(t1, t2)


def test_hw_union_determines_triple_for_acyclic():
    for g in acyclic_multigraphs(3, 4):
        seen = {}
        for t in all_triples(g):
            u = t.H | t.W
            assert u not in seen, (g, t, seen[u])
            seen[u] = t


def test_triple_equality_and_repr(split_graph):
    t1 = WangTriple(split_graph, split_graph.vertex_set("c"), split_graph.vertex_set("b"))
    t2 = WangTriple(split_graph, split_graph.vertex_set("c"), split_graph.vertex_set("b"))
    assert t1 == t2 and hash(t1) == hash(t2)
    assert repr(t1) == "({c}, {b}, ∅)"


def test_repr_of_cyclic_triples_lists_stored_and_forced_values():
    """On a cyclic graph repr lists the stored cycle values, then marks the
    forced ones: 1 on the cycles in H, when there are any, and ∞ on the
    rest, an unstored cycle through W included."""
    g = make_looptail()  # t -> v, and the loop v -> v, cycle (1,)
    v = g.vertex_set("v")
    assert repr(WangTriple(g, 0, v)) == "({}, {v}, {forced: ∞ elsewhere})"
    assert repr(WangTriple(g, 0, v, {(1,): 3})) == \
        "({}, {v}, {[1]:3; forced: ∞ elsewhere})"
    assert repr(WangTriple(g, v, 0)) == \
        "({v}, {}, {forced: 1 in H, ∞ elsewhere})"
    two = make_two_loop_scc()
    assert [repr(t) for t in atoms(two)] == \
        ["({x,y}, {}, {forced: 1 in H, ∞ elsewhere})"]
