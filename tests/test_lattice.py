import random

import pytest

from gislat.graphs import CapExceeded, Digraph, bits, build_graph
from gislat.lattice import (element_indices, enumerate_lattice,
                            generated_sublattice,
                            is_atomistic_lattice, is_distributive,
                            is_lower_semimodular, is_modular,
                            is_upper_semimodular,
                            join_irreducibles, minimal_generating_set,
                            predicate_atomistic,
                            predicate_condition_iv,
                            predicate_lower_semimodular)
from gislat import triples
from gislat.triples import WangTriple, atoms
from gislat.census import (acyclic_multigraphs, connected_simple_graphs,
                           simple_graphs)

import oracles
from conftest import (brute_force_type_congruences, chain, m3, make_loop,
                      make_parallel_pair, make_path3, make_atomistic_example,
                      n5)


def test_enumerate_lattice_sizes(split_graph, path3):
    assert enumerate_lattice(split_graph).n == 14
    assert enumerate_lattice(path3).n == 8
    assert enumerate_lattice(build_graph(["v"], [])).n == 2


def test_enumerate_lattice_rejects_cycles(loop):
    with pytest.raises(ValueError):
        enumerate_lattice(loop)


def test_enumerate_lattice_cap(split_graph):
    with pytest.raises(CapExceeded):
        enumerate_lattice(split_graph, cap=10)


def test_elements_are_built_from_the_masks():
    """elements[i] is the triple of masks[i], built only when read, and
    element_indices finds each element at its index without building it."""
    rnd = random.Random(17)
    graphs = [build_graph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])]
    graphs += [Digraph(range(n), [(i, j) for i in range(n)
                                  for j in range(i + 1, n)
                                  if rnd.random() < 0.4])
               for n in (5, 6, 7)]
    for g in graphs:
        lat = enumerate_lattice(g)
        ts = [WangTriple(g, H, W) for H, W in reversed(lat.masks)]
        assert element_indices(lat, ts) == list(range(lat.n))
        assert "elements" not in vars(lat)
        assert [(t.H, t.W) for t in lat.elements] == lat.masks
        assert all(t.graph is g and t.f == () for t in lat.elements)
        assert element_indices(lat, lat.elements) == list(range(lat.n))
    # the bottom of another graph has the bottom's masks, but not its graph
    stranger = WangTriple(graphs[1], 0, 0)
    with pytest.raises(ValueError, match="is not in the lattice"):
        element_indices(enumerate_lattice(graphs[0]), [stranger])


def test_lattice_bottom_top(split_graph):
    lat = enumerate_lattice(split_graph)
    assert lat.elements[lat.bottom] == WangTriple(split_graph, 0, 0)
    assert lat.elements[lat.top] == WangTriple(split_graph, split_graph.full, 0)


def test_covers_match_transitive_reduction():
    for g in connected_simple_graphs(4):
        lat = enumerate_lattice(g)
        reduction = oracles.transitive_reduction(lat.up)
        assert (lat.cover_from, lat.cover_to) == \
            oracles.cover_columns(reduction)
        assert lat.cover_up == reduction


def test_triple_joins_match_order_joins():
    for g in connected_simple_graphs(4):
        lat = enumerate_lattice(g)
        for i in range(lat.n):
            for j in range(i, lat.n):
                assert lat.join_idx(i, j) == oracles.row_join(lat, i, j)
                assert lat.meet_idx(i, j) == oracles.row_meet(lat, i, j)


def test_join_meet_stay_inside_lattice():
    """Over all ordered pairs: join_idx and meet_idx raise on masks
    outside the lattice, and what they return bounds both arguments."""
    for g in connected_simple_graphs(4):
        lat = enumerate_lattice(g)
        for i in range(lat.n):
            for j in range(lat.n):
                k, m = lat.join_idx(i, j), lat.meet_idx(i, j)
                assert 0 <= k < lat.n and 0 <= m < lat.n
                assert lat.leq_idx(i, k) and lat.leq_idx(j, k)
                assert lat.leq_idx(m, i) and lat.leq_idx(m, j)


def test_join_and_meet_unions_follow_the_union_identities():
    """On an acyclic graph the join's union is U1 ∪ U2, since J lies in
    W1 ∪ W2, and the meet's is (U1 ∩ U2) minus the dead ends V0: on every
    ordered pair of every lattice of acyclic_multigraphs(4, 5) and of the
    connected census graphs up to 5 vertices."""
    for g in acyclic_multigraphs(4, 5) + connected_simple_graphs(5):
        lat = enumerate_lattice(g)
        unions = [H | W for H, W in lat.masks]
        for i, (H1, W1) in enumerate(lat.masks):
            for j, (H2, W2) in enumerate(lat.masks):
                v0 = triples._v0(g, H1 | H2, W1 | W2)
                assert unions[lat.join_idx(i, j)] == unions[i] | unions[j]
                assert unions[lat.meet_idx(i, j)] == \
                    unions[i] & unions[j] & ~v0


def test_mask_joins_and_meets_match_the_triple_calculus():
    """join_idx and meet_idx, run on the (H, W) masks, give the index of
    the triple that triples.join and triples.meet build from the elements'
    triples, on all 19,485 ordered pairs of the lattices of
    acyclic_multigraphs(4, 5)."""
    pairs = 0
    for g in acyclic_multigraphs(4, 5):
        lat = enumerate_lattice(g)
        for i in range(lat.n):
            for j in range(lat.n):
                assert lat.join_idx(i, j) == oracles.join_idx_by_triples(lat, i, j)
                assert lat.meet_idx(i, j) == oracles.meet_idx_by_triples(lat, i, j)
                pairs += 1
    assert pairs == 19_485


def test_handmade_lattices():
    assert not is_upper_semimodular(n5())
    assert not is_lower_semimodular(n5())
    assert not is_modular(n5())
    assert not is_distributive(n5())
    assert is_modular(m3()) and not is_distributive(m3())
    assert is_upper_semimodular(chain(2)) and is_lower_semimodular(chain(2))
    assert is_distributive(chain(4))
    assert is_atomistic_lattice(chain(2))
    assert not is_atomistic_lattice(chain(3))


def test_pentagon_diamond_finders():
    for lat in [n5(), m3(), chain(4)]:
        assert (oracles.find_pentagon(lat) is None) == is_modular(lat)
        found = oracles.find_diamond(lat)
        if is_distributive(lat):
            assert found is None and oracles.find_pentagon(lat) is None
    assert oracles.find_pentagon(n5()) is not None
    assert oracles.find_diamond(m3()) is not None


def test_finders_agree_with_laws_on_census():
    for g in connected_simple_graphs(4):
        lat = enumerate_lattice(g)
        assert (oracles.find_pentagon(lat) is None) == is_modular(lat)
        no_sublattice = (oracles.find_pentagon(lat) is None
                         and oracles.find_diamond(lat) is None)
        assert no_sublattice == is_distributive(lat)


def test_split_graph_lattice_properties(split_graph):
    lat = enumerate_lattice(split_graph)
    assert is_upper_semimodular(lat)
    assert not is_lower_semimodular(lat)
    assert not is_modular(lat)
    assert not is_distributive(lat)
    assert not is_atomistic_lattice(lat)


def test_path3_lattice_properties(path3):
    lat = enumerate_lattice(path3)
    assert is_lower_semimodular(lat)
    assert is_modular(lat)
    assert is_distributive(lat)
    assert is_atomistic_lattice(lat)
    four_chain = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert is_lower_semimodular(enumerate_lattice(four_chain))


def test_atoms_agree_with_lattice_atoms():
    for g in connected_simple_graphs(4) + acyclic_multigraphs(3, 3):
        lat = enumerate_lattice(g)
        from_lattice = {lat.elements[i] for i in bits(lat.cover_up[lat.bottom])}
        assert set(atoms(g)) == from_lattice, g


def test_predicate_atomistic_agrees_with_lattice_level():
    for g in connected_simple_graphs(4) + acyclic_multigraphs(3, 3):
        assert predicate_atomistic(g) == \
            is_atomistic_lattice(enumerate_lattice(g)), g


def test_predicates(split_graph):
    assert not predicate_lower_semimodular(split_graph)
    assert predicate_lower_semimodular(make_path3())
    assert predicate_lower_semimodular(make_parallel_pair())
    assert predicate_lower_semimodular(make_loop())


def test_condition_iv(split_graph):
    assert predicate_condition_iv(make_path3())
    assert not predicate_condition_iv(split_graph)
    g = build_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    assert predicate_condition_iv(g)
    with pytest.raises(ValueError):
        predicate_condition_iv(make_parallel_pair())
    with pytest.raises(ValueError):
        predicate_condition_iv(make_loop())


def test_predicate_atomistic(split_graph):
    assert predicate_atomistic(make_atomistic_example())
    assert not predicate_atomistic(split_graph)
    assert predicate_atomistic(build_graph("abc", []))


def test_minimal_generating_set_split_graph(split_graph):
    got = set(minimal_generating_set(split_graph))
    c, d, a, b = (split_graph.vertex_set(x) for x in "cdab")
    assert got == {WangTriple(split_graph, c, 0), WangTriple(split_graph, d, 0),
                   WangTriple(split_graph, 0, a), WangTriple(split_graph, c, b),
                   WangTriple(split_graph, d, b)}
    lat = enumerate_lattice(split_graph)
    assert len(generated_sublattice(lat, list(got))) == 14


def test_minimal_generating_set_path3(path3):
    got = set(minimal_generating_set(path3))
    assert got == {WangTriple(path3, path3.vertex_set("c"), 0),
                   WangTriple(path3, 0, path3.vertex_set("b")),
                   WangTriple(path3, 0, path3.vertex_set("a"))}
    lat = enumerate_lattice(path3)
    assert len(generated_sublattice(lat, list(got))) == 8


def test_minimal_generating_set_single_sink():
    g = build_graph(["v"], [])
    assert minimal_generating_set(g) == [WangTriple(g, 1, 0)]


def test_minimal_generating_set_rejects_non_simple():
    with pytest.raises(ValueError):
        minimal_generating_set(make_parallel_pair())


def test_minimal_generating_set_matches_brute_force():
    for g in simple_graphs(3) + simple_graphs(4):
        assert set(minimal_generating_set(g)) == set(brute_force_type_congruences(g))


def random_connected_dags(count, seed):
    """Seeded weakly connected DAGs on 6 or 7 vertices."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.randint(6, 7)
        p = rnd.uniform(0.25, 0.5)
        g = Digraph([f"v{i}" for i in range(n)],
                    [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rnd.random() < p])
        if g.is_weakly_connected():
            out.append(g)
    return out


def test_join_irreducibles_of_handmade_lattices():
    assert join_irreducibles(n5()) == [1, 2, 3]
    assert join_irreducibles(m3()) == [1, 2, 3]
    assert join_irreducibles(chain(4)) == [1, 2, 3]
    assert join_irreducibles(chain(1)) == []


def test_join_irreducibles_are_the_minimal_generating_set():
    """The paper's minimal generating set is the set of join-irreducibles,
    on every simple graph up to 5 vertices and on random 6- and 7-vertex
    DAGs."""
    graphs = [g for n in range(1, 6) for g in simple_graphs(n)]
    assert len(graphs) == 342
    for g in graphs + random_connected_dags(100, 53):
        lat = enumerate_lattice(g)
        gens = element_indices(lat, minimal_generating_set(g))
        assert join_irreducibles(lat) == gens, g


def test_generated_sublattice_basics(split_graph):
    lat = enumerate_lattice(split_graph)
    assert generated_sublattice(lat, lat.elements) == lat.elements
    only_bottom = generated_sublattice(lat, [])
    assert only_bottom == [lat.elements[lat.bottom]]
    foreign = WangTriple(make_path3(), 0, 0)
    with pytest.raises(ValueError):
        generated_sublattice(lat, [foreign])


def test_generated_sublattice_parallel_counterexample(parallel_pair):
    g = parallel_pair
    lat = enumerate_lattice(g)
    gens = brute_force_type_congruences(g)
    assert gens == [WangTriple(g, g.vertex_set("l"), 0),
                    WangTriple(g, g.vertex_set("r"), 0)]
    closure = generated_sublattice(lat, gens)
    assert WangTriple(g, g.full, 0) not in closure
    assert len(closure) == 4


def test_lattice_iso_to_powerset_for_outdeg_le1(path3):
    lat = enumerate_lattice(path3)
    unions = sorted(t.H | t.W for t in lat.elements)
    assert unions == list(range(8))
