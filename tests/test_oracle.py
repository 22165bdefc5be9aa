import pytest

from gislat import oracle
from gislat.graphs import CapExceeded, build_graph
from gislat.oracle import (all_paths, associativity_violations,
                           build_semigroup, enumerate_congruences,
                           generated_congruence, inverse, multiply,
                           partition_join, principal_congruences,
                           realize_triple, verify_isomorphism)
from gislat.triples import WangTriple
from gislat.census import acyclic_multigraphs

from conftest import make_split_graph, make_parallel_pair, make_path3
from oracles import inverses, partition_meet, refines


def test_all_paths_split_graph(split_graph):
    paths = all_paths(split_graph)
    assert len(paths) == 9
    assert (0, (0, 1)) in paths and (0, (0, 2)) in paths


def test_build_semigroup_sizes(split_graph):
    assert len(build_semigroup(split_graph)) == 24
    assert len(build_semigroup(build_graph(["v"], []))) == 2
    assert len(build_semigroup(build_graph("ab", [("a", "b")]))) == 6


def test_build_semigroup_rejects_cyclic_and_caps(split_graph, loop):
    with pytest.raises(ValueError):
        build_semigroup(loop)
    with pytest.raises(CapExceeded):
        build_semigroup(split_graph, element_cap=10)


def test_multiplication_prefix_rule(split_graph):
    b = split_graph.vertex("b")
    e_ab, e_bc = 0, 1
    vb = ((b, ()), (b, ()))
    edge = ((0, (e_ab,)), (b, ()))          # the path a->b against b
    assert multiply(split_graph, edge, vb) == edge
    assert multiply(split_graph, vb, edge) is None  # b * (ab) starts at a
    left = ((0, (e_ab,)), (0, (e_ab,)))
    right = ((0, (e_ab, e_bc)), (2, ()))
    assert inverse(right) == ((2, ()), (0, (e_ab, e_bc)))
    assert multiply(split_graph, left, right) == right
    assert multiply(split_graph, right, inverse(right)) == (right[0], right[0])
    assert multiply(split_graph, inverse(right), right) == ((2, ()), (2, ()))
    assert multiply(split_graph, None, right) is None


def test_table_associative_and_inverses():
    for g in [make_split_graph(), make_path3(), make_parallel_pair()]:
        table = build_semigroup(g)
        assert associativity_violations(table) == []
        n = len(table)
        rows = table.rows
        assert all(rows[0][x] == 0 == rows[x][0] for x in range(n))
        for x, y in enumerate(inverses(table)):
            assert rows[rows[x][y]][x] == x
            assert rows[rows[y][x]][y] == y
            # and y is the only such element
            others = [z for z in range(n)
                      if rows[rows[x][z]][x] == x and rows[rows[z][x]][z] == z]
            assert others == [y]


def test_congruence_counts(split_graph, path3):
    assert len(enumerate_congruences(build_semigroup(split_graph))) == 14
    assert len(enumerate_congruences(build_semigroup(path3))) == 8
    two = build_semigroup(build_graph(["v"], []))
    assert len(enumerate_congruences(two)) == 2
    assert len(enumerate_congruences(build_semigroup(
        build_graph("ab", [("a", "b")])))) == 4


def test_congruence_count_cap(split_graph, monkeypatch):
    # both congruences of the one-vertex graph are seeds: the diagonal and
    # its one principal congruence
    for g, count in ((split_graph, 14), (build_graph(["v"], []), 2)):
        table = build_semigroup(g)
        monkeypatch.setattr(oracle, "CONGRUENCE_CAP", count - 1)
        with pytest.raises(CapExceeded,
                           match=f"congruences, more than the cap of {count - 1}"):
            enumerate_congruences(table)
        monkeypatch.setattr(oracle, "CONGRUENCE_CAP", count)
        assert len(enumerate_congruences(table)) == count


def test_congruences_are_compatible_and_closed(path3):
    table = build_semigroup(path3)
    n = len(table)
    congs = enumerate_congruences(table)
    for labels in congs:
        for x in range(n):
            for y in range(n):
                if labels[x] != labels[y]:
                    continue
                for z in range(n):
                    assert labels[table.rows[z][x]] == labels[table.rows[z][y]]
                    assert labels[table.rows[x][z]] == labels[table.rows[y][z]]
    as_set = set(congs)
    for p in congs:
        for q in congs:
            assert partition_join(p, q) in as_set
            assert partition_meet(p, q) in as_set


def test_partition_helpers():
    assert partition_join((0, 1, 2), (0, 0, 2)) == (0, 0, 2)
    assert partition_join((0, 0, 2), (0, 1, 1)) == (0, 0, 0)
    assert partition_meet((0, 0, 2), (0, 1, 1)) == (0, 1, 2)
    assert refines((0, 1, 2), (0, 0, 2))
    assert not refines((0, 0, 2), (0, 1, 2))


def test_realize_triple_split_graph(split_graph):
    table = build_semigroup(split_graph)
    diag = realize_triple(WangTriple(split_graph, 0, 0), table)
    assert len(set(diag)) == len(table)
    universal = realize_triple(WangTriple(split_graph, split_graph.full, 0), table)
    assert set(universal) == {0}
    tc = realize_triple(WangTriple(split_graph, split_graph.vertex_set("c"), 0), table)
    zero_block = {i for i in range(len(table)) if tc[i] == tc[0]}
    through_c = {i for i, x in enumerate(table.elements)
                 if x is None or split_graph.path_range(x[0]) == split_graph.vertex("c")}
    assert zero_block == through_c
    assert len(zero_block) == 10
    singletons = [i for i in range(len(table)) if tc.count(tc[i]) == 1]
    assert len(singletons) == 14


def test_principal_congruence_worklist(path3):
    table = build_semigroup(path3)
    # collapsing a vertex with zero drags its whole down-set along
    a = table.index[((0, ()), (0, ()))]
    labels = generated_congruence(table, [(0, a)])
    assert labels[a] == labels[0]
    assert len(principal_congruences(table)) >= 3


def test_verify_isomorphism_split_graph(split_graph):
    report = verify_isomorphism(split_graph)
    assert report.passed, report.failures
    assert report.semigroup_size == 24
    assert report.lattice_size == 14
    assert report.congruence_count == 14


def test_verify_isomorphism_builds_lattice_under_congruence_cap(
        split_graph, monkeypatch):
    """On a passing run the lattice has as many elements as there are
    congruences, so the congruence cap, read at call time, bounds both."""
    caps = []
    real = oracle.enumerate_lattice

    def recording(graph, cap):
        caps.append(cap)
        return real(graph, cap)

    monkeypatch.setattr(oracle, "enumerate_lattice", recording)
    monkeypatch.setattr(oracle, "CONGRUENCE_CAP", 14)
    assert verify_isomorphism(split_graph).passed
    assert caps == [14]


def test_verify_isomorphism_rejects_another_graphs_table():
    """A table built for a -> b -> c does not describe a -> b."""
    edge = build_graph("ab", [("a", "b")])
    table = build_semigroup(make_path3())
    with pytest.raises(ValueError, match="another graph"):
        verify_isomorphism(edge, table)
    # an equal graph built separately is the same graph
    assert verify_isomorphism(make_path3(), table).passed


def test_verify_isomorphism_parallel_pair(parallel_pair):
    report = verify_isomorphism(parallel_pair)
    assert report.passed, report.failures
    assert report.semigroup_size == 20
    assert report.congruence_count == 5


def test_verify_isomorphism_single_edge():
    report = verify_isomorphism(build_graph("ab", [("a", "b")]))
    assert report.passed
    assert report.semigroup_size == 6
    assert report.congruence_count == 4


def test_verify_isomorphism_multigraph_spot_checks():
    for g in acyclic_multigraphs(2, 3):
        report = verify_isomorphism(g)
        assert report.passed, (g, report.failures)
