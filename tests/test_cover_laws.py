"""The congruence lattice built from one-vertex covers, and the lattice laws
decided on covers, against the brute-force oracles in oracles.py."""

import random

import pytest

from gislat.census import acyclic_multigraphs, connected_simple_graphs
from gislat.cli import lattice_dot, lattice_json
from gislat.graphs import Digraph, bits
from gislat.lattice import (FiniteLattice, element_indices,
                            enumerate_lattice, generated_sublattice,
                            is_atomistic_lattice, is_distributive,
                            is_lower_semimodular, is_modular,
                            is_upper_semimodular, minimal_generating_set)
from gislat.triples import WangTriple, _cover_kind

import oracles
from conftest import chain, m3, make_parallel_pair, make_split_graph, n5

LAWS = {
    "upper_semimodular": is_upper_semimodular,
    "lower_semimodular": is_lower_semimodular,
    "modular": is_modular,
    "distributive": is_distributive,
    "atomistic": is_atomistic_lattice,
}


def laws(lat):
    return {name: check(lat) for name, check in LAWS.items()}


def oracle_laws(lat):
    return {name: check(lat) for name, check in oracles.ORACLES.items()}


def sweep_graphs():
    """The criterion-02 sweep."""
    return acyclic_multigraphs(3, 4) + [make_split_graph(), make_parallel_pair()]


def random_dags(count, seed):
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        n = rnd.randint(2, 9)
        p = rnd.uniform(0.15, 0.5)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rnd.random() < p]
        out.append(Digraph([f"v{i}" for i in range(n)], edges))
    return out


def product(lat1, lat2):
    """The direct product, ordered componentwise; (a, b) has index a*m + b."""
    m = lat2.n
    up = []
    for a in range(lat1.n):
        for b in range(m):
            row = 0
            for a2 in bits(lat1.up[a]):
                for b2 in bits(lat2.up[b]):
                    row |= 1 << (a2 * m + b2)
            up.append(row)
    return FiniteLattice(len(up), *oracles.cover_columns(
        oracles.transitive_reduction(up)))


def random_family_order(rnd, max_points=5):
    """Up rows of a seeded intersection-closed family of subsets of at most
    max_points points, with the whole set added, ordered by inclusion and
    numbered by size."""
    k = rnd.randint(1, max_points)
    full = (1 << k) - 1
    family = {full} | {rnd.randrange(1 << k)
                       for _ in range(rnd.randint(0, 2 * k + 2))}
    while True:
        meets = {a & b for a in family for b in family}
        if meets <= family:
            break
        family |= meets
    sets = sorted(family, key=lambda s: (s.bit_count(), s))
    return [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0)
            for s in sets]


def random_family_lattice(rnd, max_points=5):
    up = random_family_order(rnd, max_points)
    return FiniteLattice(len(up), *oracles.cover_columns(
        oracles.transitive_reduction(up)))


# -- construction --------------------------------------------------------------


def test_up_rows_equal_all_pairs_order():
    """The order and cover rows match the all-pairs order, and on the
    lattices of acyclic_multigraphs(4, 5) and connected_simple_graphs(5)
    the cover shape of every comparable pair matches the one that walks
    the hereditary sets, and is found exactly on the covers."""
    graphs = connected_simple_graphs(5) + sweep_graphs() + random_dags(40, 11)
    for g in graphs:
        lat = enumerate_lattice(g)
        up = oracles.all_pairs_order(lat.elements)
        assert lat.up == up, g
        reduction = oracles.transitive_reduction(up)
        assert (lat.cover_from, lat.cover_to) == \
            oracles.cover_columns(reduction), g
        assert lat.cover_up == reduction, g
        for i in range(lat.n):
            assert lat.down[i] == sum(1 << j for j in range(lat.n)
                                      if up[j] >> i & 1), g
            assert lat.cover_dn[i] == sum(1 << j for j in range(lat.n)
                                          if lat.cover_up[j] >> i & 1), g
    for g in acyclic_multigraphs(4, 5) + connected_simple_graphs(5):
        lat = enumerate_lattice(g)
        ts = lat.elements
        for i, t1 in enumerate(ts):
            for j in bits(lat.up[i] & ~(1 << i)):
                kind = _cover_kind(t1, ts[j])
                assert kind == oracles.cover_kind_by_scan(t1, ts[j]), (g, i, j)
                assert (kind is not None) == bool(lat.cover_up[i] >> j & 1)


def test_generic_covers_and_down_rows():
    rnd = random.Random(29)
    for _ in range(200):
        up = random_family_order(rnd)
        reduction = oracles.transitive_reduction(up)
        lat = FiniteLattice(len(up), *oracles.cover_columns(reduction))
        assert lat.up == up
        assert lat.cover_up == reduction
        for i in range(lat.n):
            assert lat.down[i] == sum(1 << j for j in range(lat.n)
                                      if up[j] >> i & 1)
            assert lat.cover_dn[i] == sum(1 << j for j in range(lat.n)
                                          if lat.cover_up[j] >> i & 1)


def test_constructor_rejects_covers_against_the_numbering():
    # (n, sources, targets): cover k is sources[k] -> targets[k]
    for n, cover_from, cover_to in (
            (1, [0], [0]),                    # 0 covers itself
            (2, [0, 1], [1, 1]),              # 1 covers itself
            (2, [0, 1], [1, 0]),              # 0 and 1 cover each other
            (3, [0, 0, 1], [1, 2, 0]),        # 0 covers 1
            (3, [0, 2], [2, 1]),              # the chain 0 < 2 < 1
            (2, [0], [2]),                    # a cover beyond the elements
            (2, [-1, 0], [0, 1]),             # a cover below the elements
            (2, [0, 0], [1, 1]),              # a cover listed twice
            (4, [0, 0, 1, 2], [2, 1, 3, 3]),  # out of order
            (4, [0, 1, 0, 2], [1, 3, 2, 3]),  # sources out of order
            (3, [0, 1], [1]),                 # a source with no target
            (3, [0], [1, 2]),                 # a target with no source
            (1, [], [0])):                    # an empty source column
        with pytest.raises(ValueError):
            FiniteLattice(n, cover_from, cover_to)


def test_constructor_rejects_two_minimal_or_maximal_elements():
    for n, cover_from, cover_to in (
            (0, [], []),
            (2, [], []),                      # two minimal and two maximal
            (3, [0, 1], [2, 2]),              # two minimal
            (3, [0, 0], [1, 2]),              # two maximal
            (4, [0, 1, 2], [2, 3, 3])):
        with pytest.raises(ValueError):
            FiniteLattice(n, cover_from, cover_to)
    lat = FiniteLattice(4, [0, 0, 1, 2], [1, 2, 3, 3])
    assert (lat.bottom, lat.top) == (0, 3)
    one = FiniteLattice(1, [], [])
    assert (one.bottom, one.top) == (0, 0)
    assert one.up == one.down == [1]
    assert one.cover_up == one.cover_dn == [0]


def test_order_rows_are_built_only_when_read():
    g = make_split_graph()
    lat = enumerate_lattice(g)
    lattice_json(lat, properties=True)
    lattice_dot(lat)
    generated_sublattice(lat, minimal_generating_set(g))
    assert "up" not in vars(lat) and "down" not in vars(lat)
    assert lat.up == oracles.all_pairs_order(lat.elements)
    assert "up" in vars(lat) and "down" not in vars(lat)


# -- the five laws -----------------------------------------------------------------


def test_laws_match_oracles_on_census():
    for g in connected_simple_graphs(5):
        lat = enumerate_lattice(g)
        assert laws(lat) == oracle_laws(lat), g


def test_laws_match_oracles_on_sweep():
    for g in sweep_graphs():
        lat = enumerate_lattice(g)
        assert laws(lat) == oracle_laws(lat), g


def test_laws_match_oracles_on_handmade_lattices():
    cases = {
        "N5": (n5(), dict(upper_semimodular=False, lower_semimodular=False,
                          modular=False, distributive=False, atomistic=False)),
        "M3": (m3(), dict(upper_semimodular=True, lower_semimodular=True,
                          modular=True, distributive=False, atomistic=True)),
        "M3x2": (product(m3(), chain(2)),
                 dict(upper_semimodular=True, lower_semimodular=True,
                      modular=True, distributive=False, atomistic=True)),
        "N5x2": (product(n5(), chain(2)),
                 dict(upper_semimodular=False, lower_semimodular=False,
                      modular=False, distributive=False, atomistic=False)),
    }
    for k in range(1, 6):
        cases[f"chain{k}"] = (chain(k), dict(
            upper_semimodular=True, lower_semimodular=True, modular=True,
            distributive=True, atomistic=k <= 2))
    cases["2x2x2"] = (product(product(chain(2), chain(2)), chain(2)), dict(
        upper_semimodular=True, lower_semimodular=True, modular=True,
        distributive=True, atomistic=True))
    for name, (lat, expected) in cases.items():
        assert laws(lat) == expected, name
        assert oracle_laws(lat) == expected, name


def test_laws_match_oracles_on_random_set_families():
    rnd = random.Random(37)
    modular_only = 0
    for _ in range(1500):
        lat = random_family_lattice(rnd)
        got = laws(lat)
        assert got == oracle_laws(lat), lat.up
        assert got["distributive"] == oracles.distributive_by_join_primes(lat)
        modular_only += got["modular"] and not got["distributive"]
    # the draw reaches the case that separates the two laws
    assert modular_only > 0


def test_generated_sublattice_matches_join_closure():
    """Joining with the generators only gives the found x found closure, for
    the minimal generating sets of the census, proper subsets of them, and
    the parallel pair, where the sinks generate only part of the lattice."""
    rnd = random.Random(9)
    cases = []
    for g in connected_simple_graphs(5):
        gens = minimal_generating_set(g)
        cases.append((g, gens))
        for _ in range(2):
            if len(gens) > 1:
                cases.append((g, rnd.sample(gens, rnd.randrange(len(gens)))))
    pair = make_parallel_pair()
    sinks = [WangTriple(pair, pair.vertex_set(v), 0) for v in "lr"]
    cases += [(pair, sinks), (pair, sinks[:1])]
    for g, gens in cases:
        lat = enumerate_lattice(g)
        closure = generated_sublattice(lat, gens)
        expected = oracles.join_closure(lat, element_indices(lat, gens))
        assert closure == [lat.elements[i] for i in expected], (g, gens)
