"""The oracle's all-pairs passes on whole rows and vertex columns against
their per-pair forms: the table written from its nonzero products against
multiply, the join and meet columns against join_hw and meet_hw, the
isomorphism check's join and meet pass against the loop over pairs in
tests/oracles.py, and the order read off unions against the order rows.
Also the triples that atoms and minimal_generating_set build unchecked
against the public constructor."""

import random

from gislat import oracle, triples
from gislat.census import acyclic_multigraphs, connected_simple_graphs
from gislat.graphs import Digraph, build_graph
from gislat.lattice import enumerate_lattice, minimal_generating_set
from gislat.oracle import (associativity_violations, build_semigroup,
                           verify_isomorphism)
from gislat.triples import WangTriple, atoms

import oracles
from conftest import make_split_graph
from test_acceptance import sweep_graphs
from test_congruence_closure import random_multigraph_tables


def path(k):
    names = [f"v{i}" for i in range(k)]
    return build_graph(names, list(zip(names, names[1:])))


def column(cols, j):
    """The vertex set that bit j of the vertex columns cols holds."""
    return sum(1 << v for v, col in enumerate(cols) if col >> j & 1)


def test_join_and_meet_columns_match_the_per_pair_core():
    """Column j of the join and of the meet that join_meet_columns gives,
    run for element i, is join_hw and meet_hw of elements i and j, on
    every ordered pair of the lattices of acyclic_multigraphs(4, 5), the
    connected census graphs up to 5 vertices and the criterion-02
    sweep."""
    pairs = 0
    for g in (acyclic_multigraphs(4, 5) + connected_simple_graphs(5)
              + sweep_graphs()):
        lat = enumerate_lattice(g)
        HC, WC = oracle._columns(g.n, lat.masks,
                                 [1 << j for j in range(lat.n)])
        ones = (1 << lat.n) - 1
        for H1, W1 in lat.masks:
            joins, meets = triples.join_meet_columns(g, H1, W1, HC, WC, ones)
            for j, (H2, W2) in enumerate(lat.masks):
                assert (column(joins[0], j), column(joins[1], j)) == \
                    triples.join_hw(g, H1, W1, H2, W2), (g, H1, W1, H2, W2)
                assert (column(meets[0], j), column(meets[1], j)) == \
                    triples.meet_hw(g, H1, W1, H2, W2), (g, H1, W1, H2, W2)
                pairs += 1
    assert pairs == 118_909


def test_product_rows_match_multiply():
    """The table written from its nonzero products is the one multiply
    gives product by product, on the criterion-02 sweep, the paths with 1
    to 8 vertices and 40 seeded random multigraphs."""
    tables = ([build_semigroup(g) for g in sweep_graphs()]
              + [build_semigroup(path(k)) for k in range(1, 9)]
              + random_multigraph_tables(40, seed=11))
    for table in tables:
        assert table.rows == oracles.rows_by_multiply(table), table.graph


def test_empty_graph_has_a_one_element_table():
    """With no vertex the semigroup is the zero alone; Light's test, whose
    row maps need two elements, finds it associative, and the check
    passes on the one congruence and the one triple."""
    g = Digraph([], [])
    table = build_semigroup(g)
    assert len(table) == 1 and table.rows == [[0]]
    assert associativity_violations(table) == []
    report = verify_isomorphism(g, table)
    assert report.passed, report.failures
    assert report.lattice_size == report.congruence_count == 1


def test_join_meet_pass_matches_pairs_on_the_sweep():
    """No join or meet fails on the criterion-02 sweep, in columns or pair
    by pair."""
    for g in sweep_graphs():
        lat = enumerate_lattice(g)
        assert oracle.join_meet_failures(lat) == \
            oracles.join_meet_failures_by_pairs(lat) == [], g


def corrupted_lattices():
    """The split graph's lattice with the order corrupted as the
    isomorphism tests corrupt it: the last cover dropped, and the first
    comparable pair's order bit flipped in the up row of either element."""
    g = make_split_graph()
    dropped = enumerate_lattice(g)
    dropped.cover_from = dropped.cover_from[:-1]
    dropped.cover_to = dropped.cover_to[:-1]
    out = [dropped]
    for i, j in ((0, 1), (1, 0)):
        lat = enumerate_lattice(g)
        lat.up = list(lat.up)
        lat.up[i] ^= 1 << j
        out.append(lat)
    return out


def test_join_meet_pass_matches_pairs_on_corrupted_orders():
    """On each corrupted order the pass in columns reports what the loop
    over pairs reports, in the same order; each one reports something but
    the downward flip, whose flipped bit no join reads."""
    counts = []
    for lat in corrupted_lattices():
        failures = oracle.join_meet_failures(lat)
        assert failures == oracles.join_meet_failures_by_pairs(lat)
        counts.append(len(failures))
    assert counts == [13, 1, 0]


def test_bound_is_sought_among_other_members():
    """Rows that are not closed along a linear extension: with the
    bottom's bit added to the up row of an atom, the AND of the two rows
    has the bottom as its lowest member, yet the atom's row is the one
    equal to it, and the pair's join is found there by its row, as the
    loop over pairs finds it."""
    lat = enumerate_lattice(make_split_graph())
    lat.up = list(lat.up)
    lat.up[1] |= 1
    assert lat.up[0] & lat.up[1] == lat.up[1] != lat.up[0]
    assert oracle.join_meet_failures(lat) == \
        oracles.join_meet_failures_by_pairs(lat) == []


def test_a_repeated_row_names_its_lowest_element():
    """A corrupted order that gives an atom the bottom's up row: that row
    names the bottom, the lowest element with it, so the atom's join with
    the bottom and with itself mismatch.  The loop over pairs, which takes
    any element with the row, reports only the other failures."""
    lat = enumerate_lattice(make_split_graph())
    lat.up = list(lat.up)
    lat.up[1] = lat.up[0]
    failures = oracle.join_meet_failures(lat)
    bottom, atom = lat.elements[:2]
    assert failures[:2] == [f"join mismatch at {bottom!r}, {atom!r}",
                            f"join mismatch at {atom!r}, {atom!r}"]
    assert failures[2:] == oracles.join_meet_failures_by_pairs(lat) != []


def test_leq_idx_reads_unions():
    """The order read as inclusion of unions is the order rows closed
    from the covers, on all pairs of the connected census graphs up to 5
    vertices and the criterion-02 sweep."""
    for g in connected_simple_graphs(5) + sweep_graphs():
        lat = enumerate_lattice(g)
        for i in range(lat.n):
            assert [lat.leq_idx(i, j) for j in range(lat.n)] == \
                [bool(lat.up[i] >> j & 1) for j in range(lat.n)], g


def seeded_cyclic_multigraphs(count, seed):
    """Random multigraphs on 1 to 5 vertices with a cycle, loops and
    parallel edges included."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.randint(1, 5)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(1, 7))]
        g = Digraph([f"v{i}" for i in range(n)], edges)
        if not g.is_acyclic():
            out.append(g)
    return out


def test_unchecked_triples_pass_the_public_constructor():
    """Every triple atoms and minimal_generating_set build unchecked is
    one the validating constructor accepts and equals, with its hash, on
    acyclic_multigraphs(4, 5), the connected census graphs up to 5
    vertices and 60 seeded cyclic multigraphs; minimal_generating_set
    takes the simple graphs only."""
    seen = 0
    for g in (acyclic_multigraphs(4, 5) + connected_simple_graphs(5)
              + seeded_cyclic_multigraphs(60, seed=5)):
        built = atoms(g)
        if g.is_simple():
            built += minimal_generating_set(g)
        for t in built:
            checked = WangTriple(g, t.H, t.W, t.f)
            assert checked == t and hash(checked) == hash(t), (g, t)
            seen += 1
    assert seen > 1000


def test_is_acyclic_is_scanned_once_and_kept():
    for edges, acyclic in (([(0, 1), (1, 0)], False), ([(0, 1)], True)):
        g = Digraph("ab", edges)
        assert g._acyclic is None
        assert g.is_acyclic() is acyclic and g._acyclic is acyclic
