"""The oracle's congruence layer against its direct versions in
tests/oracles.py: the closure over generators against the closure over all
translations, the principal congruences read off or closed from closed
translates against one closure per pair (the same pairs in the same
order), the enumeration by join-irreducible joins against the joins with
every principal and the found x found join closure, the closure store's
answers against closing from the diagonal whatever the store holds, and
the helpers it rests on."""

import json
import random
from types import SimpleNamespace

import pytest

from gislat import oracle
from gislat.cli import format_graph, main
from gislat.graphs import CapExceeded, build_graph
from gislat.lattice import join_irreducibles
from gislat.oracle import (associativity_violations, build_semigroup,
                           enumerate_congruences, generated_congruence,
                           join_irreducible_congruences, partition_join,
                           principal_congruences, seed_pairs,
                           verify_isomorphism)

import oracles
from conftest import make_split_graph
from test_acceptance import sweep_graphs


def path(k):
    names = [f"v{i}" for i in range(k)]
    return build_graph(names, list(zip(names, names[1:])))


def all_pairs(n):
    return [(x, y) for x in range(n) for y in range(x + 1, n)]


@pytest.fixture(scope="module")
def sweep():
    """The criterion-02 sweep semigroups, each with the all-translations
    closure of every pair x < y."""
    out = []
    for g in sweep_graphs():
        table = build_semigroup(g)
        cols = [list(col) for col in zip(*table.rows)]
        closures = [oracles.all_translations_closure(table, [pair], cols)
                    for pair in all_pairs(len(table))]
        out.append((table, closures))
    return out


def test_generators_generate(sweep):
    for table, _ in sweep:
        n = len(table)
        products = set(table.generators)
        frontier = list(products)
        while frontier:
            a = frontier.pop()
            for g in table.generators:
                for c in (table.rows[a][g], table.rows[g][a]):
                    if c not in products:
                        products.add(c)
                        frontier.append(c)
        assert products | {0} == set(range(n))


def test_generated_congruence_matches_all_translations(sweep):
    for table, closures in sweep:
        for pair, expected in zip(all_pairs(len(table)), closures):
            assert generated_congruence(table, [pair]) == expected, pair


def test_generated_congruence_several_pairs(sweep):
    rnd = random.Random(4)
    for table, _ in sweep:
        n = len(table)
        cols = [list(col) for col in zip(*table.rows)]
        for _ in range(20):
            pairs = [(rnd.randrange(n), rnd.randrange(n))
                     for _ in range(rnd.randint(0, 3))]
            assert generated_congruence(table, pairs) == \
                oracles.all_translations_closure(table, pairs, cols), pairs


def test_principal_congruences_closed_under_inversion(sweep):
    for table, closures in sweep:
        inv = oracles.inverses(table)
        for (x, y), labels in zip(all_pairs(len(table)), closures):
            assert generated_congruence(table, [(inv[x], inv[y])]) == labels


def test_store_step_from_the_diagonal_is_the_principal_congruence(sweep):
    """Before and after principal_congruences records the congruence of
    every pair in the closure store, its step from the diagonal with a
    pair x < y is Cg(x, y), on the criterion-02 sweep."""
    for table, closures in sweep:
        fresh = build_semigroup(table.graph)
        store = fresh.closures
        for (x, y), labels in zip(all_pairs(len(fresh)), closures):
            assert store.congs[store.step(0, x, y)] == labels
        principal_congruences(fresh)
        assert store.principal is not None
        for (x, y), labels in zip(all_pairs(len(fresh)), closures):
            assert store.congs[store.step(0, y, x)] == labels


def test_principal_congruences_are_all_of_them(sweep):
    for table, closures in sweep:
        principals = principal_congruences(table)
        assert set(principals) == set(closures)
        for labels, pair in principals.items():
            assert generated_congruence(table, [pair]) == labels


def random_multigraph_tables(count, seed, max_size=150):
    """Semigroups of seeded random acyclic multigraphs, parallel edges
    included, with at most max_size elements."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.randint(2, 5)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[s], names[r]) for s in range(n) for r in range(s + 1, n)
                 for _ in range(rnd.choice((0, 0, 1, 2)))]
        try:
            out.append(build_semigroup(build_graph(names, edges), max_size))
        except CapExceeded:
            pass
    return out


def test_translates_generate_smaller_principal_congruences(sweep):
    """The lemma the principal closures rest on: Cg(g x, g y) and
    Cg(x g, y g) refine Cg(x, y)."""
    for table, closures in sweep:
        n = len(table)
        cg = dict(zip(all_pairs(n), closures))
        for (x, y), labels in cg.items():
            for a, b in zip(table.trans[x], table.trans[y]):
                if a != b:
                    assert oracles.refines(cg[min(a, b), max(a, b)],
                                           labels), (x, y)


@pytest.fixture(scope="module")
def tables(sweep):
    """The sweep semigroups, the paths with 5 to 7 vertices and 30 seeded
    random multigraph semigroups, some with over 100 elements."""
    out = [table for table, _ in sweep]
    out += [build_semigroup(path(k)) for k in (5, 6, 7)]
    out += random_multigraph_tables(30, seed=3)
    assert any(not t.graph.is_simple() and len(t) > 100 for t in out)
    return out


def test_principal_congruences_match_one_closure_per_pair(tables):
    """The same congruences, each with the same first pair, in the same
    order: a dict compared with == would ignore the order."""
    for table in tables:
        assert list(principal_congruences(table).items()) == \
            list(oracles.principal_congruences_from_scratch(table).items())


def count_closures(monkeypatch):
    """The list that each closure from a closed congruence, one pair
    merged over the generators, appends its pair to from now on."""
    merge = oracle._merge
    closures = []

    def counting(parent, work, trans=None):
        if trans is not None and len(work) == 1:
            closures.append(work[0])
        merge(parent, work, trans)

    monkeypatch.setattr(oracle, "_merge", counting)
    return closures


@pytest.mark.parametrize("k", [3, 5, 8])
def test_path_closes_each_principal_congruence_once(k, monkeypatch):
    """On a path each closure finds a new principal congruence, since a
    pair ends at the first closed translate whose congruence relates it;
    the 9-vertex path takes 45 closures for its 45 principal
    congruences."""
    closures = count_closures(monkeypatch)
    principals = principal_congruences(build_semigroup(path(k)))
    assert len(closures) == len(principals) == k * (k + 1) // 2


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_enumeration_closes_fewer_times_than_congruences(k, monkeypatch):
    """Once the principal and join-irreducible congruences are known, a
    second search for each closes nothing, and the join closure of
    enumerate_congruences runs fewer closures than there are congruences,
    since a join whose D-mask was met before is read, not closed: the
    5- to 8-vertex paths take 23, 53, 115 and 241 closures for their 32,
    64, 128 and 256 congruences."""
    table = build_semigroup(path(k))
    principals = principal_congruences(table)
    irreducibles = join_irreducible_congruences(table, principals)
    closures = count_closures(monkeypatch)
    assert list(principal_congruences(table).items()) == \
        list(principals.items())
    assert join_irreducible_congruences(table, principals) == irreducibles
    assert closures == []
    congs = enumerate_congruences(table)
    assert len(congs) == 2 ** k
    assert len(closures) < len(congs)


def test_principal_congruences_repeat_on_one_table(tables):
    """Two calls on one table give the same dict in the same order, the
    second, which reads the closure store, after enumerate_congruences and
    realize_triple have filled it further."""
    for table in tables:
        fresh = build_semigroup(table.graph, len(table))
        first = list(principal_congruences(fresh).items())
        enumerate_congruences(fresh)
        for t in oracle.enumerate_lattice(fresh.graph).elements:
            oracle.realize_triple(t, fresh)
        assert list(principal_congruences(fresh).items()) == first


def test_realize_triple_does_not_depend_on_the_store():
    """realize_triple gives generated_congruence of the triple's seed
    pairs, the closure from the diagonal, whatever the table's closure
    store already holds: on a fresh table for each triple, and on one
    table whose store enumerate_congruences filled first.  On the
    criterion-02 sweep, the split graph among them, and the paths with 5
    to 7 vertices."""
    for g in sweep_graphs() + [path(k) for k in (5, 6, 7)]:
        filled = build_semigroup(g)
        enumerate_congruences(filled)
        for t in oracle.enumerate_lattice(g).elements:
            expected = generated_congruence(filled, seed_pairs(t, filled))
            assert oracle.realize_triple(t, build_semigroup(g)) == expected
            assert oracle.realize_triple(t, filled) == expected


def test_enumerate_congruences_matches_joins_with_every_principal(tables):
    for table in tables:
        assert enumerate_congruences(table) == \
            oracles.joins_with_every_principal(table), table.graph


def test_store_keeps_one_root_tuple_per_partition(tables):
    """Once enumerate_congruences and realize_triple have filled it, every
    congruence in a closure store is the root tuple of its partition, entry
    i the least member of i's block, and index names each partition once,
    at its place in congs."""
    for table in tables:
        enumerate_congruences(table)
        for t in oracle.enumerate_lattice(table.graph).elements:
            oracle.realize_triple(t, table)
        store = table.closures
        partitions = set()
        for root in store.congs:
            blocks = {}
            for i, r in enumerate(root):
                blocks.setdefault(r, []).append(i)
            assert all(r == min(block) for r, block in blocks.items())
            partitions.add(frozenset(map(tuple, blocks.values())))
        assert len(partitions) == len(store.index) == len(store.congs)
        assert all(store.congs[c] == root for root, c in store.index.items())


def test_join_irreducible_congruences_are_the_lattice_ones(sweep):
    """The principal congruences kept as join-irreducible are exactly the
    congruences that the join-irreducible triples realize, each with the
    pair principal_congruences gives it."""
    for table, _ in sweep:
        g = table.graph
        principals = principal_congruences(table)
        irreducibles = join_irreducible_congruences(table, principals)
        assert irreducibles.items() <= principals.items()
        lat = oracle.enumerate_lattice(g)
        assert set(irreducibles) == {
            oracle.realize_triple(lat.elements[i], table)
            for i in join_irreducibles(lat)}, g


def test_congruence_cap_counts_the_principals_first(monkeypatch):
    """The distinct principal congruences and the diagonal are congruences
    already found, so a cap below their count trips before any
    join-irreducible is sought."""
    table = build_semigroup(path(5))
    count = len(principal_congruences(table)) + 1

    def no_search(table, principals):
        raise AssertionError("join-irreducibles sought past the cap")

    monkeypatch.setattr(oracle, "CONGRUENCE_CAP", count - 1)
    monkeypatch.setattr(oracle, "join_irreducible_congruences", no_search)
    with pytest.raises(CapExceeded) as info:
        enumerate_congruences(table)
    assert (info.value.what, info.value.size) == ("congruences", count)


@pytest.mark.parametrize("k", range(1, 8))
def test_path_has_one_join_irreducible_congruence_per_vertex(k):
    table = build_semigroup(path(k))
    irreducibles = join_irreducible_congruences(
        table, principal_congruences(table))
    assert len(irreducibles) == k


def test_enumerate_congruences_matches_found_by_found(sweep):
    for table, closures in sweep:
        assert enumerate_congruences(table) == \
            oracles.all_pairs_congruences(table, closures)
    table = build_semigroup(path(5))
    assert len(table) == 56
    congs = enumerate_congruences(table)
    assert len(congs) == 32
    assert congs == oracles.all_pairs_congruences(table)


def random_roots(rnd, n, blocks):
    """A random partition of range(n) into at most blocks blocks, as a root
    tuple."""
    first = {}
    return tuple(first.setdefault(rnd.randrange(blocks), i) for i in range(n))


def test_partition_join_and_meet():
    rnd = random.Random(7)
    for _ in range(500):
        n = rnd.randint(1, 12)
        l1 = random_roots(rnd, n, rnd.randint(1, n))
        l2 = random_roots(rnd, n, rnd.randint(1, n))
        assert partition_join(l1, l2) == oracles.join_partitions(l1, l2)
        meet = oracles.partition_meet(l1, l2)
        assert meet == oracles.join_partitions(meet, meet)  # canonical
        assert all((meet[i] == meet[j]) == (l1[i] == l1[j] and l2[i] == l2[j])
                   for i in range(n) for j in range(n))


def test_associativity_violations_agree_with_all_triples(sweep):
    """Light's test against the loop over all triples on seeded corruptions
    of the criterion-02 semigroups: a violation is listed iff the loop
    finds one, and every triple listed is one the loop finds."""
    rnd = random.Random(47)
    corrupted = 0
    for table, _ in sweep:
        assert associativity_violations(table) == []
        n = len(table)
        for _ in range(20):
            rows = [row[:] for row in table.rows]
            for _ in range(rnd.randint(1, 3)):
                rows[rnd.randrange(n)][rnd.randrange(n)] = rnd.randrange(n)
            got = associativity_violations(
                SimpleNamespace(rows=rows, generators=table.generators))
            expected = oracles.all_triples_violations(rows)
            assert bool(got) == bool(expected), rows
            assert set(got) <= set(expected), rows
            assert got == sorted(got)
            corrupted += bool(expected)
    assert corrupted > 100


def test_associativity_violations_check_unreached_middles():
    """A magma whose one generator reaches nothing new: 0 is the zero, g
    the identity and only generator, and u, v are not reached, with
    uu = v, uv = u and vu = vv = 0.  Every element is then a middle, so the
    list is the full triple loop's; over the generators alone it would be
    empty."""
    zero, g, u, v = range(4)
    rows = [[zero] * 4,
            [zero, g, u, v],
            [zero, u, v, u],
            [zero, v, zero, zero]]
    expected = [(u, u, u), (u, u, v), (u, v, u), (u, v, v)]
    assert oracles.all_triples_violations(rows) == expected
    table = SimpleNamespace(rows=rows, generators=[g])
    assert associativity_violations(table) == expected


@pytest.mark.parametrize("k, size, congruences",
                         [(6, 92, 64), (7, 141, 128)])
def test_verify_isomorphism_longer_paths(k, size, congruences):
    report = verify_isomorphism(path(k))
    assert report.passed, report.failures
    assert report.semigroup_size == size
    assert report.lattice_size == report.congruence_count == congruences


def inject(monkeypatch, lat, what, i, j, hw):
    """Make the calculus's (H, W) join or meet (what) answer the masks hw
    for the elements i <= j, and every other pair as before: in
    triples.join_hw or meet_hw, which lat.join_idx and meet_idx and the
    per-pair reference read, and in column j of triples.join_columns or
    meet_columns run for element i, which the oracle reads."""
    pair = (*lat.masks[i], *lat.masks[j])
    real_hw = getattr(oracle._triples, f"{what}_hw")
    monkeypatch.setattr(
        oracle._triples, f"{what}_hw",
        lambda graph, *hw2: hw if hw2 == pair else real_hw(graph, *hw2))
    real_columns = getattr(oracle._triples, f"{what}_columns")

    def columns(graph, H1, W1, *rest):
        H, W = real_columns(graph, H1, W1, *rest)
        if (H1, W1) == lat.masks[i]:
            bit = 1 << j
            H = [h & ~bit | (hw[0] >> v & 1) << j for v, h in enumerate(H)]
            W = [w & ~bit | (hw[1] >> v & 1) << j for v, w in enumerate(W)]
        return H, W

    monkeypatch.setattr(oracle._triples, f"{what}_columns", columns)


def agrees_with_pairs(lat):
    """The oracle's join and meet failures on lat, checked against the
    per-pair reference."""
    failures = oracle.join_meet_failures(lat)
    assert failures == oracles.join_meet_failures_by_pairs(lat)
    return failures


def test_verify_isomorphism_reports_wrong_joins_and_meets(monkeypatch):
    """One wrong meet and one wrong join in the triple lattice are each
    reported, even when the wrong meet lies below both elements and the
    wrong join above both."""
    real = oracle.enumerate_lattice
    wrong = {}

    def corrupted(graph, cap):
        lat = real(graph, cap)
        for i, j in all_pairs(lat.n):
            meet, join = lat.meet_idx(i, j), lat.join_idx(i, j)
            if meet not in (i, j, lat.bottom) and join != lat.top:
                inject(monkeypatch, lat, "meet", i, j, lat.masks[lat.bottom])
                inject(monkeypatch, lat, "join", i, j, lat.masks[lat.top])
                wrong["pair"] = lat.elements[i], lat.elements[j]
                wrong["lat"] = lat
                return lat
        raise AssertionError("no pair to corrupt")

    monkeypatch.setattr(oracle, "enumerate_lattice", corrupted)
    report = verify_isomorphism(path(4))
    a, b = wrong["pair"]
    assert not report.passed
    assert report.failures == [f"join mismatch at {a!r}, {b!r}",
                               f"meet mismatch at {a!r}, {b!r}"]
    assert agrees_with_pairs(wrong["lat"]) == report.failures


def test_verify_isomorphism_reports_join_outside_the_lattice(
        monkeypatch, tmp_path, capsys):
    """A calculus join whose (H, W) is no element of the lattice is one
    join mismatch naming the pair, and `gislat oracle` reports it as a FAIL
    with exit 1, not as an input error.  Here the wrong masks put the
    true join's union all in W, so the lookup by union finds the true
    join, which must still not count."""
    g = make_split_graph()
    lat = oracle.enumerate_lattice(g)
    a, b = lat.elements[1], lat.elements[2]
    H, W = lat.masks[lat.join_idx(1, 2)]
    assert H  # so (0, H | W) is other masks with the same union
    inject(monkeypatch, lat, "join", 1, 2, (0, H | W))
    report = verify_isomorphism(g)
    assert report.failures == [f"join mismatch at {a!r}, {b!r}"]
    assert agrees_with_pairs(lat) == report.failures

    graph_file = tmp_path / "split.graph"
    graph_file.write_text(format_graph(g))
    assert main(["oracle", str(graph_file), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "FAIL"
    assert doc["failures"] == [f"join mismatch at {a!r}, {b!r}"]


def test_verify_isomorphism_reports_join_with_no_such_union(monkeypatch):
    """A calculus join whose union no element has, here {b} (b has two
    out-edges, so it is neither in W nor hereditary), is one join
    mismatch naming the pair."""
    g = make_split_graph()
    lat = oracle.enumerate_lattice(g)
    b_only = g.vertex_set("b")
    assert b_only not in lat.by_union
    inject(monkeypatch, lat, "join", 1, 2, (0, b_only))
    report = verify_isomorphism(g)
    a, b = lat.elements[1], lat.elements[2]
    assert report.failures == [f"join mismatch at {a!r}, {b!r}"]
    assert agrees_with_pairs(lat) == report.failures


def serve(monkeypatch, lat):
    """Make verify_isomorphism read the lattice lat, whatever was injected
    into it."""
    monkeypatch.setattr(oracle, "enumerate_lattice", lambda graph, cap: lat)


def test_seed_pair_order_is_the_refinement_order(monkeypatch):
    """The order verify_isomorphism reads off seed pairs is the refinement
    order of the realized congruences: with the lattice's up and down rows
    replaced by oracles.refines on those congruences, no ordered pair
    mismatches, on the criterion-02 sweep and on the paths with 5 to 7
    vertices."""
    real = oracle.enumerate_lattice  # serve replaces it
    for g in sweep_graphs() + [path(k) for k in (5, 6, 7)]:
        table = build_semigroup(g)
        lat = real(g)
        realized = [oracle.realize_triple(t, table) for t in lat.elements]
        lat.up = [sum(1 << b for b, q in enumerate(realized)
                      if oracles.refines(p, q)) for p in realized]
        lat.down = [sum(1 << a for a, p in enumerate(realized)
                        if oracles.refines(p, q)) for q in realized]
        serve(monkeypatch, lat)
        report = verify_isomorphism(g, table=table)
        assert report.failures == [], g


def test_verify_isomorphism_reports_a_dropped_cover(monkeypatch):
    """A lattice that lists every cover of the split graph's but the one
    from ({b,c,d}, {}, ∅) to the top no longer orders that pair: one order
    mismatch.  The join of ({b,c,d}, {}, ∅) with each element not below it
    is then a join mismatch, as is each other pair whose join it is, both
    of them still below the top, and its meet with the top is a meet
    mismatch."""
    g = make_split_graph()
    lat = oracle.enumerate_lattice(g)
    assert (lat.cover_from[-1], lat.cover_to[-1]) == (12, 13)
    lat.cover_from = lat.cover_from[:-1]
    lat.cover_to = lat.cover_to[:-1]
    serve(monkeypatch, lat)
    report = verify_isomorphism(g)
    bcd, top = "({b,c,d}, {}, ∅)", "({a,b,c,d}, {}, ∅)"
    joins = [("({}, {a}, ∅)", bcd),
             ("({c}, {}, ∅)", "({d}, {b}, ∅)"),
             ("({d}, {}, ∅)", "({c}, {b}, ∅)"),
             ("({c}, {a}, ∅)", bcd),
             ("({c}, {b}, ∅)", "({d}, {b}, ∅)"),
             ("({c}, {b}, ∅)", "({c,d}, {}, ∅)"),
             ("({d}, {a}, ∅)", bcd),
             ("({d}, {b}, ∅)", "({c,d}, {}, ∅)"),
             ("({c}, {a,b}, ∅)", bcd),
             ("({d}, {a,b}, ∅)", bcd),
             ("({c,d}, {a}, ∅)", bcd),
             (bcd, top)]
    assert report.failures == (
        [f"order mismatch at {bcd} vs {top}: triple False, congruence True"]
        + [f"join mismatch at {a}, {b}" for a, b in joins]
        + [f"meet mismatch at {bcd}, {top}"])


@pytest.fixture
def split_lattice():
    """The split graph's triple lattice and the block count of the
    congruence each element realizes.  Unlike a path's, it has incomparable
    elements whose congruences have as many blocks."""
    g = make_split_graph()
    table = build_semigroup(g)
    lat = oracle.enumerate_lattice(g)
    blocks = [len(set(oracle.realize_triple(t, table))) for t in lat.elements]
    return g, lat, blocks


@pytest.mark.parametrize("upward", [True, False])
def test_verify_isomorphism_reports_one_flipped_order_pair(monkeypatch,
                                                           split_lattice,
                                                           upward):
    """Flipping the bit of j in the lattice's up row of i, for the first
    comparable pair i < j, the bottom and the atom ({}, {a}, ∅), or the
    other way round, gives the order mismatch at that pair.  Upward, the
    join of the two reads the flipped row and mismatches too.  Downward,
    the flipped bit is the bottom's, which lies in no other up row, so
    only the atom's row ANDed with the bottom's, all ones, could show it:
    no join mismatches."""
    g, lat, _ = split_lattice
    i, j = next((i, j) for i, j in all_pairs(lat.n) if lat.leq_idx(i, j))
    assert (i, j) == (lat.bottom, 1)
    a, b = lat.elements[i], lat.elements[j]
    joins = [f"join mismatch at {a!r}, {b!r}"] if upward else []
    if not upward:
        i, j, a, b = j, i, b, a
    lat.up = list(lat.up)
    lat.up[i] ^= 1 << j
    serve(monkeypatch, lat)
    report = verify_isomorphism(g)
    assert report.failures == [f"order mismatch at {a!r} vs {b!r}: "
                               f"triple {not upward}, congruence {upward}",
                               *joins]


def test_verify_isomorphism_reports_join_not_above_both(monkeypatch,
                                                        split_lattice):
    """A wrong join with the true join's block count that does not lie
    above both elements is reported as one join mismatch."""
    g, lat, blocks = split_lattice
    i, j, k = next(
        (i, j, k) for i, j in all_pairs(lat.n) for k in range(lat.n)
        if k != lat.join_idx(i, j) and blocks[k] == blocks[lat.join_idx(i, j)]
        and not (lat.leq_idx(i, k) and lat.leq_idx(j, k)))
    inject(monkeypatch, lat, "join", i, j, lat.masks[k])
    serve(monkeypatch, lat)
    report = verify_isomorphism(g)
    a, b = lat.elements[i], lat.elements[j]
    assert report.failures == [f"join mismatch at {a!r}, {b!r}"]
    assert agrees_with_pairs(lat) == report.failures


def test_verify_isomorphism_reports_meet_not_below_both(monkeypatch,
                                                        split_lattice):
    """A wrong meet with the true meet's block count that does not lie
    below both elements is reported as one meet mismatch."""
    g, lat, blocks = split_lattice
    i, j, k = next(
        (i, j, k) for i, j in all_pairs(lat.n) for k in range(lat.n)
        if k != lat.meet_idx(i, j) and blocks[k] == blocks[lat.meet_idx(i, j)]
        and not (lat.leq_idx(k, i) and lat.leq_idx(k, j)))
    inject(monkeypatch, lat, "meet", i, j, lat.masks[k])
    serve(monkeypatch, lat)
    report = verify_isomorphism(g)
    a, b = lat.elements[i], lat.elements[j]
    assert report.failures == [f"meet mismatch at {a!r}, {b!r}"]
    assert agrees_with_pairs(lat) == report.failures


def test_verify_isomorphism_reports_join_and_meet_not_bounds(monkeypatch,
                                                             split_lattice):
    """Answering one of two incomparable elements i, j as both their join
    and their meet gives a join below every common upper bound and a meet
    above every common lower bound.  Yet up[i] holds i, which up[j] lacks,
    so it is not up[i] & up[j], and likewise down[i] is not
    down[i] & down[j]: one join and one meet mismatch."""
    g, lat, _ = split_lattice
    i, j = next((i, j) for i, j in all_pairs(lat.n)
                if not (lat.leq_idx(i, j) or lat.leq_idx(j, i)))
    inject(monkeypatch, lat, "join", i, j, lat.masks[i])
    inject(monkeypatch, lat, "meet", i, j, lat.masks[i])
    serve(monkeypatch, lat)
    report = verify_isomorphism(g)
    a, b = lat.elements[i], lat.elements[j]
    assert report.failures == [f"join mismatch at {a!r}, {b!r}",
                               f"meet mismatch at {a!r}, {b!r}"]
    assert agrees_with_pairs(lat) == report.failures


def test_verify_isomorphism_reports_two_triples_on_one_congruence(
        monkeypatch, split_lattice):
    """A non-bottom triple realizing the diagonal shares it with the bottom,
    and its own congruence is then realized by no triple."""
    g, lat, _ = split_lattice
    top = lat.elements[lat.top]
    real = oracle.realize_triple
    monkeypatch.setattr(
        oracle, "realize_triple",
        lambda t, table: tuple(range(len(table))) if t == top else real(t, table))
    report = verify_isomorphism(g)
    assert not report.passed
    assert (f"triples {lat.elements[lat.bottom]!r} and {top!r} realize the "
            f"same congruence") in report.failures
    assert "1 congruences not realized by any triple" in report.failures
    assert not any("not congruences" in f for f in report.failures)


def test_verify_isomorphism_reports_partitions_that_are_not_congruences(
        monkeypatch):
    """A congruence missing from the enumeration leaves the triple that
    realizes it with a partition that is not on the list."""
    real = oracle.enumerate_congruences
    monkeypatch.setattr(oracle, "enumerate_congruences",
                        lambda *args: real(*args)[:-1])
    report = verify_isomorphism(make_split_graph())
    assert not report.passed
    assert "1 realized partitions are not congruences" in report.failures
    assert not any("realize the same" in f or "not realized" in f
                   for f in report.failures)
