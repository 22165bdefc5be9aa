import json
import random
from itertools import combinations, permutations

from gislat.cli import main
from gislat.graphs import Digraph
from gislat.census import (acyclic_multigraphs, canonical_form,
                           connected_simple_graphs, outdeg_le1_graphs,
                           simple_graphs)

from oracles import canonical_form_bruteforce


def test_simple_graph_counts():
    # unlabeled DAGs on n vertices: 1, 2, 6, 31, 302 (OEIS A003087)
    assert len(simple_graphs(1)) == 1
    assert len(simple_graphs(2)) == 2
    assert len(simple_graphs(3)) == 6
    assert len(simple_graphs(4)) == 31
    assert len(simple_graphs(5)) == 302


def test_connected_simple_graph_counts():
    # 24 = 31 unlabeled DAGs minus the 7 disconnected ones
    # (1+1+1+1, 2+1+1, 2+2, and four shapes of 3+1); OEIS A082402
    sizes = [len(simple_graphs(n, connected=True)) for n in range(1, 6)]
    assert sizes == [1, 1, 4, 24, 267]
    assert len(connected_simple_graphs(5)) == sum(sizes)


def test_cmd_census_six_vertices(capsys):
    assert main(["census", "6", "--bound", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    counts = [len(group["graphs"]) for group in doc["census"]]
    assert counts == [1, 1, 4, 24, 267, 5647]


def assert_same_classes(graphs):
    """canonical_form and the n! oracle split graphs into the same
    isomorphism classes: their keys pair off one to one."""
    pairs = {(canonical_form(n, edges), canonical_form_bruteforce(n, edges))
             for n, edges in graphs}
    assert len({new for new, _ in pairs}) == len(pairs)
    assert len({brute for _, brute in pairs}) == len(pairs)


def relabellings(family):
    for g in family:
        for perm in permutations(range(g.n)):
            yield g.n, [(perm[s], perm[r]) for s, r in g.edges]


def test_canonical_form_classes_match_oracle_on_labelled_dags():
    # every edge set simple_graphs scans for n <= 5: 1,099 labelled DAGs
    graphs = []
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for pick in range(1 << len(slots)):
            graphs.append((n, [slots[k] for k in range(len(slots))
                               if pick >> k & 1]))
    assert len(graphs) == 1099
    assert_same_classes(graphs)


def test_canonical_form_classes_match_oracle_on_families():
    assert_same_classes(relabellings(acyclic_multigraphs(3, 4)))
    assert_same_classes(relabellings(outdeg_le1_graphs(5)))


def test_census_members_are_simple_and_distinct():
    seen = set()
    for g in connected_simple_graphs(4):
        assert g.is_simple() and g.is_weakly_connected()
        key = canonical_form(g.n, g.edges)
        assert key not in seen
        seen.add(key)


def test_multigraph_family_structure():
    family = acyclic_multigraphs(3, 4)
    seen = set()
    for g in family:
        assert g.is_acyclic() and g.m <= 4 and g.n <= 3
        key = canonical_form(g.n, g.edges)
        assert key not in seen
        seen.add(key)
    # the two-vertex slice is exactly 0..4 parallel edges
    assert sum(1 for g in family if g.n == 2) == 5


def test_multigraph_family_complete():
    family = {canonical_form(g.n, g.edges) for g in acyclic_multigraphs(3, 4)}
    rnd = random.Random(41)
    hits = 0
    while hits < 200:
        n = rnd.randint(1, 3)
        m = rnd.randint(0, 4)
        edges = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(m)]
        g = Digraph([str(i) for i in range(n)], edges)
        if not g.is_acyclic():
            continue
        hits += 1
        assert canonical_form(n, edges) in family


def test_outdeg_le1_family():
    family = outdeg_le1_graphs(5)
    by_n = {}
    seen = set()
    for g in family:
        assert g.is_acyclic()
        assert all(len(es) <= 1 for es in g.out_edges)
        key = canonical_form(g.n, g.edges)
        assert key not in seen
        seen.add(key)
        by_n[g.n] = by_n.get(g.n, 0) + 1
    # unlabeled rooted forests on n nodes (n=1..4 checked by hand)
    assert [by_n[n] for n in range(1, 6)] == [1, 2, 4, 9, 20]


def test_outdeg_le1_family_complete():
    family = {canonical_form(g.n, g.edges) for g in outdeg_le1_graphs(4)}
    rnd = random.Random(43)
    hits = 0
    while hits < 200:
        n = rnd.randint(1, 4)
        edges = []
        for v in range(n):
            choice = rnd.randrange(n + 1)
            if choice < n and choice != v:
                edges.append((v, choice))
        g = Digraph([str(i) for i in range(n)], edges)
        if not g.is_acyclic():
            continue
        hits += 1
        assert canonical_form(n, edges) in family


def test_canonical_form_invariant_under_relabelling():
    rnd = random.Random(47)
    for _ in range(30):
        n = rnd.randint(1, 4)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(0, 5))]
        perm = list(range(n))
        rnd.shuffle(perm)
        relabelled = [(perm[s], perm[r]) for s, r in edges]
        assert canonical_form(n, edges) == canonical_form(n, relabelled)
