"""Brute-force lattice and congruence code kept as test oracles.

The library builds the congruence lattice from its one-vertex covers and
decides the lattice laws on covers alone.  These are the direct versions
they replaced: the all-pairs order, the transitive reduction, the laws
checked over all pairs or triples of elements, atomisticity by closing the
atoms under joins, the pentagon and diamond sublattice finders, and the
join closure of generating sets over all pairs found.  The semigroup
oracle's congruence closure and enumeration have their direct versions at
the end, with the table built by multiply product by product, which
writing only the nonzero products replaced, the isomorphism check's join
and meet pass over pairs, which the pass in vertex columns replaced, the
partition meet and refinement test that the isomorphism check no longer
needs, the associativity check over all triples that
Light's test replaced, and the enumeration by joins with every principal
congruence that joins with the join-irreducibles replaced.  Then comes the
census canonical form over all n! vertex permutations, which colour
refinement replaced, the atomistic graph predicate over the cycle list,
which reachability replaced, and the out-edge counts taken edge by edge,
which the range masks Digraph.succ and Digraph.once replaced: the
surviving out-degree out_degree_minus, the forked vertices
forked_by_edges, and the calculus's dead-end and J steps.  Then come the
triple order and cover shapes over every cycle of the graph, which reading
the stored cycle values replaced; the H-growing cover shape there also
walks every hereditary set between H1 and H2, the interval enumeration
the library dropped for a closure on H2 \\ H1 and kept only here as the
reference.  Last come the lattice's JSON document built as a dict and
its DOT, rendered from its triples, which writing the text from the
(H, W) masks and the cover columns replaced.
They are slow and only serve as ground truth.  The join and meet read off
the order rows up and down, row_join and row_meet, live here too: the
library has joins and meets on ConLattice only, from the calculus's
(H, W) core, so these serve the hand-made FiniteLattice fixtures and
cross-check the calculus.  So does the index of the triple that
triples.join or triples.meet builds, looked up in a dict from each element
triple to its index, the path ConLattice took before it ran the core on
masks.  The library answers every join and meet
afresh, so the oracles that repeat pairs share one memo per lattice.
"""

from functools import cache, partial
from itertools import groupby, permutations

from gislat.cli import (JSON_FORMAT, dot_escape, graph_json,
                        lattice_properties, triple_json)
from gislat.graphs import bits, mask_of
from gislat.lattice import FiniteLattice
from gislat.oracle import (generated_congruence, inverse, multiply,
                           partition_join, principal_congruences)
from gislat import triples
from gislat.triples import INF, divides, is_prime


def all_pairs_order(elements):
    """Up rows of the H/W order on acyclic triples, comparing every pair:
    t1 <= t2 iff H1 is inside H2 and W1 \\ H2 inside W2."""
    hw = [(t.H, t.W) for t in elements]
    up = []
    for h1, w1 in hw:
        row = 0
        for j, (h2, w2) in enumerate(hw):
            if h1 & ~h2 == 0 and (w1 & ~h2) & ~w2 == 0:
                row |= 1 << j
        up.append(row)
    return up


def transitive_reduction(up):
    """Cover rows of an order given by up rows: j covers i iff nothing lies
    strictly between them."""
    n = len(up)
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    cover_up = [0] * n
    for i in range(n):
        for j in bits(up[i] & ~(1 << i)):
            if up[i] & down[j] & ~(1 << i) & ~(1 << j) == 0:
                cover_up[i] |= 1 << j
    return cover_up


def cover_pairs(cover_up):
    """The covers [i, j] of cover rows, such as transitive_reduction's, in
    order of i and then j: the form the JSON document lists."""
    return [[i, j] for i, row in enumerate(cover_up) for j in bits(row)]


def cover_columns(cover_up):
    """cover_pairs as the two columns FiniteLattice takes: the sources and
    the targets."""
    pairs = cover_pairs(cover_up)
    return [i for i, _ in pairs], [j for _, j in pairs]


def _bound(common, rows) -> int:
    """The least element of common when rows are up rows, the greatest
    when they are down rows."""
    for k in bits(common):
        if common & ~rows[k] == 0:
            return k
    raise ValueError("bound is not unique; not a lattice")


def row_join(lat: FiniteLattice, i, j) -> int:
    """The join of i and j, the least element above both."""
    return _bound(lat.up[i] & lat.up[j], lat.up)


def row_meet(lat: FiniteLattice, i, j) -> int:
    """The meet of i and j, the greatest element below both."""
    return _bound(lat.down[i] & lat.down[j], lat.down)


def triple_index(lat):
    """Each element triple of a ConLattice to its index, kept on the lattice."""
    if "oracle_index" not in vars(lat):
        lat.oracle_index = {t: i for i, t in enumerate(lat.elements)}
    return lat.oracle_index


def join_idx_by_triples(lat, i, j) -> int:
    """Test oracle for ConLattice.join_idx: the index of the triple that
    triples.join builds from the two elements' triples."""
    return triple_index(lat)[triples.join(lat.elements[i], lat.elements[j])]


def meet_idx_by_triples(lat, i, j) -> int:
    """Test oracle for ConLattice.meet_idx, through triples.meet."""
    return triple_index(lat)[triples.meet(lat.elements[i], lat.elements[j])]


def memoised(lat: FiniteLattice):
    """lat's join and meet, each ordered pair computed once however many
    oracles ask: the memo is kept on the lattice.  A ConLattice answers
    through the triple calculus, any other lattice through its order rows."""
    if "oracle_memo" not in vars(lat):
        join = getattr(lat, "join_idx", partial(row_join, lat))
        meet = getattr(lat, "meet_idx", partial(row_meet, lat))
        lat.oracle_memo = cache(join), cache(meet)
    return lat.oracle_memo


def is_cover(lat: FiniteLattice, i, j) -> bool:
    return bool(lat.cover_up[i] >> j & 1)


def upper_semimodular(lat: FiniteLattice) -> bool:
    """Over all pairs: whenever a ^ b is covered by a and b, a v b covers both."""
    join, meet = memoised(lat)
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            m = meet(a, b)
            if is_cover(lat, m, a) and is_cover(lat, m, b):
                j = join(a, b)
                if not (is_cover(lat, a, j) and is_cover(lat, b, j)):
                    return False
    return True


def lower_semimodular(lat: FiniteLattice) -> bool:
    """Over all pairs: whenever a v b covers a and b, both cover a ^ b."""
    join, meet = memoised(lat)
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            j = join(a, b)
            if is_cover(lat, a, j) and is_cover(lat, b, j):
                m = meet(a, b)
                if not (is_cover(lat, m, a) and is_cover(lat, m, b)):
                    return False
    return True


def modular(lat: FiniteLattice) -> bool:
    """The modular law over all triples: a <= c forces (a v b) ^ c = a v (b ^ c)."""
    join, meet = memoised(lat)
    for a in range(lat.n):
        for c in bits(lat.up[a]):
            for b in range(lat.n):
                if meet(join(a, b), c) != join(a, meet(b, c)):
                    return False
    return True


def distributive(lat: FiniteLattice) -> bool:
    """Both distributive laws over all triples."""
    join, meet = memoised(lat)
    for a in range(lat.n):
        for b in range(lat.n):
            ab_meet = meet(a, b)
            ab_join = join(a, b)
            for c in range(lat.n):
                if meet(a, join(b, c)) != join(ab_meet, meet(a, c)):
                    return False
                if join(a, meet(b, c)) != meet(ab_join, join(a, c)):
                    return False
    return True


def atomistic(lat: FiniteLattice) -> bool:
    """Close the atoms and the bottom under joins; is that everything?"""
    join, _ = memoised(lat)
    closed = {lat.bottom}
    frontier = list(bits(lat.cover_up[lat.bottom]))
    closed.update(frontier)
    while frontier:
        a = frontier.pop()
        for b in list(closed):
            j = join(a, b)
            if j not in closed:
                closed.add(j)
                frontier.append(j)
    return len(closed) == lat.n


def distributive_by_join_primes(lat: FiniteLattice) -> bool:
    """Distributivity over all pairs, for lattices too large for the cubic
    check: x -> {join-irreducibles below x} is injective and turns meets
    into intersections, so the lattice is distributive iff it also turns
    joins into unions, embedding the lattice in a power set."""
    irreducible = sum(1 << i for i in range(lat.n)
                      if lat.cover_dn[i].bit_count() == 1)
    below = [row & irreducible for row in lat.down]
    return all(below[row_join(lat, a, b)] == below[a] | below[b]
               for a in range(lat.n) for b in range(a + 1, lat.n))


def find_pentagon(lat: FiniteLattice):
    """Test oracle: a 5-element pentagon sublattice as indices
    (0, a, b, c, 1) with 0 < a < b < 1 and 0 < c < 1, or None, by a cubic
    scan.  Exists iff the lattice is not modular."""
    join, meet = memoised(lat)
    for x in range(lat.n):
        for z in bits(lat.up[x] & ~(1 << x)):
            for y in range(lat.n):
                a = join(x, meet(y, z))
                b = meet(join(x, y), z)
                if a == b:
                    continue
                bot = meet(a, y)
                top = join(b, y)
                five = {bot, a, b, y, top}
                if len(five) == 5 and meet(b, y) == bot \
                        and join(a, y) == top and lat.leq_idx(a, b):
                    return (bot, a, b, y, top)
    return None


def find_diamond(lat: FiniteLattice):
    """Test oracle: a 5-element diamond sublattice as indices
    (bottom, x, y, z, top), or None, by a cubic scan.  A modular lattice
    without one is distributive."""
    join, meet = memoised(lat)
    for x in range(lat.n):
        for y in range(x + 1, lat.n):
            if lat.leq_idx(x, y) or lat.leq_idx(y, x):
                continue
            top = join(x, y)
            bot = meet(x, y)
            for z in range(y + 1, lat.n):
                if join(x, z) == top == join(y, z) \
                        and meet(x, z) == bot == meet(y, z) \
                        and z != top and z != bot:
                    return (bot, x, y, z, top)
    return None


def join_closure(lat: FiniteLattice, idxs):
    """Join closure of the given element indices and the bottom, joining
    every new element with everything found so far."""
    join, _ = memoised(lat)
    closed = set(idxs) | {lat.bottom}
    frontier = list(closed)
    while frontier:
        a = frontier.pop()
        for b in list(closed):
            j = join(a, b)
            if j not in closed:
                closed.add(j)
                frontier.append(j)
    return sorted(closed)


ORACLES = {
    "upper_semimodular": upper_semimodular,
    "lower_semimodular": lower_semimodular,
    "modular": modular,
    "distributive": distributive,
    "atomistic": atomistic,
}


# -- congruence oracles ---------------------------------------------------------
#
# The library writes only the nonzero products of its table, checks joins
# and meets in vertex columns, closes a congruence under translations by the
# generators only, joins only with join-irreducible congruences, and closes
# each principal congruence from an already-closed translate.  These are the
# direct versions.


def rows_by_multiply(table):
    """Test oracle for MulTable.rows: every product of the table's
    elements by multiply, the axiom-level rule, looked up in its index."""
    idx, graph, elements = table.index, table.graph, table.elements
    return [[idx[multiply(graph, x, y)] for y in elements] for x in elements]


def join_meet_failures_by_pairs(lat):
    """Test oracle for oracle.join_meet_failures: for each pair i <= j,
    the calculus's join and meet, found by join_idx and meet_idx, must
    have the AND of the two elements' up rows, or down rows, as its own
    row; a result that leaves the element list fails too."""
    failures = []
    checks = (("join", lat.join_idx, lat.up), ("meet", lat.meet_idx, lat.down))
    for i in range(lat.n):
        for j in range(i, lat.n):
            for what, find, rows in checks:
                try:
                    found = rows[find(i, j)] == rows[i] & rows[j]
                except ValueError:  # the calculus left the element list
                    found = False
                if not found:
                    failures.append(f"{what} mismatch at {lat.elements[i]!r}, "
                                    f"{lat.elements[j]!r}")
    return failures


def all_triples_violations(rows):
    """Test oracle: every triple (x, y, z) of a multiplication table with
    (xy)z != x(yz), in lexicographic order."""
    n = len(rows)
    return [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
            if rows[rows[x][y]][z] != rows[x][rows[y][z]]]


def all_translations_closure(table, pairs, cols=None):
    """Test oracle: the least congruence containing the pairs, closing each
    merge of two classes under left and right translation by every element
    of the semigroup, as a root tuple.  cols, the transposed table, may be
    passed in."""
    rows = table.rows
    if cols is None:
        cols = [list(col) for col in zip(*rows)]
    parent = list(range(len(table)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    work = list(pairs)
    while work:
        a, b = work.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        parent[max(a, b)] = min(a, b)
        work.extend((x, y) for x, y in zip(cols[a], cols[b]) if x != y)
        work.extend((x, y) for x, y in zip(rows[a], rows[b]) if x != y)
    return tuple(find(i) for i in range(len(table)))


def inverses(table):
    """The index of each element's inverse x*."""
    return [table.index[inverse(x)] for x in table.elements]


def principal_congruences_from_scratch(table):
    """Test oracle: the distinct principal congruences, each mapped to the
    first pair x < y that generates it, closing every pair from the
    diagonal.  A pair is skipped when the sorted pair (x*, y*) comes first,
    since Cg(x*, y*) = Cg(x, y) and the earlier pair stands for both."""
    n = len(table)
    inv = inverses(table)
    out = {}
    for x in range(n):
        for y in range(x + 1, n):
            if tuple(sorted((inv[x], inv[y]))) < (x, y):
                continue
            out.setdefault(generated_congruence(table, [(x, y)]), (x, y))
    return out


def join_partitions(l1, l2):
    """Test oracle: the least partition above two partitions, given by any
    labels, as a root tuple: each element gets the least index of its class
    by relaxing over the blocks of both until nothing changes."""
    least = list(range(len(l1)))
    changed = True
    while changed:
        changed = False
        for labels in (l1, l2):
            low = {}
            for i, block in enumerate(labels):
                if least[i] < low.get(block, least[i] + 1):
                    low[block] = least[i]
            for i, block in enumerate(labels):
                if least[i] != low[block]:
                    least[i] = low[block]
                    changed = True
    return tuple(least)


def partition_meet(l1, l2):
    """Test oracle: the common refinement of two partitions, given by any
    labels, as a root tuple: each element maps to the first element with
    its pair of labels."""
    first = {}
    return tuple(first.setdefault(pair, i)
                 for i, pair in enumerate(zip(l1, l2)))


def refines(l1, l2) -> bool:
    """Test oracle: does every block of l1 sit inside a block of l2
    (i.e. l1 <= l2)?"""
    image = {}
    for a, b in zip(l1, l2):
        if image.setdefault(a, b) != b:
            return False
    return True


def all_pairs_congruences(table, principals=None):
    """Test oracle: every congruence, sorted, as the diagonal and the
    principal congruence of every pair x < y under the all-translations
    closure, closed under joining any two congruences found so far.
    principals, those closures, may be passed in."""
    n = len(table)
    if principals is None:
        cols = [list(col) for col in zip(*table.rows)]
        principals = [all_translations_closure(table, [(x, y)], cols)
                      for x in range(n) for y in range(x + 1, n)]
    found = {tuple(range(n))}
    found.update(principals)
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for q in list(found):
            j = join_partitions(p, q)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found)


def joins_with_every_principal(table):
    """Test oracle: every congruence, sorted, as the diagonal and the
    principal congruences closed under joining with any principal
    congruence, skipping a join with Cg(x, y) when x and y already share a
    block: the enumeration that joining with the join-irreducibles
    replaced."""
    principals = principal_congruences(table)
    found = {tuple(range(len(table)))}
    found.update(principals)
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for q, (x, y) in principals.items():
            if p[x] != p[y]:
                j = partition_join(p, q)
                if j not in found:
                    found.add(j)
                    frontier.append(j)
    return sorted(found)


def canonical_form_bruteforce(n, edges):
    """Test oracle: least (n, sorted relabelled edges) over all n! vertex
    permutations, kept only to check census.canonical_form against."""
    edges = list(edges)
    return (n, min(tuple(sorted((perm[s], perm[r]) for s, r in edges))
                   for perm in permutations(range(n))))


def atomistic_predicate(graph) -> bool:
    """lattice.predicate_atomistic with the vertices on cycles collected
    from the cycle list."""
    on_cycle = 0
    for c in graph.cycles():
        on_cycle |= graph.cycle_sources(c)
    for v in range(graph.n):
        out = graph.out_edges[v]
        if not out:
            continue
        if len(out) == 1:
            if on_cycle >> v & 1:
                return False
            if not any(u != v and len(graph.out_edges[u]) != 1
                       for u in bits(graph.reach[v])):
                return False
        elif not all(graph.geq(graph.edges[e][1], v) for e in out):
            return False
    return True


# -- out-edges counted edge by edge -------------------------------------------
#
# The library reads how many out-edges of a vertex survive a set H, which
# vertices are forked, and whether a vertex keeps an out-edge or has one
# into J, off the range masks Digraph.succ and Digraph.once.  These scan
# its out-edges instead.


def out_degree_minus(g, v, H) -> int:
    """Test oracle for Digraph.eligible: the number of edges from v, a
    vertex outside H, whose range survives removal of H."""
    if H >> v & 1:
        raise ValueError("vertex lies in the removed set")
    return sum(1 for e in g.out_edges[v] if not H >> g.edges[e][1] & 1)


def forked_by_edges(g) -> int:
    """Test oracle for Digraph.forked_vertices: the vertices with two
    out-edges whose ranges no other co-initial edge's range reaches."""
    forked = 0
    for v in range(g.n):
        ranges = [g.edges[e][1] for e in g.out_edges[v]]
        hits = sum(1 for i, ri in enumerate(ranges)
                   if all(not g.reach[rj] >> ri & 1
                          for j, rj in enumerate(ranges) if j != i))
        if hits >= 2:
            forked |= 1 << v
    return forked


def dead_ends_by_edges(t1, t2):
    """Test oracle for triples._v0: the vertices of (W1 u W2) \\ (H1 u H2)
    whose surviving out-edges, counted one by one, number 0."""
    g = t1.graph
    h12 = t1.H | t2.H
    return mask_of(v for v in bits((t1.W | t2.W) & ~h12)
                   if out_degree_minus(g, v, h12) == 0)


def join_hw_by_edges(t1, t2):
    """Test oracle: H and W of triples.join, J grown from the dead ends by
    the vertices of (W1 u W2) \\ (H1 u H2) with an out-edge into J."""
    g = t1.graph
    h12 = t1.H | t2.H
    ww = t1.W | t2.W
    j = dead_ends_by_edges(t1, t2)
    grew = True
    while grew:
        grew = False
        for v in bits(ww & ~h12 & ~j):
            if any(j >> g.edges[e][1] & 1 for e in g.out_edges[v]):
                j |= 1 << v
                grew = True
    H = h12 | j
    return H, ww & ~H


def meet_hw_by_edges(t1, t2):
    """Test oracle: H and W of triples.meet, the dead ends counted edge by
    edge."""
    W = ((t1.W & t2.H) | (t2.W & t1.H)
         | (t1.W & t2.W & ~dead_ends_by_edges(t1, t2)))
    return t1.H & t2.H, W


# -- the order and covers over the cycle list ---------------------------------
#
# triples.leq and the f- and W-shapes of triples._cover_kind read the cycle
# functions only where they are stored.  These compare them on every cycle
# of the graph inside the triples' H u W.


def leq_by_scan(t1, t2) -> bool:
    """Test oracle for triples.leq: f2 divides f1 tested on every cycle
    inside H1 u W1 u H2 u W2."""
    g = t1.graph
    if t1.H & ~t2.H:
        return False
    if (t1.W & ~t2.H) & ~t2.W:
        return False
    return all(divides(t2.value(c), t1.value(c))
               for c in g.cycles_in(t1.H | t1.W | t2.H | t2.W))


def cover_kind_by_scan(t1, t2):
    """Test oracle for triples._cover_kind: every cycle value compared
    through the cycle list, and an H-growing cover tested on every
    hereditary set strictly between H1 and H2, none of which may admit
    the triple (h, W1 \\ h, f1)."""
    g = t1.graph

    def f_equal(cycles):
        return all(t1.value(c) == t2.value(c) for c in cycles)

    if t1.H == t2.H:
        if t1.W == t2.W:
            diffs = [c for c in g.cycles_in(t1.W)
                     if t1.value(c) != t2.value(c)]
            if len(diffs) != 1:
                return None
            a, b = t1.value(diffs[0]), t2.value(diffs[0])
            if a == INF:
                return None
            return "f" if is_prime(a // b) else None
        if (t2.W & ~t1.W).bit_count() != 1:
            return None
        cycles = set(g.cycles_in(t1.H | t1.W)) | set(g.cycles_in(t2.H | t2.W))
        return "w" if f_equal(cycles) else None
    if t1.W & ~t2.H != t2.W:
        return None
    if t1.W & t2.H != t2.H & ~t1.H & g.eligible(t1.H):
        return None
    if not f_equal(g.cycles_in(t1.W)):
        return None
    for h in g.hereditary_sets():
        if h == t1.H or h == t2.H or t1.H & ~h or h & ~t2.H:
            continue
        # some W1-vertex outside h must have all its out-edges ranging into h
        if not any(g.succ[v] & ~h == 0 for v in bits(t1.W & ~h)):
            return None
    return "h"


# -- the lattice rendered from its triples -------------------------------------
#
# cli.lattice_json writes the document as text, and it and cli.lattice_dot
# read each element's (H, W) masks, name each mask once and list the covers
# from the two cover columns.  These build the document as a dict, render
# every triple by itself, and list the covers bit by bit from the rows.


def lattice_json_by_triples(lat, properties=False):
    """Test oracle for cli.lattice_json: the document as a dict, each
    element through triple_json.  lattice_json must give the bytes of
    json.dumps(doc, check_circular=False), as `lattice --json` printed
    when it built this dict."""
    doc = {"format": JSON_FORMAT}
    doc.update(graph_json(lat.graph))
    doc["elements"] = [triple_json(t) for t in lat.elements]
    doc["covers"] = cover_pairs(lat.cover_up)
    doc["bottom"] = lat.bottom
    doc["top"] = lat.top
    if properties:
        doc["properties"] = lattice_properties(lat)
    return doc


def lattice_dot_by_triples(lat):
    """Test oracle for cli.lattice_dot: each label is repr of the triple."""
    lines = ["digraph conlat {", "  rankdir=BT;", "  node [shape=box];"]
    for i, t in enumerate(lat.elements):
        lines.append(f'  n{i} [label="{dot_escape(repr(t))}"];')
    for i, j in cover_pairs(lat.cover_up):
        lines.append(f"  n{i} -> n{j};")
    size = [(t.H | t.W).bit_count() for t in lat.elements]
    for _, rank in groupby(range(lat.n), size.__getitem__):
        lines.append("  {rank=same; " + "; ".join(f"n{i}" for i in rank) + ";}")
    lines.append("}")
    return "\n".join(lines) + "\n"
