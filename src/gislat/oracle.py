"""Brute-force ground truth for acyclic graphs: the finite graph inverse
semigroup built from the axioms, exhaustive congruence enumeration, and the
order-isomorphism check against the triple lattice.

Elements are None (zero) or a pair of paths (p, q) with equal range, a path
being (start vertex, tuple of edge ids).  Congruences are root tuples:
position i holds the least member of the block of element i, so two
elements share a block iff their entries are equal, and each partition has
one root tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .graphs import CapExceeded, Digraph, bits, mask_of
from . import triples as _triples
from .lattice import enumerate_lattice

DEFAULT_ELEMENT_CAP = 400
# Bounds the isomorphism check, which checks the calculus's (H, W) join and
# meet on all n(n + 1)/2 pairs of the n congruences.  On a shared 2-core
# machine `gislat oracle` takes 2.3–3.8 s on the graphs with 2,048
# congruences tried under the default element cap (11 isolated vertices
# 2.3–2.7 s, 5 disjoint edges and a vertex 2.4–2.5 s, the 9-vertex path
# with two isolated vertices 3.0–3.1 s and the 10-vertex path with one
# 3.7–3.8 s; 2 runs each, wall time of a subprocess, at 20–28 MB).
CONGRUENCE_CAP = 2048


def all_paths(graph: Digraph, cap: int = DEFAULT_ELEMENT_CAP):
    """Every path of an acyclic graph, the vertices as length-0 paths;
    raises CapExceeded when more than cap paths appear."""
    paths = [(v, ()) for v in range(graph.n)]
    frontier = list(paths)
    while frontier:
        p = frontier.pop()
        at = graph.path_range(p)
        for e in graph.out_edges[at]:
            q = (p[0], p[1] + (e,))
            paths.append(q)
            frontier.append(q)
            if len(paths) > cap:
                raise CapExceeded("paths", len(paths), cap)
    return paths


def multiply(graph: Digraph, x, y):
    """Product of two elements: concatenation when one middle path extends
    the other, zero otherwise."""
    if x is None or y is None:
        return None
    p, q = x
    r, s = y
    if q[0] != r[0]:
        return None
    qe, re_ = q[1], r[1]
    if len(qe) <= len(re_):
        if re_[:len(qe)] != qe:
            return None
        t = re_[len(qe):]
        return ((p[0], p[1] + t), s)
    if qe[:len(re_)] != re_:
        return None
    t = qe[len(re_):]
    return (p, (s[0], s[1] + t))


def inverse(x):
    if x is None:
        return None
    p, q = x
    return (q, p)


class MulTable:
    """Dense multiplication table of a finite graph inverse semigroup.

    elements[0] is the zero, and the others are all the path pairs (p, q)
    with equal range; rows[i][j] is the index of the product, written by
    _product_rows.  generators holds the index of each vertex v, each edge
    e and each ghost edge e*, and trans[a] lists a's translations by
    them: g·a for every generator g, then a·g.
    """

    def __init__(self, graph: Digraph, elements):
        self.graph = graph
        self.elements = list(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        idx = self.index
        self.rows = rows = _product_rows(graph, self.elements, idx)
        gens = [idx[_triples.vertex_element(v)] for v in range(graph.n)]
        for e, (s, r) in enumerate(graph.edges):
            edge = ((s, (e,)), (r, ()))
            gens += [idx[edge], idx[inverse(edge)]]
        self.generators = gens
        self.trans = [[rows[g][a] for g in gens] + [rows[a][g] for g in gens]
                      for a in range(len(self.elements))]

    def __len__(self):
        return len(self.elements)

    @cached_property
    def closures(self):
        """The closure store of the table's congruences (ClosureStore)."""
        return ClosureStore(self)


def _product_rows(graph: Digraph, elements, index):
    """The rows of the multiplication table of elements, which must hold
    the zero and every path pair (p, q) with equal range, index mapping
    each to its position.  Each row starts as [0] * n, the zero, and only
    the nonzero products are written, the same ones multiply gives:

    1. For x = (p, q) and y = (r, s), x y is (p t, s) when r = q t, and
       (p, s t) when q = r t with t not empty, the two cases in which
       multiply concatenates; it is zero when neither middle path extends
       the other, and when x or y is zero.
    2. In the first case y runs over the pairs (r, s) with first path r,
       one for each path s ending where r ends, and x y over the pairs
       (p t, s) with the same s, since p t ends where r does.  So with the
       pairs of each first path listed in one order of s, the products
       are the pairs of p t listed alike, matched entry by entry, for
       each extension r = q t of q, q itself included.
    3. In the second case s t runs over the paths ending where q ends, and
       x y = (p, s t) is the pair of p at the place of s t: each suffix t
       maps the place of s among the paths ending where t starts to the
       place of s t among those ending where t ends, kept once per t.

    multiply stays the axiom-level reference the tests compare with."""
    n = len(elements)
    rows = [[0] * n for _ in range(n)]
    ends = {}  # each range to the paths ending there, one order for all
    for x in elements:
        if x is not None and x[0] == x[1]:  # each path is p in one (p, p)
            ends.setdefault(graph.path_range(x[0]), []).append(x[0])
    place = {p: k for ps in ends.values() for k, p in enumerate(ps)}
    # firsts[p]: the pairs (p, s) in the order of ends
    firsts = {p: [index[(p, s)] for s in ps]
              for ps in ends.values() for p in ps}
    extensions = {p: [] for p in firsts}  # q to each r = q t, with t
    for r in firsts:
        v, es = r
        for k in range(len(es) + 1):
            extensions[(v, es[:k])].append((r, es[k:]))
    suffix_maps = {}
    for x, row in zip(elements, rows):
        if x is None:
            continue
        (v, ps), (w, qs) = x
        for r, t in extensions[(w, qs)]:
            for y, z in zip(firsts[r], firsts[(v, ps + t)]):
                row[y] = z
        pairs_of_p = firsts[(v, ps)]
        for k in range(len(qs)):
            t = qs[k:]
            to = suffix_maps.get(t)
            if to is None:
                start = graph.edges[t[0]][0]
                to = suffix_maps[t] = [place[(u, us + t)]
                                       for u, us in ends[start]]
            for y, z in zip(firsts[(w, qs[:k])], to):
                row[y] = pairs_of_p[z]
    return rows


def build_semigroup(graph: Digraph, element_cap: int = DEFAULT_ELEMENT_CAP) -> MulTable:
    """Construct the semigroup of a finite acyclic graph: the zero plus all
    path pairs with matching ranges."""
    if not graph.is_acyclic():
        raise ValueError("graph has cycles; its inverse semigroup is infinite")
    by_range = {}
    # the element count dominates the path count, so this cap is sound
    for p in all_paths(graph, cap=element_cap):
        by_range.setdefault(graph.path_range(p), []).append(p)
    count = 1 + sum(len(ps) ** 2 for ps in by_range.values())
    if count > element_cap:
        raise CapExceeded("semigroup elements", count, element_cap)
    elements = [None]
    for v in sorted(by_range):
        ps = sorted(by_range[v])
        elements.extend((p, q) for p in ps for q in ps)
    return MulTable(graph, elements)


def associativity_violations(table: MulTable):
    """Triples (x, g, z) with (xg)z != x(gz), in lexicographic order, for
    every x and z and every middle g: the zero, the generators, and each
    element that right multiplication by generators does not reach from
    them.  For each x and g the row of xg is compared with x times the row
    of g, and z is listed only where the two differ.  The list is empty iff
    the table is associative (Light's test; Clifford and Preston, The
    Algebraic Theory of Semigroups I, section 1.2):

    1. The elements a with (xa)z = x(az) for all x and z are closed under
       the table's product: for such a and b,
       (x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) = x((ab)z).
    2. The middles generate every element under the table's own product,
       even when the table is corrupted: a reached element that is not a
       middle is r g for an element r reached before it and a generator g,
       so a product of middles by induction, and the rest are middles.

    So when no middle has a violation, neither has any element.  x times
    the row of g is x's row read at the entries of g's row, one
    operator.itemgetter per middle, and the rows are compared as tuples.
    A table of one element, the zero, has the one product 0 0 = 0 and is
    associative.  Rows need only be lists, generators a list of indices
    and 0 the zero."""
    rows = table.rows
    n = len(rows)
    if n == 1:  # itemgetter of one index would give no tuple
        return []
    gens = table.generators
    reached = [False] * n
    frontier = [0, *gens]
    for a in frontier:
        reached[a] = True
    while frontier:
        row = rows[frontier.pop()]
        for g in gens:
            b = row[g]
            if not reached[b]:
                reached[b] = True
                frontier.append(b)
    middles = sorted({0, *gens, *(a for a in range(n) if not reached[a])})
    times_row = [(g, itemgetter(*rows[g])) for g in middles]
    bad = []
    for x, row_x in enumerate(rows):
        for g, times in times_row:
            left = tuple(rows[row_x[g]])
            right = times(row_x)
            if left != right:
                bad.extend((x, g, z) for z in range(n) if left[z] != right[z])
    return bad


# -- congruences as root tuples -------------------------------------------------
#
# A partition in the making is a union-find parent list in which every class
# hangs under its least member, so parent[i] <= i throughout.  A root tuple
# is such a list with every parent a root.


def _merge(parent, work, trans=None):
    """The union-find: merge the classes of each pair popped from the work
    list under the lesser root, halving paths on the way up.  Given trans,
    also queue the translations of every two classes merged whose images
    do not already share a parent."""
    while work:
        a, b = work.pop()
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
        if trans is not None:
            for x, y in zip(trans[a], trans[b]):
                if parent[x] != parent[y]:
                    work.append((x, y))


def _roots(parent):
    """The root tuple of a parent list, pointing every entry at its root in
    place: every parent has a lower index than its child, so it points at
    its root by the time the child reads it."""
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return tuple(parent)


def generated_congruence(table: MulTable, pairs):
    """Least congruence containing the given element-index pairs: a
    union-find worklist that, whenever two classes merge, queues their
    translations by the generators (the vertices, edges and ghost edges).

    That suffices: every nonzero element p q* is a vertex or a product
    e1...ek fl*...f1* of generators, so a translation by it is a
    composite of generator translations, and translation by the zero is
    constant.  A relation closed under generator translations is
    therefore closed under all translations.

    It starts from the diagonal and reads no closure store, so it is the
    from-diagonal reference that realize_triple, which folds the store's
    steps over the same pairs, must match."""
    parent = list(range(len(table)))
    _merge(parent, list(pairs), table.trans)
    return _roots(parent)


class ClosureStore:
    """Every congruence closed so far on one semigroup, with the memo of
    its one closure step; MulTable.closures builds it on first use, and
    principal_congruences, join_irreducible_congruences,
    enumerate_congruences and realize_triple all close through it.

    congs[c] is a congruence as a root tuple, congs[0] the diagonal, and
    index maps the tuple back to c.  A root tuple is a parent list in which
    every class hangs under its root, so step(c, x, y), the least
    congruence above congs[c] that relates x and y, starts from a copy:

    1. congs[c] is a congruence, so its pairs need no translations queued:
       the closure over generators started from its root tuple with the
       pair (x, y) ends at the least congruence above both.
    2. That congruence relates every x' in x's block of congs[c] with
       every y' in y's, and the other way round, so it depends on c and
       those two blocks only; each step is remembered in above under c
       and the roots of the two blocks, the lesser first.
    3. When congs[c] already relates x and y it is the answer itself.
    4. From the diagonal the step is Cg(x, y).  Once
       principal_congruences has run, principal[x * n + y] holds the
       index of Cg(x, y) for every x < y, and the step reads it there.

    What the store holds changes no answer, only how much is closed: by
    1, 2 and 4 every step returns the same least congruence whether it is
    closed or read."""

    def __init__(self, table: MulTable):
        self.trans = table.trans
        self.n = n = len(table)
        diagonal = tuple(range(n))
        self.congs = [diagonal]
        self.index = {diagonal: 0}
        self.above = {}
        self.principal = None

    def step(self, c, x, y):
        """The index of the least congruence above congs[c] relating x and y."""
        root = self.congs[c]
        a, b = root[x], root[y]
        if a == b:
            return c
        if a > b:
            a, b = b, a
        if not c and self.principal is not None:
            return self.principal[a * self.n + b]
        key = (c, a, b)
        got = self.above.get(key)
        if got is None:
            parent = list(root)
            _merge(parent, [(x, y)], self.trans)
            got = self.above[key] = self._add(parent)
        return got

    def _add(self, parent):
        """The index of the congruence of a parent list, registered when it
        is new."""
        root = _roots(parent)
        got = self.index.get(root)
        if got is None:
            got = self.index[root] = len(self.congs)
            self.congs.append(root)
        return got


def principal_congruences(table: MulTable):
    """The distinct principal congruences, each mapped to the first pair
    x < y that generates it.

    Each Cg(x, y) is read off or closed from an already-closed translate
    rather than from the diagonal.  The pairs {x, y}, x != y, are the
    nodes of a graph with an edge to each translate {g x, g y} and
    {x g, y g} by a generator g that is not a diagonal pair.  An iterative
    depth-first search reads a pair's translates in turn, straight from
    the translation rows: an unvisited one is visited first, one still on
    the stack, which closes a cycle of the graph, is passed over, and a
    closed one with congruence theta ends the pair when theta relates x
    and y.  Only when none does is the pair closed, in postorder, by one
    step of the table's closure store from the first closed translate, or
    from the diagonal when there is none.  Each pair that ends also ends
    its inverse pair {x*, y*} when that is not yet visited.  This is
    sound:

    1. A translate (s x t, s y t) lies in Cg(x, y), so Cg(s x t, s y t),
       and with it theta, lies below Cg(x, y).
    2. If theta relates x and y, then theta contains Cg(x, y) as well, so
       the two are equal; the pair's other translates are not read.
    3. The store's step from theta with the pair (x, y) is the least
       congruence above both, which is Cg(x, y) by 1.
    4. A congruence theta of an inverse semigroup relates x* and y*
       whenever it relates x and y: S/theta is an inverse semigroup
       (Howie, Fundamentals of Semigroup Theory, ch. 5), and x* theta and
       y* theta are inverses of x theta = y theta, which has only one.
       So Cg(x, y) contains (x*, y*), Cg(x*, y*) contains
       (x**, y**) = (x, y), and the two are equal.

    The search runs once per table, and its Cg(x, y) for every pair is
    kept in the table's closure store; a second call reads it there."""
    store = table.closures
    if store.principal is None:
        store.principal = _principal_pairs(table, store)
    n = len(table)
    state = store.principal
    first = {}
    for x in range(n):
        for y in range(x + 1, n):
            first.setdefault(state[x * n + y], (x, y))
    congs = store.congs
    return {congs[c]: pair for c, pair in first.items()}


def _principal_pairs(table: MulTable, store: ClosureStore):
    """The search of principal_congruences: a list whose entry x * n + y,
    for x < y, is the index of Cg(x, y) in the store."""
    n = len(table)
    trans = table.trans
    m = len(trans[0])
    idx = table.index
    inv = [idx[inverse(x)] for x in table.elements]
    congs = store.congs
    # state[x * n + y], x < y: 0 before the visit, -1 on the stack, then the
    # index of Cg(x, y) in the store, whose entry 0 is the diagonal
    state = [0] * (n * n)
    for x0 in range(n):
        for y0 in range(x0 + 1, n):
            if state[x0 * n + y0]:
                continue
            state[x0 * n + y0] = -1
            # a frame is [x, y, the translate to read next, the first closed
            # translate's index or 0]
            stack = [[x0, y0, 0, 0]]
            while stack:
                frame = stack[-1]
                x, y, pos, seed = frame
                tx, ty = trans[x], trans[y]
                theta = 0
                for pos in range(pos, m):
                    a, b = tx[pos], ty[pos]
                    if a == b:
                        continue
                    s = a * n + b if a < b else b * n + a
                    c = state[s]
                    if c > 0:
                        root = congs[c]
                        if root[x] == root[y]:
                            theta = c
                            break
                        if not seed:
                            seed = c
                    elif not c:
                        # read this translate again once it is closed
                        frame[2] = pos
                        frame[3] = seed
                        state[s] = -1
                        stack.append([a, b, 0, 0] if a < b else [b, a, 0, 0])
                        break
                else:
                    theta = store.step(seed, x, y)
                if theta:
                    stack.pop()
                    state[x * n + y] = theta
                    a, b = inv[x], inv[y]
                    s = a * n + b if a < b else b * n + a
                    if not state[s]:
                        state[s] = theta
    return state


def partition_join(r1, r2):
    """Least partition above two root tuples, as a root tuple: r1 is a
    parent list already, and merging each i with r2[i] adds the blocks of
    r2.  The oracle joins congruences in the closure store; this join of
    any two partitions is the direct one that the tests' reference
    enumerations use, and bench/tracer.py wraps it by name."""
    parent = list(r1)
    _merge(parent, list(enumerate(r2)))
    return _roots(parent)


def join_irreducible_congruences(table: MulTable, principals):
    """The join-irreducible congruences, from the principal congruences as
    principal_congruences returns them for the table (each mapped to a
    pair generating it), in the same order and with the same pairs.  A
    congruence is join-irreducible when it is not the diagonal and not the
    join of the congruences strictly below it.

    1. Every congruence theta is the join of the principal congruences
       Cg(a, b) over its pairs, so a join-irreducible one is one of them:
       every join-irreducible congruence is principal.
    2. The congruences strictly below q are joins of principal congruences
       strictly below q, so q is join-irreducible iff the join j of the
       principals strictly below q is not q.
    3. A principal p = Cg(a, b) lies below q iff q relates a and b, that is
       iff q[a] == q[b].
    4. For q = Cg(x, y), j lies below q and is a congruence, so j = q iff j
       relates x and y.  The join stops as soon as it does.
    5. The join runs in the table's closure store: the join of j with
       Cg(a, b) is the least congruence above j relating a and b, one step
       from j, and it is j itself when j already relates a and b.

    The test reads no triple, so the oracle stays independent of the
    calculus it checks; this is Freese's method (R. Freese, Computing
    congruences efficiently, Algebra Universalis 59, 2008)."""
    store = table.closures
    congs = store.congs
    out = {}
    for q, (x, y) in principals.items():
        below = 0
        for p, (a, b) in principals.items():
            if q[a] == q[b] and p != q:
                below = store.step(below, a, b)
                root = congs[below]
                if root[x] == root[y]:
                    break
        else:
            out[q] = (x, y)
    return out


def enumerate_congruences(table: MulTable):
    """Every congruence exactly once, sorted: the diagonal and the
    join-irreducible congruences, closed under joining with a
    join-irreducible congruence.  The table's size was capped where it was
    built; the count of congruences is capped at CONGRUENCE_CAP, and the
    distinct principal congruences with the diagonal count towards it
    before the join-irreducibles are sought among them.

    In a finite lattice every element is the join of the join-irreducibles
    below it, so every congruence theta is J1 v ... v Jk over the
    join-irreducible congruences below it, and each partial join
    J1 v ... v Ji is reached from J1 v ... v Ji-1, starting from the
    diagonal, by one join with Ji.  A join with J = Cg(x, y) is skipped
    when x and y already share a block of theta, since then J lies below
    theta and the join is theta itself; so the partial join stays the
    same and is already found.

    Each join theta v Ji is one step of the table's closure store, the
    least congruence above theta relating the pair (x, y) of Ji: a
    congruence above theta lies above Ji = Cg(x, y) iff it relates x and
    y.  The steps are memoised by bit masks.  Let D(theta) be the set of
    i with Ji below theta, that is with theta relating Ji's pair.  theta
    is the join of the Ji over D(theta), so theta v Ji is the join of the
    Jk over D(theta) + {i}, which depends on that set only.  So each join
    is remembered under the mask D(theta) + {i}, and every congruence
    found under its own D-mask, and a mask met again is read, not closed.
    The cap counts distinct congruences, not masks."""
    cap = CONGRUENCE_CAP
    principals = principal_congruences(table)
    if len(principals) + 1 > cap:
        raise CapExceeded("congruences", len(principals) + 1, cap)
    irreducibles = join_irreducible_congruences(table, principals)
    store = table.closures
    congs = store.congs
    pairs = list(irreducibles.values())
    by_mask = {}  # a set of join-irreducibles, as bits, -> their join

    def mask(c):
        """D(congs[c]), with congs[c] remembered under it."""
        root = congs[c]
        d = 0
        for i, (x, y) in enumerate(pairs):
            if root[x] == root[y]:
                d |= 1 << i
        by_mask[d] = c
        return d

    found = {0: mask(0)}
    for q in irreducibles:
        c = store.index[q]
        found[c] = mask(c)
    frontier = list(found)
    while frontier:
        # every congruence found, the seeds too, waits here to be counted
        if len(found) > cap:
            raise CapExceeded("congruences", len(found), cap)
        c = frontier.pop()
        d = found[c]
        for i, (x, y) in enumerate(pairs):
            key = d | 1 << i
            if key == d:
                continue
            j = by_mask.get(key)
            if j is None:
                j = by_mask[key] = store.step(c, x, y)
            if j not in found:
                found[j] = mask(j)
                frontier.append(j)
    return sorted(map(congs.__getitem__, found))


def seed_pairs(t, table: MulTable):
    """The triple's generating pairs, as element-index pairs."""
    idx = table.index
    return [(idx[x], idx[y]) for x, y in _triples.generating_pairs(t)]


def realize_triple(t, table: MulTable):
    """The congruence generated by the triple's generating pairs, folding
    the table's closure-store step over them from the diagonal: after the
    first k pairs the fold holds the least congruence containing them,
    since the least congruence above Cg(p1, ..., pk) relating p(k+1) is
    Cg(p1, ..., p(k+1)).  generated_congruence closes the same pairs from
    the diagonal in one worklist, the reference this must match."""
    store = table.closures
    c = 0
    for x, y in seed_pairs(t, table):
        c = store.step(c, x, y)
    return store.congs[c]


# -- the order-isomorphism check ------------------------------------------------


@dataclass
class IsoReport:
    passed: bool
    semigroup_size: int
    lattice_size: int
    congruence_count: int
    failures: list = field(default_factory=list)


def verify_isomorphism(graph: Digraph,
                       table: MulTable | None = None) -> IsoReport:
    """Check that triples map bijectively onto the semigroup's congruences,
    matching order, joins, and meets; failures carry concrete witnesses.
    Pass the graph's semigroup as table to skip building it again (a
    table built for another graph raises ValueError); the table carries
    its own element cap, and without one the semigroup is built under
    DEFAULT_ELEMENT_CAP.  The congruences are enumerated first, so their
    cap trips before any triple's seed pairs are closed.  The lattice is
    built under the same cap: on a passing run it has as many elements as
    there are congruences.

    Each triple t_a keeps its seed pairs G_a, the generating pairs that
    realize_triple closes, so its realized partition P_a is the least
    congruence containing G_a.  For a congruence Q, P_a <= Q iff Q relates
    every pair of G_a: P_a contains G_a, and Q, a congruence containing
    G_a, contains the least one.  So the row of the elements above a is
    the AND, over the pairs of G_a, of the row of the realized partitions
    relating each pair, built once per distinct seed pair; it is compared
    bit by bit with lat.up[a], the lattice's order row, closed from its
    covers.  When the bijection checks pass, every realized partition is
    a congruence, so the seed-pair rows are the refinement order of all
    of Con(S) exactly.  Once the order matches, the lattice's joins and
    meets are those of Con(S), and join_meet_failures checks the
    calculus's (H, W) core against them, as its docstring proves.  When
    the bijection checks fail, the report fails anyway."""
    if table is None:
        table = build_semigroup(graph)
    elif table.graph != graph:
        raise ValueError("table is the semigroup of another graph")
    congs = enumerate_congruences(table)
    lat = enumerate_lattice(graph, CONGRUENCE_CAP)
    realized = [realize_triple(t, table) for t in lat.elements]
    failures = []

    by_partition = {}
    for i, part in enumerate(realized):
        if part in by_partition:
            failures.append(
                f"triples {lat.elements[by_partition[part]]!r} and "
                f"{lat.elements[i]!r} realize the same congruence")
        else:
            by_partition[part] = i
    missing = set(congs) - set(realized)
    extra = set(realized) - set(congs)
    if missing:
        failures.append(f"{len(missing)} congruences not realized by any triple")
    if extra:
        failures.append(f"{len(extra)} realized partitions are not congruences")

    n = lat.n
    # rel[pair] has bit b when realized[b] relates the pair, and the AND of
    # rel over a's seed pairs has bit b when realized[a] refines realized[b]
    rel = {}
    for a, t in enumerate(lat.elements):
        row = (1 << n) - 1
        for pair in seed_pairs(t, table):
            if pair not in rel:
                x, y = pair
                rel[pair] = mask_of(b for b, part in enumerate(realized)
                                    if part[x] == part[y])
            row &= rel[pair]
        for b in bits(row ^ lat.up[a]):
            order_c = bool(row >> b & 1)
            failures.append(f"order mismatch at {lat.elements[a]!r} vs "
                            f"{lat.elements[b]!r}: triple {not order_c}, "
                            f"congruence {order_c}")

    failures += join_meet_failures(lat)
    return IsoReport(passed=not failures,
                     semigroup_size=len(table),
                     lattice_size=n,
                     congruence_count=len(congs),
                     failures=failures)


def _columns(nv, masks, weights):
    """The masks (H, W) transposed into nv vertex columns (HC, WC): each
    weight is set in HC[v] for the vertices v of its H, and in WC[v] for
    those of its W."""
    HC, WC = [0] * nv, [0] * nv
    for (H, W), b in zip(masks, weights):
        for v in bits(H):
            HC[v] |= b
        for v in bits(W):
            WC[v] |= b
    return HC, WC


def join_meet_failures(lat):
    """The join and meet mismatches of lat, a ConLattice: for each pair
    i <= j, by i and then j, a join mismatch when the calculus's (H, W)
    join of the two is not the lattice's own join, then a meet mismatch
    likewise.

    1. The lattice's rows are reflexive and transitive, so r is the join
       of i and j iff up[r] == up[i] & up[j]: r lies in both rows, with
       every common element in its row.  The meet is dual: r is the meet
       iff down[r] == down[i] & down[j].
    2. A lattice's rows are distinct: two equal reflexive rows put each
       element below the other, and the order is antisymmetric.  So a
       dict from each row to its element names r with one lookup of the
       AND, for every j >= i, and an AND that is no row has no r.
    3. The masks of distinct elements differ, so the calculus is right at
       (i, j) iff it gives the masks of r.  That is the per-pair test
       the tests keep: look the calculus's masks up, and compare the row
       of what is found with the AND.
    4. So the columns want, with the j's of each r set at the vertices of
       H_r and of W_r, must equal the join's or the meet's columns that
       triples.join_meet_columns gives for i and every j at once.  Each j
       where they differ, or with no r, is one mismatch.

    Should a corrupted order repeat a row, the dict names the lowest
    element with it.  The order check fails such an order anyway: the
    realized congruences are ordered by refinement, which is
    antisymmetric."""
    graph, masks, n = lat.graph, lat.masks, lat.n
    nv = graph.n
    HC, WC = _columns(nv, masks, [1 << j for j in range(n)])
    ones = (1 << n) - 1
    passes = []
    for rows in (lat.up, lat.down):
        named = {}  # each row to the lowest element with it
        for r, row in enumerate(rows):
            named.setdefault(row, r)
        passes.append((rows, named.get))
    failures = []
    for i in range(n):
        bad = []
        halves = _triples.join_meet_columns(graph, *masks[i], HC, WC, ones)
        for (got_H, got_W), (rows, name) in zip(halves, passes):
            groups = {}  # each bound r to the mask of its j's, -1 for none
            get = groups.get
            for j, a in enumerate(map(rows[i].__and__, rows[i:]), i):
                r = name(a, -1)
                groups[r] = get(r, 0) | 1 << j
            diff = groups.pop(-1, 0)
            want_H, want_W = _columns(nv, map(masks.__getitem__, groups),
                                      groups.values())
            for v in range(nv):
                diff |= got_H[v] ^ want_H[v] | got_W[v] ^ want_W[v]
            bad.append(diff >> i << i)  # the j >= i
        join_bad, meet_bad = bad
        a = lat.elements[i]
        for j in bits(join_bad | meet_bad):
            b = lat.elements[j]
            if join_bad >> j & 1:
                failures.append(f"join mismatch at {a!r}, {b!r}")
            if meet_bad >> j & 1:
                failures.append(f"meet mismatch at {a!r}, {b!r}")
    return failures
