"""Explicit finite lattices, graph-level predicates, and generating sets.

The full congruence lattice is only materialised for acyclic graphs (it is
infinite otherwise); the predicates at the bottom of the module work on any
finite graph.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import lt

from .graphs import CapExceeded, Digraph, bits
from . import triples
from .triples import WangTriple

# A lattice keeps its covers as two int columns, and `lattice --json` and
# `--dot` write them as text from per-index string tables, joined in
# bounded slices.  The laws of `--properties` read n-bit rows of upper and
# lower covers, built when first read (the order rows too, which no
# command reads), so memory grows as n squared only there.  On a shared
# 2-core machine, on 9 disjoint edges with `--cap 300000` (262,144
# elements, 2,359,296 covers), `gislat lattice` takes 1.40–1.54 s at
# 268 MB peak RSS, `--json` 2.06–2.29 s at 268 MB and `--dot` 2.51–2.85 s
# at 348 MB.  `--json --properties` takes 0.63–0.67 s at 74 MB on 7
# disjoint edges (16,384 elements); on 9 its rows need gigabytes.  See
# CHANGES.md.
DEFAULT_LATTICE_CAP = 40_000


class FiniteLattice:
    """A finite lattice given by its covers over elements 0..n-1.

    The covers are two parallel int columns: cover k is
    cover_from[k] -> cover_to[k], listed in increasing order of the
    source and then the target, so none twice.  The elements must be
    numbered along a linear extension, so every cover has i < j, and
    exactly one element may lack a lower cover (the bottom, 0) and one an
    upper cover (the top, n - 1).  The bitmask rows of upper and lower
    covers, cover_up and cover_dn, and the reflexive order rows up and
    down are built from the columns when first read.  Joins and meets are
    left to ConLattice, which reads them off the calculus's (H, W) core.
    """

    def __init__(self, n, cover_from, cover_to):
        if len(cover_from) != len(cover_to):
            raise ValueError("cover columns differ in length")
        self.n = n
        self.cover_from = cover_from
        self.cover_to = cover_to
        # each check is one pass over whole columns, with no step per cover
        # in Python but the keys' arithmetic
        if cover_from and (min(cover_from) < 0 or max(cover_to) >= n
                           or not all(map(lt, cover_from, cover_to))):
            raise ValueError("a cover does not follow a linear extension "
                             f"of 0..{n - 1}")
        # with 0 <= i < j < n, the key i * n + j orders the covers by
        # (i, j), and strictly increasing keys list none twice
        keys = [i * n + j for i, j in zip(cover_from, cover_to)]
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("covers are listed out of order or twice")
        # along a linear extension 0 is minimal and n - 1 maximal, so they
        # are the bottom and top when every other element has a lower and
        # an upper cover: no target is 0 and no source n - 1
        if len(set(cover_to)) != n - 1 or len(set(cover_from)) != n - 1:
            raise ValueError("order has no unique bottom and top")
        self.bottom = 0
        self.top = n - 1

    @cached_property
    def cover_up(self):
        """cover_up[i] is the bitmask of the upper covers of i."""
        cover_up = [0] * self.n
        for i, j in zip(self.cover_from, self.cover_to):
            cover_up[i] |= 1 << j
        return cover_up

    @cached_property
    def cover_dn(self):
        """cover_dn[j] is the bitmask of the lower covers of j."""
        cover_dn = [0] * self.n
        for i, j in zip(self.cover_from, self.cover_to):
            cover_dn[j] |= 1 << i
        return cover_dn

    @cached_property
    def up(self):
        """up[i] is i with every element above it, closed in one pass from
        the last cover: the covers of j > i are listed after those of i."""
        up = [1 << i for i in range(self.n)]
        for i, j in zip(reversed(self.cover_from), reversed(self.cover_to)):
            up[i] |= up[j]
        return up

    @cached_property
    def down(self):
        """down[j] is j with every element below it, closed in one pass
        from the first cover: a cover k -> i has k < i, so it is listed
        before the covers of i."""
        down = [1 << j for j in range(self.n)]
        for i, j in zip(self.cover_from, self.cover_to):
            down[j] |= down[i]
        return down

    def leq_idx(self, i, j) -> bool:
        return bool(self.up[i] >> j & 1)


class ConLattice(FiniteLattice):
    """The congruence lattice of a finite acyclic graph: the triples
    (H, W, ∅) with W ⊆ graph.eligible(H), for each hereditary H (Wang,
    J. Algebra 2019), ordered by inclusion of U = H ∪ W and numbered by
    (|U|, U).

    H is H* = {v ∈ U : reach(v) ⊆ U}, the largest hereditary subset of U:
    were H* \\ H not empty, it would hold a vertex w reaching no other of
    its vertices (the graph is acyclic); w lies in W, and its one out-edge
    surviving H ends in H* \\ H at a vertex other than w.  So U determines
    the triple, and t1 <= t2 iff U1 ⊆ U2 (H1 is hereditary inside U2, so
    H1 ⊆ H2, and W1 \\ H2 ⊆ U2 \\ H2 = W2).

    For unions U1 ⊊ U2 pick v ∈ U2 \\ U1 reaching no other vertex of it.
    Its out-edges into H2 end in H1, and it has at most one more, so
    outside the H* of U1 ∪ {v} it keeps at most one out-edge, and each
    vertex of W1 its one (or it would reach only U1 ∪ {v}): U1 ∪ {v} is a
    union.  So the upper covers are the unions that add one vertex, found
    by lookup and kept in the two cover columns, and every chain from the
    bottom to t has |U| steps.

    The elements are stored as masks[i] = (H, W), and by_union maps each
    union H | W to its index; leq_idx reads the order as inclusion of
    unions.  Joins and meets run the calculus's own (H, W) core,
    triples.join_hw and triples.meet_hw, on the masks, and are not
    cached; the result is looked up by its union and counts only if it
    has that element's masks, so a calculus that returns masks outside
    the lattice is caught, not read as the element with the same union.
    The masks transposed into vertex columns, which the oracle's join and
    meet pass reads, are built when first read, as are the triples in
    elements, so a command that only renders the lattice, joins and
    meets, or looks its generators up with element_indices builds no
    triple; one that only renders it builds no cover row either.
    """

    def __init__(self, graph: Digraph, cap: int = DEFAULT_LATTICE_CAP):
        if not graph.is_acyclic():
            raise ValueError("graph has cycles; its congruence lattice is infinite")
        try:
            hereditary = graph.hereditary_sets(cap)
        except CapExceeded as exc:
            if exc.cap != cap:  # HEREDITARY_CAP, lower than cap, tripped
                raise
            # each hereditary H gives at least the element (H, ∅)
            raise CapExceeded("lattice elements", exc.size, cap) from None
        eligible = [(H, graph.eligible(H)) for H in hereditary]
        total = sum(1 << elig.bit_count() for _, elig in eligible)
        if total > cap:
            raise CapExceeded("lattice elements", total, cap)
        hw = {}
        levels = [[] for _ in range(graph.n + 1)]
        for H, elig in eligible:
            W = elig
            while True:
                u = H | W
                hw[u] = (H, W)
                levels[u.bit_count()].append(u)
                if not W:
                    break
                W = (W - 1) & elig
        # numbered by (|U|, U): each level of one size in order
        unions = [u for level in levels for u in sorted(level)]
        self.graph = graph
        self.masks = [hw[u] for u in unions]
        self.by_union = by_union = {u: i for i, u in enumerate(unions)}
        vertex_bits = [1 << v for v in range(graph.n)]
        # the unions one vertex larger than u share one level, numbered by
        # value, and u | b grows with b: the covers come out in order
        cover_from, cover_to = [], []
        for i, u in enumerate(unions):
            for b in vertex_bits:
                if not u & b:
                    j = by_union.get(u | b)
                    if j is not None:
                        cover_from.append(i)
                        cover_to.append(j)
        super().__init__(len(unions), cover_from, cover_to)

    @cached_property
    def elements(self):
        graph = self.graph
        return [WangTriple._proved(graph, H, W, {}) for H, W in self.masks]

    @cached_property
    def columns(self):
        """The elements transposed, as vertex columns (HC, WC): bit j of
        HC[v] is set when v is in H_j, and of WC[v] when v is in W_j.
        triples.join_columns and meet_columns read them."""
        HC, WC = [0] * self.graph.n, [0] * self.graph.n
        for j, (H, W) in enumerate(self.masks):
            b = 1 << j
            for v in bits(H):
                HC[v] |= b
            for v in bits(W):
                WC[v] |= b
        return HC, WC

    def leq_idx(self, i, j) -> bool:
        """t_i <= t_j, read as U_i ⊆ U_j (see the class docstring), so no
        order row is built."""
        H1, W1 = self.masks[i]
        H2, W2 = self.masks[j]
        return (H1 | W1) & ~(H2 | W2) == 0

    def _lookup(self, hw, what) -> int:
        """The index of the element with masks hw, found by its union; a
        union that is on the list with other masks is not that element."""
        i = self.by_union.get(hw[0] | hw[1])
        if i is None or self.masks[i] != hw:
            raise ValueError(f"{what} left the element list")
        return i

    def join_idx(self, i, j) -> int:
        return self._lookup(triples.join_hw(self.graph, *self.masks[i],
                                            *self.masks[j]), "join")

    def meet_idx(self, i, j) -> int:
        return self._lookup(triples.meet_hw(self.graph, *self.masks[i],
                                            *self.masks[j]), "meet")


def enumerate_lattice(graph: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> ConLattice:
    """All Wang triples of a finite acyclic graph, as an explicit lattice."""
    return ConLattice(graph, cap)


# -- lattice-level property checks ------------------------------------------
#
# Each law is decided on the cover relation alone.  The brute-force checks
# over all pairs and triples of elements live in the tests, as oracles.


def _cover_pairs(rows):
    """Every pair of distinct members of one row, over all rows."""
    for row in rows:
        members = list(bits(row))
        for k, a in enumerate(members):
            for b in members[k + 1:]:
                yield a, b


def is_upper_semimodular(lat: FiniteLattice) -> bool:
    """Whenever the meet of a and b is covered by both, the join covers both.

    Two distinct upper covers a, b of an element c are incomparable, so
    c <= a ^ b < a forces a ^ b = c: these are exactly the pairs the law
    constrains.  An element covering both a and b lies above a v b > a, so
    it is a v b; the law therefore holds iff every two upper covers of a
    common element have a common upper cover.
    """
    cover_up = lat.cover_up
    return all(cover_up[a] & cover_up[b] for a, b in _cover_pairs(cover_up))


def is_lower_semimodular(lat: FiniteLattice) -> bool:
    """Whenever a and b are covered by their join, both cover the meet.

    The dual of is_upper_semimodular: the law holds iff every two lower
    covers of a common element have a common lower cover.
    """
    cover_dn = lat.cover_dn
    return all(cover_dn[a] & cover_dn[b] for a, b in _cover_pairs(cover_dn))


def is_modular(lat: FiniteLattice) -> bool:
    """The modular law: a <= c forces (a v b) ^ c = a v (b ^ c).

    A lattice of finite length is modular iff it is both upper and lower
    semimodular (Birkhoff, Lattice Theory, ch. II).
    """
    return is_upper_semimodular(lat) and is_lower_semimodular(lat)


def is_distributive(lat: FiniteLattice) -> bool:
    """Both distributive laws.

    A finite lattice is distributive iff it is modular and has as many
    join-irreducible elements (those with one lower cover) as its length.
    Each step x < y of a maximal chain has a join-irreducible below y and
    not below x, so there are at least as many as the length, and exactly
    as many in a distributive lattice by Birkhoff's representation theorem.
    With equality each step has exactly one, so for x <= y there are
    h(y) - h(x) join-irreducibles below y and not below x, h being the
    height.  A diamond o < a, b, c < i would then hold disjoint sets of
    h(b) - h(o) and h(c) - h(o) of them below i and not below a, while
    modularity gives h(i) - h(a) = h(b) - h(o); so c = o, which is absurd,
    and a modular lattice without a diamond is distributive.  All maximal
    chains of a modular lattice have one length, so any of them measures it.
    """
    return is_modular(lat) and _irreducibles_match_length(lat)


def join_irreducibles(lat: FiniteLattice):
    """The join-irreducible elements, those with exactly one lower cover, in
    index order.  In a finite lattice every element is the join of the
    join-irreducibles below it, and a join-irreducible is no join of
    elements strictly below it, so they form the unique minimal
    join-generating set."""
    return [i for i, row in enumerate(lat.cover_dn) if row.bit_count() == 1]


def _irreducibles_match_length(lat: FiniteLattice) -> bool:
    """Are there as many join-irreducibles as the length?  See is_distributive."""
    irreducible = len(join_irreducibles(lat))
    length = 0
    at = lat.bottom
    while at != lat.top:
        row = lat.cover_up[at]
        at = (row & -row).bit_length() - 1
        length += 1
    return irreducible == length


def is_atomistic_lattice(lat: FiniteLattice) -> bool:
    """Is every element a finite join of atoms?  The bottom is the empty join.

    Every element is the join of the join-irreducibles below it, and a
    join-irreducible element that is a join of atoms is one of them; so the
    lattice is atomistic iff each element with one lower cover covers the
    bottom.
    """
    bottom = 1 << lat.bottom
    return all(lat.cover_dn[i] == bottom for i in join_irreducibles(lat))


# -- graph-level predicates (valid for cyclic graphs too) --------------------


def predicate_lower_semimodular(graph: Digraph) -> bool:
    """No forked vertices; equivalent to lower-semimodularity of the lattice."""
    return graph.forked_vertices() == 0


def predicate_condition_iv(graph: Digraph) -> bool:
    """For simple graphs: co-initial edges always have comparable ranges."""
    if not graph.is_simple():
        raise ValueError("requires a simple graph (acyclic, no parallel edges)")
    for v in range(graph.n):
        ranges = list(bits(graph.succ[v]))
        for i, ri in enumerate(ranges):
            for rj in ranges[i + 1:]:
                if not (graph.geq(ri, rj) or graph.geq(rj, ri)):
                    return False
    return True


def predicate_atomistic(graph: Digraph) -> bool:
    """Per-vertex test for every congruence being a join of atoms: each
    vertex is a sink, sits above some vertex of out-degree other than one
    without lying on a cycle, or has out-degree at least two with every
    out-range above it.  A vertex v with one out-edge v -> r lies on a
    cycle iff r reaches v, since every cycle through v leaves by that
    edge."""
    one = graph.eligible(0)
    for v, succ in enumerate(graph.succ):
        if not succ:
            continue
        if one >> v & 1:
            if graph.reach[succ.bit_length() - 1] >> v & 1:
                return False
            if not graph.reach[v] & ~one:
                return False
        else:
            if not all(graph.geq(r, v) for r in bits(succ)):
                return False
    return True


# -- generating sets ----------------------------------------------------------


def minimal_generating_set(graph: Digraph):
    """The congruences every generating set of the lattice must contain:
    one per sink, plus, for each non-sink vertex, the containment-minimal
    hereditary sets leaving it exactly one out-edge.

    Each is built by WangTriple._proved, valid as it stands on the simple,
    so acyclic, graph, where every cycle function is empty.  ({v}, ∅) for
    a sink v: nothing leaves v, so {v} is hereditary.  (H, {v}) for a
    range r in once[v]: H, the hereditary closure of v's other ranges, is
    hereditary; it misses v, as no range of v reaches v on an acyclic
    graph; and it holds every range of v but r, which it misses by the
    test and which one edge of v reaches, so v keeps exactly one out-edge
    outside H and lies in eligible(H)."""
    if not graph.is_simple():
        raise ValueError("requires a simple graph (acyclic, no parallel edges)")
    gens = []
    for v, succ in enumerate(graph.succ):
        if not succ:
            gens.append(WangTriple._proved(graph, 1 << v, 0, {}))
    for v, succ in enumerate(graph.succ):
        if not succ:
            continue
        cands = set()
        for r in bits(graph.once[v]):
            H = graph.hereditary_closure(succ & ~(1 << r))
            if not H >> r & 1:
                cands.add(H)
        for H in sorted(cands):
            if not any(other != H and other & ~H == 0 for other in cands):
                gens.append(WangTriple._proved(graph, H, 1 << v, {}))
    return gens


def element_indices(lat: ConLattice, elements):
    """Sorted indices of the given elements, each found by its union H | W,
    repeats kept; a ValueError names the first one not in the lattice."""
    found = []
    for t in elements:
        i = lat.by_union.get(t.H | t.W)
        if i is None or t.graph != lat.graph or lat.masks[i] != (t.H, t.W):
            raise ValueError(f"element {t!r} is not in the lattice")
        found.append(i)
    return sorted(found)


def generated_sublattice(lat: ConLattice, gens):
    """Join closure of the given elements together with the bottom.

    This is the independent join closure that criterion 07 checks
    generation against; `gislat generators` decides generation and
    minimality from join_irreducibles and calls it only to report how far
    a failing set reaches.  Each element is joined with the generators
    only: an element of the closure other than the bottom is a join
    g1 v ... v gk of generators, reached from g1 v ... v gk-1 by one join
    with gk."""
    generators = sorted(set(element_indices(lat, gens)))
    idxs = {lat.bottom, *generators}
    frontier = list(generators)
    while frontier:
        a = frontier.pop()
        for g in generators:
            j = lat.join_idx(a, g)
            if j not in idxs:
                idxs.add(j)
                frontier.append(j)
    return [lat.elements[i] for i in sorted(idxs)]
