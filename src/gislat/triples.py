"""Wang triples (H, W, f) and their pointwise lattice calculus.

A triple consists of a hereditary vertex set H, a set W of vertices with
exactly one surviving out-edge once H is removed, and a cycle function f
assigning a positive integer or infinity to every cycle, forced to 1 on
cycles inside H and to infinity on cycles leaving H union W.  Triples
parametrise the congruences of the graph inverse semigroup, and the order,
join, meet, cover and atom operations below work for any finite graph,
cyclic or not.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping

from .graphs import Digraph, bits

INF = math.inf


def divides(a, b) -> bool:
    """a | b in the positive integers extended by infinity: n | inf and
    inf | inf hold, inf | n does not."""
    if b == INF:
        return True
    if a == INF:
        return False
    return b % a == 0


def ext_gcd(a, b):
    if a == INF:
        return b
    if b == INF:
        return a
    return math.gcd(a, b)


def ext_lcm(a, b):
    if a == INF or b == INF:
        return INF
    return a * b // math.gcd(a, b)


def is_prime(n) -> bool:
    if n == INF or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vertex_mask(name, mask) -> int:
    """mask as an int vertex set; a bool is an int, but no vertex set."""
    try:
        if isinstance(mask, bool):
            raise TypeError
        return operator.index(mask)
    except TypeError:
        raise ValueError(f"{name} is not a vertex-set mask: {mask!r}") from None


class WangTriple:
    """An (H, W, f) triple on a fixed graph, validated at construction;
    results the calculus proves valid are built unchecked by _proved.

    f is given as a mapping (or pair iterable) from canonical cycles, each
    a sequence of edge ids, to values; a cycle given twice is a ValueError.
    Only finite values on cycles through W are stored, every other value
    being forced.  Instances are immutable, hashable, and compare equal
    exactly when all three components agree on the same graph.
    """

    __slots__ = ("graph", "H", "W", "f", "_fmap", "_hash")

    def __init__(self, graph: Digraph, H: int, W: int, f=()):
        H, W = _vertex_mask("H", H), _vertex_mask("W", W)
        if H & ~graph.full or W & ~graph.full:
            raise ValueError("vertex set out of range")
        if not graph.is_hereditary(H):
            raise ValueError("H is not hereditary")
        if W & H:
            raise ValueError("W meets H")
        w = next(bits(W & ~graph.eligible(H)), None)
        if w is not None:
            raise ValueError(f"vertex {graph.names[w]!r} does not have "
                             f"exactly one out-edge surviving H")
        store = {}
        seen = set()
        for c, val in f.items() if isinstance(f, Mapping) else f:
            c = tuple(c)
            if c in seen:
                raise ValueError(f"cycle {c!r} given twice")
            seen.add(c)
            # a bool is an int, but no cycle value
            if val != INF and (isinstance(val, bool)
                               or not (isinstance(val, int) and val >= 1)):
                raise ValueError("cycle values must be positive integers or INF")
            src = graph.cycle_sources(c)
            if src & ~H == 0:
                if val != 1:
                    raise ValueError("cycles inside H must map to 1")
            elif src & ~(H | W) == 0:
                if val != INF:
                    store[c] = val
            elif val != INF:
                raise ValueError("cycles leaving H and W must map to INF")
        self._fill(graph, H, W, store)

    @classmethod
    def _proved(cls, graph: Digraph, H: int, W: int, store: dict) -> WangTriple:
        """A valid triple; store holds its finite values on cycles through W."""
        t = object.__new__(cls)
        t._fill(graph, H, W, store)
        return t

    def _fill(self, graph, H, W, store):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "f", tuple(sorted(store.items())))
        object.__setattr__(self, "_fmap", store)
        object.__setattr__(self, "_hash", hash((graph._hash, H, W, self.f)))

    def __setattr__(self, name, value):
        raise AttributeError("WangTriple is immutable")

    def value(self, cycle) -> int:
        """f evaluated at a canonical cycle."""
        cycle = tuple(cycle)
        got = self._fmap.get(cycle)
        if got is not None:
            return got
        if self.graph.cycle_sources(cycle) & ~self.H == 0:
            return 1
        return INF

    def __eq__(self, other):
        return (isinstance(other, WangTriple)
                and self.graph == other.graph
                and self.H == other.H and self.W == other.W
                and self.f == other.f)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        """(H, W, f) with the vertices by name.  f is ∅ on an acyclic
        graph.  Otherwise it lists the stored values, each as
        [edge ids]:value, and then the forced ones: 1 in H, when H holds a
        cycle (an edge s -> r inside it with r reaching s), and ∞ on every
        other cycle."""
        g = self.graph
        hs = "{" + ",".join(g.names[v] for v in bits(self.H)) + "}"
        ws = "{" + ",".join(g.names[v] for v in bits(self.W)) + "}"
        if g.is_acyclic():
            return f"({hs}, {ws}, ∅)"
        # H is hereditary, so an edge with its source in H lies inside it
        in_h = any(self.H >> s & 1 and g.reach[r] >> s & 1 for s, r in g.edges)
        forced = "forced: " + ("1 in H, " if in_h else "") + "∞ elsewhere"
        stored = [", ".join(f"{list(c)}:{v}" for c, v in self.f)] if self.f else []
        fs = "{" + "; ".join(stored + [forced]) + "}"
        return f"({hs}, {ws}, {fs})"


def _same_graph(t1: WangTriple, t2: WangTriple) -> Digraph:
    if t1.graph != t2.graph:
        raise ValueError("triples live on different graphs")
    return t1.graph


def leq_hw(H1: int, W1: int, H2: int, W2: int) -> bool:
    """The order on the (H, W) parts: H grows and W survives outside the
    new H.  On an acyclic graph it is the whole order."""
    return H1 & ~H2 == 0 and W1 & ~H2 & ~W2 == 0


def leq(t1: WangTriple, t2: WangTriple) -> bool:
    """The containment order: leq_hw, and the second cycle function
    divides the first everywhere.

    Only the cycles where f1 is stored need a test: where f1 is forced to
    1 the cycle lies inside H1, so inside H2, and f2 is 1 there too; where
    it is forced to infinity every value divides it."""
    _same_graph(t1, t2)
    if not leq_hw(t1.H, t1.W, t2.H, t2.W):
        return False
    return all(divides(t2.value(c), v) for c, v in t1._fmap.items())


def _v0(g: Digraph, h12: int, ww: int) -> int:
    """The dead ends V0: the vertices of ww \\ h12 (ww = W1 u W2,
    h12 = H1 u H2) with no surviving out-edge.  v has one iff some
    out-edge ranges outside h12, that is iff its range mask succ[v] leaves
    h12, whatever loops or parallel edges v has."""
    succ = g.succ
    v0 = 0
    for v in bits(ww & ~h12):
        if succ[v] & ~h12 == 0:
            v0 |= 1 << v
    return v0


def join_hw(g: Digraph, H1: int, W1: int, H2: int, W2: int):
    """(H, W) of the join: H1 u H2 u J and the leftover W's.

    J holds the vertices of (W1 u W2) \\ (H1 u H2) from which some vertex
    with no surviving out-edge is reachable along a path whose intermediate
    sources stay inside W1 u W2; a path of length 0 qualifies, so all such
    dead-end vertices belong to J themselves.  A vertex of that set joins
    J once some out-edge ranges into J, that is once its range mask
    succ[v] meets J.  J lies inside W1 u W2, so H u W = U1 u U2.
    """
    h12 = H1 | H2
    rest = (W1 | W2) & ~h12
    succ = g.succ
    j = _v0(g, h12, rest)
    # J grows only from dead ends; H1 u H2 is hereditary and misses them,
    # so none of it can enter J
    grew = j
    while grew:
        grew = 0
        for v in bits(rest & ~j):
            if succ[v] & j:
                j |= 1 << v
                grew = 1
    return h12 | j, rest & ~j


def meet_hw(g: Digraph, H1: int, W1: int, H2: int, W2: int):
    """(H, W) of the meet: H1 n H2 and the crossed-over W's minus the
    dead-end vertices, so H u W = (U1 n U2) \\ V0.  W1 n W2 misses
    H1 u H2, and only the dead ends inside it are read."""
    both = W1 & W2
    W = (W1 & H2) | (W2 & H1) | (both & ~_v0(g, H1 | H2, both))
    return H1 & H2, W


# -- join_hw and meet_hw in vertex columns ---------------------------------
#
# The oracle runs the (H, W) core on every pair of a lattice's elements.
# There the elements are stored transposed, as vertex columns: bit j of
# HC[v] is set when v is in H_j, and of WC[v] when v is in W_j.  The two
# functions below apply join_hw's and meet_hw's formulas to one (H1, W1)
# and every j at once, bit j of each column standing for the pair with
# element j; tests hold column j equal to join_hw and meet_hw.  The
# per-pair core stays the faster one for a single pair.


def join_columns(g: Digraph, H1: int, W1: int, HC, WC, ones: int):
    """The columns (H, W) of join_hw(g, H1, W1, H_j, W_j) for every j at
    once, on an acyclic graph: bit j of H[v] is set when v is in the H of
    the join with element j, and likewise W.  HC and WC are the elements'
    vertex columns and ones has the bit of every element set.

    For each bit j the column form reads join_hw's formulas: h12[v], for
    H1 u H2, is all ones when v is in H1 and HC[v] otherwise; rest[v],
    for (W1 u W2) \\ h12, is all ones when v is in W1 and WC[v] otherwise,
    outside h12[v].  v is a dead end where it is in rest and every range
    u of v is in h12, the AND of h12[u] over succ[v].
    J is the least set holding the dead ends and each v of rest with a
    range in J.  On an acyclic graph one pass with each vertex after its
    ranges finds it: v is in J iff it is a dead end or in rest with some
    range u in J, and J[u] is final for every range u by then.  Sorting
    by the size of reach gives that order: v reaches all that a range
    r != v of v reaches, and v itself, which r does not reach on an
    acyclic graph.  So
    J[v] = rest[v] & (AND of h12[u] | OR of J[u]) over the ranges u, the
    AND being all ones for a sink.  The join is (h12 | J, rest & ~J)."""
    h12, jc = [0] * g.n, [0] * g.n
    H, W = [0] * g.n, [0] * g.n
    succ, reach = g.succ, g.reach
    for v in sorted(range(g.n), key=lambda v: reach[v].bit_count()):
        h = ones if H1 >> v & 1 else HC[v]
        rest = (ones if W1 >> v & 1 else WC[v]) & ~h
        dead, reached = ones, 0
        for u in bits(succ[v]):
            dead &= h12[u]
            reached |= jc[u]
        j = rest & (dead | reached)
        h12[v], jc[v] = h, j
        H[v], W[v] = h | j, rest & ~j
    return H, W


def meet_columns(g: Digraph, H1: int, W1: int, HC, WC, ones: int):
    """The columns (H, W) of meet_hw(g, H1, W1, H_j, W_j) for every j at
    once, as join_columns gives the joins.  For each bit j: H[v] is HC[v]
    where v is in H1 and empty elsewhere; both[v], W1 n W2, is WC[v]
    where v is in W1; v is a dead end where it is in both and every range
    u of v is in h12[u], h12 being H1 u H2 as in join_columns (both
    misses h12, as W1 misses H1 and each W_j its H_j); and W[v] is WC[v]
    where v is in H1, and HC[v] with both[v] outside the dead ends where
    v is in W1."""
    h12 = [ones if H1 >> v & 1 else HC[v] for v in range(g.n)]
    H, W = [0] * g.n, [0] * g.n
    succ = g.succ
    for v in range(g.n):
        if H1 >> v & 1:
            H[v], W[v] = HC[v], WC[v]
        elif W1 >> v & 1:
            dead = WC[v]
            for u in bits(succ[v]):
                dead &= h12[u]
            W[v] = HC[v] | WC[v] & ~dead
    return H, W


def _result(g, t1, t2, H, W, combine) -> WangTriple:
    """The proved triple (H, W, f), f combining t1 and t2 on the cycles
    inside H u W that leave H; every other value is forced."""
    store = {}
    for c in g.cycles_in(H | W):
        if g.cycle_sources(c) & ~H:
            val = combine(t1.value(c), t2.value(c))
            if val != INF:
                store[c] = val
    return WangTriple._proved(g, H, W, store)


def join(t1: WangTriple, t2: WangTriple) -> WangTriple:
    """Least upper bound: (H, W) from join_hw, and the gcd of the cycle
    functions."""
    g = _same_graph(t1, t2)
    H, W = join_hw(g, t1.H, t1.W, t2.H, t2.W)
    return _result(g, t1, t2, H, W, ext_gcd)


def meet(t1: WangTriple, t2: WangTriple) -> WangTriple:
    """Greatest lower bound: (H, W) from meet_hw, and the lcm of the cycle
    functions."""
    g = _same_graph(t1, t2)
    H, W = meet_hw(g, t1.H, t1.W, t2.H, t2.W)
    return _result(g, t1, t2, H, W, ext_lcm)


def meet_no_fork(t1: WangTriple, t2: WangTriple) -> WangTriple:
    """The meet, on graphs without forked vertices only.

    There meet_hw's dead ends V0 never meet W1 n W2, so its W is the
    crossed-over W's and W1 n W2 whole.  Let v in W1 n W2 be a dead end:
    no out-edge of v ranges outside H1 u H2.  v is in W1, so exactly one
    edge of v ranges outside H1, to some r1 in H2 \\ H1, and every other
    range of v lies in the hereditary H1, which misses r1, so none reaches
    r1.  Likewise exactly one edge ranges outside H2, to some r2 in
    H1 \\ H2, which no other range of v reaches.  So v is forked."""
    if _same_graph(t1, t2).forked_vertices():
        raise ValueError("graph has forked vertices")
    return meet(t1, t2)


def _cover_kind(t1: WangTriple, t2: WangTriple):
    """Which cover shape t1 < t2 exhibits: 'f' (one cycle value drops by a
    prime), 'w' (W gains one vertex), 'h' (H grows), or None.

    With H and W equal, both cycle functions are forced alike wherever
    neither is stored.  When W gains v, every cycle through v leaves
    H u W1, so f1 is infinity there; f1 = f2 then holds iff f2 stores
    nothing there and both store the same values elsewhere.

    When H grows, let D = H2 \\ H1.  A failed test below names a triple
    strictly between: (H2, W1 \\ H2, f2 on the cycles through W1 \\ H2)
    if W2 != W1 \\ H2; t1 with a missing vertex of D eligible for H1 added
    to W1; t1 with f2's value on a cycle inside W1 where f1 and f2 differ.
    With the tests passed, a triple (h, W, f) between them has H1 < h < H2,
    as h = H1 forces it to be t1 and h = H2 to be t2; so h = H1 u S, S a
    nonempty proper subset of D closed under reach.  W1 \\ h lies in W, so
    its vertices keep an out-edge outside h: those outside H2 do, and a
    W1-vertex v of D keeps its one range r(v) outside H1 (in D, as H2 is
    hereditary) iff r(v) is not in S.  So S is also closed under "r(v) is
    in S, so add v", and then (h, W1 \\ h, f1 on the cycles through
    W1 \\ h) lies between.  Such an S holds the least closed set around
    each of its vertices, so t2 covers t1 iff each vertex's is all of D.
    """
    if t1.H == t2.H:
        if t1.W == t2.W:
            diffs = [c for c in t1._fmap.keys() | t2._fmap.keys()
                     if t1.value(c) != t2.value(c)]
            if len(diffs) != 1:
                return None
            a, b = t1.value(diffs[0]), t2.value(diffs[0])
            if a == INF:
                return None
            return "f" if is_prime(a // b) else None
        if (t2.W & ~t1.W).bit_count() != 1:
            return None
        return "w" if t1.f == t2.f else None
    g, D = t1.graph, t2.H & ~t1.H
    if (t1.W & ~t2.H != t2.W or t1.W & D != D & g.eligible(t1.H)
            or any(t1.value(c) != t2.value(c) for c in g.cycles_in(t1.W))):
        return None
    # what holding x adds: its down-set in D, and each v with r(v) = x
    step = {x: g.reach[x] & D for x in bits(D)}
    for v in bits(t1.W & D):
        step[(g.succ[v] & ~t1.H).bit_length() - 1] |= 1 << v
    for u in bits(D):
        closed = todo = 1 << u
        while todo:
            x = todo.bit_length() - 1
            todo = (todo ^ 1 << x) | step[x] & ~closed
            closed |= step[x]
        if closed != D:
            return None
    return "h"


def covers(t1: WangTriple, t2: WangTriple) -> bool:
    """Does t2 cover t1?  Requires t1 strictly below t2."""
    _same_graph(t1, t2)
    if t1 == t2 or not leq(t1, t2):
        raise ValueError("covers() requires strictly comparable triples")
    return _cover_kind(t1, t2) is not None


def downward_directed_check(t1: WangTriple, t2: WangTriple) -> bool:
    """For an H-growing cover, whether H2 \\ H1 is downward directed."""
    _same_graph(t1, t2)
    if t1 == t2 or not leq(t1, t2) or _cover_kind(t1, t2) != "h":
        raise ValueError("not an H-growing cover pair")
    return t1.graph.is_downward_directed(t2.H & ~t1.H)


def atoms(graph: Digraph):
    """All atoms: singleton-W triples over an empty H, and hereditary
    strongly connected components whose non-sink vertices all have two or
    more out-edges.

    Each is built by WangTriple._proved with no stored cycle value, and is
    valid as it stands.  (∅, {v}, f): ∅ is hereditary, v is drawn from
    eligible(∅), so it keeps exactly one out-edge, and with nothing stored
    every cycle through v takes infinity, which W allows.  (C, ∅, f): C is
    checked hereditary, W is empty, and with nothing stored the cycles
    inside C take 1 and every other cycle, leaving C = H u W, infinity:
    the forced values."""
    one = graph.eligible(0)
    out = [WangTriple._proved(graph, 0, 1 << v, {}) for v in bits(one)]
    for comp in graph.strongly_connected_components():
        if graph.is_hereditary(comp) and not comp & one:
            out.append(WangTriple._proved(graph, comp, 0, {}))
    return out


def vertex_element(v: int):
    """The vertex v as a semigroup element (an empty-path pair)."""
    return ((v, ()), (v, ()))


def generating_pairs(t: WangTriple):
    """The pair set whose congruence closure realises the triple: vertices
    of H collapse to zero, each W-vertex collapses onto its surviving
    idempotent, and each finite cycle power collapses onto its source."""
    g = t.graph
    pairs = [(vertex_element(v), None) for v in bits(t.H)]
    for w in bits(t.W):
        e = next(e for e in g.out_edges[w] if not t.H >> g.edges[e][1] & 1)
        pairs.append((vertex_element(w), ((w, (e,)), (w, (e,)))))
    for c, val in t.f:
        s = g.edges[c[0]][0]
        pairs.append((((s, c * val), (s, ())), vertex_element(s)))
    return pairs
