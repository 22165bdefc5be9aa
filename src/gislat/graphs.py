"""Finite directed multigraphs with reachability and hereditary-set machinery.

Vertex subsets are plain int bitmasks (bit ``i`` set means vertex ``i`` is in
the set), so set algebra is ``&``, ``|``, ``& ~`` plus the helpers below.
Each vertex keeps two masks of the ranges of its out-edges: succ, every
range, and once, the ranges that exactly one of its edges reaches.  Which
out-edges of a vertex survive removing a set H is read off these two
masks; Digraph.eligible answers it for the W of a Wang triple.
Graphs are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import operator


class CapExceeded(RuntimeError):
    """An enumeration grew past its cap: what names the things counted,
    size is the count it had reached when it stopped, and cap the limit."""

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{size} {what}, more than the cap of {cap}")
        self.what, self.size, self.cap = what, size, cap


HEREDITARY_CAP = 1 << 20
# Guards the cycle-function calculus; no command lists cycles.  On a 2-core
# machine `cycles()` lists K9, the complete digraph on 9 vertices (125,664
# cycles), in 1.0–1.4 s at 39 MB and K8 (16,064) in 0.13–0.15 s at 17 MB;
# K10 (1,112,073) trips the cap in 1.2–1.3 s at 39 MB.
CYCLE_CAP = 200_000


def bits(mask: int):
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def canonical_rotation(seq):
    """Lexicographically least rotation of an edge-id sequence."""
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


class Digraph:
    """Immutable directed multigraph with dense integer vertex and edge ids.

    Vertices are 0..n-1 with user-facing string names kept in a side table;
    edges are an ordered tuple of (source, range) pairs, the edge id being
    the position.  Parallel edges are permitted and distinct.  succ[v] is
    the mask of the ranges of v's out-edges, once[v] the mask of those
    ranges that exactly one edge of v reaches, and reach[v] the mask of the
    vertices reachable from v, v included.  eligible(H) is the set a Wang
    triple's W may draw from: the vertices keeping exactly one out-edge once
    H is removed.  The hereditary sets, the cycles (each with the mask of
    its sources), the forked vertices and whether the graph is acyclic are
    cached when first asked for.
    """

    __slots__ = ("names", "n", "edges", "m", "full", "out_edges", "succ",
                 "once", "reach", "_index", "_cycles", "_hereditary",
                 "_forked", "_acyclic", "_hash")

    def __init__(self, names, edges):
        names = tuple(str(x) for x in names)
        index = {}
        for name in names:
            if name in index:
                raise ValueError(f"duplicate vertex name {name!r}")
            index[name] = len(index)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "n", len(names))
        pairs = []
        for edge in edges:
            try:  # a bool is an int, but no vertex id
                if bool in map(type, edge):
                    raise TypeError
                s, r = map(operator.index, edge)
            except TypeError:
                raise ValueError(
                    f"edge endpoints are not vertex ids: {edge!r}") from None
            if not (0 <= s < self.n and 0 <= r < self.n):
                raise ValueError(f"edge endpoint out of range: ({s}, {r})")
            pairs.append((s, r))
        pairs = tuple(pairs)
        object.__setattr__(self, "edges", pairs)
        object.__setattr__(self, "m", len(pairs))
        object.__setattr__(self, "full", (1 << self.n) - 1)
        out = [[] for _ in range(self.n)]
        succ = [0] * self.n
        twice = [0] * self.n
        for i, (s, r) in enumerate(pairs):
            out[s].append(i)
            twice[s] |= succ[s] & 1 << r
            succ[s] |= 1 << r
        object.__setattr__(self, "out_edges", tuple(tuple(es) for es in out))
        object.__setattr__(self, "succ", tuple(succ))
        object.__setattr__(self, "once", tuple(
            ranges & ~again for ranges, again in zip(succ, twice)))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "reach", self._reachability())
        object.__setattr__(self, "_cycles", None)
        object.__setattr__(self, "_hereditary", None)
        object.__setattr__(self, "_forked", None)
        object.__setattr__(self, "_acyclic", None)
        object.__setattr__(self, "_hash", hash((names, pairs)))

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def _set(self, name, value):
        """Fill one of the lazy caches (_hereditary, _cycles, _forked,
        _acyclic).
        Each is a function of the graph alone, stored in one assignment, so
        threads that race to fill one compute equal values and the last
        store wins harmlessly."""
        object.__setattr__(self, name, value)

    def _reachability(self):
        succ = self.succ
        reach = []
        for v in range(self.n):
            seen = 1 << v
            new = succ[v] & ~seen
            while new:
                seen |= new
                step = 0
                for u in bits(new):
                    step |= succ[u]
                new = step & ~seen
            reach.append(seen)
        return tuple(reach)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Digraph)
            and self.names == other.names and self.edges == other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Digraph({list(self.names)!r}, {list(self.edges)!r})"

    # -- name <-> id helpers ------------------------------------------------

    def vertex(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown vertex name {name!r}") from None

    def vertex_set(self, names) -> int:
        return mask_of(self.vertex(name) for name in names)

    def vertex_names(self, mask: int):
        return [self.names[v] for v in bits(mask)]

    # -- the reachability preorder ------------------------------------------

    def geq(self, u: int, v: int) -> bool:
        """u >= v: v is reachable from u (reflexively)."""
        return bool(self.reach[u] >> v & 1)

    def is_hereditary(self, H: int) -> bool:
        """Is every vertex reachable from H already in H?"""
        return self.hereditary_closure(H) == H

    def hereditary_closure(self, S: int) -> int:
        """Least hereditary superset of S."""
        closure = S
        for v in bits(S):
            closure |= self.reach[v]
        return closure

    def hereditary_sets(self, cap: int | None = None):
        """All hereditary vertex sets, sorted by (size, bit pattern): {∅}
        closed under union with each reach[v].  Raises CapExceeded on the
        set that passes cap, or HEREDITARY_CAP when lower or cap is None, so
        a trip holds cap + 1, and on a cached list longer than the cap; only
        a complete list is cached."""
        cap = HEREDITARY_CAP if cap is None else min(cap, HEREDITARY_CAP)
        if self._hereditary is None:
            sets = {0}
            # the vertices of one strongly connected component share a down-set
            for down in set(self.reach):
                for s in list(sets):
                    sets.add(s | down)
                    if len(sets) > cap:
                        raise CapExceeded("hereditary sets", len(sets), cap)
            self._set("_hereditary",
                      tuple(sorted(sets, key=lambda h: (h.bit_count(), h))))
        elif len(self._hereditary) > cap:
            raise CapExceeded("hereditary sets", len(self._hereditary), cap)
        return list(self._hereditary)

    def is_downward_directed(self, H: int) -> bool:
        """Is H nonempty with a common lower bound in H for every pair?

        Decided as one AND: H and the reach row of every vertex of H share
        a vertex.  The AND starts from H, as a row also holds vertices
        outside H.  A common lower bound of all of H bounds every pair.
        Conversely, in a finite preorder pairwise lower bounds compose: a
        lower bound w of v1..vk and a lower bound of the pair (w, vk+1)
        is, by transitivity, one of v1..vk+1.  An empty H gives 0."""
        common = H
        for v in bits(H):
            common &= self.reach[v]
        return common != 0

    def strongly_connected_components(self):
        """Partition of the vertices into maximal mutually-reachable classes,
        as bitmasks ordered by least member: the vertices grouped by equal
        reach rows, each row read once.  Reach is reflexive, so vertices
        with equal rows reach each other, and mutually reachable vertices
        reach the same vertices, so their rows are equal."""
        comps = {}  # each reach row to its component, in first-seen order
        for v, row in enumerate(self.reach):
            comps[row] = comps.get(row, 0) | 1 << v
        return list(comps.values())

    # -- removing a vertex set ----------------------------------------------

    def eligible(self, H: int) -> int:
        """Vertices outside H with one range outside H, reached by one edge."""
        W = 0
        keep = ~H
        for v, once in enumerate(self.once):
            left = self.succ[v] & keep
            if left & once and not left & (left - 1):
                W |= 1 << v
        return W & keep

    # -- cycles ----------------------------------------------------------------

    def cycles(self):
        """All cycles (closed paths with pairwise distinct sources) as
        canonical-rotation edge-id tuples, sorted.  Raises CapExceeded
        when more than CYCLE_CAP cycles appear.  Each is found once, from
        its least vertex s, and every vertex on it reaches s, so the search
        stays inside the strongly connected component of s."""
        if self._cycles is None:
            cap = CYCLE_CAP
            found = []
            edges, reach = self.edges, self.reach
            for start in range(self.n):
                stack = [(start, (), 1 << start)]
                while stack:
                    u, path, visited = stack.pop()
                    for e in self.out_edges[u]:
                        w = edges[e][1]
                        if w == start:
                            found.append(canonical_rotation(path + (e,)))
                            if len(found) > cap:
                                raise CapExceeded("cycles", len(found), cap)
                        elif (w > start and not visited >> w & 1
                              and reach[w] >> start & 1):
                            stack.append((w, path + (e,), visited | 1 << w))
            found.sort()
            self._set("_cycles",
                      {c: mask_of(edges[e][0] for e in c) for c in found})
        return list(self._cycles)

    def cycle_sources(self, cycle) -> int:
        """Bitmask of the sources of a canonical cycle."""
        if self._cycles is None:
            self.cycles()
        try:
            return self._cycles[tuple(cycle)]
        except KeyError:
            raise ValueError(
                f"unknown or non-canonical cycle {tuple(cycle)!r}") from None

    def cycles_in(self, H: int):
        """All canonical cycles whose edge sources all lie in H."""
        if self._cycles is None:
            self.cycles()
        return [c for c, sources in self._cycles.items() if sources & ~H == 0]

    def is_acyclic(self) -> bool:
        """Is there no cycle?  An edge s -> r closes one iff r reaches s
        (reach is reflexive, so a loop counts).  Scanned once, then kept."""
        if self._acyclic is None:
            reach = self.reach
            self._set("_acyclic",
                      not any(reach[r] >> s & 1 for s, r in self.edges))
        return self._acyclic

    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) < self.m

    def is_simple(self) -> bool:
        """Acyclic and without parallel edges."""
        return self.is_acyclic() and not self.has_parallel_edges()

    def is_weakly_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj = [0] * self.n
        for s, r in self.edges:
            adj[s] |= 1 << r
            adj[r] |= 1 << s
        seen = 1
        frontier = [0]
        while frontier:
            u = frontier.pop()
            new = adj[u] & ~seen
            seen |= new
            frontier.extend(bits(new))
        return seen == self.full

    # -- forked vertices ---------------------------------------------------------

    def lone_ranges(self, v: int) -> int:
        """The ranges r of v that one edge of v reaches and no other range
        of v reaches: once[v] minus the OR over the ranges u of v of
        reach[u] without u itself.  For u = r the term drops r; for u != r
        it holds r iff u reaches r.  A range two edges reach is not in
        once[v], so a range reached twice never counts."""
        reach = self.reach
        others = 0
        for u in bits(self.succ[v]):
            others |= reach[u] & ~(1 << u)
        return self.once[v] & ~others

    def forked_vertices(self) -> int:
        """Vertices with two out-edges whose ranges are inaccessible from the
        ranges of every other co-initial edge, as a bitmask: the vertices
        with two or more lone ranges."""
        if self._forked is None:
            self._set("_forked", mask_of(
                v for v in range(self.n)
                if self.lone_ranges(v).bit_count() >= 2))
        return self._forked

    # -- paths -------------------------------------------------------------------

    def path_range(self, path) -> int:
        v, es = path
        return v if not es else self.edges[es[-1]][1]


def build_graph(names, edges) -> Digraph:
    """Build a Digraph from vertex names and (source name, range name) pairs."""
    names = list(names)
    index = {name: i for i, name in enumerate(names)}
    pairs = []
    for s, r in edges:
        if s not in index:
            raise ValueError(f"unknown vertex name {s!r}")
        if r not in index:
            raise ValueError(f"unknown vertex name {r!r}")
        pairs.append((index[s], index[r]))
    return Digraph(names, pairs)
