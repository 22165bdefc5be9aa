"""Reference computations made apart from gislat, used to check its output.

A graph here is a vertex count n and a list of (source, range) index pairs;
parallel edges repeat a pair.  Reachability comes from networkx, vertex sets
are int bitmasks.  Nothing in this module imports gislat.
"""

from __future__ import annotations

import math
from itertools import product

import networkx as nx

INF = math.inf


def _digraph(n, edges) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def down_masks(n, edges):
    """down[v]: v together with every vertex reachable from it."""
    g = _digraph(n, edges)
    return [_mask(nx.descendants(g, v)) | 1 << v for v in range(n)]


def hereditary_sets(n, edges):
    """Every vertex set closed under reachability, including the empty set.

    Walks the strongly connected components sinks first: a component may
    join a set only once every component it reaches is already in it.
    """
    g = _digraph(n, edges)
    cond = nx.condensation(g)
    members = {c: _mask(cond.nodes[c]["members"]) for c in cond}
    below = {c: _mask(v for d in nx.descendants(cond, c)
                      for v in cond.nodes[d]["members"]) for c in cond}
    sets = [0]
    for c in reversed(list(nx.topological_sort(cond))):
        sets += [s | members[c] for s in sets if below[c] & ~s == 0]
    return sets


def eligible(n, edges, H) -> int:
    """Vertices outside H with exactly one out-edge whose range avoids H."""
    count = [0] * n
    for s, r in edges:
        if not H >> s & 1 and not H >> r & 1:
            count[s] += 1
    return _mask(v for v in range(n) if not H >> v & 1 and count[v] == 1)


def subsets(mask):
    """Every submask of mask."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def element_count(n, edges) -> int:
    """Size of the congruence lattice of an acyclic graph: the sum over
    hereditary sets H of 2 ** |eligible(H)|."""
    return sum(1 << eligible(n, edges, H).bit_count()
               for H in hereditary_sets(n, edges))


def lattice_elements(n, edges):
    """Every (H, W) pair of an acyclic graph."""
    return {(H, W) for H in hereditary_sets(n, edges)
            for W in subsets(eligible(n, edges, H))}


def hw_leq(a, b) -> bool:
    """Containment order of two (H, W) pairs of an acyclic graph."""
    (h1, w1), (h2, w2) = a, b
    return h1 & ~h2 == 0 and (w1 & ~h2) & ~w2 == 0


def lattice_covers(n, elements):
    """Cover pairs of an acyclic lattice.  The union H | W determines the
    element, and along a strict step of the order it strictly grows, so b
    covers a exactly when a <= b and the union gains one vertex."""
    by_union = {h | w: (h, w) for h, w in elements}
    if len(by_union) != len(elements):
        raise ValueError("two elements share their union H | W")
    out = set()
    for a in elements:
        u = a[0] | a[1]
        for v in range(n):
            b = by_union.get(u | 1 << v)
            if b is not None and b != a and hw_leq(a, b):
                out.add((a, b))
    return out


def forked(n, edges) -> int:
    """Vertices with two out-edges whose ranges are reachable from the range
    of no other edge leaving the same vertex."""
    down = down_masks(n, edges)
    out = [[] for _ in range(n)]
    for s, r in edges:
        out[s].append(r)
    mask = 0
    for v, ranges in enumerate(out):
        lonely = sum(1 for i, r in enumerate(ranges)
                     if not any(down[q] >> r & 1
                                for j, q in enumerate(ranges) if j != i))
        if lonely >= 2:
            mask |= 1 << v
    return mask


def condition_iv(n, edges) -> bool:
    """Co-initial edges always have comparable ranges."""
    down = down_masks(n, edges)
    for v in range(n):
        ranges = [r for s, r in edges if s == v]
        for i, a in enumerate(ranges):
            for b in ranges[i + 1:]:
                if not (down[a] >> b & 1 or down[b] >> a & 1):
                    return False
    return True


def semigroup_size(n, edges) -> int:
    """1 + sum over v of p(v) ** 2, p(v) counting the paths that end at v
    (the length-0 path included), for an acyclic multigraph."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    paths = {}
    for v in nx.topological_sort(g):
        paths[v] = 1 + sum(paths[u] for u, _ in g.in_edges(v))
    return 1 + sum(p * p for p in paths.values())


def canonical_cycles(n, edges):
    """Every cycle as the least rotation of its edge-id sequence, with the
    bitmask of its vertices: each vertex cycle from networkx, expanded over
    the choices among parallel edges."""
    ids = {}
    for e, pair in enumerate(edges):
        ids.setdefault(pair, []).append(e)
    out = {}
    for cyc in nx.simple_cycles(_digraph(n, edges)):
        hops = [ids[(cyc[i], cyc[(i + 1) % len(cyc)])] for i in range(len(cyc))]
        src = _mask(cyc)
        for seq in product(*hops):
            out[min(seq[i:] + seq[:i] for i in range(len(seq)))] = src
    return out


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


def cycle_value(H, W, f, cycle, src):
    """The value at a cycle of the function of an (H, W, f) triple, f
    holding the values chosen for cycles through W."""
    if src & ~H == 0:
        return 1
    if src & ~(H | W) == 0:
        return f.get(cycle, INF)
    return INF
