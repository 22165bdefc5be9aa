"""Enumeration of small graph families up to isomorphism.

Graphs are canonicalised by colour refinement (McKay and Piperno, *Practical
graph isomorphism II*, 2014).  Every vertex starts with one colour; each
round recolours a vertex by its colour and the sorted colours of its out-
and in-neighbours, counted with multiplicity, and ranks these signatures by
sorted value, so that no colour depends on a vertex id.  Rounds stop when
the number of classes stops growing.  The key is the least sorted
relabelled edge tuple over the labellings that number the classes in
colour order and permute only inside each class.

This is a canonical form.  An isomorphism maps each colour class onto the
class of the same colour, so it pairs off the colour-respecting labellings
of two isomorphic graphs, and the least relabelled edge tuple is the same
for both.  Conversely, equal keys mean both graphs are isomorphic to the one
labelled graph the key spells out.

Acyclic graphs are generated with vertices already in topological order, so
only edges from lower to higher ids ever appear.  Each family is deduped
first and filtered by its isomorphism-invariant condition (connectivity,
acyclicity) afterwards, so the first member of each kept class is the
representative either way.
"""

from __future__ import annotations

from itertools import (chain, combinations, combinations_with_replacement,
                       permutations, product)

from .graphs import Digraph


def _colour_classes(n, edges):
    """Vertex classes of the stable colour refinement, in colour order."""
    outs = [[] for _ in range(n)]
    ins = [[] for _ in range(n)]
    for s, r in edges:
        outs[s].append(r)
        ins[r].append(s)
    colour = [0] * n
    classes = 1
    while True:
        of = colour.__getitem__
        signature = [(colour[v], tuple(sorted(map(of, outs[v]))),
                      tuple(sorted(map(of, ins[v])))) for v in range(n)]
        rank = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        colour = [rank[sig] for sig in signature]
        if len(rank) == classes:
            break
        classes = len(rank)
    cells = [[] for _ in range(classes)]
    for v in range(n):
        cells[colour[v]].append(v)
    return cells


def canonical_form(n, edges):
    """(n, least sorted relabelled edges) over the labellings that number
    the colour classes in order and permute only inside each class."""
    edges = list(edges)
    best = None
    for order in product(*map(permutations, _colour_classes(n, edges))):
        label = [0] * n
        for i, v in enumerate(chain.from_iterable(order)):
            label[v] = i
        key = tuple(sorted((label[s], label[r]) for s, r in edges))
        if best is None or key < best:
            best = key
    return (n, best)


def _digraph(n, edges):
    return Digraph([str(i) for i in range(n)], edges)


def _dedupe(graphs):
    """One Digraph per isomorphism class among the (n, edges) pairs of an
    iterable: the first member of each class, in order."""
    seen = set()
    out = []
    for n, edges in graphs:
        key = canonical_form(n, edges)
        if key not in seen:
            seen.add(key)
            out.append(_digraph(n, edges))
    return out


def simple_graphs(n, connected=False):
    """Simple graphs (acyclic, no parallel edges) on exactly n vertices,
    up to isomorphism."""
    slots = list(combinations(range(n), 2))
    found = _dedupe(
        (n, [slots[k] for k in range(len(slots)) if pick >> k & 1])
        for pick in range(1 << len(slots)))
    if connected:
        return [g for g in found if g.is_weakly_connected()]
    return found


def connected_simple_graphs(max_n):
    """Connected simple graphs with 1..max_n vertices, up to isomorphism."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(simple_graphs(n, connected=True))
    return out


def acyclic_multigraphs(max_n, max_edges):
    """Acyclic multigraphs with at most max_n vertices and max_edges edges,
    up to isomorphism (isolated vertices included, parallel edges allowed)."""
    return _dedupe(
        (n, list(combo))
        for n in range(1, max_n + 1)
        for total in range(max_edges + 1)
        for combo in combinations_with_replacement(
            list(combinations(range(n), 2)), total))


def outdeg_le1_graphs(max_n):
    """Acyclic graphs with every out-degree at most one and at most max_n
    vertices, up to isomorphism."""
    found = _dedupe(
        (n, [(v, t) for v, t in enumerate(targets) if t is not None])
        for n in range(1, max_n + 1)
        for targets in product(*([None] + [u for u in range(n) if u != v]
                                 for v in range(n))))
    return [g for g in found if g.is_acyclic()]
