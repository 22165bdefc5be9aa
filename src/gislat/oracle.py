"""Brute-force ground truth for acyclic graphs: the finite graph inverse
semigroup built from the axioms, exhaustive congruence enumeration, and the
order-isomorphism check against the triple lattice.

Elements are None (zero) or a pair of paths (p, q) with equal range, a path
being (start vertex, tuple of edge ids).  Congruences are canonical label
tuples: position i holds the block of element i, blocks numbered by first
appearance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graphs import CapExceeded, Digraph
from . import triples as _triples
from .lattice import DEFAULT_LATTICE_CAP, enumerate_lattice

DEFAULT_ELEMENT_CAP = 300
DEFAULT_CONGRUENCE_CAP = 20000


def all_paths(graph: Digraph, cap: int | None = None):
    """Every path of an acyclic graph, the vertices as length-0 paths."""
    paths = [(v, ()) for v in range(graph.n)]
    frontier = list(paths)
    while frontier:
        p = frontier.pop()
        at = graph.path_range(p)
        for e in graph.out_edges[at]:
            q = (p[0], p[1] + (e,))
            paths.append(q)
            frontier.append(q)
            if cap is not None and len(paths) > cap:
                raise CapExceeded(f"more than {cap} paths")
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

    elements[0] is the zero; rows[i][j] is the index of the product, and
    cols is the transpose (used by the congruence closure inner loop).
    """

    def __init__(self, graph: Digraph, elements):
        self.graph = graph
        self.elements = list(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        idx = self.index
        self.rows = [[idx[multiply(graph, x, y)] for y in self.elements]
                     for x in self.elements]
        self.cols = [list(col) for col in zip(*self.rows)]

    def __len__(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.rows[i][j]

    def inverse_idx(self, i):
        return self.index[inverse(self.elements[i])]


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
        raise CapExceeded(f"semigroup has {count} elements, cap {element_cap}")
    elements = [None]
    for v in sorted(by_range):
        ps = sorted(by_range[v])
        elements.extend((p, q) for p in ps for q in ps)
    return MulTable(graph, elements)


def associativity_violations(table: MulTable, exhaustive_limit: int = 60,
                             samples: int = 5000, seed: int = 0):
    """Triples violating associativity: exhaustive for small tables,
    randomized beyond."""
    n = len(table)
    rows = table.rows
    bad = []
    if n <= exhaustive_limit:
        rng = range(n)
        stream = ((x, y, z) for x in rng for y in rng for z in rng)
    else:
        rnd = random.Random(seed)
        stream = ((rnd.randrange(n), rnd.randrange(n), rnd.randrange(n))
                  for _ in range(samples))
    for x, y, z in stream:
        if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
            bad.append((x, y, z))
    return bad


# -- congruences as canonical partitions ---------------------------------------


def _canon(parent):
    labels = [0] * len(parent)
    seen = {}
    for i in range(len(parent)):
        r = i
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        labels[i] = seen.setdefault(r, len(seen))
    return tuple(labels)


def generated_congruence(table: MulTable, pairs):
    """Least congruence containing the given element-index pairs: a
    union-find worklist that re-closes under left and right translation
    whenever two classes merge."""
    rows = table.rows
    cols = table.cols
    parent = list(range(len(table)))
    work = list(pairs)
    while work:
        a, b = work.pop()
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            continue
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
        for x, y in zip(cols[a], cols[b]):
            if x != y:
                work.append((x, y))
        for x, y in zip(rows[a], rows[b]):
            if x != y:
                work.append((x, y))
    return _canon(parent)


def principal_congruences(table: MulTable):
    n = len(table)
    out = set()
    for x in range(n):
        for y in range(x + 1, n):
            out.add(generated_congruence(table, [(x, y)]))
    return out


def partition_join(l1, l2):
    parent = list(range(len(l1)))

    def union(i, j):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i != j:
            parent[max(i, j)] = min(i, j)

    for labels in (l1, l2):
        first = {}
        for i, lab in enumerate(labels):
            j = first.setdefault(lab, i)
            if j != i:
                union(i, j)
    return _canon(parent)


def partition_meet(l1, l2):
    seen = {}
    return tuple(seen.setdefault(pair, len(seen)) for pair in zip(l1, l2))


def refines(l1, l2) -> bool:
    """Does every block of l1 sit inside a block of l2 (i.e. l1 <= l2)?"""
    image = {}
    for a, b in zip(l1, l2):
        if image.setdefault(a, b) != b:
            return False
    return True


def enumerate_congruences(table: MulTable,
                          element_cap: int = DEFAULT_ELEMENT_CAP,
                          congruence_cap: int = DEFAULT_CONGRUENCE_CAP):
    """Every congruence exactly once: all principal congruences, closed
    under join, plus the diagonal."""
    n = len(table)
    if n > element_cap:
        raise CapExceeded(f"semigroup has {n} elements, cap {element_cap}")
    found = {tuple(range(n))}
    found.update(principal_congruences(table))
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for q in list(found):
            j = partition_join(p, q)
            if j not in found:
                found.add(j)
                frontier.append(j)
                if len(found) > congruence_cap:
                    raise CapExceeded(
                        f"more than {congruence_cap} congruences")
    return sorted(found)


def realize_triple(t, table: MulTable):
    """The congruence generated by the triple's generating pairs."""
    idx = table.index
    seeds = []
    for x, y in _triples.generating_pairs(t):
        seeds.append((idx[x], idx[y]))
    return generated_congruence(table, seeds)


# -- the order-isomorphism check ------------------------------------------------


@dataclass
class IsoReport:
    passed: bool
    semigroup_size: int
    lattice_size: int
    congruence_count: int
    failures: list = field(default_factory=list)


def verify_isomorphism(graph: Digraph,
                       element_cap: int = DEFAULT_ELEMENT_CAP,
                       congruence_cap: int = DEFAULT_CONGRUENCE_CAP,
                       lattice_cap: int = DEFAULT_LATTICE_CAP,
                       table: MulTable | None = None) -> IsoReport:
    """Check that triples map bijectively onto the semigroup's congruences,
    matching order, joins, and meets; failures carry concrete witnesses.
    Pass the graph's semigroup as table to skip building it again."""
    if table is None:
        table = build_semigroup(graph, element_cap)
    lat = enumerate_lattice(graph, lattice_cap)
    realized = [realize_triple(t, table) for t in lat.elements]
    congs = enumerate_congruences(table, element_cap, congruence_cap)
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

    n = len(lat.elements)
    for i in range(n):
        for j in range(n):
            order_t = _triples.leq(lat.elements[i], lat.elements[j])
            order_c = refines(realized[i], realized[j])
            if order_t != order_c:
                failures.append(
                    f"order mismatch at {lat.elements[i]!r} vs "
                    f"{lat.elements[j]!r}: triple {order_t}, congruence {order_c}")
    for i in range(n):
        for j in range(i, n):
            if realized[lat.join_idx(i, j)] != partition_join(realized[i], realized[j]):
                failures.append(
                    f"join mismatch at {lat.elements[i]!r}, {lat.elements[j]!r}")
            if realized[lat.meet_idx(i, j)] != partition_meet(realized[i], realized[j]):
                failures.append(
                    f"meet mismatch at {lat.elements[i]!r}, {lat.elements[j]!r}")

    return IsoReport(passed=not failures,
                     semigroup_size=len(table),
                     lattice_size=n,
                     congruence_count=len(congs),
                     failures=failures)
