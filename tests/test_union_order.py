"""Property tests of the theorem ConLattice is built on: in an acyclic graph
H is the largest hereditary subset of U = H ∪ W, so the union determines
the triple and the order is inclusion of unions; the join's union is
U1 ∪ U2 and the meet's (U1 ∩ U2) minus the dead ends V0."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gislat import triples
from gislat.graphs import Digraph
from gislat.lattice import enumerate_lattice


@st.composite
def acyclic_multigraphs(draw, max_n=6):
    """Edges i -> j for i < j, each of multiplicity 0, 1 or 2."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    counts = draw(st.lists(st.integers(0, 2), min_size=len(pairs),
                           max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, counts) for _ in range(k)]
    return Digraph([f"v{i}" for i in range(n)], edges)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(acyclic_multigraphs())
def test_union_determines_triple_and_order(g):
    lat = enumerate_lattice(g)
    unions = [t.H | t.W for t in lat.elements]
    keys = [(u.bit_count(), u) for u in unions]
    assert keys == sorted(set(keys))
    for t, u in zip(lat.elements, unions):
        largest = sum(1 << v for v in range(g.n)
                      if u >> v & 1 and g.reach[v] & ~u == 0)
        assert t.H == largest
        # ConLattice skips validation; the public constructor agrees
        assert triples.WangTriple(g, t.H, t.W) == t
    for a, (ta, ua) in enumerate(zip(lat.elements, unions)):
        assert lat.up[a] == sum(1 << b for b, ub in enumerate(unions)
                                if ua & ~ub == 0)
        for tb, ub in zip(lat.elements, unions):
            assert triples.leq(ta, tb) == (ua & ~ub == 0)
            joined = triples.join(ta, tb)
            assert joined.H | joined.W == ua | ub
            met = triples.meet(ta, tb)
            v0 = triples._v0(g, ta.H | tb.H, ta.W | tb.W)
            assert met.H | met.W == ua & ub & ~v0
