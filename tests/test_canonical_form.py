"""Property test of the census canonical form on random DAGs and
multigraphs with parallel edges, loops and cycles."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gislat.census import canonical_form

from oracles import canonical_form_bruteforce


@st.composite
def relabelled_graphs(draw, max_n=6, max_m=9):
    """(n, edges, relabelled edges): a DAG with edges from lower to higher
    ids, or any multigraph, and its image under a random permutation."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    if draw(st.booleans()):
        edges = [(min(e), max(e)) for e in edges if e[0] != e[1]]
    perm = draw(st.permutations(range(n)))
    return n, edges, [(perm[s], perm[r]) for s, r in edges]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(relabelled_graphs())
def test_canonical_form_invariant_and_isomorphic(drawn):
    n, edges, relabelled = drawn
    key = canonical_form(n, edges)
    assert canonical_form(n, relabelled) == key
    # the key spells out a labelled graph isomorphic to the input
    assert key[0] == n
    assert canonical_form_bruteforce(n, key[1]) == \
        canonical_form_bruteforce(n, edges)
