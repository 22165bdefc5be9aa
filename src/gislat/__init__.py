"""Congruence lattices of graph inverse semigroups of finite multigraphs."""

from .graphs import CapExceeded, Digraph, build_graph, bits, mask_of
from .triples import (INF, WangTriple, leq, join, meet, meet_no_fork, covers,
                      downward_directed_check, atoms, generating_pairs)
from .lattice import (ConLattice, FiniteLattice, enumerate_lattice,
                      is_upper_semimodular, is_lower_semimodular, is_modular,
                      is_distributive, is_atomistic_lattice, join_irreducibles,
                      predicate_lower_semimodular, predicate_condition_iv,
                      predicate_atomistic, minimal_generating_set,
                      generated_sublattice)
from .oracle import (MulTable, build_semigroup, enumerate_congruences,
                     realize_triple, verify_isomorphism)

__version__ = "0.1.0"
