"""Fill-reducing orderings.

The analysis phase of the solver permutes the matrix with a fill-reducing
ordering before symbolic factorization.  Nested dissection is the paper's
ordering (PaStiX uses Scotch); minimum degree orders its leaves.
"""

from repro.ordering.perm import Permutation
from repro.ordering.mindeg import minimum_degree
from repro.ordering.dissection import nested_dissection

__all__ = [
    "Permutation",
    "minimum_degree",
    "nested_dissection",
]
