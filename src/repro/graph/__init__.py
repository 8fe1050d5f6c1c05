"""Graph substrate for fill-reducing orderings.

An adjacency-list graph (CSR arrays), breadth-first machinery and
level-set vertex separators.  Everything here is pattern-only: the
ordering stage never looks at numerical values.
"""

from repro.graph.adjacency import Graph
from repro.graph.bfs import bfs_levels, pseudo_peripheral_vertex, connected_components
from repro.graph.separator import level_set_separator, thin_separator

__all__ = [
    "Graph",
    "bfs_levels",
    "pseudo_peripheral_vertex",
    "connected_components",
    "level_set_separator",
    "thin_separator",
]
