"""Access-graph model of a loop's array accesses (paper section 2).

* :mod:`repro.graph.distance` -- the address-distance and transition-cost
  model that induces zero-cost/unit-cost edges.
* :mod:`repro.graph.access_graph` -- the graph ``G = (V, E)`` of the
  paper's Figure 1, including inter-iteration (wrap-around) edges.
* :mod:`repro.graph.dot` -- Graphviz/ASCII rendering.
"""

from repro.graph.access_graph import AccessGraph
from repro.graph.distance import (
    intra_distance,
    is_zero_cost,
    transition_cost,
    wrap_distance,
)
from repro.graph.dot import graph_to_ascii, graph_to_dot

__all__ = [
    "AccessGraph",
    "graph_to_ascii",
    "graph_to_dot",
    "intra_distance",
    "is_zero_cost",
    "transition_cost",
    "wrap_distance",
]
