"""Directed-graph substrate for the BBC games reproduction.

Everything the game engine needs from graph theory lives here: a small
dependency-free digraph, BFS / Dijkstra shortest paths, the flat-array
kernels, Tarjan strongly connected components, all-pairs distances, min-cost
flow (for fractional games), and the graph families the constructions use.
"""

from .apsp import (
    all_pairs_weighted_distances,
    diameter,
    eccentricity,
    floyd_warshall,
)
from .bfs import bfs_distances, reach
from .digraph import DiGraph, from_adjacency
from .dijkstra import dijkstra_distances
from .errors import (
    FlowError,
    GraphError,
    InfeasibleFlow,
    NegativeEdgeLength,
    NodeNotFound,
)
from .flow import FlowNetwork
from .int_kernels import (
    UNREACHED,
    bfs_hops_csr,
    build_csr,
    dijkstra_csr,
    repair_dijkstra_csr,
    repair_hops_csr,
    scaled_float_row,
)
from .generators import (
    directed_cycle,
    directed_path,
    empty_graph,
    hypercube,
    random_digraph,
)
from .properties import (
    hop_distance_sum,
    is_out_regular,
    reach_vector,
    total_hop_distance,
)
from .scc import (
    condensation,
    is_strongly_connected,
    strongly_connected_components,
)

__all__ = [
    "DiGraph",
    "from_adjacency",
    "bfs_distances",
    "reach",
    "dijkstra_distances",
    "UNREACHED",
    "build_csr",
    "bfs_hops_csr",
    "dijkstra_csr",
    "repair_dijkstra_csr",
    "repair_hops_csr",
    "scaled_float_row",
    "all_pairs_weighted_distances",
    "floyd_warshall",
    "diameter",
    "eccentricity",
    "strongly_connected_components",
    "is_strongly_connected",
    "condensation",
    "FlowNetwork",
    "GraphError",
    "NodeNotFound",
    "NegativeEdgeLength",
    "FlowError",
    "InfeasibleFlow",
    "empty_graph",
    "directed_cycle",
    "directed_path",
    "hypercube",
    "random_digraph",
    "reach_vector",
    "hop_distance_sum",
    "total_hop_distance",
    "is_out_regular",
]
