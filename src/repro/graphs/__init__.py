"""Directed-graph substrate for the BBC games reproduction.

Everything the game engine needs from graph theory lives here: a small
dependency-free digraph, BFS / Dijkstra shortest paths, Tarjan strongly
connected components, all-pairs distances, min-cost flow (for fractional
games), generators and serialization helpers.
"""

from .apsp import (
    all_pairs_hop_distances,
    all_pairs_weighted_distances,
    diameter,
    eccentricity,
    floyd_warshall,
)
from .bfs import (
    bfs_distances,
    bfs_distances_adjacency,
    bfs_order,
    bfs_tree,
    reach,
    reachable_set,
    shortest_path,
)
from .digraph import DiGraph, from_adjacency
from .dijkstra import (
    dijkstra_distances,
    dijkstra_distances_weighted_adjacency,
    dijkstra_path,
)
from .errors import (
    FlowError,
    GraphError,
    InfeasibleFlow,
    NegativeEdgeLength,
    NodeNotFound,
)
from .flow import FlowNetwork, min_cost_unit_flow_cost
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
    complete_graph,
    complete_kary_out_tree,
    directed_cycle,
    directed_path,
    empty_graph,
    hypercube,
    random_digraph,
    random_k_out_graph,
    relabel,
    ring_with_tail,
    union_of_graphs,
)
from .properties import (
    average_distance,
    connectivity_summary,
    degree_histogram,
    distance_histogram,
    hop_distance_max,
    hop_distance_sum,
    is_out_regular,
    minimum_reach,
    reach_vector,
    sorted_reach_profile,
    total_hop_distance,
)
from .scc import (
    condensation,
    is_strongly_connected,
    sink_components,
    strongly_connected_components,
)
from .serialization import (
    ascii_adjacency,
    from_adjacency_dict,
    from_edge_list,
    graph_fingerprint,
    to_adjacency_dict,
    to_dot,
    to_edge_list,
    to_json,
)

__all__ = [
    "DiGraph",
    "from_adjacency",
    "bfs_distances",
    "bfs_distances_adjacency",
    "bfs_order",
    "bfs_tree",
    "reach",
    "reachable_set",
    "shortest_path",
    "dijkstra_distances",
    "dijkstra_distances_weighted_adjacency",
    "dijkstra_path",
    "UNREACHED",
    "build_csr",
    "bfs_hops_csr",
    "dijkstra_csr",
    "repair_dijkstra_csr",
    "repair_hops_csr",
    "scaled_float_row",
    "all_pairs_hop_distances",
    "all_pairs_weighted_distances",
    "floyd_warshall",
    "diameter",
    "eccentricity",
    "strongly_connected_components",
    "is_strongly_connected",
    "condensation",
    "sink_components",
    "FlowNetwork",
    "min_cost_unit_flow_cost",
    "GraphError",
    "NodeNotFound",
    "NegativeEdgeLength",
    "FlowError",
    "InfeasibleFlow",
    "empty_graph",
    "directed_cycle",
    "directed_path",
    "complete_graph",
    "complete_kary_out_tree",
    "hypercube",
    "random_k_out_graph",
    "random_digraph",
    "ring_with_tail",
    "union_of_graphs",
    "relabel",
    "reach_vector",
    "minimum_reach",
    "sorted_reach_profile",
    "hop_distance_sum",
    "hop_distance_max",
    "total_hop_distance",
    "is_out_regular",
    "degree_histogram",
    "distance_histogram",
    "average_distance",
    "connectivity_summary",
    "to_adjacency_dict",
    "to_edge_list",
    "to_json",
    "from_edge_list",
    "from_adjacency_dict",
    "to_dot",
    "ascii_adjacency",
    "graph_fingerprint",
]
