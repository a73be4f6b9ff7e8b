"""E-seller graph substrate: structure, generators, sampling, algorithms."""

from .algorithms import bfs_distances, connected_components, degree_statistics
from .generators import SellerGraphSpec, generate_seller_graph
from .graph import EdgeType, ESellerGraph
from .sampling import (
    EgoSubgraph,
    ego_subgraph,
    ego_subgraphs,
    k_hop_nodes,
)

__all__ = [
    "ESellerGraph",
    "EdgeType",
    "SellerGraphSpec",
    "generate_seller_graph",
    "EgoSubgraph",
    "ego_subgraph",
    "ego_subgraphs",
    "k_hop_nodes",
    "connected_components",
    "bfs_distances",
    "degree_statistics",
]
