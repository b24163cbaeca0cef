"""Numerical laboratory for discrete calculus, spectral gaps, random
walks, optimal transport, isoperimetry and entropy on finite graphs and
truncated Cayley graphs of finitely generated groups."""

__version__ = "0.1.0"

from .errors import HarmlabError
from .graphs import (Distribution, EdgeField, OrientedGraph, SubsetView,
                     VertexField, ball, bfs_distances, divergence, gradient,
                     load_graph, lp_norm, save_graph, subset_view)
from .cayley import CayleyBall, build_group, cayley_ball, path_of_element

__all__ = [
    "HarmlabError", "OrientedGraph", "VertexField", "EdgeField",
    "Distribution", "SubsetView", "gradient", "divergence", "lp_norm",
    "subset_view", "ball", "bfs_distances", "load_graph", "save_graph",
    "build_group", "cayley_ball", "CayleyBall", "path_of_element",
    "__version__",
]
