"""orckit: exact Ollivier-Ricci and Lin-Lu-Yau curvature on finite simple graphs."""

from .curvature import (ConsistencyError, EdgeCurvatureRecord, LocalStructure,
                        PiecewiseLinearFn, curvature_gap, curvature_profile,
                        equality_holds, idleness_function, is_bone_idle,
                        is_bone_idle_edge, is_ricci_flat, is_zero_ricci_flat,
                        kappa_alpha, kappa_lly, kappa_lly_assignment, kappa_zero,
                        kappa_zero_assignment, local_structure)
from .graphs import (Graph, INFINITY, ball, cartesian_product, common_neighbors,
                     diameter, distance, girth, is_connected, is_regular,
                     min_degree, sphere)
from .transport import mu_alpha, optimal_pair_support, wasserstein1

__all__ = [
    "ConsistencyError", "EdgeCurvatureRecord", "Graph", "INFINITY",
    "LocalStructure", "PiecewiseLinearFn", "ball", "cartesian_product",
    "common_neighbors", "curvature_gap", "curvature_profile", "diameter",
    "distance", "equality_holds", "girth", "idleness_function", "is_bone_idle",
    "is_bone_idle_edge", "is_connected", "is_regular", "is_ricci_flat",
    "is_zero_ricci_flat", "kappa_alpha", "kappa_lly", "kappa_lly_assignment",
    "kappa_zero", "kappa_zero_assignment", "local_structure", "min_degree",
    "mu_alpha", "optimal_pair_support", "sphere", "wasserstein1",
]

__version__ = "0.1.0"
