"""orckit: exact Ollivier-Ricci and Lin-Lu-Yau curvature on finite simple graphs."""

from .curvature import (ConsistencyError, EdgeCurvatureRecord, LocalStructure,
                        PiecewiseLinearFn, idleness_function, is_bone_idle, is_bone_idle_edge,
                        is_ricci_flat, is_zero_ricci_flat, kappa_alpha, kappa_lly,
                        kappa_lly_assignment, kappa_zero, kappa_zero_assignment,
                        local_structure)
from .graphs import (Graph, INFINITY, cartesian_product, diameter, is_connected, is_regular,
                     min_degree)

__all__ = [
    "ConsistencyError", "EdgeCurvatureRecord", "Graph", "INFINITY",
    "LocalStructure", "PiecewiseLinearFn", "cartesian_product", "diameter",
    "idleness_function", "is_bone_idle", "is_bone_idle_edge", "is_connected",
    "is_regular", "is_ricci_flat", "is_zero_ricci_flat", "kappa_alpha",
    "kappa_lly", "kappa_lly_assignment", "kappa_zero", "kappa_zero_assignment",
    "local_structure", "min_degree",
]

__version__ = "0.1.0"
