"""Exact counting and verification of dilated point configurations over Z/pZ.

The package counts pairs of paths, cycles, triangles and simplexes whose
squared edge lengths differ by a fixed dilation ratio, cross-validates every
count with independent methods, and checks the size thresholds of the claim
catalog with exact integer arithmetic.
"""

from .configcount import (
    CountReport,
    Ratio,
    count_ratio_quadruples,
    count_scaled_cycle_pairs,
    count_scaled_walk_pairs,
    displacement_histogram,
    make_ratio,
)
from .families import (
    count_path_pairs,
    count_simplex_pairs,
    count_triangle_pairs,
    find_clique_pair_witness,
    find_cycle_pair_witness,
    find_path_pair_witness,
    four_cycle_families,
)
from .field import Prime, legendre, make_prime, sqrt_mod, squares_set
from .geometry import (
    PointSet,
    dist,
    distance_set,
    full_space,
    load_point_set,
    norm_of,
    quotient_set,
    random_point_set,
    save_point_set,
    sphere_points,
    sphere_size_formula,
)
from .orthogonal import (
    GroupTable,
    OrthMatrix,
    enumerate_orthogonal,
    order_formula,
    rotation_from_pair,
    scaled_apply,
    so2_elements,
)
from .simgraph import SimilarityGraph, ms_lower_bound
from .verify import ScanResult, Verdict, run_claim, scan_threshold

__version__ = "0.1.0"

__all__ = [
    "CountReport",
    "GroupTable",
    "OrthMatrix",
    "PointSet",
    "Prime",
    "Ratio",
    "ScanResult",
    "SimilarityGraph",
    "Verdict",
    "count_path_pairs",
    "count_ratio_quadruples",
    "count_scaled_cycle_pairs",
    "count_scaled_walk_pairs",
    "count_simplex_pairs",
    "count_triangle_pairs",
    "displacement_histogram",
    "dist",
    "distance_set",
    "enumerate_orthogonal",
    "find_clique_pair_witness",
    "find_cycle_pair_witness",
    "find_path_pair_witness",
    "four_cycle_families",
    "full_space",
    "legendre",
    "load_point_set",
    "make_prime",
    "make_ratio",
    "ms_lower_bound",
    "norm_of",
    "order_formula",
    "quotient_set",
    "random_point_set",
    "rotation_from_pair",
    "run_claim",
    "save_point_set",
    "scaled_apply",
    "scan_threshold",
    "so2_elements",
    "sphere_points",
    "sphere_size_formula",
    "sqrt_mod",
    "squares_set",
]
