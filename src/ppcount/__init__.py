"""Exact enumeration of plane partitions in the ten symmetry classes.

Three independent routes per class: closed product formulas, Kasteleyn
determinants/Pfaffians of quotient matching graphs, and brute-force
enumeration; the test suite holds them against each other.
"""

from .exactalg import ExactMatrix, QPoly, det, pfaffian_abs
from .formulas import n_class
from .hexgrid import HexRegion, PlanarMultigraph, Triangle, build_graph, build_hexagon, q_weight_graph
from .kasteleyn import flat_orientation, flat_signing, weighted_matching_sum
from .oracle import count_symmetric, enumerate_partitions, q_sum
from .symmetry import CLASSES, build_parity_gadget, group_elements, quotient_graph

__all__ = [
    "CLASSES",
    "ExactMatrix",
    "HexRegion",
    "PlanarMultigraph",
    "QPoly",
    "Triangle",
    "build_graph",
    "build_hexagon",
    "build_parity_gadget",
    "count_symmetric",
    "det",
    "enumerate_partitions",
    "flat_orientation",
    "flat_signing",
    "group_elements",
    "n_class",
    "pfaffian_abs",
    "q_sum",
    "q_weight_graph",
    "quotient_graph",
    "weighted_matching_sum",
]

__version__ = "0.1.0"
