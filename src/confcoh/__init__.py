"""Exact weight-graded cohomology of unordered configuration spaces of
closed orientable surfaces, computed two independent ways: closed-form
generating series with coefficients in the representation ring of sp(2g),
and brute-force cohomology of a filtered differential graded model.
"""

from .closedform import MixedTable, betti, build_Q, mixed_table
from .dga import cohomology_dims, cohomology_reps
from .reps import RepLabel, VirtualRep

__all__ = [
    "MixedTable",
    "betti",
    "build_Q",
    "mixed_table",
    "cohomology_dims",
    "cohomology_reps",
    "RepLabel",
    "VirtualRep",
]

__version__ = "0.1.0"
