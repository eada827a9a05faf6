"""Nakayama algebras: resolution quivers, relation complexes, degree-n
cyclic homology of the radical, global dimension, and unamalgamation."""

from .algebra import (
    AlgebraClass,
    AlgebraError,
    DuplicateStartError,
    EmptyRelationSetError,
    InvalidKupischError,
    NakayamaAlgebra,
    ProjDim,
    RedundantRelationError,
    Relation,
    TooLargeError,
    algebra_from_kupisch,
    global_dimension,
    kupisch_from_relations,
    radical_power_algebra,
    validate,
)
from .cyclic import basis_sizes, differential_squares_to_zero, hc_dimensions, hc_euler
from .harness import SweepConfig, enumerate_kupisch, sweep, verify
from .relation_complex import (
    build_complex,
    euler_characteristic,
    reduced_betti,
)
from .resolution import build as build_resolution_quiver
from .resolution import leaves
from .unamalgamation import (
    NotALeafError,
    TooSmallError,
    check_properties,
    reduce_fully,
    unamalgamate,
)

__version__ = "0.1.0"
