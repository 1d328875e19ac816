"""Residue forms, Arf invariants, and local epsilon factors, exactly.

The package computes the residue pairing of an isolated singularity over a
finite field or its length-3 Witt lift, classifies its discriminant, and
checks the resulting epsilon identity against a catalog of quadratic local
factors.  Everything is exact integer or finite-ring arithmetic.
"""

from .catalog import EpsilonValue, arithmetic_side
from .epsilon import calibrate, geometric_side, verify_identity
from .gfield import CycloInt, Field, FieldElem, gauss_sum, gf_create, legendre
from .homog import BinaryForm, fermat_formulas, verify_homog_char2
from .milnor import MilnorAlgebra, family_milnor_profile, milnor_algebra
from .mpoly import MultiPoly, parse_poly
from .residue import (
    GramForm,
    SquareClass,
    arf_invariant,
    disc_square_class,
    gram_matrix,
    pushforward_disc,
    residue_functional,
    tensor_gram,
)
from .wittring import ArfClass, WittSquareClass, gr_create, square_class_normalize

__version__ = "0.1.0"

__all__ = [
    "ArfClass",
    "BinaryForm",
    "CycloInt",
    "EpsilonValue",
    "Field",
    "FieldElem",
    "GramForm",
    "MilnorAlgebra",
    "MultiPoly",
    "SquareClass",
    "WittSquareClass",
    "arf_invariant",
    "arithmetic_side",
    "calibrate",
    "disc_square_class",
    "family_milnor_profile",
    "fermat_formulas",
    "gauss_sum",
    "geometric_side",
    "gf_create",
    "gr_create",
    "gram_matrix",
    "legendre",
    "milnor_algebra",
    "parse_poly",
    "pushforward_disc",
    "residue_functional",
    "square_class_normalize",
    "tensor_gram",
    "verify_homog_char2",
    "verify_identity",
    "__version__",
]
