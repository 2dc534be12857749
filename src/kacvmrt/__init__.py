"""Marked Dynkin diagrams of varieties of minimal rational tangents on
wonderful compactifications of adjoint symmetric spaces, computed from
marked Kac diagrams."""

__version__ = "0.1.0"

from .affine import (
    AffineDiagram,
    MarkedKacDiagram,
    affine_diagram,
    kac_labels,
    validate_kac_marking,
)
from .atlas import (
    RestrictedType,
    SymmetricSpaceEntry,
    enumerate_entries,
    kac_diagram,
    lookup,
)
from .diagrams import (
    DynkinDiagram,
    Edge,
    MarkedDynkinDiagram,
    classify,
    graded_dimensions,
    marked,
    parabolic_dimension,
    standard_diagram,
    standard_marked,
)
from .engine import (
    VMRTDescription,
    contact_grading_check,
    fold,
    fold_consistency,
    identify,
    vmrt,
    z_orbit_diagram,
)
from .render import parse, render, to_ascii, to_canonical_text, to_dot, to_json, to_latex
from .roots import (
    CartanType,
    Root,
    cartan_matrix,
    highest_root,
    positive_roots,
)

__all__ = [
    "AffineDiagram",
    "CartanType",
    "DynkinDiagram",
    "Edge",
    "MarkedDynkinDiagram",
    "MarkedKacDiagram",
    "RestrictedType",
    "Root",
    "SymmetricSpaceEntry",
    "VMRTDescription",
    "affine_diagram",
    "cartan_matrix",
    "classify",
    "contact_grading_check",
    "enumerate_entries",
    "fold",
    "fold_consistency",
    "graded_dimensions",
    "highest_root",
    "identify",
    "kac_diagram",
    "kac_labels",
    "lookup",
    "marked",
    "parabolic_dimension",
    "parse",
    "positive_roots",
    "render",
    "standard_diagram",
    "standard_marked",
    "to_ascii",
    "to_canonical_text",
    "to_dot",
    "to_json",
    "to_latex",
    "validate_kac_marking",
    "vmrt",
    "z_orbit_diagram",
]
