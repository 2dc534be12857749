"""Marked Dynkin diagrams of varieties of minimal rational tangents on
wonderful compactifications of adjoint symmetric spaces, computed from
marked Kac diagrams.

The public names load their home module on first use (PEP 562), so that
`import kacvmrt` compiles only what its caller runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Imported now, not on first use: the first import of the submodule
# kacvmrt.render sets the package attribute `render` to that module, and
# this import binds it back to the function.  It also loads roots,
# diagrams and affine.
from .render import render

# The home module of each public name.
_HOME = {
    name: module
    for module, names in (
        ("affine", ("AffineDiagram", "MarkedKacDiagram", "affine_diagram", "kac_labels",
                    "validate_kac_marking")),
        ("atlas", ("RestrictedType", "SymmetricSpaceEntry", "enumerate_entries", "kac_diagram",
                   "lookup")),
        ("diagrams", ("DynkinDiagram", "Edge", "MarkedDynkinDiagram", "classify", "graded_dimensions",
                      "marked", "parabolic_dimension", "standard_diagram", "standard_marked")),
        ("engine", ("VMRTDescription", "contact_grading_check", "fold_consistency", "identify", "vmrt",
                    "z_orbit_diagram")),
        ("folding", ("fold",)),
        ("presentation", ("to_ascii", "to_dot", "to_latex")),
        ("render", ("parse", "render", "to_canonical_text", "to_json")),
        ("roots", ("CartanType", "Root", "cartan_matrix", "highest_root", "positive_roots")),
    )
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not stored here: a name gives whatever its home module holds now, a
    # wrapper or a patch included.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
