"""The package namespace: its public names load their home module on
first use, and resolve to the very objects those modules hold."""

import importlib
import os

import pytest

import kacvmrt

# The public names, in the order `__all__` has always listed them.
PUBLIC = [
    "AffineDiagram", "CartanType", "DynkinDiagram", "Edge", "MarkedDynkinDiagram",
    "MarkedKacDiagram", "RestrictedType", "Root", "SymmetricSpaceEntry", "VMRTDescription",
    "affine_diagram", "cartan_matrix", "classify", "contact_grading_check", "enumerate_entries",
    "fold", "fold_consistency", "graded_dimensions", "highest_root", "identify", "kac_diagram",
    "kac_labels", "lookup", "marked", "parabolic_dimension", "parse", "positive_roots", "render",
    "standard_diagram", "standard_marked", "to_ascii", "to_canonical_text", "to_dot", "to_json",
    "to_latex", "validate_kac_marking", "vmrt", "z_orbit_diagram",
]

SUBMODULES = sorted(name[:-3] for name in os.listdir(os.path.dirname(kacvmrt.__file__))
                    if name.endswith(".py") and name not in ("__init__.py", "__main__.py"))


def test_all_lists_the_public_names_in_order():
    assert kacvmrt.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"kacvmrt.{kacvmrt._HOME[name]}")
    assert getattr(kacvmrt, name) is getattr(home, name)


def test_render_stays_the_function():
    # Importing the submodule kacvmrt.render (and every other) must not
    # rebind the package attribute to the module.
    for name in SUBMODULES:
        importlib.import_module(f"kacvmrt.{name}")
    assert callable(kacvmrt.render) and kacvmrt.render.__name__ == "render"
    assert kacvmrt.render is importlib.import_module("kacvmrt.render").render


def test_submodules_and_unknown_names():
    from kacvmrt import atlas

    assert atlas is importlib.import_module("kacvmrt.atlas")
    with pytest.raises(AttributeError, match="no_such_name"):
        kacvmrt.no_such_name
    with pytest.raises(ImportError):
        from kacvmrt import no_such_name  # noqa: F401


def test_dir_covers_all():
    assert set(kacvmrt.__all__) <= set(dir(kacvmrt))
