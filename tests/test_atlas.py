"""Atlas lookups, parameter validation and whole-catalogue invariants."""

import pytest

from kacvmrt import atlas
from kacvmrt.affine import validate_kac_marking
from kacvmrt.atlas import (
    _FIXED_ROWS,
    _N_FAMILIES,
    _NM_FAMILIES,
    ALL_LABELS,
    MAX_RANK,
    RestrictedType,
    enumerate_entries,
    lookup,
)
from kacvmrt.render import to_canonical_text
from kacvmrt.roots import CartanType


def test_lookup_group_g():
    e = lookup("group-G")
    assert e.kind == "group"
    assert (e.kac_base, e.kac_twist, e.kac_white) == (CartanType("G", 2), 1, (0,))
    assert e.restricted == RestrictedType("G", 2)
    assert e.boundary_degree == 1


def test_lookup_ai():
    e = lookup("AI", {"n": 2})  # SL_5/SO_5
    assert e.g_desc == "SL_5" and e.h_desc == "SO_5"
    assert (e.kac_base, e.kac_twist) == (CartanType("A", 4), 2)
    assert e.restricted == RestrictedType("A", 4)
    assert e.boundary_degree == 2


def test_lookup_herm_ci():
    e = lookup("herm-CI", {"n": 4})
    assert e.g_desc == "PSp_8" and e.h_desc == "PGL_4"
    assert e.kind == "hermitian-nonexceptional"
    assert e.kac_white == (0, 4)
    assert e.restricted == RestrictedType("C", 4)
    assert e.boundary_degree == 1


def test_lookup_case_insensitive_and_glued_rank():
    assert lookup("ai", {"n": 3}) == lookup("AI", {"n": 3})
    assert lookup("group-E7") == lookup("group-E", {"n": 7})
    assert lookup("HERM-CI", {"n": 2}) == lookup("herm-CI", {"n": 2})


def test_lookup_errors_name_bounds():
    with pytest.raises(ValueError, match="unknown label"):
        lookup("nosuch")
    with pytest.raises(ValueError, match="1 <= m <= n-1"):
        lookup("CII", {"n": 4, "m": 4})
    with pytest.raises(ValueError, match="3 <= m <= 2n-2"):
        lookup("BI", {"n": 4, "m": 2})
    with pytest.raises(ValueError, match="n >= 3"):
        lookup("AII", {"n": 2})
    with pytest.raises(ValueError, match="no parameters"):
        lookup("EIV", {"n": 3})
    with pytest.raises(ValueError, match="parameter n"):
        lookup("BII", {})
    # the bound of enumerate_entries: at most MAX_RANK + 1 Kac nodes
    assert lookup("herm-CI", {"n": MAX_RANK}).num_kac_nodes == MAX_RANK + 1
    for label, params in [("herm-CI", {"n": MAX_RANK + 1}), ("group-E", {"n": 10**6}),
                          ("BI", {"n": 10**6, "m": 3}), ("AI", {"n": MAX_RANK + 1})]:
        with pytest.raises(ValueError, match="MAX_RANK"):
            lookup(label, params)


@pytest.mark.parametrize("label,params", [
    ("AI", {"n": 10**30}), ("AI-even", {"n": 10**30}), ("AII", {"n": 10**30}),
    ("DII", {"n": 10**30}), ("DI-odd", {"n": 10**30, "m": 1})])
def test_twisted_rows_past_the_bound_fail_before_any_build(label, params, monkeypatch):
    # The node count comes from the rank in O(1): building the Kac labels of
    # a type of rank 10**30 to count them would overflow, not name the bound.
    def entry(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(atlas, "_entry", entry)
    with pytest.raises(ValueError, match="MAX_RANK"):
        lookup(label, params)


# The rows that lookup gives at n = -1, 0, 1, 2, 5, 9 (m = 1 for
# two-parameter families); every other such n is below its family's least,
# or outside group-E's 6..8, and m = 1 is below BI's and DI-even's least.
SMALL_N_ROWS = ({("group-A", 1), ("group-A", 2), ("group-B", 2), ("AI", 1), ("AI", 2),
                 ("AI-even", 2), ("BII", 2), ("CII", 2), ("herm-CI", 2),
                 ("herm-DIII-odd", 2), ("herm-DIII-even", 2)}
                | {(label, n) for label in list(_N_FAMILIES) + list(_NM_FAMILIES) for n in (5, 9)
                   if label not in ("group-E", "BI", "DI-even")})


@pytest.mark.parametrize("label", list(_N_FAMILIES) + list(_NM_FAMILIES))
def test_small_n_gives_the_row_or_its_own_requirement(label):
    for n in (-1, 0, 1, 2, 5, 9):
        params = {"n": n} if label in _N_FAMILIES else {"n": n, "m": 1}
        if (label, n) in SMALL_N_ROWS:
            assert dict(lookup(label, params).params) == params, (label, n)
            continue
        with pytest.raises(ValueError) as err:
            lookup(label, params)
        assert f"{label} requires" in str(err.value) and "MAX_RANK" not in str(err.value), (label, n)


def test_bi_parameter_normalisation():
    # S(O_m x O_{2n+1-m}) is symmetric in the two factors
    assert lookup("BI", {"n": 4, "m": 3}) == lookup("BI", {"n": 4, "m": 6})
    assert lookup("CII", {"n": 5, "m": 3}) == lookup("CII", {"n": 5, "m": 2})
    assert lookup("herm-AIII", {"n": 7, "m": 5}) == lookup("herm-AIII", {"n": 7, "m": 2})


def test_kac_diagram_examples():
    # group E_7: white at the label-1 extremity (the affine node)
    e = lookup("group-E", {"n": 7})
    assert to_canonical_text(e.kac_diagram()) == "O-o-o-o(o)-o-o-o"
    # EII: white at the middle branch node of affine E_6
    assert to_canonical_text(lookup("EII").kac_diagram()) == "o-O-o(o-o)-o-o"
    # herm-EVII: whites at the two label-1 positions of affine E_7
    assert to_canonical_text(lookup("herm-EVII").kac_diagram()) == "O-o-o-o(o)-o-o-O"
    # the degenerate AI rows
    assert to_canonical_text(lookup("AI", {"n": 1}).kac_diagram()) == "O####>o"
    assert to_canonical_text(lookup("group-A", {"n": 2}).kac_diagram()) == "@O-o-o"


def test_enumerate_counts_frozen():
    # Frozen once against a by-hand recount (node cap 9: twisted D diagrams
    # have n nodes, cycles n, untwisted n+1); guards silent range drift.
    entries = enumerate_entries(8)
    assert len(entries) == 181
    assert len(set(entries)) == len(entries)
    small = enumerate_entries(2)
    names = {e.name for e in small}
    assert "group-A(n=1)" in names and "group-A(n=2)" in names
    assert "group-G" in names and "AI(n=1)" in names
    with pytest.raises(ValueError):
        enumerate_entries(0)


def _every_row(label, max_n):
    if label in _FIXED_ROWS:
        yield _FIXED_ROWS[label]()
        return
    build = _N_FAMILIES.get(label) or _NM_FAMILIES[label]
    for n in range(1, max_n + 1):
        args = [(n,)] if label in _N_FAMILIES else [(n, m) for m in range(1, 2 * n + 2)]
        for a in args:
            try:
                e = build(*a)
            except ValueError:
                continue
            yield e


def _built_then_cut(max_rank):
    """Oracle: build every row of every family up to n = max_rank + 2 (no
    family has fewer than n Kac nodes), then keep the distinct rows whose
    Kac diagram has at most max_rank + 1 nodes."""
    out = {}
    for label in ALL_LABELS:
        for e in _every_row(label, max_rank + 2):
            if e.num_kac_nodes <= max_rank + 1:
                out.setdefault(e, None)
    return tuple(out)


@pytest.mark.parametrize("k", [2, 3, 8, 17, 40, MAX_RANK])
def test_enumerate_matches_build_then_cut_oracle(k):
    assert enumerate_entries(k) == _built_then_cut(k)


def test_enumerate_rank_capped():
    with pytest.raises(ValueError, match="max_rank"):
        enumerate_entries(MAX_RANK + 1)


def test_enumerate_node_count_bound():
    for e in enumerate_entries(6):
        assert e.num_kac_nodes <= 7
        assert e.num_kac_nodes == e.kac_diagram().diagram.num_nodes, e.name


@pytest.mark.parametrize("k", list(range(2, 15)) + [30])
def test_enumerate_builds_each_row_once(k, monkeypatch):
    # An m and its mirror give one row, and only that row is built; a fixed
    # row is cut on its node count before it is built.
    built = []
    real = atlas._entry

    def entry(*args, **kwargs):
        built.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(atlas, "_entry", entry)
    entries = enumerate_entries(k)
    assert len(built) == len(entries) == len(set(map(repr, built)))


def test_fixed_rows_have_the_kac_diagram_they_are_cut_on():
    # A fixed row is built on the shape the cut reads, and the cut keeps it
    # from exactly its built diagram's node count on.
    for label, build in _FIXED_ROWS.items():
        e = build()
        fam, rank, twist = atlas._KAC_SHAPES[label](0)
        assert (e.kac_base, e.kac_twist) == (CartanType(fam, rank), twist), label
        nodes = e.kac_diagram().diagram.num_nodes
        assert e.num_kac_nodes == nodes, label
        assert list(atlas._family_instances(label, nodes - 1)) == [], label
        assert list(atlas._family_instances(label, nodes)) == [e], label


def test_every_entry_satisfies_marking_rule():
    for e in enumerate_entries(10):
        assert validate_kac_marking(e.kac_diagram(), e.kind), e.name


def test_boundary_degree_iff_type_a():
    for e in enumerate_entries(10):
        assert (e.boundary_degree == 2) == e.restricted.is_type_a, e.name


def test_restricted_type_a_sublist():
    labels = {e.label for e in enumerate_entries(10) if e.restricted.is_type_a}
    assert labels == {"group-A", "AI", "AI-even", "AII", "BII", "DII", "EIV", "herm-AI"}


def test_white_counts_by_kind():
    for e in enumerate_entries(10):
        if e.kind.startswith("hermitian"):
            assert len(e.kac_white) == 2
        else:
            assert len(e.kac_white) == 1


def test_eiv_carries_paper_gap_note():
    e = lookup("EIV")
    assert any(n.startswith("paper_gap") for n in e.notes)
    assert any(n.startswith("name_flag") for n in lookup("BI", {"n": 4, "m": 4}).notes)
