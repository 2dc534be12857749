"""The verification sweep as a whole: `run_all` is the eight checks in a
fixed order, its text is byte-stable, and its per-entry checks share one
walk of the atlas that computes each entry's VMRT (and Z) once."""

import collections
import os
import sys

import pytest

from kacvmrt import diagrams, engine, parsing, verify
from kacvmrt.atlas import SymmetricSpaceEntry, lookup
from kacvmrt.verify import (
    check_component_structure,
    check_contact_grading,
    check_dimension_formula,
    check_engine_selfchecks,
    check_exceptional_dimensions,
    check_folding,
    check_golden_tables,
    check_kac_markings,
    format_results,
    run_all,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "verify_rank8.txt")


@pytest.mark.parametrize("max_rank", [8, 12])
def test_run_all_is_the_eight_checks_in_order(max_rank):
    expected = (check_golden_tables() + check_exceptional_dimensions()
                + check_dimension_formula(max_rank) + check_folding()
                + check_contact_grading(min(max_rank, 8)) + check_kac_markings(max_rank)
                + check_component_structure(max_rank) + check_engine_selfchecks(max_rank))
    assert run_all(max_rank) == expected


def test_run_all_text_is_pinned():
    # The fixture is `kacvmrt verify --max-rank 8` as written before the
    # per-entry checks shared one pass; rows, order and details must not move.
    with open(FIXTURE) as fh:
        assert format_results(run_all(8)) + "\n" == fh.read()


def test_run_all_computes_each_entry_once(monkeypatch):
    walks, vmrt_args, direct_z = [], [], []
    real_enumerate, real_vmrt = verify.enumerate_entries, verify.vmrt

    def enumerate_entries(max_rank):
        found = real_enumerate(max_rank)
        walks.append(found)
        return found

    def vmrt(e):
        vmrt_args.append(e)
        return real_vmrt(e)

    monkeypatch.setattr(verify, "enumerate_entries", enumerate_entries)
    monkeypatch.setattr(verify, "vmrt", vmrt)
    monkeypatch.setattr(verify, "z_orbit_diagram",
                        lambda *a: direct_z.append(a) or engine.z_orbit_diagram(*a),
                        raising=False)
    run_all(12)
    assert len(walks) <= 2  # the pass, and the contact gradations at rank 8
    (entries,) = [w for w in walks if len(w) == len(real_enumerate(12))]
    calls = {}
    for e in vmrt_args:
        calls[id(e)] = calls.get(id(e), 0) + 1
    assert all(calls.get(id(e)) == 1 for e in entries)
    assert direct_z == []


def test_vmrt_computes_z_once(monkeypatch):
    # vmrt and z_orbit_diagram both build Z through engine._z_orbit.
    z_calls = []
    real_z = engine._z_orbit

    def z_orbit(m, kind):
        z_calls.append(kind)
        return real_z(m, kind)

    monkeypatch.setattr(engine, "_z_orbit", z_orbit)
    (row,) = check_dimension_formula(12)
    assert row.status == "PASS"
    assert len(z_calls) == int(row.name.split()[0])  # one Z per entry


def test_kac_markings_reports_a_broken_marking(monkeypatch):
    # White at a label-2 node breaks the group rule; vmrt would raise on
    # it, so the Kac parts of the pass must not need the VMRT.
    e = lookup("group-B", {"n": 3})
    d = e.kac_diagram().diagram
    label_two = next(v for v in d.nodes if d.label(v) == 2)
    broken = SymmetricSpaceEntry(e.label, e.params, e.kind, e.g_desc, e.h_desc, e.kac_base,
                                 e.kac_twist, (label_two,), e.restricted, e.boundary_degree,
                                 e.notes)
    monkeypatch.setattr(verify, "enumerate_entries", lambda max_rank: [e, broken])
    (row,) = check_kac_markings(12)
    assert (row.status, row.detail) == ("FAIL", broken.name)
    with pytest.raises(ValueError):
        check_dimension_formula(12)


def test_lie_dimensions_keep_no_roots(monkeypatch):
    # The check counts the roots of every type by the root-string closure
    # and keeps the counts alone: it goes through no cache of roots, and a
    # wrong count fails its row.
    from kacvmrt.roots import positive_roots

    verify._root_count.cache_clear()
    before = positive_roots.cache_info()
    assert verify._lie_dimensions(12).status == "PASS"
    info = positive_roots.cache_info()
    assert (info.hits, info.misses) == (before.hits, before.misses)
    monkeypatch.setattr(verify, "_root_count", lambda t: t.num_positive_roots + (str(t) == "C7"))
    row = verify._lie_dimensions(12)
    assert (row.status, row.detail) == ("FAIL", "C7")


@pytest.mark.parametrize("max_rank", [8, 12])
def test_run_all_computes_one_vmrt_per_entry(monkeypatch, max_rank):
    # The golden, dims and folding checks take the VMRTs of the entries
    # they name from the pass; those above max_rank they compute once.  The
    # contact gradations read Z from the pass's VMRTs.
    names, z_calls = [], []
    real_vmrt, real_z = engine.vmrt, engine._z_orbit

    def vmrt(e):
        names.append(e.name)
        return real_vmrt(e)

    monkeypatch.setattr(verify, "vmrt", vmrt)
    monkeypatch.setattr(engine, "vmrt", vmrt)
    monkeypatch.setattr(engine, "_z_orbit", lambda *a: z_calls.append(a) or real_z(*a))
    run_all(max_rank)
    assert len(names) == len(set(names))
    assert len(z_calls) == len(names)  # one Z per distinct entry
    named = {lookup(row.label, row.params).name for row in verify.GOLDEN}
    named |= {lookup(label, params).name for label, params in verify._FOLDING_CASES}
    assert named <= set(names)
    assert {e.name for e in verify.enumerate_entries(max_rank)} <= set(names)


def test_round_trip_reads_each_diagram_object_once(monkeypatch):
    # A Legendrian entry's VMRT diagrams are its Z diagrams: read back once,
    # but counted in the row as before.  The row reads through parsing._read.
    parsed = []
    real_read = parsing._read
    monkeypatch.setattr(parsing, "_read", lambda text: parsed.append(text) or real_read(text))
    rows = {r.name: r for r in run_all(12)}
    once = counted = 0
    for e in verify.enumerate_entries(12):
        v = engine.vmrt(e)
        once += 1 + len(v.z) + (0 if v.components is v.z else len(v.components))
        counted += 1 + len(v.z) + len(v.components)
    assert len(parsed) == once < counted
    assert f"canonical round trip ({counted} diagrams)" in rows


def test_run_all_classifies_each_diagram_once(monkeypatch):
    # Per caller, the classify calls of a warm run_all(12): one per Z (its
    # halves mark one diagram) and one per finite text the round trip reads
    # back, whose writer takes the reader's classes.  The checks take
    # vmrt's classes for everything else: the folding rows fold the ambient
    # diagram from its classes and match and write the folded diagram from
    # the classes the fold gives.
    run_all(12)
    entries = verify.enumerate_entries(12)
    named = {lookup(label, params).name for label, params in
             [(row.label, row.params) for row in verify.GOLDEN] + verify._FOLDING_CASES
             + [row[:2] for row in verify._DIMENSION_ROWS + verify._FOLDING_DISPLAYS]}
    read_back = 0
    for e in entries:
        v = engine.vmrt(e)
        read_back += len(v.z) + (0 if v.components is v.z else len(v.components))
    calls = collections.Counter()
    real = diagrams.classify

    def classify(d):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(d)

    for module in [m for name, m in sys.modules.items() if name.startswith("kacvmrt")]:
        if getattr(module, "classify", None) is real:
            monkeypatch.setattr(module, "classify", classify)
    run_all(12)
    assert calls == {
        "_z_orbit": len({e.name for e in entries} | named),
        "_read": read_back,
    }
