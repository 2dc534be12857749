"""The Z-orbit procedure, VMRT pipeline, folding and identification."""

import pytest

from kacvmrt import diagrams, engine
from kacvmrt.affine import MarkedKacDiagram, affine_diagram
from kacvmrt.atlas import enumerate_entries, lookup
from kacvmrt.diagrams import (
    find_marked_isomorphism,
    graded_dimensions,
    parabolic_dimension,
    standard_diagram,
    standard_marked,
)
from kacvmrt.engine import (
    contact_grading_check,
    entry_folding_pair,
    fold_consistency,
    identify,
    vmrt,
    z_orbit_diagram,
)
from kacvmrt.folding import _fold, fold
from kacvmrt.render import _finite_canonical, to_canonical_text
from kacvmrt.roots import CartanType
from root_oracles import z_dimension


def entry_z(label, params=None):
    e = lookup(label, params or {})
    return z_orbit_diagram(e.kac_diagram(), e.kind)


class TestZOrbit:
    def test_sl3_so3(self):
        (z,) = entry_z("AI", {"n": 1})
        assert to_canonical_text(z) == "x[4]"
        assert identify(z) == "v_4(P^1)"
        assert z_dimension(z) == 1

    def test_sl2n1_so2n1(self):
        (z,) = entry_z("AI", {"n": 3})
        assert to_canonical_text(z) == "x[2]-o=>o"  # nu_2(Q_5)
        assert identify(z) == "v_2(Q_5)"
        assert z_dimension(z) == 5

    def test_group_a(self):
        (z,) = entry_z("group-A", {"n": 5})
        assert identify(z) == "Flag(1,5)"
        assert z_dimension(z) == 9  # 2n - 1

    def test_invalid_marking_rejected(self):
        a = affine_diagram(CartanType("B", 4), 1)
        bad = MarkedKacDiagram(a, frozenset({2}))  # label-2 node
        with pytest.raises(ValueError, match="white-node rule"):
            z_orbit_diagram(bad, "group")

    def test_annotation_needs_long_white(self):
        # BII: the white node is the short end, so no degree annotation
        (z,) = entry_z("BII", {"n": 4})
        assert z.annotations == ()
        assert identify(z) == "Q_6"
        # group-C: white is the long -theta end, annotation 2 fires
        (z,) = entry_z("group-C", {"n": 4})
        assert z.annotation_map == {1: 2}

    def test_hermitian_exceptional_two_diagrams(self):
        zs = entry_z("herm-EIII")
        assert len(zs) == 2
        assert [identify(z) for z in zs] == ["OG(5,10)", "OG(5,10)"]

    def test_hermitian_nonexceptional_sigma(self):
        (z,) = entry_z("herm-CI", {"n": 3})
        assert z.sigma_pairs is not None
        assert to_canonical_text(z) == "o-x[2] + o-x[2] ~sigma"
        assert z_dimension(z) == 2  # one orbit only

    def test_herm_ai_degenerate_empty(self):
        (z,) = entry_z("herm-AI")
        assert z.diagram.nodes == ()
        assert z_dimension(z) == 0

    def test_empty_diagram_dimension(self):
        from kacvmrt.diagrams import DynkinDiagram, marked

        assert z_dimension(marked(DynkinDiagram(()))) == 0


class TestZDimension:
    def test_flag(self):
        for n in (3, 5, 8):
            m = standard_marked(CartanType("A", n), {1, n})
            assert z_dimension(m) == 2 * n - 1

    def test_annotations_never_change_dimension(self):
        plain = standard_marked(CartanType("B", 4), {1})
        deco = standard_marked(CartanType("B", 4), {1}, {1: 2})
        assert z_dimension(plain) == z_dimension(deco) == 7


class TestVMRT:
    def test_group_b3(self):
        v = vmrt(lookup("group-B", {"n": 3}))
        assert (v.identification, v.dimension) == ("OG(2,7)", 7)
        assert v.kind == "legendrian-Z"

    def test_fii(self):
        v = vmrt(lookup("FII"))
        assert (v.identification, v.dimension) == ("OG(4,9)", 10)
        gp = v.components[0]
        assert parabolic_dimension(gp.diagram, gp.crossed) == 10

    def test_ai_sl5(self):
        e = lookup("AI", {"n": 2})
        v = vmrt(e)
        assert (v.identification, v.dimension) == ("v_2(P^4)", 4)
        (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
        assert z_dimension(z) == 3  # nu_2(Q_3)
        assert v.kind == "typeA-GPlambda"
        assert "2w_1" in v.ambient_note

    def test_type_a_ambient_pairs(self):
        assert "P_2" in vmrt(lookup("AII", {"n": 4})).ambient_note
        assert "E_6" in vmrt(lookup("EIV")).ambient_note
        assert "x SL_4" in vmrt(lookup("group-A", {"n": 3})).ambient_note

    def test_full_projective_space_branch(self):
        v = vmrt(lookup("DII", {"n": 4}))
        assert v.kind == "full-projective-space"
        assert (v.identification, v.dimension) == ("P^6", 6)

    def test_restricted_a1_vmrt_is_all_of_p_to_rank_30(self):
        # vmrt reads dim P(p) off the Kac grading; it meets the closed form
        # of each restricted-A_1 row: PGL_2 x PGL_2 / PGL_2, PGL_2/PO_2,
        # SO_{2n+1}/O_{2n} and SO_{2n}/O_{2n-1}.
        want = {"group-A": lambda n: 2, "herm-AI": lambda n: 1,
                "BII": lambda n: 2 * n - 1, "DII": lambda n: 2 * n - 2}
        seen = set()
        for e in enumerate_entries(30):
            if e.restricted.is_type_a and e.restricted.rank == 1:
                v, k = vmrt(e), want[e.label](dict(e.params).get("n"))
                assert (v.kind, v.dimension, v.identification) == ("full-projective-space", k, f"P^{k}"), e.name
                seen.add(e.label)
        assert seen == set(want)

    def test_dimension_identity_samples(self):
        for label, params in [("group-D", {"n": 5}), ("EI", {}), ("CII", {"n": 5, "m": 2}),
                              ("herm-DIII-odd", {"n": 3}), ("AI-even", {"n": 3}),
                              ("BII", {"n": 3}), ("herm-AI", {})]:
            e = lookup(label, params)
            v = vmrt(e)
            zdim = z_dimension(z_orbit_diagram(e.kac_diagram(), e.kind)[0])
            assert v.dimension == zdim + e.boundary_degree - 1, e.name

    def test_vmrt_carries_z_and_its_dimension(self):
        # vmrt keeps the Z it reads the VMRT from; recomputing Z must agree.
        for e in enumerate_entries(12):
            v = vmrt(e)
            zs = z_orbit_diagram(e.kac_diagram(), e.kind)
            assert v.z == zs, e.name
            assert v.z_dim == z_dimension(zs[0]), e.name

    def test_vmrt_recognises_each_z_diagram_once(self, monkeypatch):
        # dim Z and the name share one classification of the Z diagram; a
        # sigma-paired Z reuses the classification of the diagram both
        # halves mark, and no half is recognised again.
        recognised, made = [], []
        real_classify, real_z = diagrams.classify, engine._z_orbit

        def classify(d):
            recognised.append(d)
            return real_classify(d)

        def z_orbit(*args):
            out = real_z(*args)
            made.append(out[0])
            return out

        monkeypatch.setattr(diagrams, "classify", classify)
        monkeypatch.setattr(engine, "classify", classify)
        monkeypatch.setattr(engine, "_z_orbit", z_orbit)
        for e in enumerate_entries(8):
            recognised.clear()
            vmrt(e)
            for z in made.pop():
                if z.sigma_pairs is None:
                    assert sum(d is z.diagram for d in recognised) == 1, e.name
                elif z.diagram.nodes:
                    left = z.sigma_left_nodes()
                    seen = [frozenset(d.nodes) for d in recognised]
                    assert seen.count(left) == 1, e.name
                    assert seen.count(frozenset(z.diagram.nodes) - left) == 0, e.name

    def test_vmrt_hands_over_a_classification_of_each_diagram(self):
        # The classes vmrt carries beside each Z and VMRT diagram classify
        # it: one (type, Bourbaki indices) per component, carrying its edges
        # onto the type's.  Written from them, the canonical text is that of
        # a fresh classify.
        kinds, sigma = set(), 0
        for e in enumerate_entries(30):
            v = vmrt(e)
            kinds.add(v.kind)
            for ds, cs in ((v.z, v.z_classes), (v.components, v.classes)):
                assert len(ds) == len(cs), e.name
                for d, k in zip(ds, cs):
                    comps = sorted(sorted(c) for c in d.diagram.components())
                    assert sorted(sorted(m) for _, m in k) == comps, e.name
                    for t, m in k:
                        inv = {i: x for x, i in m.items()}
                        std = standard_diagram(t, [inv[i] for i in range(1, t.rank + 1)])
                        assert frozenset(std.edges) == frozenset(x for x in d.diagram.edges if x.a in m), e.name
                    assert _finite_canonical(d, k) == to_canonical_text(d), e.name
                    sigma += d.sigma_pairs is not None and bool(d.diagram.nodes)
        assert kinds == {"legendrian-Z", "typeA-GPlambda", "full-projective-space"}
        assert sigma > 0

    def test_ambient_pair_named_without_classifying_it(self, monkeypatch):
        # The name of (G, P_lambda) comes from the Bourbaki types its
        # diagram is built of; identify, which classifies it, agrees.
        recognised = []
        real_classify = diagrams.classify

        def classify(d):
            recognised.append(d)
            return real_classify(d)

        monkeypatch.setattr(diagrams, "classify", classify)
        monkeypatch.setattr(engine, "classify", classify)
        named = 0
        for e in enumerate_entries(30):
            recognised.clear()
            v = vmrt(e)
            if v.kind != "typeA-GPlambda":
                continue
            (gp,) = v.components
            assert gp.diagram not in recognised, e.name
            assert v.identification == identify(gp), e.name
            named += 1
        assert named == sum(e.restricted.is_type_a and e.restricted.rank >= 2
                            for e in enumerate_entries(30))


class TestFolding:
    def test_displayed_foldings(self):
        # nu_2(P^10) -> nu_2(Q_9)
        out = fold(standard_marked(CartanType("A", 10), {1}, {1: 2}), "ab")
        assert to_canonical_text(out) == "x[2]-o-o-o=>o"
        # Gr(2,10) -> IG(2,10)
        out = fold(standard_marked(CartanType("A", 9), {2}), "ac")
        assert to_canonical_text(out) == "o-x-o-o<=o"
        # E_6/P_6 -> F_4/P_4
        out = fold(standard_marked(CartanType("E", 6), {6}), "ef")
        assert to_canonical_text(out) == "o-o=>o-x"

    def test_a2_to_a1_doubles_degree(self):
        # the adjacent orbit {1,2} composes embedding degrees: nu_2 -> nu_4
        out = fold(standard_marked(CartanType("A", 2), {1}, {1: 2}), "ab")
        assert to_canonical_text(out) == "x[4]"
        out = fold(standard_marked(CartanType("A", 2), {1}), "ab")
        assert to_canonical_text(out) == "x[2]"

    def test_db_pair(self):
        out = fold(standard_marked(CartanType("D", 6), {1}), "db")
        assert to_canonical_text(out) == "x-o-o-o=>o"

    def test_swap_fold(self):
        e = lookup("group-A", {"n": 4})
        v = vmrt(e)
        out = fold(v.components[0], "swap")
        assert identify(out) == "Flag(1,4)"

    def test_inadmissible(self):
        with pytest.raises(ValueError, match="needs type A_2l"):
            fold(standard_marked(CartanType("A", 5), {1}), "ab")
        with pytest.raises(ValueError, match="two components"):
            fold(standard_marked(CartanType("A", 4), {1}), "swap")
        with pytest.raises(ValueError, match="unknown folding"):
            fold(standard_marked(CartanType("A", 4), {1}), "zz")

    def test_fold_consistency_families(self):
        for label, params in [("AII", {"n": 3}), ("group-A", {"n": 3}), ("EIV", {}),
                              ("AI", {"n": 2})]:
            assert fold_consistency(lookup(label, params)), label

    def test_fold_from_vmrt_classes(self):
        # Folding the ambient diagram from vmrt's classes gives what folding
        # it from a fresh classification gives, and the classes the fold
        # hands back are a valid classification of the folded diagram.
        folded = 0
        for e in enumerate_entries(20):
            if not (e.restricted.is_type_a and e.restricted.rank >= 2 and e.label != "AI-even"):
                continue
            v = vmrt(e)
            ambient = v.components[0]
            out, out_classes = _fold(ambient, entry_folding_pair(e), v.classes[0])
            assert out == fold(ambient, entry_folding_pair(e)), e.name
            for t, mapping in out_classes:
                inv = {i: x for x, i in mapping.items()}
                ids = [inv[i] for i in range(1, t.rank + 1)]
                assert standard_diagram(t, ids) == out.diagram.restrict(mapping), e.name
            assert sorted(x for _, mapping in out_classes for x in mapping) == list(out.diagram.nodes)
            assert fold_consistency(e, v), e.name
            folded += 1
        assert folded > 20

    def test_no_folding_for_ai_even(self):
        with pytest.raises(ValueError, match="no admissible folding"):
            entry_folding_pair(lookup("AI-even", {"n": 3}))

    def test_fold_consistency_needs_type_a(self):
        with pytest.raises(ValueError, match="restricted type A"):
            fold_consistency(lookup("group-B", {"n": 3}))


class TestContact:
    def test_group_entries(self):
        for label, params in [("group-G", {}), ("group-F", {}), ("group-B", {"n": 4}),
                              ("group-A", {"n": 4}), ("group-E", {"n": 8})]:
            assert contact_grading_check(lookup(label, params))

    def test_requires_group_kind(self):
        with pytest.raises(ValueError, match="group type"):
            contact_grading_check(lookup("FII"))

    def test_z_classes_give_the_same_grading(self):
        # The contact check grades Z with vmrt's Z classes; the grading and
        # the verdict are those of a fresh classify.
        groups = 0
        for e in enumerate_entries(30):
            if e.kind != "group":
                continue
            groups += 1
            v = vmrt(e)
            (z,), (zc,) = v.z, v.z_classes
            dims = graded_dimensions(z.diagram, z.crossed)
            assert graded_dimensions(z.diagram, z.crossed, zc) == dims, e.name
            assert contact_grading_check(e, v) == (max(dims) == 2 and dims[2] == 1), e.name
        assert groups > 0


def test_z_classes_give_the_same_orbit_isomorphism():
    # verify matches the two Z diagrams of a Hermitian exceptional entry
    # with vmrt's Z classes; the isomorphism is that of a fresh classify.
    found = 0
    for e in enumerate_entries(30):
        if e.kind != "hermitian-exceptional":
            continue
        v = vmrt(e)
        iso = find_marked_isomorphism(*v.z, *v.z_classes)
        assert iso is not None and iso == find_marked_isomorphism(*v.z), e.name
        found += 1
    assert found > 0


class TestIdentify:
    @pytest.mark.parametrize("t,crossed,ann,want", [
        (("A", 6), (1,), {}, "P^6"),
        (("A", 6), (3,), {}, "Gr(3,7)"),
        (("A", 5), (1, 5), {}, "Flag(1,5)"),
        (("B", 5), (2,), {}, "OG(2,11)"),
        (("B", 4), (4,), {}, "OG(4,9)"),
        (("B", 3), (1,), {2: None} and {}, "Q_5"),
        (("C", 3), (3,), {}, "LG(3,6)"),
        (("C", 4), (1,), {}, "P^7"),
        (("C", 4), (2,), {}, "IG(2,8)"),
        (("D", 5), (1,), {}, "Q_8"),
        (("D", 5), (5,), {}, "OG(5,10)"),
        (("D", 4), (4,), {}, "Q_6"),
        (("E", 6), (2,), {}, "E_6/P_2"),
        (("G", 2), (2,), {}, "G_2/P_2"),
        (("A", 1), (1,), {1: 4}, "v_4(P^1)"),
        (("A", 4), (1,), {1: 2}, "v_2(P^4)"),
    ])
    def test_patterns(self, t, crossed, ann, want):
        m = standard_marked(CartanType(*t), crossed, ann)
        assert identify(m) == want

    def test_fallback_total(self):
        m = standard_marked(CartanType("F", 4), {1, 3})
        assert identify(m) == "X(F_4,{1,3})"

    def test_empty(self):
        from kacvmrt.diagrams import DynkinDiagram, marked

        assert identify(marked(DynkinDiagram(()))) == "P^0"


def test_sigma_halves_isomorphic_everywhere():
    for e in enumerate_entries(9):
        if e.kind != "hermitian-nonexceptional":
            continue
        (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
        assert z.sigma_pairs is not None, e.name


def test_aiii_duality_via_minus_w0():
    # the two exceptional AIII orbit diagrams are dual: related by the
    # ambient -w0 reversal of each linear factor
    from kacvmrt.diagrams import find_marked_isomorphism

    e = lookup("herm-AIII", {"n": 7, "m": 2})
    z1, z2 = z_orbit_diagram(e.kac_diagram(), e.kind)
    assert find_marked_isomorphism(z1, z2) is not None
    assert identify(z1) == identify(z2)


def test_ac_fold_degenerate_l2():
    # A_3 -> C_2: the fixed node becomes the long root (B_2 canonical alpha_1)
    from kacvmrt.diagrams import standard_marked
    from kacvmrt.render import to_canonical_text

    out = fold(standard_marked(CartanType("A", 3), {2}), "ac")
    assert to_canonical_text(out) == "x=>o"   # Q_3
    out = fold(standard_marked(CartanType("A", 3), {1}), "ac")
    assert to_canonical_text(out) == "o=>x"   # the spinor P^3
