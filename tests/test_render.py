"""Canonical text grammar, parsing round trips, and the emitters."""

import json

import pytest

from kacvmrt.affine import AffineDiagram, MarkedKacDiagram, affine_diagram
from kacvmrt.atlas import enumerate_entries, lookup
from kacvmrt.diagrams import MarkedDynkinDiagram, find_marked_isomorphism, standard_marked
from kacvmrt.engine import vmrt, z_orbit_diagram
from kacvmrt.render import (
    ParseError,
    parse,
    render,
    to_ascii,
    to_canonical_text,
    to_dot,
    to_json,
    to_latex,
)
from kacvmrt.roots import CartanType


class TestCanonicalText:
    @pytest.mark.parametrize("t,crossed,ann,want", [
        (("A", 3), (), {}, "o-o-o"),
        (("A", 2), (1,), {1: 2}, "o-x[2]"),
        (("B", 3), (2,), {}, "o-x=>o"),
        (("C", 3), (3,), {}, "o-o<=x"),
        (("D", 4), (2,), {}, "o-x(o)-o"),
        (("D", 6), (6,), {}, "o-o-o-o(o)-x"),
        (("E", 6), (1,), {}, "o-o-o(o)-o-x"),
        (("F", 4), (1,), {}, "x-o=>o-o"),
        (("G", 2), (2,), {}, "o<#x"),
        (("A", 1), (1,), {1: 4}, "x[4]"),
    ])
    def test_finite(self, t, crossed, ann, want):
        assert to_canonical_text(standard_marked(CartanType(*t), crossed, ann)) == want

    def test_isomorphic_diagrams_render_identically(self):
        a = standard_marked(CartanType("A", 5), {2})
        b = standard_marked(CartanType("A", 5), {4})
        assert to_canonical_text(a) == to_canonical_text(b)
        e1 = standard_marked(CartanType("E", 6), {1})
        e6 = standard_marked(CartanType("E", 6), {6})
        assert to_canonical_text(e1) == to_canonical_text(e6)

    def test_affine(self):
        assert to_canonical_text(affine_diagram(CartanType("A", 1), 1)) == "O####O".replace("O", "o")
        k = MarkedKacDiagram(affine_diagram(CartanType("A", 1), 1), frozenset({0}))
        assert to_canonical_text(k) == "O####o"
        k = lookup("AI", {"n": 2}).kac_diagram()
        assert to_canonical_text(k) == "O=>o=>o"
        k = lookup("group-B", {"n": 3}).kac_diagram()
        assert to_canonical_text(k) == "O-o(o)=>o"
        k = lookup("herm-CI", {"n": 4}).kac_diagram()
        assert to_canonical_text(k) == "O=>o-o-o<=O"

    def test_cycle(self):
        k = lookup("group-A", {"n": 4}).kac_diagram()
        assert to_canonical_text(k) == "@O-o-o-o-o"
        k = lookup("herm-AIII", {"n": 5, "m": 2}).kac_diagram()
        assert to_canonical_text(k) == "@O-o-O-o-o"

    def test_sigma_suffix(self):
        e = lookup("herm-CI", {"n": 3})
        (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
        assert to_canonical_text(z) == "o-x[2] + o-x[2] ~sigma"


class TestParse:
    def test_plain_chain(self):
        d = parse("o-o-o")
        assert isinstance(d, MarkedDynkinDiagram)
        assert len(d.diagram.nodes) == 3 and not d.crossed

    def test_branch(self):
        d = parse("x-o(o)-o")
        assert isinstance(d, MarkedDynkinDiagram)
        assert to_canonical_text(d) in ("x-o(o)-o", "o-o(o)-x")

    def test_round_trip_texts(self):
        texts = [
            "o-o-o", "o-x=>o", "x[4]", "o-o<=x + x", "@O-o-o",
            "o-o-o(o)-o-x + o-o-o(o)-o-x ~sigma", "O=>o=>o", "o-x(o)-o",
            "x + x + x[2]", "O####o",
        ]
        for t in texts:
            assert to_canonical_text(parse(t)) == t

    def test_parse_preserves_structure(self):
        m = standard_marked(CartanType("D", 6), {1}, {1: 2})
        back = parse(to_canonical_text(m))
        assert find_marked_isomorphism(m, back) is not None

    @pytest.mark.parametrize("bad,offset", [
        ("x[", 2),
        ("o-", 2),
        ("o--o", 2),
        ("(o)", 0),
        ("x[1]", 2),
        ("o-o)", 3),
        # double and triple bonds need an arrowhead
        ("o=o", 1),
        ("o#o", 1),
        ("O-o=o", 3),
        ("x[3]-O-x[2]=x[3]", 11),
        # a cycle through a branch node is neither finite nor affine
        ("x[2] + @x[2]-x-x[3](o-x)-o", 26),
        # a cycle of two nodes would close on its own bond again
        ("@o-o", 0),
        ("o + @O=>o(o)", 4),
    ])
    def test_errors_carry_positions(self, bad, offset):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert err.value.position == offset

    def test_rejects_unrecognisable(self):
        with pytest.raises(ParseError):
            parse("o#>o#>o")  # two triple bonds is no finite or affine type

    def test_affine_recognition(self):
        a = parse("O=>o-o-o<=O")
        assert isinstance(a, MarkedKacDiagram)
        assert a.diagram.base == CartanType("C", 4) and a.diagram.twist == 1
        b = parse("o<=o-o=>o")
        assert isinstance(b, AffineDiagram)
        assert (b.base, b.twist) == (CartanType("D", 4), 2)


class TestEmitters:
    def test_json_round_trip_bytes(self):
        for d in [standard_marked(CartanType("B", 3), {2}),
                  lookup("EII").kac_diagram()]:
            text = to_json(d)
            again = json.dumps(json.loads(text))
            assert again == text

    def test_json_schema_keys(self):
        obj = json.loads(to_json(standard_marked(CartanType("B", 3), {2}, {2: 2})))
        assert obj["kind"] == "finite"
        assert obj["base"] == {"family": "B", "rank": 3}
        marks = {n["id"]: n["mark"] for n in obj["nodes"]}
        assert marks[2] == "crossed"
        assert [n.get("annotation") for n in obj["nodes"] if n["id"] == 2] == [2]
        edge = [e for e in obj["edges"] if e["mult"] == 2]
        assert edge and edge[0]["short_end"] == 3

    def test_json_affine_has_labels(self):
        obj = json.loads(to_json(affine_diagram(CartanType("C", 3), 1)))
        assert obj["kind"] == "affine" and obj["twist"] == 1
        assert obj["labels"] == [1, 2, 2, 1]

    def test_json_sigma_pairs(self):
        e = lookup("herm-CI", {"n": 3})
        (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
        obj = json.loads(to_json(z))
        assert len(obj["sigma_pairs"]) == 2

    def test_ascii_deterministic_and_shaped(self):
        d = lookup("group-A", {"n": 3}).kac_diagram()
        art = to_ascii(d)
        assert art == to_ascii(d)
        assert art.splitlines()[-1].count("o") == 3  # base row, apex above
        art2 = to_ascii(standard_marked(CartanType("E", 7), {1}))
        assert "|" in art2 and "x" in art2

    def test_dot_smoke(self):
        out = to_dot(standard_marked(CartanType("G", 2), {2}))
        assert out.startswith("graph") and "--" in out

    def test_latex_smoke(self):
        out = to_latex(standard_marked(CartanType("B", 3), {2}))
        assert out.startswith("\\begin{picture}") and "\\circle*" in out
        assert "$\\times$" in out

    def test_render_dispatch(self):
        d = standard_marked(CartanType("A", 2), {1})
        for fmt in ("ascii", "latex", "dot", "json", "canonical"):
            assert render(d, fmt)
        with pytest.raises(ValueError):
            render(d, "png")


def test_round_trip_over_pipeline_output():
    # every diagram the rank-8 sweep produces survives parse . render
    for e in enumerate_entries(8):
        diagrams = [e.kac_diagram()]
        diagrams += list(z_orbit_diagram(e.kac_diagram(), e.kind))
        diagrams += list(vmrt(e).components)
        for d in diagrams:
            text = to_canonical_text(d)
            assert to_canonical_text(parse(text)) == text, (e.name, text)


def test_parse_sigma_requires_matching_halves():
    with pytest.raises(ParseError, match="sigma"):
        parse("o-o + o-o + o-o ~sigma")  # odd component count
    with pytest.raises(ParseError, match="isomorphic"):
        parse("x-o + o-o ~sigma")


def test_empty_diagram_round_trips():
    # herm-AI's Z is the empty diagram; its text is "" and parses back
    e = lookup("herm-AI")
    (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
    text = to_canonical_text(z)
    assert text == ""
    assert to_canonical_text(parse(text)) == text
