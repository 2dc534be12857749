"""Canonical text grammar, parsing round trips, and the emitters."""

import json

import pytest

from kacvmrt.affine import AffineDiagram, MarkedKacDiagram, affine_diagram
from kacvmrt.atlas import MAX_RANK, enumerate_entries, lookup
from kacvmrt.diagrams import (
    DynkinDiagram,
    Edge,
    MarkedDynkinDiagram,
    find_marked_isomorphism,
    marked,
    standard_marked,
)
from kacvmrt.engine import vmrt, z_orbit_diagram
from kacvmrt.parsing import _read, read
from kacvmrt.presentation import to_ascii, to_dot, to_latex
from kacvmrt.recognition import recognize_affine
from kacvmrt.render import ParseError, _finite_canonical, parse, render, to_canonical_text, to_json
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
        # annotations take ASCII digits only, and no more than int() converts
        ("x[\u00b2]", 2),
        ("x[\u0663]-o", 2),
        pytest.param("x[" + "9" * 5000 + "]", 2, id="x[9*5000]"),
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


def test_reader_hands_its_classes_to_the_writer():
    # Every Kac, affine, Z and VMRT text to rank 30: _read gives read's
    # diagram and, for a finite one (sigma-paired too), the classes the
    # writer takes; for an affine or Kac one, None.
    texts = set()
    for e in enumerate_entries(30):
        kac = e.kac_diagram()
        v = vmrt(e)
        texts.add(to_canonical_text(kac))
        texts.add(to_canonical_text(kac.diagram))
        texts.update(_finite_canonical(d, k) for d, k in zip(v.z + v.components, v.z_classes + v.classes))
    finite = sigma = 0
    for text in sorted(texts):
        back, classes = _read(text)
        assert to_canonical_text(back) == to_canonical_text(read(text)) == text
        affine = isinstance(back, (AffineDiagram, MarkedKacDiagram))
        assert (classes is None) == affine, text
        if not affine:
            finite += 1
            sigma += back.sigma_pairs is not None
            assert _finite_canonical(back, classes) == to_canonical_text(back), text
    assert finite and sigma and len(texts) - finite


def test_parse_sigma_requires_matching_halves():
    with pytest.raises(ParseError, match="sigma"):
        parse("o-o + o-o + o-o ~sigma")  # odd component count
    with pytest.raises(ParseError, match="isomorphic"):
        parse("x-o + o-o ~sigma")
    with pytest.raises(ParseError, match="isomorphic"):
        parse("o-x + o-x + x + o-o ~sigma")  # x and o-o occur once each


def test_parse_sigma_accepts_any_component_order():
    # Each half is o-x + x; the text need not write one half, then the other.
    for text in ("o-x + o-x + x + x ~sigma", "x + o-x + o-x + x ~sigma"):
        back = parse(text)
        assert to_canonical_text(back) == "o-x + x + o-x + x ~sigma"
        assert find_marked_isomorphism(*back.sigma_halves()) is not None


def test_empty_diagram_round_trips():
    # herm-AI's Z is the empty diagram; its text is "" and parses back
    e = lookup("herm-AI")
    (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
    text = to_canonical_text(z)
    assert text == ""
    assert to_canonical_text(parse(text)) == text


def test_deeply_nested_branches_read_as_the_flat_chain():
    # Each ( opens a branch on the node before it, so this is a chain of
    # 5,001 nodes; the reader keeps its open branches on a stack, not on
    # the recursion.
    depth = 5000
    flat = "-".join(["o"] * (depth + 1))
    assert to_canonical_text(parse("o(" * depth + "o" + ")" * depth)) == to_canonical_text(parse(flat))


def test_affine_input_is_bounded():
    # A cycle of 1,000 nodes used to exhaust the recursion of the old
    # backtracking search; affine input is capped at MAX_RANK + 1 nodes.
    with pytest.raises(ParseError, match="MAX_RANK"):
        parse("@" + "-".join(["o"] * 1000))
    with pytest.raises(ParseError, match="MAX_RANK"):
        parse("O-" + "o-" * 800 + "o####O")
    a = parse("@" + "-".join(["o"] * (MAX_RANK + 1)))
    assert (a.base, a.twist) == (CartanType("A", MAX_RANK), 1)


_SHAPES = ([(CartanType(f, n), 1) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
            for n in range(lo, 13)]
           + [(CartanType(f, n), 1) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
           + [(CartanType("A", n), 2) for n in range(2, 25)] + [(CartanType("D", n), 2) for n in range(3, 14)]
           + [(CartanType("E", 6), 2), (CartanType("D", 4), 3)])
# Coinciding shapes read back as the first catalogue name.
_READ_AS = {(CartanType("C", 2), 1): (CartanType("B", 2), 1),
            (CartanType("D", 3), 1): (CartanType("A", 3), 1),
            (CartanType("D", 3), 2): (CartanType("A", 3), 2)}


@pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: f"{s[0]}^({s[1]})")
def test_affine_recognition_from_every_deletion_node(shape):
    # Recognition deletes the least leaf (the least node of a cycle), so
    # renumbering each node to be least exercises every deletion.
    a = affine_diagram(*shape)
    for v in a.nodes:
        ids = {u: (u + 1 if u != v else 0) for u in a.nodes}
        d = DynkinDiagram(tuple(ids.values()), frozenset(
            Edge(min(ids[e.a], ids[e.b]), max(ids[e.a], ids[e.b]), e.mult,
                 None if e.short is None else ids[e.short]) for e in a.edges))
        got, iso = recognize_affine(d)
        assert (got.base, got.twist) == _READ_AS.get(shape, shape)
        assert {Edge(min(iso[e.a], iso[e.b]), max(iso[e.a], iso[e.b]), e.mult,
                     None if e.short is None else iso[e.short]) for e in d.edges} == set(got.edges)


@pytest.mark.parametrize("shape", sorted(_READ_AS), ids=lambda s: f"{s[0]}^({s[1]})")
def test_canonical_kac_texts_of_coinciding_shapes_read_as_the_first_name(shape):
    # The reader tries the same candidates in the same order as recognition.
    a = affine_diagram(*shape)
    for w in a.nodes:
        got = parse(to_canonical_text(MarkedKacDiagram(a, [w]))).diagram
        assert (got.base, got.twist) == _READ_AS[shape]


def test_sigma_halves_of_several_components_round_trip():
    # Each half is o-x + x.  The text writes one half, then the other.
    ids = [(10, 11, 12), (20, 21, 22)]
    edges = frozenset([Edge(a, b) for a, b, _ in ids])
    d = DynkinDiagram(tuple(v for t in ids for v in t), edges)
    m = marked(d, {11, 12, 21, 22}, sigma_pairs=[(10, 20), (11, 21), (12, 22)])
    text = to_canonical_text(m)
    assert text == "o-x + x + o-x + x ~sigma"
    back = parse(text)
    assert to_canonical_text(back) == text
    assert find_marked_isomorphism(*back.sigma_halves()) is not None
    with pytest.raises(ValueError, match="isomorphic"):
        to_canonical_text(marked(d, {11, 12}, sigma_pairs=[(10, 20), (11, 21), (12, 22)]))
