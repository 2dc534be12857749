"""Property tests of the closed forms against the computations they replaced.

`parabolic_dimension` counts |Phi+(G)| - |Phi+(L)| from the crossed
Bourbaki indices; one oracle enumerates the positive roots and counts
those meeting a crossed node, the other deletes the crossed nodes and
classifies what is left.
`find_isomorphism` builds per-call incidence maps and filters candidates
by mapped neighbours; the oracle is the plain backtracking search over
`neighbors`/`edge_between`, which must return the very same mapping.
`classify` recognises every component from one adjacency map and
re-validates in Bourbaki index space; the oracle restricts the diagram to
each component and compares it with the rebuilt Bourbaki diagram.
`find_marked_isomorphism` must agree with `find_isomorphism` on marked
tags about whether an isomorphism exists, and the automorphisms the
renderer minimises over must be the whole group a brute-force search
finds.  Canonical text must not move under relabelling (for affine
diagrams: under moving the white nodes by an automorphism), and parsing it
back must give it again.  Affine canonical text joins node tokens into a
per-type template for the automorphisms giving the least first token; the
oracle renders the diagram under every automorphism and keeps the least.
`parse` reads a canonical Kac text back through the same template; the
oracle tokenises the text and recognises the graph with
`recognize_affine`, which must give the very same diagram and white set.
A grammar fuzz holds `parse` to its contract: a `ParseError` with an
offset inside the string, or a text that round-trips idempotently.
`parsing._tokenise` reads every string of that fuzz, and every
one-character edit of the canonical texts to rank 12, as the reader it
replaced (`root_oracles.ReferenceReader`) reads it.
The JSON of a Kac diagram fills the marks into a per-type text; the
oracle builds the whole object and `json.dumps` it.
"""

import itertools
import json
import random
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kacvmrt.affine import AffineDiagram, MarkedKacDiagram, affine_diagram, affine_node_count  # noqa: E402
from kacvmrt.atlas import enumerate_entries  # noqa: E402
from kacvmrt.diagrams import (  # noqa: E402
    DynkinDiagram,
    Edge,
    UnrecognizedDiagram,
    _classify_component,
    _edge_signature,
    classify,
    diagram_automorphisms,
    find_isomorphism,
    find_marked_isomorphism,
    marked,
    parabolic_dimension,
    standard_diagram,
)
from kacvmrt.engine import vmrt  # noqa: E402
from kacvmrt.parsing import _read_kac_text, _tokenise  # noqa: E402
from kacvmrt.recognition import affine_automorphisms, affine_candidates, recognize_affine  # noqa: E402
from kacvmrt.render import (  # noqa: E402
    ParseError,
    _affine_spine,
    _chain_spine,
    _cycle_order,
    _edge_lookup,
    _finite_canonical,
    _finite_spine,
    _render_spine,
    parse,
    to_canonical_text,
    to_json,
)
from kacvmrt.roots import CartanType, positive_roots  # noqa: E402
from root_oracles import ReferenceReader, support  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

FINITE_TYPES = st.one_of(
    st.builds(CartanType, st.just("A"), st.integers(1, 9)),
    st.builds(CartanType, st.just("B"), st.integers(2, 9)),
    st.builds(CartanType, st.just("C"), st.integers(2, 9)),
    st.builds(CartanType, st.just("D"), st.integers(3, 9)),
    st.sampled_from([CartanType("E", 6), CartanType("E", 7), CartanType("E", 8),
                     CartanType("F", 4), CartanType("G", 2)]),
)

AFFINE_SHAPES = [(CartanType("A", n), 1) for n in range(1, 7)] + [
    (CartanType("B", 4), 1), (CartanType("C", 3), 1), (CartanType("D", 5), 1),
    (CartanType("E", 6), 1), (CartanType("A", 5), 2), (CartanType("A", 6), 2),
    (CartanType("D", 5), 2), (CartanType("E", 6), 2), (CartanType("D", 4), 3),
]


def _relabel(d, perm):
    def edge(e):
        a, b = perm[e.a], perm[e.b]
        return Edge(min(a, b), max(a, b), e.mult, None if e.short is None else perm[e.short])

    return DynkinDiagram(tuple(perm[v] for v in d.nodes), frozenset(edge(e) for e in d.edges))


@st.composite
def finite_unions(draw, max_parts=4):
    """A disjoint union of Bourbaki diagrams on shuffled node ids."""
    types = draw(st.lists(FINITE_TYPES, min_size=1, max_size=max_parts))
    ids = draw(st.permutations(range(100, 100 + sum(t.rank for t in types))))
    nodes, edges, k = [], set(), 0
    for t in types:
        part = standard_diagram(t, ids[k:k + t.rank])
        nodes += part.nodes
        edges |= set(part.edges)
        k += t.rank
    return DynkinDiagram(tuple(nodes), frozenset(edges))


@st.composite
def graphs(draw):
    """Finite unions, or one affine diagram (cycles and twisted shapes)."""
    if draw(st.booleans()):
        return draw(finite_unions())
    a = affine_diagram(*draw(st.sampled_from(AFFINE_SHAPES)))
    return DynkinDiagram(a.nodes, a.edges)


def _root_count(d, crossed):
    total = 0
    for (t, mapping), comp in zip(classify(d), d.components()):
        idx = {mapping[v] for v in crossed if v in comp}
        total += sum(1 for r in positive_roots(t) if any(i in idx for i in support(r)))
    return total


def _delete_and_classify(d, crossed):
    """dim G/P as |Phi+(G)| - |Phi+(L)|, with L recognised by a second classify."""
    def count(g):
        return sum(t.num_positive_roots for t, _ in classify(g))

    return count(d) - count(d.delete(crossed))


@SETTINGS
@given(st.data())
def test_parabolic_dimension_matches_root_count(data):
    d = data.draw(finite_unions())
    crossed = data.draw(st.sets(st.sampled_from(d.nodes)))
    assert parabolic_dimension(d, crossed) == _root_count(d, crossed) == _delete_and_classify(d, crossed)


def _backtracking_oracle(d1, d2, t1, t2):
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return None

    def profile(d, tags, v):
        sig = sorted(_edge_signature(e, v) for e in d.edges if v in (e.a, e.b))
        return (tags.get(v), tuple(sig))

    p1 = {v: profile(d1, t1, v) for v in d1.nodes}
    p2 = {v: profile(d2, t2, v) for v in d2.nodes}
    if sorted(map(repr, p1.values())) != sorted(map(repr, p2.values())):
        return None
    order = sorted(d1.nodes, key=lambda v: (repr(p1[v]), v))
    mapping, used = {}, set()

    def compatible(v, w):
        if p1[v] != p2[w]:
            return False
        for u in d1.neighbors(v):
            if u in mapping:
                e2 = d2.edge_between(mapping[u], w)
                if e2 is None or _edge_signature(d1.edge_between(u, v), v) != _edge_signature(e2, w):
                    return False
        return True

    def extend(i):
        if i == len(order):
            return True
        for w in sorted(d2.nodes):
            if w not in used and compatible(order[i], w):
                mapping[order[i]] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[order[i]]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def _is_isomorphism(iso, d1, d2, t1, t2):
    return (
        sorted(iso.values()) == sorted(d2.nodes)
        and _relabel(d1, iso).edges == d2.edges
        and all(t1.get(v) == t2.get(iso[v]) for v in d1.nodes)
    )


@st.composite
def relabelled_pairs(draw):
    d1 = draw(graphs())
    tags = draw(st.lists(st.sampled_from([(False, 0), (True, 0), (True, 2)]),
                         min_size=len(d1.nodes), max_size=len(d1.nodes)))
    t1 = dict(zip(d1.nodes, tags))
    ids = draw(st.permutations(range(500, 500 + len(d1.nodes))))
    perm = dict(zip(d1.nodes, ids))
    return d1, _relabel(d1, perm), t1, {perm[v]: t for v, t in t1.items()}


@SETTINGS
@given(relabelled_pairs())
def test_find_isomorphism_on_relabelled_copies(pair):
    d1, d2, t1, t2 = pair
    iso = find_isomorphism(d1, d2, t1, t2)
    assert iso is not None and _is_isomorphism(iso, d1, d2, t1, t2)
    assert iso == _backtracking_oracle(d1, d2, t1, t2)


@SETTINGS
@given(relabelled_pairs(), st.data())
def test_find_isomorphism_on_near_misses(pair, data):
    d1, d2, t1, t2 = pair
    how = data.draw(st.sampled_from(["tag", "arrow", "rewire"])) if d2.edges else "tag"
    if how == "tag":
        v = data.draw(st.sampled_from(d2.nodes))
        t2 = dict(t2)
        t2[v] = (not t2[v][0], t2[v][1])
    else:
        e = data.draw(st.sampled_from(sorted(d2.edges)))
        rest = set(d2.edges) - {e}
        if how == "arrow" and e.short is not None:
            rest.add(Edge(e.a, e.b, e.mult, e.other(e.short)))
        else:
            # Move the bond to an unjoined pair: no parallel edges, which no
            # Dynkin diagram has and no caller passes.
            joined = {(f.a, f.b) for f in rest}
            free = [(u, v) for u in d2.nodes for v in d2.nodes if u < v and (u, v) not in joined]
            if free:
                u, v = data.draw(st.sampled_from(free))
                rest.add(Edge(u, v, e.mult, None if e.short is None else u))
        d2 = DynkinDiagram(d2.nodes, frozenset(rest))
    iso = find_isomorphism(d1, d2, t1, t2)
    assert iso == _backtracking_oracle(d1, d2, t1, t2)
    if iso is not None:
        assert _is_isomorphism(iso, d1, d2, t1, t2)


def _classify_oracle(d):
    """classify by restriction: each component becomes its own diagram, and
    the Bourbaki diagram rebuilt through the mapping must have its edges."""
    out = []
    for comp in d.components():
        sub = d.restrict(comp)
        t, mapping = _classify_component(sub.adjacency(), comp, tuple(sub.edges))
        inv = {i: v for v, i in mapping.items()}
        rebuilt = standard_diagram(t, [inv[i] for i in range(1, t.rank + 1)])
        if rebuilt.edges != sub.edges:
            raise UnrecognizedDiagram(f"component {comp} failed re-validation")
        out.append((t, mapping))
    return tuple(out)


def _outcome(f, d):
    try:
        return f(d)
    except UnrecognizedDiagram:
        return "unrecognized"


def _some_short(draw, mult, a, b):
    if mult == 1:
        return None
    return draw(st.sampled_from([a, b] if mult in (2, 3) else [None, a, b]))


@st.composite
def near_misses(draw):
    """A relabelled Bourbaki union with one change that usually, but not
    always, leaves finite type: a parallel bond of another multiplicity, a
    flipped arrow, a rewired bond, a closed cycle or a quadruple bond."""
    d = draw(finite_unions())
    edges = set(d.edges)
    how = draw(st.sampled_from(["parallel", "arrow", "rewire", "cycle", "quadruple"]))
    if not edges:
        return d
    e = draw(st.sampled_from(sorted(edges)))
    if how == "parallel":
        mult = draw(st.sampled_from([m for m in (1, 2, 3, 4) if m != e.mult]))
        edges.add(Edge(e.a, e.b, mult, _some_short(draw, mult, e.a, e.b)))
    elif how == "arrow":
        multi = sorted(f for f in edges if f.short is not None)
        if multi:
            f = draw(st.sampled_from(multi))
            edges = (edges - {f}) | {Edge(f.a, f.b, f.mult, f.other(f.short))}
    elif how == "quadruple":
        edges = (edges - {e}) | {Edge(e.a, e.b, 4, _some_short(draw, 4, e.a, e.b))}
    else:
        # "rewire" moves e to an unjoined pair anywhere; "cycle" adds a
        # single bond inside the component of e.
        joined = {(f.a, f.b) for f in edges}
        pool = next(c for c in d.components() if e.a in c) if how == "cycle" else d.nodes
        free = [(u, v) for u in pool for v in pool if u < v and (u, v) not in joined]
        if free:
            u, v = draw(st.sampled_from(free))
            if how == "rewire":
                edges.discard(e)
                edges.add(Edge(u, v, e.mult, None if e.short is None else u))
            else:
                edges.add(Edge(u, v))
    return DynkinDiagram(d.nodes, frozenset(edges))


@SETTINGS
@given(finite_unions())
def test_classify_matches_oracle_on_relabelled_unions(d):
    got = classify(d)
    assert got == _classify_oracle(d)
    assert sum(t.rank for t, _ in got) == len(d.nodes)


@SETTINGS
@given(near_misses())
def test_classify_matches_oracle_on_near_misses(d):
    assert _outcome(classify, d) == _outcome(_classify_oracle, d)


# ---------------------------------------------------------------------------
# Automorphisms, marked isomorphisms and canonical text


def _all_isomorphisms(d1, d2, t1=None, t2=None):
    """Every isomorphism d1 -> d2 preserving tags, by exhaustive search."""
    t1, t2 = t1 or {}, t2 or {}
    a1, a2 = d1.adjacency(), d2.adjacency()
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return []
    out, mapping = [], {}

    def extend(i):
        if i == len(d1.nodes):
            out.append(dict(mapping))
            return
        v = d1.nodes[i]
        for w in d2.nodes:
            if w in mapping.values() or t1.get(v) != t2.get(w) or len(a1[v]) != len(a2[w]):
                continue
            if all(u not in mapping or (mapping[u] in a2[w]
                                        and _edge_signature(e, v) == _edge_signature(a2[w][mapping[u]], w))
                   for u, e in a1[v].items()):
                mapping[v] = w
                extend(i + 1)
                del mapping[v]

    extend(0)
    return out


def _shapes_up_to(rank):
    """Every affine shape whose finite part has rank <= `rank`."""
    out = []
    for fam, lo, hi in (("A", 1, rank), ("B", 2, rank), ("C", 2, rank), ("D", 3, rank)):
        out += [(CartanType(fam, n), 1) for n in range(lo, hi + 1)]
    out += [(CartanType(f, n), 1) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
    out += [(CartanType("A", n), 2) for n in range(2, 2 * rank + 1)
            if affine_node_count("A", n, 2) <= rank + 1]
    out += [(CartanType("D", n), 2) for n in range(3, rank + 2)]
    out += [(CartanType("E", 6), 2), (CartanType("D", 4), 3)]
    return out


@pytest.mark.parametrize("shape", _shapes_up_to(12), ids=lambda s: f"{s[0]}^({s[1]})")
def test_affine_automorphisms_are_the_whole_group(shape):
    a = affine_diagram(*shape)
    graph = DynkinDiagram(a.nodes, a.edges)
    brute = {tuple(s[v] for v in a.nodes) for s in _all_isomorphisms(graph, graph)}
    generated = [tuple(s[v] for v in a.nodes) for s in affine_automorphisms(a)]
    assert len(generated) == len(set(generated))
    assert set(generated) == brute


def _tags(m):
    ann = m.annotation_map
    return {v: (v in m.crossed, ann.get(v, 0)) for v in m.diagram.nodes}


def _marked_iso_ok(iso, m1, m2):
    return (iso is not None and _is_isomorphism(iso, m1.diagram, m2.diagram, _tags(m1), _tags(m2)))


@st.composite
def marked_unions(draw, max_parts=4):
    d = draw(finite_unions(max_parts))
    crossed = draw(st.sets(st.sampled_from(d.nodes)))
    ann = {v: draw(st.sampled_from([2, 3])) for v in sorted(crossed) if draw(st.booleans())}
    return marked(d, crossed, ann)


def _relabel_marked(m, perm):
    pairs = None
    if m.sigma_pairs is not None:
        pairs = [(perm[a], perm[b]) for a, b in m.sigma_pairs]
    return marked(_relabel(m.diagram, perm), {perm[v] for v in m.crossed},
                  {perm[v]: k for v, k in m.annotations}, pairs)


@SETTINGS
@given(marked_unions(), st.data())
def test_find_marked_isomorphism_on_relabelled_copies(m1, data):
    ids = data.draw(st.permutations(range(300, 300 + len(m1.diagram.nodes))))
    m2 = _relabel_marked(m1, dict(zip(m1.diagram.nodes, ids)))
    assert _marked_iso_ok(find_marked_isomorphism(m1, m2), m1, m2)


@SETTINGS
@given(marked_unions(), st.data())
def test_find_marked_isomorphism_on_near_misses(m1, data):
    ids = data.draw(st.permutations(range(300, 300 + len(m1.diagram.nodes))))
    m2 = _relabel_marked(m1, dict(zip(m1.diagram.nodes, ids)))
    d2, crossed, ann = m2.diagram, set(m2.crossed), m2.annotation_map
    how = data.draw(st.sampled_from(["cross", "annotate", "arrow", "rewire"]))
    if how == "cross":
        crossed ^= {data.draw(st.sampled_from(d2.nodes))}
        ann = {v: k for v, k in ann.items() if v in crossed}
    elif how == "annotate" and crossed:
        v = data.draw(st.sampled_from(sorted(crossed)))
        ann[v] = 3 if ann.get(v) == 2 else 2
    elif d2.edges:
        e = data.draw(st.sampled_from(sorted(d2.edges)))
        rest = set(d2.edges) - {e}
        if how == "arrow" and e.short is not None:
            rest.add(Edge(e.a, e.b, e.mult, e.other(e.short)))
        else:
            joined = {(f.a, f.b) for f in rest}
            free = [(u, v) for u in d2.nodes for v in d2.nodes if u < v and (u, v) not in joined]
            if free:
                u, v = data.draw(st.sampled_from(free))
                rest.add(Edge(u, v, e.mult, None if e.short is None else u))
        d2 = DynkinDiagram(d2.nodes, frozenset(rest))
    try:
        classify(d2)
    except UnrecognizedDiagram:
        return  # marked isomorphisms are between finite diagrams
    m2 = marked(d2, crossed, ann)
    iso = find_marked_isomorphism(m1, m2)
    exists = find_isomorphism(m1.diagram, m2.diagram, _tags(m1), _tags(m2)) is not None
    assert (iso is not None) == exists
    if iso is not None:
        assert _marked_iso_ok(iso, m1, m2)


def _assert_canonical(d, relabelled):
    text = to_canonical_text(d)
    assert to_canonical_text(relabelled) == text
    assert to_canonical_text(parse(text)) == text


@SETTINGS
@given(marked_unions(), st.data())
def test_canonical_text_of_finite_diagrams(m, data):
    ids = data.draw(st.permutations(range(300, 300 + len(m.diagram.nodes))))
    _assert_canonical(m, _relabel_marked(m, dict(zip(m.diagram.nodes, ids))))


@SETTINGS
@given(st.sampled_from(_shapes_up_to(8)), st.data())
def test_canonical_text_of_affine_diagrams(shape, data):
    a = affine_diagram(*shape)
    graph = DynkinDiagram(a.nodes, a.edges)
    aut = data.draw(st.sampled_from(_all_isomorphisms(graph, graph)))
    white = data.draw(st.sets(st.sampled_from(a.nodes), min_size=1))
    _assert_canonical(MarkedKacDiagram(a, white), MarkedKacDiagram(a, {aut[w] for w in white}))
    _assert_canonical(a, a)


def _affine_canonical_oracle(a, white):
    """The least text over a's automorphisms, each rendered in full; a
    cycle is the chain of its nodes after an "@"."""
    marks = {v: "O" for v in white}
    adj = a.adjacency()
    edge_of = _edge_lookup(adj)
    spine = _affine_spine(a.base, a.twist)
    auts = affine_automorphisms(a)
    if spine is None:
        cyc = _cycle_order(adj)
        return min(["@" + _render_spine(_chain_spine([aut[v] for v in cyc]), edge_of, marks) for aut in auts])
    return min([_render_spine([(aut[v], [[aut[x] for x in br] for br in brs]) for v, brs in spine],
                              edge_of, marks) for aut in auts])


def _kac_text(a, white):
    return to_canonical_text(MarkedKacDiagram(a, white) if white else a)


@pytest.mark.parametrize("shape", _shapes_up_to(12), ids=lambda s: f"{s[0]}^({s[1]})")
def test_affine_canonical_text_matches_every_automorphism(shape):
    # Every set of at most two white nodes, the plain diagram included.
    a = affine_diagram(*shape)
    for k in range(3):
        for white in itertools.combinations(a.nodes, k):
            assert _kac_text(a, white) == _affine_canonical_oracle(a, white), white


@SETTINGS
@given(st.sampled_from(_shapes_up_to(30)), st.data())
def test_affine_canonical_text_matches_every_automorphism_to_rank_30(shape, data):
    a = affine_diagram(*shape)
    white = data.draw(st.sets(st.sampled_from(a.nodes), min_size=1))
    assert _kac_text(a, white) == _affine_canonical_oracle(a, white)


def _kac_json_oracle(a, white):
    """The JSON of a Kac diagram as one object passed to `json.dumps`."""
    def edge(e):
        rec = {"from": e.a, "to": e.b, "mult": e.mult}
        if e.short is not None:
            rec["short_end"] = e.short
        return rec

    return json.dumps({
        "kind": "affine",
        "base": {"family": a.base.family, "rank": a.base.rank},
        "twist": a.twist,
        "nodes": [{"id": v, "mark": "white" if v in white else "black"} for v in a.nodes],
        "edges": [edge(e) for e in sorted(a.edges)],
        "labels": list(a.labels),
    })


@pytest.mark.parametrize("shape", _shapes_up_to(30), ids=lambda s: f"{s[0]}^({s[1]})")
def test_kac_json_matches_the_dict_writer(shape):
    # The plain diagram and every set of one or two white nodes.
    a = affine_diagram(*shape)
    assert to_json(a) == _kac_json_oracle(a, ())
    for k in (1, 2):
        for white in itertools.combinations(a.nodes, k):
            assert to_json(MarkedKacDiagram(a, white)) == _kac_json_oracle(a, white), white


@SETTINGS
@given(marked_unions(max_parts=1), st.integers(1, 2), st.data())
def test_canonical_text_of_sigma_paired_diagrams(half, copies, data):
    # Each half is `copies` copies of one marked component, as the engine's
    # Hermitian halves are; sigma pairs copy i with copy i + copies.
    k = len(half.diagram.nodes)
    nodes, edges, crossed, ann, pairs = [], set(), set(), {}, []
    for c in range(2 * copies):
        shift = {v: v + 1000 * c for v in half.diagram.nodes}
        part = _relabel_marked(half, shift)
        nodes += part.diagram.nodes
        edges |= set(part.diagram.edges)
        crossed.update(part.crossed)
        ann.update(part.annotations)
        if c < copies:
            pairs += [(shift[v], v + 1000 * (c + copies)) for v in half.diagram.nodes]
    m = marked(DynkinDiagram(tuple(nodes), frozenset(edges)), crossed, ann, pairs)
    ids = data.draw(st.permutations(range(5000, 5000 + 2 * copies * k)))
    _assert_canonical(m, _relabel_marked(m, dict(zip(nodes, ids))))


# ---------------------------------------------------------------------------
# Finite canonical text: per-type templates against the spine walk


def _component_canonical_oracle(t, mapping, edge_of, marks):
    """One component rendered in full along t's spine under every
    automorphism of t, its bonds looked up in the diagram; the least text."""
    inv = {i: v for v, i in mapping.items()}
    return min([_render_spine(_finite_spine(t, {i: inv[aut[i]] for i in aut}), edge_of, marks)
                for aut in diagram_automorphisms(t)])


def _finite_canonical_oracle(md):
    """The canonical text of md from a fresh classify, every component
    written by `_component_canonical_oracle`."""
    ann = md.annotation_map
    marks = {v: f"x[{ann[v]}]" if v in ann else "x" for v in md.crossed}
    edge_of = _edge_lookup(md.diagram.adjacency())
    parts = sorted([_component_canonical_oracle(t, mapping, edge_of, marks) for t, mapping in classify(md.diagram)])
    if md.sigma_pairs is not None and parts:
        return " + ".join(parts[::2] * 2) + " ~sigma"
    return " + ".join(parts)


TYPES_TO_RANK_40 = (
    [CartanType("A", n) for n in range(1, 41)]
    + [CartanType("B", n) for n in range(2, 41)]
    + [CartanType("C", n) for n in range(2, 41)]
    + [CartanType("D", n) for n in range(3, 41)]
    + [CartanType(f, n) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
)


def _random_marking(rng, d):
    """d with about a third of its nodes crossed and some of those
    annotated; 12 against 2 tells a text order from a token order."""
    crossed = {v for v in d.nodes if rng.random() < 0.3}
    return marked(d, crossed, {v: rng.choice((2, 3, 12)) for v in sorted(crossed) if rng.random() < 0.3})


def _assert_template_writes_as_the_spine_walk(rng, md):
    """md and three relabellings of it: the writer gives the oracle's text."""
    text = _finite_canonical_oracle(md)
    assert to_canonical_text(md) == text
    for _ in range(3):
        ids = rng.sample(range(10 * len(md.diagram.nodes) + 10), len(md.diagram.nodes))
        assert to_canonical_text(_relabel_marked(md, dict(zip(md.diagram.nodes, ids)))) == text


@pytest.mark.parametrize("family", "ABCDEFG")
def test_finite_templates_match_the_spine_walk_to_rank_40(family):
    rng = random.Random(f"finite-templates-{family}")
    for t in TYPES_TO_RANK_40:
        if t.family == family:
            _assert_template_writes_as_the_spine_walk(rng, _random_marking(rng, standard_diagram(t)))


def test_finite_templates_match_the_spine_walk_on_random_unions():
    rng = random.Random("finite-template-unions")
    for _ in range(200):
        pool = rng.choice((TYPES_TO_RANK_40, TYPES_TO_RANK_40[:4]))  # the short one repeats types
        types = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        nodes, edges = [], set()
        for t in types:
            part = standard_diagram(t, list(range(len(nodes) + 1, len(nodes) + t.rank + 1)))
            nodes += part.nodes
            edges |= set(part.edges)
        _assert_template_writes_as_the_spine_walk(rng, _random_marking(rng, DynkinDiagram(nodes, edges)))


def test_finite_templates_match_the_spine_walk_on_z_and_vmrt_diagrams_to_rank_30():
    # Written from vmrt's own classes, against a fresh classify.
    sigma = 0
    for e in enumerate_entries(30):
        v = vmrt(e)
        for d, k in zip(v.z + v.components, v.z_classes + v.classes):
            assert _finite_canonical(d, k) == _finite_canonical_oracle(d), e.name
            sigma += d.sigma_pairs is not None
    assert sigma


# ---------------------------------------------------------------------------
# Edges as one sorted tuple: set semantics


@SETTINGS
@given(graphs(), st.data())
def test_diagram_equality_ignores_edge_order_repeats_and_container(d, data):
    repeats = data.draw(st.lists(st.sampled_from(d.edges))) if d.edges else []
    edges = data.draw(st.permutations(d.edges + tuple(repeats)))
    container = data.draw(st.sampled_from([list, tuple, set, frozenset, iter]))
    again = DynkinDiagram(reversed(d.nodes), container(edges))
    assert again == d and hash(again) == hash(d) and again.edges == d.edges


@SETTINGS
@given(st.sampled_from(AFFINE_SHAPES), st.data())
def test_affine_diagram_equality_ignores_edge_order(shape, data):
    a = affine_diagram(*shape)
    edges = data.draw(st.permutations(a.edges))
    again = AffineDiagram(a.base, a.twist, a.nodes, data.draw(st.sampled_from([list, set]))(edges), a.labels)
    assert again == a and hash(again) == hash(a) and again.edges == a.edges


# ---------------------------------------------------------------------------
# Reading Kac texts through the templates, and the grammar fuzz


def _tokenised(text):
    """The Kac diagram that the tokeniser and `recognize_affine` read from
    text, or None if the graph is no affine diagram."""
    n, edges, white, _, _, _ = _tokenise(text)
    hit = recognize_affine(DynkinDiagram(range(n), edges))
    if hit is None:
        return None
    a, iso = hit
    return MarkedKacDiagram(a, [iso[w] for w in white])


def _assert_template_read(text):
    m = _read_kac_text(text)
    assert m is not None, text
    assert m == parse(text) == _tokenised(text), text


@pytest.mark.parametrize("shape", _shapes_up_to(12), ids=lambda s: f"{s[0]}^({s[1]})")
def test_template_reader_matches_recognition(shape):
    # Every set of one or two white nodes.
    a = affine_diagram(*shape)
    for k in (1, 2):
        for white in itertools.combinations(a.nodes, k):
            _assert_template_read(_kac_text(a, white))


@SETTINGS
@given(st.sampled_from(_shapes_up_to(30)), st.data())
def test_template_reader_matches_recognition_to_rank_30(shape, data):
    a = affine_diagram(*shape)
    _assert_template_read(_kac_text(a, data.draw(st.sets(st.sampled_from(a.nodes), min_size=1))))


_BOND_TOKENS = re.compile(r"<####|####>|####|=>|<=|#>|<#|-|[oO]")
_REVERSED = {"=>": "<=", "<=": "=>", "#>": "<#", "<#": "#>", "####>": "<####", "<####": "####>"}


def _reversed_chain(text):
    """A chain without branches written from its other end."""
    return "".join([_REVERSED.get(t, t) for t in _BOND_TOKENS.findall(text)[::-1]])


@pytest.mark.parametrize("text, writing", [
    ("@O-o-o-o-o", "@o-o-O-o-o"),       # a cycle started at another node
    ("@O-O-o-o", "@o-O-O-o"),
    ("O=>o-o=>o", None),                # A_6^(2): the bonds change direction
    ("O<=o-o-o=>o", None),              # D_5^(2): the bonds read the same
    ("O=>o-o-o<=o", None),              # C_4^(1)
    ("O-o#>o", None),                   # G_2^(1)
    ("O####>o", None),
])
def test_non_canonical_writings_miss_the_templates(text, writing):
    writing = _reversed_chain(text) if writing is None else writing
    assert writing != text
    assert _read_kac_text(writing) is None
    assert parse(writing) == _tokenised(writing)
    assert to_canonical_text(parse(writing)) == text


def test_candidates_are_catalogue_types():
    # Two nodes would also name A_1^(2) and D_2^(2), which do not exist.
    assert [(base, twist) for base, twist, _ in affine_candidates(1)] == [
        (CartanType("A", 1), 1), (CartanType("A", 2), 2)]
    assert affine_candidates(0) == ()


@pytest.mark.parametrize("text", ["O-o", "O=>o", "O<####o", "O<#o"])
def test_two_node_texts_read_as_the_tokeniser_reads_them(text):
    want = _tokenised(text)
    if want is None:
        with pytest.raises(ParseError, match="not a recognised"):
            parse(text)
    else:
        assert parse(text) == want


# Tokens of the README grammar, weighted towards the valid ones; the
# arrowless "=" and "#" and annotations below 2 are kept rare.
_NODE = st.sampled_from(["o"] * 3 + ["x"] * 2 + ["O", "x[2]", "x[3]", "x[1]", "x[]"])
_BOND = st.sampled_from(["-"] * 5 + ["=>", "<=", "#>", "<#", "####>", "<####", "####", "=", "#"])


def _chain(branch):
    """node branch (bond node branch)*"""
    step = st.tuples(_NODE, branch).map("".join)
    return st.tuples(step, st.lists(st.tuples(_BOND, step).map("".join), max_size=5).map("".join)).map("".join)


_BRANCH = st.one_of(st.just(""), _chain(st.just("")).map(lambda c: f"({c})"))
_COMPONENT = st.tuples(st.sampled_from(["", "", "@"]), _chain(_BRANCH)).map("".join)
_TEXTS = st.tuples(st.lists(_COMPONENT, min_size=1, max_size=3).map(" + ".join),
                   st.sampled_from(["", "", " ~sigma"])).map("".join)
_RAW_TEXTS = st.text(alphabet="oO-=<>#()@", max_size=40)

FUZZ = settings(max_examples=300, deadline=1000, database=None, derandomize=True)


def _assert_total(s):
    try:
        d = parse(s)
    except ParseError as ex:
        assert 0 <= ex.position <= len(s), s
        return
    text = to_canonical_text(d)
    assert to_canonical_text(parse(text)) == text, s


@FUZZ
@given(_TEXTS)
def test_parse_is_total_on_the_grammar(s):
    _assert_total(s)


@FUZZ
@given(_RAW_TEXTS)
def test_parse_is_total_on_raw_strings(s):
    _assert_total(s)


# ---------------------------------------------------------------------------
# The tokeniser against the reader it replaced: the same node count, bonds
# in the same order, white and crossed nodes, annotations and sigma flag,
# or the same ParseError message at the same offset.


def _tokens(s):
    try:
        return _tokenise(s)
    except ParseError as ex:
        return str(ex), ex.position


def _reference_tokens(s):
    p = ReferenceReader(s)
    try:
        p.parse()
    except ParseError as ex:
        return str(ex), ex.position
    return len(p.nodes), p.edges, p.white, p.crossed, p.ann, p.sigma


@FUZZ
@given(_TEXTS)
def test_tokeniser_matches_the_reference_on_the_grammar(s):
    assert _tokens(s) == _reference_tokens(s)


@FUZZ
@given(_RAW_TEXTS)
def test_tokeniser_matches_the_reference_on_raw_strings(s):
    assert _tokens(s) == _reference_tokens(s)


def test_tokeniser_matches_the_reference_on_one_character_edits():
    # Every canonical Z, VMRT and Kac text to rank 12, each character
    # deleted or replaced by each token character in turn.
    texts = set()
    for e in enumerate_entries(12):
        v = vmrt(e)
        texts.update(map(to_canonical_text, (e.kac_diagram(), *v.z, *v.components)))
    edits = set(texts)
    for t in texts:
        for i in range(len(t)):
            head, tail = t[:i], t[i + 1:]
            edits.add(head + tail)
            edits.update([head + c + tail for c in "oOx-=<>#()@[]0123 +~"])
    assert len(texts) > 700 and len(edits) > 250_000
    mismatched = [s for s in edits if _tokens(s) != _reference_tokens(s)]
    assert not mismatched, sorted(mismatched)[:5]
