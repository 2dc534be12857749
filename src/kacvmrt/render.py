"""Deterministic serialization and rendering of diagrams.

The canonical single-line grammar is the package's source of truth for
golden tests and equality checks:

  nodes      o (black/plain)   O (white)   x (crossed)   x[n] (degree n)
  edges      -  (single)       => <=  (double, arrow at the short root)
             #> <#  (triple)   ####> <#### #### (quadruple)
  branches   a parenthesised chain hangs off the preceding node, e.g.
             D_4 is o-o(o)-o and affine E_6 is o-o-o(o-O)-o-o
  cycles     a leading @ closes the written chain into a cycle (the
             untwisted affine A_n diagrams)
  components joined by " + "; a sigma-paired diagram writes one half, then
             the other, and ends in " ~sigma"

Texts are canonical: isomorphic marked diagrams always render to the same
string (the renderer minimises over the diagram's automorphisms), and
parse is a strict inverse up to isomorphism; its reader lives in
parsing.py, loaded on the first parse.  The JSON writer here and the
ASCII, LaTeX picture and DOT emitters of presentation.py (loaded by the
first render in one of those formats) are never parsed back.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .affine import AffineDiagram, MarkedKacDiagram, affine_diagram
from .diagrams import (Classes, DynkinDiagram, Edge, MarkedDynkinDiagram, _chain_from, _edge_signature,
                       classify, diagram_automorphisms, standard_diagram)
from .roots import CartanType

Diagram = Union[MarkedDynkinDiagram, MarkedKacDiagram, AffineDiagram, DynkinDiagram]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


# ---------------------------------------------------------------------------
# Linearisation: a spine of (node, branches) with each branch again a spine.

Spine = List[Tuple[int, List[List[int]]]]


def _chain_spine(nodes: Sequence[int]) -> Spine:
    return [(v, []) for v in nodes]


def _tree_spine(adj: Dict[int, Dict[int, Edge]], start: int) -> Spine:
    """The path from start to its farthest leaf (the greatest node of a
    tie), with every other node hung off the path as a chain; a node's
    branches come in node order."""
    parent: Dict[int, Optional[int]] = {start: None}
    depth = {start: 0}
    reached = [start]
    for u in reached:  # breadth first
        for w in adj[u]:
            if w not in parent:
                parent[w], depth[w] = u, depth[u] + 1
                reached.append(w)
    path = [max(reached, key=lambda v: (depth[v], v))]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    on_path = set(path)
    return [(v, [_chain_from(adj, v, w) for w in sorted(adj[v]) if w not in on_path]) for v in path]


@lru_cache(maxsize=None)
def _bourbaki_spine(t: CartanType) -> Spine:
    return _tree_spine(standard_diagram(t).adjacency(), 1)


def _finite_spine(t: CartanType, inv: Dict[int, int]) -> Spine:
    """The spine of t's Bourbaki diagram from node 1, with node ids
    inv[bourbaki index]."""
    return [(inv[i], [[inv[j] for j in br] for br in brs] if brs else [])
            for i, brs in _bourbaki_spine(t)]


# The affine types whose spine starts at node 1; the others start at node 0.
_STARTS_AT_ONE = {("E", 6, 1), ("E", 8, 1), ("E", 6, 2)}


@lru_cache(maxsize=None)
def _affine_spine(base: CartanType, twist: int) -> Optional[Spine]:
    """The spine of base^(twist); None for a cycle (untwisted A_n, n >= 2,
    and D_3)."""
    a = affine_diagram(base, twist)
    if len(a.edges) == len(a.nodes):
        return None
    return _tree_spine(a.adjacency(), 1 if (base.family, base.rank, twist) in _STARTS_AT_ONE else 0)


# ---------------------------------------------------------------------------
# Rendering

# The token of each bond by its `_edge_signature` seen from its left end.
_EDGE_TOKEN = {
    (1, 0): "-",
    (2, 1): "=>",
    (2, -1): "<=",
    (3, 1): "#>",
    (3, -1): "<#",
    (4, 1): "####>",
    (4, -1): "<####",
    (4, 0): "####",
}


def _node_token(v: int, marks: Dict[int, str]) -> str:
    return marks.get(v, "o")


def _spine_template(spine: Spine, edge_of: Callable[[int, int], Edge]) -> Tuple[List[int], str]:
    """The nodes of the spine's text in order, and the text with a "%s"
    slot for each node's token."""
    nodes: List[int] = []
    out: List[str] = []
    prev: Optional[int] = None
    for v, branches in spine:
        if prev is not None:
            out.append(_EDGE_TOKEN[_edge_signature(edge_of(prev, v), prev)])
        nodes.append(v)
        out.append("%s")
        for br in branches:
            if edge_of(v, br[0]).mult != 1:
                raise AssertionError("branch attachments are single edges")
            br_nodes, br_text = _spine_template(_chain_spine(br), edge_of)
            nodes += br_nodes
            out.append("(" + br_text + ")")
        prev = v
    return nodes, "".join(out)


def _render_spine(spine: Spine, edge_of: Callable[[int, int], Edge],
                  marks: Dict[int, str]) -> str:
    nodes, text = _spine_template(spine, edge_of)
    return text % tuple([_node_token(v, marks) for v in nodes])


def _kind_of(d: Diagram) -> Tuple[Optional[AffineDiagram], Optional[MarkedDynkinDiagram], Dict[int, str]]:
    """(d's affine diagram or None, d as a marked finite diagram or None,
    the token of each white or crossed node)."""
    if isinstance(d, MarkedKacDiagram):
        return d.diagram, None, {v: "O" for v in d.white}
    if isinstance(d, AffineDiagram):
        return d, None, {}
    md = d if isinstance(d, MarkedDynkinDiagram) else MarkedDynkinDiagram(d)
    ann = md.annotation_map
    return None, md, {v: f"x[{ann[v]}]" if v in ann else "x" for v in md.crossed}


def _edge_lookup(adj: Dict[int, Dict[int, Edge]]) -> Callable[[int, int], Edge]:
    """edge_of(u, v) by dict lookup in a per-call adjacency map."""
    def edge_of(u: int, v: int) -> Edge:
        e = adj[u].get(v)
        if e is None:
            raise AssertionError("template edge missing")
        return e

    return edge_of


@lru_cache(maxsize=None)
def _finite_template(t: CartanType) -> Tuple[str, Tuple[itemgetter, ...]]:
    """t's Bourbaki text with a "%s" slot per node, and per automorphism of t
    a getter of the Bourbaki indices filling the slots, as _affine_template."""
    adj = standard_diagram(t).adjacency()  # spines are kept for the emitters alone
    indices, text = _spine_template(_tree_spine(adj, 1), _edge_lookup(adj))
    return text, tuple([itemgetter(*[aut[i] for i in indices]) for aut in diagram_automorphisms(t)])


def _component_canonical(t: CartanType, mapping: Dict[int, int], marks: Dict[int, str]) -> str:
    """The least text of one component over t's automorphisms."""
    text, images = _finite_template(t)
    tokens = [""] * (t.rank + 1)  # by Bourbaki index
    for v, i in mapping.items():
        tokens[i] = marks.get(v, "o")
    return min([text % get(tokens) for get in images])


def _cycle_order(adj: Dict[int, Dict[int, Edge]]) -> List[int]:
    """The nodes of a cycle, from its least node on towards the lesser
    neighbour."""
    cyc: List[int] = [min(adj)]
    prev = None
    while True:
        nbrs = [w for w in adj[cyc[-1]] if w != prev and w not in cyc]
        if not nbrs:
            return cyc
        prev = cyc[-1]
        cyc.append(min(nbrs))


@lru_cache(maxsize=None)
def _affine_template(base: CartanType, twist: int) -> Tuple[str, Tuple[Tuple[int, ...], ...]]:
    """The text of base^(twist) with a "%s" slot for each node's token,
    and the nodes filling the slots under each automorphism: the rest of
    the text is the same under all of them.  A cycle is written as the
    chain of its nodes after an "@"."""
    from .recognition import affine_automorphisms

    a = affine_diagram(base, twist)
    adj = a.adjacency()
    spine = _affine_spine.__wrapped__(base, twist)  # spines are kept for the emitters alone
    nodes, text = _spine_template(_chain_spine(_cycle_order(adj)) if spine is None else spine, _edge_lookup(adj))
    return ("@" if spine is None else "") + text, tuple([tuple([aut[v] for v in nodes])
                                                         for aut in affine_automorphisms(a)])


def _affine_canonical(a: AffineDiagram, marks: Dict[int, str]) -> str:
    """The least text over the automorphisms of a.  Node tokens are one
    letter, so that is the text of the least sequence of node tokens, and
    only the automorphisms giving the least first token are tried."""
    text, images = _affine_template(a.base, a.twist)
    first = min([marks.get(nodes[0], "o") for nodes in images])
    return text % tuple(min([[marks.get(v, "o") for v in nodes]
                             for nodes in images if marks.get(nodes[0], "o") == first]))


def to_canonical_text(d: Diagram) -> str:
    """Canonical single-line encoding; equal iff diagrams are isomorphic."""
    a, md, marks = _kind_of(d)
    if a is not None:
        return _affine_canonical(a, marks)
    return _finite_canonical(md, classify(md.diagram), marks)


def _finite_canonical(md: MarkedDynkinDiagram, classes: Classes,
                      marks: Optional[Dict[int, str]] = None) -> str:
    """The canonical text of md from any classification of its diagram:
    each component is written as the least text over its type's
    automorphisms, so every valid classes gives the same text.  marks, if
    given, are _kind_of(md)'s."""
    if marks is None:
        marks = _kind_of(md)[2]
    parts = sorted([_component_canonical(t, mapping, marks) for t, mapping in classes])
    if md.sigma_pairs is not None and parts:
        # The pairing makes the halves isomorphic, so every other part
        # spells one half; the text writes that half twice.
        return " + ".join(parts[::2] * 2) + " ~sigma"
    return " + ".join(parts)


def parse(s: str) -> Diagram:
    """Inverse of to_canonical_text (up to isomorphism); rejects malformed
    input with position-annotated errors."""
    from .parsing import read

    return read(s)


# ---------------------------------------------------------------------------
# JSON (never parsed back)

@lru_cache(maxsize=None)
def _kac_json_template(base: CartanType, twist: int) -> Tuple[str, Tuple[int, ...]]:
    """The JSON text of base^(twist) with a "%s" slot for each node's mark,
    and the nodes in slot order: the rest of the text is the same for every
    marking."""
    import json

    a = affine_diagram(base, twist)
    obj = {
        "kind": "affine",
        "base": {"family": base.family, "rank": base.rank},
        "twist": twist,
        "nodes": [{"id": v, "mark": "%s"} for v in a.nodes],
        "edges": _edges_json(a.edges),
        "labels": list(a.labels),
    }
    return json.dumps(obj), a.nodes


def to_json(d: Diagram) -> str:
    """Stable JSON per the documented schema; byte-deterministic."""
    a, md, marks = _kind_of(d)
    if a is not None:
        text, nodes = _kac_json_template(a.base, a.twist)
        return text % tuple(["white" if v in marks else "black" for v in nodes])
    import json

    comps = classify(md.diagram)
    base = None
    if len(comps) == 1:
        t = comps[0][0]
        base = {"family": t.family, "rank": t.rank}
    ann = md.annotation_map
    nodes = []
    for v in md.diagram.nodes:
        rec: Dict[str, object] = {"id": v, "mark": "crossed" if v in md.crossed else "black"}
        if v in ann:
            rec["annotation"] = ann[v]
        nodes.append(rec)
    obj = {
        "kind": "finite",
        "base": base,
        "twist": None,
        "nodes": nodes,
        "edges": _edges_json(md.diagram.edges),
    }
    if md.sigma_pairs is not None:
        obj["sigma_pairs"] = [list(p) for p in md.sigma_pairs]
    return json.dumps(obj)


def _edges_json(edges) -> List[Dict[str, object]]:
    out = []
    for e in edges:
        rec: Dict[str, object] = {"from": e.a, "to": e.b, "mult": e.mult}
        if e.short is not None:
            rec["short_end"] = e.short
        out.append(rec)
    return out


FORMATS = ("ascii", "latex", "dot", "json", "canonical")


def render(d: Diagram, fmt: str = "ascii") -> str:
    if fmt == "json":
        return to_json(d)
    if fmt == "canonical":
        return to_canonical_text(d)
    if fmt in ("ascii", "latex", "dot"):
        # Loaded here, as parse loads the reader: the canonical and JSON
        # writers need none of the emitters.
        from . import presentation

        return getattr(presentation, f"to_{fmt}")(d)
    raise ValueError(f"unknown format {fmt!r}")
