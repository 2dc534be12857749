"""Affine diagrams recognised, and their automorphisms generated, through
`classify`.

Deleting a leaf, or any node of the cycle, of an affine diagram leaves a
finite one (Kac, Infinite-Dimensional Lie Algebras, Tables Aff 1-3).  Its
type, with the deleted node's bonds in Bourbaki indices normalised over
the type's automorphisms, is the node's deletion key, and node 0's key,
read off the affine catalogue, fixes the affine type.  Only parsing and
the canonical text of affine diagrams need this, so `render` imports it
when they run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .affine import MAX_RANK, AffineDiagram, _kac_shape, affine_diagram
from .diagrams import DynkinDiagram, Edge, UnrecognizedDiagram, _edge_signature, classify, diagram_automorphisms
from .roots import CartanType

Deletion = Tuple[int, CartanType, Dict[int, int], Tuple[Tuple[int, int, int], ...]]


def _moved(aut: Dict[int, int], att: Tuple[Tuple[int, int, int], ...]) -> Tuple[Tuple[int, int, int], ...]:
    return tuple(sorted([(aut[i], mult, way) for i, mult, way in att]))


def _key(t: CartanType, att: Tuple[Tuple[int, int, int], ...]) -> tuple:
    return t, min([_moved(aut, att) for aut in diagram_automorphisms(t)])


def _delete(d: DynkinDiagram, adj: Dict[int, Dict[int, Edge]], x: int) -> Tuple[tuple, Deletion]:
    """Delete x and classify the rest: (deletion key, (x, type, Bourbaki
    relabelling of the rest, x's bonds as (index, mult, direction)))."""
    classes = classify(d.delete((x,)))
    if len(classes) != 1:
        raise UnrecognizedDiagram("deleting the node disconnects the diagram")
    t, mapping = classes[0]
    att = tuple(sorted([(mapping[u],) + _edge_signature(e, x) for u, e in adj[x].items()]))
    return _key(t, att), (x, t, mapping, att)


def _extensions(src: Deletion, dst: Deletion) -> List[Dict[int, int]]:
    """The bijections sending src's deleted node to dst's and the rest
    through the automorphisms of their type that carry one node's bonds to
    the other's."""
    x, t, mapping, att = src
    y, _, mapping_y, att_y = dst
    inv = {i: v for v, i in mapping_y.items()}
    out = []
    for aut in diagram_automorphisms(t):
        if _moved(aut, att) == att_y:
            out.append({x: y, **{v: inv[aut[i]] for v, i in mapping.items()}})
    return out


def _carries(iso: Dict[int, int], edges: Tuple[Edge, ...], target: Tuple[Edge, ...]) -> bool:
    """Re-validation: iso maps the edges exactly onto the target's."""
    got = {(min(iso[e.a], iso[e.b]), max(iso[e.a], iso[e.b]), e.mult,
            None if e.short is None else iso[e.short]) for e in edges}
    return len(got) == len(edges) == len(target) and got == {(e.a, e.b, e.mult, e.short) for e in target}


@lru_cache(maxsize=None)
def _shape(base: CartanType, twist: int) -> Tuple[Tuple[Tuple[int, ...], ...], Deletion]:
    """The automorphisms of base^(twist), as tuples indexed by node, and the
    deletion of node 0.  Every automorphism sends node 0 to a node with the
    same key, so the extensions onto those nodes are the whole group."""
    a = affine_diagram(base, twist)
    d = DynkinDiagram(a.nodes, a.edges)
    adj = d.adjacency()
    key, zero = _delete(d, adj, 0)
    auts = []
    for y in [v for v in a.nodes if len(adj[v]) == 1] or a.nodes:
        key_y, dst = _delete(d, adj, y)
        for iso in _extensions(zero, dst) if key_y == key else ():
            if not _carries(iso, a.edges, a.edges):
                raise AssertionError(f"{base}^({twist}): generated map is not an automorphism")
            auts.append(tuple([iso[v] for v in a.nodes]))
    return tuple(auts), zero


def affine_automorphisms(a: AffineDiagram) -> Tuple[Tuple[int, ...], ...]:
    """Every automorphism of a, as the tuple of node images."""
    return _shape(a.base, a.twist)[0]


@lru_cache(maxsize=MAX_RANK + 1)
def affine_candidates(r: int) -> Tuple[Tuple[CartanType, int, tuple], ...]:
    """The affine types of r + 1 nodes as (base, twist, node 0's deletion
    key, read off the type's Kac shape), in the order that names coinciding
    shapes: the first one listed wins."""
    order = [(f, r, 1) for f in "ABCDEFG"] + [
        ("A", 2 * r, 2), ("A", 2 * r - 1, 2), ("D", r + 1, 2), ("E", 6, 2), ("D", 4, 3)]
    out = []
    for f, n, twist in order:
        try:
            base = CartanType(f, n)
            t, bonds, _ = _kac_shape(base, twist)
        except ValueError:  # no such affine type
            continue
        if t.rank == r:  # the finite part of r + 1 nodes
            att = [(i,) + _edge_signature(Edge(0, i, mult, short), 0) for i, mult, short in bonds]
            out.append((base, twist, _key(t, tuple(sorted(att)))))
    return tuple(out)


def recognize_affine(d: DynkinDiagram) -> Optional[Tuple[AffineDiagram, Dict[int, int]]]:
    """The catalogue diagram a connected multigraph is, and the isomorphism
    onto it whose images, read in node order, are least; None if it is no
    affine diagram.  Only the recognised type is built, and the mapping is
    re-validated edge by edge.  Of coinciding shapes the first candidate
    wins: B_2^(1) = C_2^(1), A_3^(1) = D_3^(1), A_3^(2) = D_3^(2)."""
    adj = d.adjacency()
    r = len(d.nodes) - 1
    leaves = [v for v in d.nodes if len(adj[v]) == 1]
    if r < 1 or len(leaves) > 4:  # no affine tree has more than four leaves
        return None
    candidates = affine_candidates(r)
    for x in leaves or d.nodes[:1]:
        try:
            key, src = _delete(d, adj, x)
        except UnrecognizedDiagram:
            continue
        for base, twist, zero_key in candidates:
            if zero_key != key:
                continue
            a = affine_diagram(base, twist)
            auts, zero = _shape(base, twist)
            iso = _extensions(src, zero)[0]
            if not _carries(iso, d.edges, a.edges):
                return None
            for v in d.nodes:  # keep the automorphisms giving v its least image
                least = min([aut[iso[v]] for aut in auts])
                auts = [aut for aut in auts if aut[iso[v]] == least]
                if len(auts) == 1:
                    break
            return a, {v: auts[0][w] for v, w in iso.items()}
    return None
