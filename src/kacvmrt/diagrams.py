"""Dynkin diagrams as labelled multigraphs, with total type recognition.

A diagram is a set of integer node ids plus edges carrying a multiplicity
and, for multiplicity >= 2, the id of the short-root endpoint.  Node ids
are arbitrary; `classify` recognises every connected component as a
Bourbaki-numbered finite type and returns the relabelling, which is what
the dimension counts are computed through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .roots import CartanType, positive_roots


@dataclass(frozen=True, order=True)
class Edge:
    a: int
    b: int
    mult: int = 1
    short: Optional[int] = None

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ValueError("edge endpoints must satisfy a < b")
        if self.mult not in (1, 2, 3, 4):
            raise ValueError(f"bad edge multiplicity {self.mult}")
        if self.mult == 1 and self.short is not None:
            raise ValueError("multiplicity-1 edges carry no direction")
        if self.mult in (2, 3) and self.short not in (self.a, self.b):
            raise ValueError("multiplicity >= 2 edges carry exactly one direction")
        if self.mult == 4 and self.short not in (None, self.a, self.b):
            raise ValueError("bad direction on quadruple edge")

    def other(self, v: int) -> int:
        return self.b if v == self.a else self.a


def _edge(a: int, b: int, mult: int = 1, short: Optional[int] = None) -> Edge:
    return Edge(min(a, b), max(a, b), mult, short)


@dataclass(frozen=True)
class DynkinDiagram:
    """A disjoint union of finite Dynkin diagrams (possibly empty)."""

    nodes: Tuple[int, ...]
    edges: FrozenSet[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(set(self.nodes))))
        object.__setattr__(self, "edges", frozenset(self.edges))
        ids = set(self.nodes)
        for e in self.edges:
            if e.a not in ids or e.b not in ids:
                raise ValueError(f"edge {e} references a node not in diagram")

    @property
    def rank(self) -> int:
        return len(self.nodes)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(sorted(e.other(v) for e in self.edges if v in (e.a, e.b)))

    def edge_between(self, u: int, v: int) -> Optional[Edge]:
        for e in self.edges:
            if {e.a, e.b} == {u, v}:
                return e
        return None

    def adjacency(self) -> Dict[int, Dict[int, Edge]]:
        """v -> {neighbour: joining edge}, in one pass over the edges.

        Built per call and never stored: diagrams are many and short-lived,
        and a per-instance copy would outweigh the diagram itself.
        """
        adj: Dict[int, Dict[int, Edge]] = {v: {} for v in self.nodes}
        for e in self.edges:
            adj[e.a][e.b] = adj[e.b][e.a] = e
        return adj

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Connected components as sorted node tuples, ordered by least node."""
        adj = self.adjacency()
        seen: set = set()
        comps: List[Tuple[int, ...]] = []
        for start in self.nodes:
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v])
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def restrict(self, keep: Iterable[int]) -> "DynkinDiagram":
        keep_set = set(keep)
        return DynkinDiagram(
            tuple(v for v in self.nodes if v in keep_set),
            frozenset(e for e in self.edges if e.a in keep_set and e.b in keep_set),
        )

    def delete(self, drop: Iterable[int]) -> "DynkinDiagram":
        drop_set = set(drop)
        return self.restrict(v for v in self.nodes if v not in drop_set)


def standard_diagram(t: CartanType, ids: Optional[Sequence[int]] = None) -> DynkinDiagram:
    """The Bourbaki diagram of t; ids[i] is the node standing for alpha_{i+1}."""
    from .roots import simple_edges

    if ids is None:
        ids = list(range(1, t.rank + 1))
    if len(ids) != t.rank:
        raise ValueError("wrong number of node ids")
    m = {i + 1: ids[i] for i in range(t.rank)}
    edges = []
    for a, b, mult, short in simple_edges(t):
        edges.append(_edge(m[a], m[b], mult, None if short is None else m[short]))
    return DynkinDiagram(tuple(ids), frozenset(edges))


class UnrecognizedDiagram(ValueError):
    pass


def _classify_component(d: DynkinDiagram, comp: Tuple[int, ...]) -> Tuple[CartanType, Dict[int, int]]:
    """Recognise one connected component; returns (type, node -> Bourbaki index).

    Deterministic: ties between symmetric choices are broken by node id.
    """
    sub = d.restrict(comp)
    adj = sub.adjacency()
    n = len(comp)
    if n == 1:
        return CartanType("A", 1), {comp[0]: 1}

    if len(sub.edges) != n - 1:
        # Finite types are trees.  Checking first keeps the walks below from
        # going round a cycle for ever, and leaves no parallel edges, so adj
        # holds every edge.
        raise UnrecognizedDiagram("cycle is not a finite type")

    multi = sorted((e for e in sub.edges if e.mult >= 2), key=lambda e: (e.a, e.b))
    deg = {v: len(adj[v]) for v in comp}
    if any(e.mult >= 4 for e in multi):
        raise UnrecognizedDiagram("quadruple bond is not a finite type")

    if any(e.mult == 3 for e in multi):
        if n != 2 or len(sub.edges) != 1:
            raise UnrecognizedDiagram("triple bond only occurs in G2")
        e = multi[0]
        return CartanType("G", 2), {e.short: 1, e.other(e.short): 2}

    if multi:
        if len(multi) > 1 or any(v for v in comp if deg[v] > 2):
            raise UnrecognizedDiagram("not a finite type (bad double bonds)")
        # A chain with one double edge: B, C or F4.
        e = multi[0]
        lng = e.other(e.short)
        if n == 2:
            return CartanType("B", 2), {e.short: 2, lng: 1}
        end_on_edge = [v for v in (e.a, e.b) if deg[v] == 1]
        if not end_on_edge:
            if n != 4:
                raise UnrecognizedDiagram("interior double bond only occurs in F4")
            # F4: long side of the double edge is node 2, short side node 3.
            mapping = {lng: 2, e.short: 3}
            (outer_long,) = [v for v in adj[lng] if v != e.short]
            (outer_short,) = [v for v in adj[e.short] if v != lng]
            mapping[outer_long] = 1
            mapping[outer_short] = 4
            return CartanType("F", 4), mapping
        tip = end_on_edge[0]
        if tip == e.short:
            fam, last = "B", tip  # short endpoint: B_n with alpha_n at the tip
        else:
            fam, last = "C", tip  # long endpoint: C_n with alpha_n at the tip
        mapping = {}
        prev, cur, idx = None, last, n
        while cur is not None:
            mapping[cur] = idx
            idx -= 1
            nbrs = [v for v in adj[cur] if v != prev]
            prev, cur = cur, (nbrs[0] if nbrs else None)
        return CartanType(fam, n), mapping

    # Simply laced: A, D or E.
    branch = sorted(v for v in comp if deg[v] >= 3)
    if any(deg[v] > 3 for v in comp) or len(branch) > 1:
        raise UnrecognizedDiagram("not a finite simply-laced type")
    if not branch:
        ends = sorted(v for v in comp if deg[v] == 1)
        mapping = {}
        prev, cur, idx = None, ends[0], 1
        while cur is not None:
            mapping[cur] = idx
            idx += 1
            nbrs = [v for v in adj[cur] if v != prev]
            prev, cur = cur, (nbrs[0] if nbrs else None)
        return CartanType("A", n), mapping

    c = branch[0]
    arms: List[List[int]] = []
    for first in adj[c]:
        arm, prev, cur = [], c, first
        while cur is not None:
            arm.append(cur)
            nbrs = [v for v in adj[cur] if v != prev]
            prev, cur = cur, (nbrs[0] if nbrs else None)
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), a[-1]))
    lengths = tuple(len(a) for a in arms)

    if lengths[0] == 1 and lengths[1] == 1:
        k = lengths[2]
        if len(arms) != 3:
            raise UnrecognizedDiagram("too many arms")
        rank = k + 3
        mapping = {c: rank - 2, arms[0][0]: rank - 1, arms[1][0]: rank}
        for i, v in enumerate(arms[2]):
            mapping[v] = rank - 3 - i
        return CartanType("D", rank), mapping

    if lengths == (1, 2, 2) or lengths == (1, 2, 3) or lengths == (1, 2, 4):
        rank = n
        mapping = {c: 4, arms[0][0]: 2}
        mapping[arms[1][0]] = 3
        mapping[arms[1][1]] = 1
        for i, v in enumerate(arms[2]):
            mapping[v] = 5 + i
        return CartanType("E", rank), mapping

    raise UnrecognizedDiagram(f"arm lengths {lengths} are not a finite type")


def classify(d: DynkinDiagram) -> Tuple[Tuple[CartanType, Dict[int, int]], ...]:
    """Recognise every component.  Total and deterministic on valid diagrams."""
    out = []
    for comp in d.components():
        t, mapping = _classify_component(d, comp)
        # Recognition is never trusted blind: rebuilding the standard diagram
        # through the claimed relabelling must reproduce the component.
        inv = {bidx: v for v, bidx in mapping.items()}
        rebuilt = standard_diagram(t, [inv[i] for i in range(1, t.rank + 1)])
        if rebuilt.edges != d.restrict(comp).edges:
            raise UnrecognizedDiagram(f"component {comp} failed re-validation")
        out.append((t, mapping))
    return tuple(out)


def diagram_automorphisms(t: CartanType) -> Tuple[Dict[int, int], ...]:
    """All automorphisms of the diagram of t, as Bourbaki-index bijections."""
    n = t.rank
    ident = {i: i for i in range(1, n + 1)}
    if t.family == "A" and n >= 2:
        return (ident, {i: n + 1 - i for i in range(1, n + 1)})
    if t.family == "D" and n == 4:
        perms = []
        import itertools

        for p in itertools.permutations((1, 3, 4)):
            perms.append({1: p[0], 3: p[1], 4: p[2], 2: 2})
        return tuple(perms)
    if t.family == "D":
        swap = dict(ident)
        swap[n - 1], swap[n] = n, n - 1
        return (ident, swap)
    if t.family == "E" and n == 6:
        return (ident, {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4})
    return (ident,)


def _num_positive_roots(d: DynkinDiagram) -> int:
    return sum(t.num_positive_roots for t, _ in classify(d))


def parabolic_dimension(d: DynkinDiagram, marked: Iterable[int]) -> int:
    """Number of positive roots supported on at least one marked node.

    This is dim G/P for the parabolic P crossing `marked`, counted as
    |Phi+(G)| - |Phi+(L)| with the Levi L the diagram minus the marked
    nodes (Bourbaki's root counts per simple factor).
    """
    marked_set = set(marked)
    unknown = marked_set - set(d.nodes)
    if unknown:
        raise ValueError(f"node {sorted(unknown)[0]} not in diagram")
    return _num_positive_roots(d) - _num_positive_roots(d.delete(marked_set))


def graded_dimensions(d: DynkinDiagram, marked: Iterable[int]) -> Dict[int, int]:
    """Dimensions of the grading by total coefficient over the marked nodes.

    Grade of a root is the sum of its coefficients at marked nodes; grade 0
    additionally carries the full Cartan dimension (the rank of d).
    """
    marked_set = set(marked)
    unknown = marked_set - set(d.nodes)
    if unknown:
        raise ValueError(f"node {sorted(unknown)[0]} not in diagram")
    dims: Dict[int, int] = {0: d.rank}
    for (t, mapping), comp in zip(classify(d), d.components()):
        idx = {mapping[v] for v in marked_set if v in set(comp)}
        for r in positive_roots(t):
            k = sum(r.coefficient(i) for i in idx)
            dims[k] = dims.get(k, 0) + 1
            dims[-k] = dims.get(-k, 0) + 1
    return dict(sorted(dims.items()))


@dataclass(frozen=True)
class MarkedDynkinDiagram:
    """A finite diagram with crossed nodes, degree annotations and an
    optional sigma pairing between two isomorphic halves."""

    diagram: DynkinDiagram
    crossed: FrozenSet[int] = field(default_factory=frozenset)
    annotations: Tuple[Tuple[int, int], ...] = ()
    sigma_pairs: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crossed", frozenset(self.crossed))
        object.__setattr__(self, "annotations", tuple(sorted(dict(self.annotations).items())))
        nodes = set(self.diagram.nodes)
        if not self.crossed <= nodes:
            raise ValueError("crossed nodes must lie in the diagram")
        ann = dict(self.annotations)
        if not set(ann) <= self.crossed:
            raise ValueError("annotations only on crossed nodes")
        if any(v < 2 for v in ann.values()):
            raise ValueError("annotations are degrees >= 2")
        if self.sigma_pairs is not None:
            pairs = tuple((a, b) for a, b in self.sigma_pairs)
            object.__setattr__(self, "sigma_pairs", pairs)
            left = [a for a, _ in pairs]
            right = [b for _, b in pairs]
            cover = left + right
            if len(set(cover)) != len(cover) or set(cover) != nodes:
                raise ValueError("sigma pairing must match the two halves bijectively")

    @property
    def annotation_map(self) -> Dict[int, int]:
        return dict(self.annotations)

    def component_marked(self) -> Tuple["MarkedDynkinDiagram", ...]:
        """Split into per-component marked diagrams (sigma pairing dropped)."""
        out = []
        for comp in self.diagram.components():
            comp_set = set(comp)
            out.append(
                MarkedDynkinDiagram(
                    self.diagram.restrict(comp),
                    frozenset(self.crossed & comp_set),
                    tuple((k, v) for k, v in self.annotations if k in comp_set),
                )
            )
        return tuple(out)

    def sigma_left_nodes(self) -> FrozenSet[int]:
        if self.sigma_pairs is None:
            raise ValueError("no sigma pairing")
        return frozenset(a for a, _ in self.sigma_pairs)


def _edge_signature(e: Edge, seen_from: int) -> Tuple[int, int]:
    """(mult, direction) of e as seen from one endpoint: 0 undirected,
    +1 arrow towards the far end, -1 arrow towards ourselves."""
    if e.short is None:
        return (e.mult, 0)
    return (e.mult, 1 if e.short == e.other(seen_from) else -1)


def find_isomorphism(
    d1: DynkinDiagram,
    d2: DynkinDiagram,
    tag1: Optional[Mapping[int, object]] = None,
    tag2: Optional[Mapping[int, object]] = None,
) -> Optional[Dict[int, int]]:
    """Backtracking isomorphism of two small labelled multigraphs.

    Node tags (e.g. crossing/annotation data, Kac labels) must be preserved;
    edge multiplicities and arrow directions always are.  Returns a node
    bijection d1 -> d2 or None.
    """
    t1 = dict(tag1 or {})
    t2 = dict(tag2 or {})
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return None

    inc1, inc2 = d1.adjacency(), d2.adjacency()

    def profile(inc: Dict[int, Dict[int, Edge]], tags: Dict[int, object], v: int):
        return (tags.get(v), tuple(sorted(_edge_signature(e, v) for e in inc[v].values())))

    p1 = {v: profile(inc1, t1, v) for v in d1.nodes}
    p2 = {v: profile(inc2, t2, v) for v in d2.nodes}
    if sorted(map(repr, p1.values())) != sorted(map(repr, p2.values())):
        return None

    order = sorted(d1.nodes, key=lambda v: (repr(p1[v]), v))
    mapping: Dict[int, int] = {}
    used: set = set()

    def compatible(v: int, w: int) -> bool:
        if p1[v] != p2[w]:
            return False
        for u, e1 in inc1[v].items():
            if u in mapping:
                e2 = inc2[w].get(mapping[u])
                if e2 is None or _edge_signature(e1, v) != _edge_signature(e2, w):
                    return False
        return True

    def candidates(v: int) -> Sequence[int]:
        # The image of v must neighbour the image of any mapped neighbour;
        # filtering in sorted order keeps the first isomorphism found.
        for u in inc1[v]:
            if u in mapping:
                return sorted(inc2[mapping[u]])
        return d2.nodes

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates(v):
            if w in used or not compatible(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def find_marked_isomorphism(
    m1: "MarkedDynkinDiagram", m2: "MarkedDynkinDiagram"
) -> Optional[Dict[int, int]]:
    """Isomorphism preserving crossings and degree annotations, or None."""
    tag1 = {v: (v in m1.crossed, m1.annotation_map.get(v, 0)) for v in m1.diagram.nodes}
    tag2 = {v: (v in m2.crossed, m2.annotation_map.get(v, 0)) for v in m2.diagram.nodes}
    return find_isomorphism(m1.diagram, m2.diagram, tag1, tag2)


def marked(
    diagram: DynkinDiagram,
    crossed: Iterable[int] = (),
    annotations: Mapping[int, int] | Iterable[Tuple[int, int]] = (),
    sigma_pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> MarkedDynkinDiagram:
    ann = annotations.items() if isinstance(annotations, Mapping) else annotations
    pairs = None if sigma_pairs is None else tuple(sigma_pairs)
    return MarkedDynkinDiagram(diagram, frozenset(crossed), tuple(ann), pairs)


def standard_marked(
    t: CartanType,
    crossed: Iterable[int] = (),
    annotations: Mapping[int, int] | Iterable[Tuple[int, int]] = (),
) -> MarkedDynkinDiagram:
    """Bourbaki diagram of t with the given nodes crossed."""
    return marked(standard_diagram(t), crossed, annotations)
