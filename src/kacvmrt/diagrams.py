"""Dynkin diagrams as labelled multigraphs, with total type recognition.

A diagram is a set of integer node ids plus edges, one sorted tuple, each
carrying a multiplicity and, for multiplicity >= 2, the id of the
short-root endpoint.  Node ids are arbitrary; `classify` recognises every
connected component as a Bourbaki-numbered finite type and returns the
relabelling, which is what the dimension counts are computed through.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .roots import CartanType, OrderedRecord, Record, positive_roots, simple_edges

Classes = Sequence[Tuple[CartanType, Dict[int, int]]]  # what classify returns


class Edge(OrderedRecord):
    __slots__ = ("a", "b", "mult", "short")

    def __init__(self, a: int, b: int, mult: int = 1, short: Optional[int] = None) -> None:
        if a >= b:
            raise ValueError("edge endpoints must satisfy a < b")
        if mult not in (1, 2, 3, 4):
            raise ValueError(f"bad edge multiplicity {mult}")
        if mult == 1 and short is not None:
            raise ValueError("multiplicity-1 edges carry no direction")
        if mult in (2, 3) and short not in (a, b):
            raise ValueError("multiplicity >= 2 edges carry exactly one direction")
        if mult == 4 and short not in (None, a, b):
            raise ValueError("bad direction on quadruple edge")
        self._set(a, b, mult, short)

    def other(self, v: int) -> int:
        return self.b if v == self.a else self.a


def _edge(a: int, b: int, mult: int = 1, short: Optional[int] = None) -> Edge:
    return Edge(min(a, b), max(a, b), mult, short)


def _edge_tuple(edges: Iterable[Edge]) -> Tuple[Edge, ...]:
    """The edges without repeats, sorted by their fields (an arrowless
    quadruple bond before one with an arrow); a set is not hashed again."""
    if not isinstance(edges, (set, frozenset)):
        edges = set(edges)
    try:
        return tuple(sorted(edges, key=Edge._values))  # the field tuple, read in C
    except TypeError:  # None against an int short end
        return tuple(sorted(edges, key=lambda e: (e.a, e.b, e.mult, e.short is not None, e.short)))


def _components(nodes: Sequence[int], adj: Dict[int, Dict[int, Edge]]) -> Tuple[Tuple[int, ...], ...]:
    """Breadth-first, marking each node once; nodes is sorted, and a
    connected diagram gives it back as its one component."""
    seen: set = set()
    comps: List[Tuple[int, ...]] = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:  # comp grows as it is read
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        if len(comp) == len(nodes):
            return (tuple(nodes),)
        comp.sort()
        comps.append(tuple(comp))
    return tuple(comps)


class DynkinDiagram(Record):
    """A disjoint union of finite Dynkin diagrams (possibly empty)."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: Iterable[int], edges: Iterable[Edge] = ()) -> None:
        ids = set(nodes)
        edges = _edge_tuple(edges)
        for e in edges:
            if e.a not in ids or e.b not in ids:
                raise ValueError(f"edge {e} references a node not in diagram")
        self._set(tuple(sorted(ids)), edges)

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
        and a per-instance copy would outweigh the diagram itself.  Parallel
        edges collapse to one entry, so edge counts must come from the edges.
        """
        adj: Dict[int, Dict[int, Edge]] = {v: {} for v in self.nodes}
        for e in self.edges:
            adj[e.a][e.b] = adj[e.b][e.a] = e
        return adj

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Connected components as sorted node tuples, ordered by least node."""
        return _components(self.nodes, self.adjacency())

    def restrict(self, keep: Iterable[int]) -> "DynkinDiagram":
        keep_set = set(keep)
        return DynkinDiagram(
            tuple([v for v in self.nodes if v in keep_set]),
            [e for e in self.edges if e.a in keep_set and e.b in keep_set],
        )

    def delete(self, drop: Iterable[int]) -> "DynkinDiagram":
        drop_set = set(drop)
        return self.restrict(v for v in self.nodes if v not in drop_set)


def standard_diagram(t: CartanType, ids: Optional[Sequence[int]] = None) -> DynkinDiagram:
    """The Bourbaki diagram of t; ids[i] is the node standing for alpha_{i+1}."""
    if ids is None:
        ids = list(range(1, t.rank + 1))
    if len(ids) != t.rank:
        raise ValueError("wrong number of node ids")
    m = {i + 1: ids[i] for i in range(t.rank)}
    edges = []
    for a, b, mult, short in simple_edges(t):
        edges.append(_edge(m[a], m[b], mult, None if short is None else m[short]))
    return DynkinDiagram(tuple(ids), edges)


def _bourbaki(t: CartanType, first: int = 1) -> Tuple[CartanType, Dict[int, int]]:
    """The class of standard_diagram(t) on the ids first, first + 1, ..."""
    return t, {first + i: i + 1 for i in range(t.rank)}


class UnrecognizedDiagram(ValueError):
    pass


def _chain_from(adj: Dict[int, Dict[int, Edge]], prev: Optional[int], cur: int) -> List[int]:
    """The nodes from cur onwards, away from prev, to the end of a chain."""
    out = []
    while cur is not None:
        out.append(cur)
        nbrs = [v for v in adj[cur] if v != prev]
        prev, cur = cur, (nbrs[0] if nbrs else None)
    return out


# One CartanType per (family, rank) and one bond table per type, built on
# first use: recognition meets the same few types over and over.
_cartan_type = lru_cache(maxsize=None)(CartanType)


@lru_cache(maxsize=None)
def _bond_table(t: CartanType) -> Dict[Tuple[int, int], Tuple[int, Optional[int]]]:
    """(i, j) -> (mult, short end) for the bonds of t's diagram, i < j."""
    return {(a, b): (mult, short) for a, b, mult, short in simple_edges(t)}


def _classify_component(
    adj: Dict[int, Dict[int, Edge]], comp: Tuple[int, ...], edges: Sequence[Edge]
) -> Tuple[CartanType, Dict[int, int]]:
    """Recognise one connected component from the diagram's adjacency and
    the component's own edges; returns (type, node -> Bourbaki index).

    Deterministic: ties between symmetric choices are broken by node id.
    """
    n = len(comp)
    if n == 1:
        return _cartan_type("A", 1), {comp[0]: 1}

    if len(edges) != n - 1:
        # Finite types are trees.  Checking first keeps the walks below from
        # going round a cycle for ever, and leaves no parallel edges, so adj
        # holds every edge.
        raise UnrecognizedDiagram("cycle is not a finite type")

    multi = [e for e in edges if e.mult >= 2]
    deg = {v: len(adj[v]) for v in comp}
    if any(e.mult >= 4 for e in multi):
        raise UnrecognizedDiagram("quadruple bond is not a finite type")

    if any(e.mult == 3 for e in multi):
        if n != 2:
            raise UnrecognizedDiagram("triple bond only occurs in G2")
        e = multi[0]
        return _cartan_type("G", 2), {e.short: 1, e.other(e.short): 2}

    if multi:
        if len(multi) > 1 or any(deg[v] > 2 for v in comp):
            raise UnrecognizedDiagram("not a finite type (bad double bonds)")
        # A chain with one double edge: B, C or F4.
        e = multi[0]
        lng = e.other(e.short)
        if n == 2:
            return _cartan_type("B", 2), {e.short: 2, lng: 1}
        end_on_edge = [v for v in (e.a, e.b) if deg[v] == 1]
        if not end_on_edge:
            if n != 4:
                raise UnrecognizedDiagram("interior double bond only occurs in F4")
            # F4: long side of the double edge is node 2, short side node 3.
            (outer_long,) = [v for v in adj[lng] if v != e.short]
            (outer_short,) = [v for v in adj[e.short] if v != lng]
            return _cartan_type("F", 4), {outer_long: 1, lng: 2, e.short: 3, outer_short: 4}
        # alpha_n sits at the free end of the double bond: B_n if that is
        # the short end, C_n if the long one.
        tip = end_on_edge[0]
        chain = _chain_from(adj, None, tip)
        return _cartan_type("B" if tip == e.short else "C", n), {v: n - k for k, v in enumerate(chain)}

    # Simply laced: A, D or E.
    branch = sorted(v for v in comp if deg[v] >= 3)
    if any(deg[v] > 3 for v in comp) or len(branch) > 1:
        raise UnrecognizedDiagram("not a finite simply-laced type")
    if not branch:
        chain = _chain_from(adj, None, min(v for v in comp if deg[v] == 1))
        return _cartan_type("A", n), {v: k + 1 for k, v in enumerate(chain)}

    c = branch[0]
    arms = sorted((_chain_from(adj, c, first) for first in adj[c]), key=lambda a: (len(a), a[-1]))
    lengths = tuple([len(a) for a in arms])
    if lengths[:2] == (1, 1):
        mapping = {c: n - 2, arms[0][0]: n - 1, arms[1][0]: n}
        mapping.update((v, n - 3 - i) for i, v in enumerate(arms[2]))
        return _cartan_type("D", n), mapping
    if lengths in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
        mapping = {c: 4, arms[0][0]: 2, arms[1][0]: 3, arms[1][1]: 1}
        mapping.update((v, 5 + i) for i, v in enumerate(arms[2]))
        return _cartan_type("E", n), mapping

    raise UnrecognizedDiagram(f"arm lengths {lengths} are not a finite type")


def _revalidate(t: CartanType, mapping: Dict[int, int], comp: Tuple[int, ...],
                edges: Sequence[Edge]) -> None:
    """Recognition is never trusted blind: the component's edges, carried
    to Bourbaki indices, must hit each bond of t's diagram exactly once,
    with its multiplicity and short end."""
    left = _bond_table(t).copy()
    if len(comp) == t.rank:
        get = mapping.get
        for e in edges:
            i, j, s = get(e.a, 0), get(e.b, 0), e.short
            if left.pop((i, j) if i < j else (j, i), None) != (e.mult, s if s is None else get(s, 0)):
                break
        else:
            if not left:
                return
    raise UnrecognizedDiagram(f"component {comp} failed re-validation")


def classify(d: DynkinDiagram) -> Tuple[Tuple[CartanType, Dict[int, int]], ...]:
    """Recognise every component, in the order of `components()`.  Total and
    deterministic on valid diagrams."""
    adj = d.adjacency()
    comps = _components(d.nodes, adj)
    if len(comps) == 1:
        parts: Iterable[Tuple[Tuple[int, ...], Sequence[Edge]]] = ((comps[0], d.edges),)
    else:
        where = {v: k for k, comp in enumerate(comps) for v in comp}
        buckets: List[List[Edge]] = [[] for _ in comps]
        for e in d.edges:
            buckets[where[e.a]].append(e)
        parts = zip(comps, buckets)
    out = []
    for comp, edges in parts:
        t, mapping = _classify_component(adj, comp, edges)
        _revalidate(t, mapping, comp, edges)
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


def _nodes_in(d: DynkinDiagram, nodes: Iterable[int]) -> set:
    """The given nodes as a set; each must lie in d."""
    out = set(nodes)
    unknown = out - set(d.nodes)
    if unknown:
        raise ValueError(f"node {sorted(unknown)[0]} not in diagram")
    return out


def _levi_positive_roots(t: CartanType, crossed: Sequence[int]) -> int:
    """|Phi+(L)| for the Levi L of t crossing the sorted Bourbaki indices
    `crossed`.  For A-D each gap of the chain is a simple factor, counted
    by the Bourbaki plates (k(k+1)/2 for A_k, k^2 for B_k and C_k, k(k-1)
    for D_k); D's gap ending at n-2 joins the uncrossed fork nodes."""
    f, n = t.family, t.rank
    if f in "EFG":
        return sum(1 for r in positive_roots(t) if not any([r.coeffs[i - 1] for i in crossed]))
    end = n - 2 if f == "D" else n
    cuts = [0] + [i for i in crossed if i <= end] + [end + 1]
    *gaps, k = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
    levi = sum(g * (g + 1) // 2 for g in gaps)
    if f in "BC":
        return levi + k * k
    if f == "D":
        forks = 2 - len([i for i in crossed if i > end])
        if forks == 2:
            return levi + (k + 2) * (k + 1)
        k += forks
    return levi + k * (k + 1) // 2


def parabolic_dimension(d: DynkinDiagram, marked: Iterable[int], classes: Optional[Classes] = None) -> int:
    """Number of positive roots supported on at least one marked node.

    This is dim G/P for the parabolic P crossing `marked`, counted per
    simple factor of G as |Phi+(G)| - |Phi+(L)| from the crossed Bourbaki
    indices, with no second recognition; classes, if given, is classify(d).
    """
    marked_set = _nodes_in(d, marked)
    total = 0
    for t, mapping in classify(d) if classes is None else classes:
        crossed = sorted([mapping[v] for v in marked_set if v in mapping])
        if crossed:
            total += t.num_positive_roots - _levi_positive_roots(t, crossed)
    return total


def graded_dimensions(d: DynkinDiagram, marked: Iterable[int],
                      classes: Optional[Classes] = None) -> Dict[int, int]:
    """Dimensions of the grading by total coefficient over the marked nodes.

    Grade of a root is the sum of its coefficients at marked nodes; grade 0
    additionally carries the full Cartan dimension (the rank of d).
    classes, if given, is classify(d).
    """
    marked_set = _nodes_in(d, marked)
    dims: Dict[int, int] = {0: d.rank}
    for t, mapping in classify(d) if classes is None else classes:
        idx = {mapping[v] for v in marked_set if v in mapping}
        for r in positive_roots(t):
            k = sum(r.coefficient(i) for i in idx)
            dims[k] = dims.get(k, 0) + 1
            dims[-k] = dims.get(-k, 0) + 1
    return dict(sorted(dims.items()))


class MarkedDynkinDiagram(Record):
    """A finite diagram with crossed nodes, degree annotations and an
    optional sigma pairing between two isomorphic halves."""

    __slots__ = ("diagram", "crossed", "annotations", "sigma_pairs")

    def __init__(
        self,
        diagram: DynkinDiagram,
        crossed: Iterable[int] = (),
        annotations: Mapping[int, int] | Iterable[Tuple[int, int]] = (),
        sigma_pairs: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> None:
        cross = set(crossed)
        crossed = tuple(sorted(cross))  # canonical, and smaller than a frozenset
        ann = dict(annotations)
        nodes = set(diagram.nodes)
        if not nodes.issuperset(cross):
            raise ValueError("crossed nodes must lie in the diagram")
        if not cross.issuperset(ann):
            raise ValueError("annotations only on crossed nodes")
        if any(v < 2 for v in ann.values()):
            raise ValueError("annotations are degrees >= 2")
        if sigma_pairs is not None:
            sigma_pairs = tuple([(a, b) for a, b in sigma_pairs])
            left = [a for a, _ in sigma_pairs]
            right = [b for _, b in sigma_pairs]
            cover = left + right
            if len(set(cover)) != len(cover) or set(cover) != nodes:
                raise ValueError("sigma pairing must match the two halves bijectively")
            # The pairing must be an isomorphism of the left half onto the
            # right one, bonds and marks included, with no bond between them.
            to = dict(sigma_pairs)
            moved = _edge_tuple([_edge(to[e.a], to[e.b], e.mult, None if e.short is None else to[e.short])
                                 for e in diagram.edges if e.a in to and e.b in to])
            if moved != tuple([e for e in diagram.edges if e.a not in to or e.b not in to]) or any(
                    (a in cross) != (b in cross) or ann.get(a) != ann.get(b) for a, b in sigma_pairs):
                raise ValueError("sigma halves are not isomorphic under the pairing")
        self._set(diagram, crossed, tuple(sorted(ann.items())), sigma_pairs)

    @property
    def annotation_map(self) -> Dict[int, int]:
        return dict(self.annotations)

    def restrict(self, keep: Iterable[int]) -> "MarkedDynkinDiagram":
        """The marked sub-diagram on the nodes `keep` (sigma pairing dropped)."""
        keep_set = set(keep)
        return MarkedDynkinDiagram(
            self.diagram.restrict(keep_set),
            [v for v in self.crossed if v in keep_set],
            tuple([(k, v) for k, v in self.annotations if k in keep_set]),
        )

    def sigma_left_nodes(self) -> FrozenSet[int]:
        if self.sigma_pairs is None:
            raise ValueError("no sigma pairing")
        return frozenset(a for a, _ in self.sigma_pairs)

    def sigma_halves(self) -> Tuple["MarkedDynkinDiagram", "MarkedDynkinDiagram"]:
        """The two halves the sigma pairing matches: left (the first node
        of each pair), then right."""
        left = self.sigma_left_nodes()
        return self.restrict(left), self.restrict(frozenset(self.diagram.nodes) - left)


marked = MarkedDynkinDiagram  # the constructor under its functional name


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
    """Backtracking isomorphism of two small labelled multigraphs: the
    test oracle for `find_marked_isomorphism` and affine recognition,
    which nothing in the package calls.

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


def _mark_key(t: CartanType, mapping: Dict[int, int], mark: Callable[[int], Tuple[bool, int]]):
    """t and the marks read along the Bourbaki indices, least over t's
    automorphisms: equal exactly for marked-isomorphic components."""
    inv = {i: v for v, i in mapping.items()}
    return t, tuple(min([[mark(inv[aut[i]]) for i in range(1, t.rank + 1)]
                         for aut in diagram_automorphisms(t)]))


def find_marked_isomorphism(
    m1: "MarkedDynkinDiagram",
    m2: "MarkedDynkinDiagram",
    classes1: Optional[Classes] = None,
    classes2: Optional[Classes] = None,
) -> Optional[Dict[int, int]]:
    """Isomorphism preserving crossings and degree annotations, or None.

    Both diagrams must be finite (`classify` raises otherwise).  classes1
    and classes2 are the `classify` results of what to match when the
    caller has them; they may also split one diagram into two halves.
    Components are matched by `_mark_key`, and each matched pair is the
    composition of the two Bourbaki relabellings with an automorphism of
    the type.  Of all marked isomorphisms this returns the one whose images,
    read in source node order, are least.
    """
    if len(m1.diagram.nodes) != len(m2.diagram.nodes):
        return None
    ann1, ann2 = m1.annotation_map, m2.annotation_map
    mark1 = lambda v: (v in m1.crossed, ann1.get(v, 0))  # noqa: E731
    mark2 = lambda v: (v in m2.crossed, ann2.get(v, 0))  # noqa: E731
    free: Dict[object, List[Dict[int, int]]] = {}
    for t, mapping in classify(m2.diagram) if classes2 is None else classes2:
        free.setdefault(_mark_key(t, mapping, mark2), []).append({i: v for v, i in mapping.items()})
    iso: Dict[int, int] = {}
    for t, mapping in classify(m1.diagram) if classes1 is None else classes1:
        targets = free.get(_mark_key(t, mapping, mark1))
        if not targets:
            return None
        order = sorted(mapping)
        best = None
        for k, inv in enumerate(targets):
            for aut in diagram_automorphisms(t):
                images = [inv[aut[mapping[v]]] for v in order]
                if (best is None or images < best[0]) and all(
                        mark1(v) == mark2(w) for v, w in zip(order, images)):
                    best = images, k
        iso.update(zip(order, best[0]))
        del targets[best[1]]
    return iso


def standard_marked(
    t: CartanType,
    crossed: Iterable[int] = (),
    annotations: Mapping[int, int] | Iterable[Tuple[int, int]] = (),
) -> MarkedDynkinDiagram:
    """Bourbaki diagram of t with the given nodes crossed."""
    return marked(standard_diagram(t), crossed, annotations)
