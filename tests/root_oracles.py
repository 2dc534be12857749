"""Root-system functions that only the tests use, kept as oracles beside
them: root lengths, the highest short root, the -w0 diagram automorphism,
the sign and support of a root, dim Z from a Z diagram alone, the affine
Cartan matrix, the affine diagrams as derived from the highest root
and transcribed edge by edge, `classify` as it was before its
components came from one breadth-first walk, and the tokeniser as it was
before it became one function over local variables."""

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from kacvmrt.affine import AffineDiagram
from kacvmrt.diagrams import (DynkinDiagram, Edge, MarkedDynkinDiagram, UnrecognizedDiagram, _cartan_type,
                              _edge_signature, parabolic_dimension, standard_diagram)
from kacvmrt.recognition import _key
from kacvmrt.render import _EDGE_TOKEN, ParseError
from kacvmrt.roots import (CartanType, Root, SimpleEdge, _cartan_from_bonds, cartan_matrix, highest_root,
                           positive_roots, simple_edges)


def simple_norms(t: CartanType) -> Tuple[int, ...]:
    """Squared lengths |alpha_i|^2, normalised so short roots have norm 2."""
    n, f = t.rank, t.family
    if f == "B":
        return tuple([4] * (n - 1) + [2])
    if f == "C":
        return tuple([2] * (n - 1) + [4])
    if f == "F":
        return (4, 4, 2, 2)
    if f == "G":
        return (2, 6)
    return tuple([2] * n)


def is_positive(r: Root) -> bool:
    return r.height > 0


def support(r: Root) -> Tuple[int, ...]:
    """1-based indices of the nonzero coefficients."""
    return tuple([i + 1 for i, c in enumerate(r.coeffs) if c != 0])


@lru_cache(maxsize=None)
def _gram(t: CartanType) -> Tuple[Tuple[int, ...], ...]:
    norms = simple_norms(t)
    a = cartan_matrix(t)
    n = t.rank
    # (alpha_i, alpha_j) = a[i][j] * |alpha_j|^2 / 2, an integer throughout.
    g = [[(a[i][j] * norms[j]) // 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] = norms[i]
    return tuple([tuple(row) for row in g])


def root_norm(t: CartanType, r: Root) -> int:
    """Squared length of r in the normalisation of simple_norms."""
    g = _gram(t)
    c = r.coeffs
    return sum(c[i] * c[j] * g[i][j] for i in range(t.rank) for j in range(t.rank) if c[i] and c[j])


def highest_short_root(t: CartanType) -> Root:
    """The maximal short root; equals highest_root for simply-laced types."""
    short = min(simple_norms(t))
    cands = [r for r in positive_roots(t) if root_norm(t, r) == short]
    return cands[-1]


def minus_w0(t: CartanType) -> Dict[int, int]:
    """The diagram automorphism induced by -w0, as a node bijection.

    Identity except A_n (reversal), D_odd (fork-tip swap) and E6.
    """
    n = t.rank
    if t.family == "A":
        return {i: n + 1 - i for i in range(1, n + 1)}
    if t.family == "D" and n % 2 == 1:
        perm = {i: i for i in range(1, n + 1)}
        perm[n - 1], perm[n] = n, n - 1
        return perm
    if t.family == "E" and n == 6:
        return {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
    return {i: i for i in range(1, n + 1)}


def z_dimension(z: MarkedDynkinDiagram) -> int:
    """dim Z: positive roots over the crossed nodes, one sigma half only."""
    if z.sigma_pairs is not None:
        left = z.sigma_left_nodes()
        return parabolic_dimension(z.diagram.restrict(left), [v for v in z.crossed if v in left])
    return parabolic_dimension(z.diagram, z.crossed)


def affine_cartan_matrix(a: AffineDiagram) -> Tuple[Tuple[int, ...], ...]:
    """Affine Cartan matrix m[i][j] = <alpha_i, alpha_j^vee> by node id."""
    return _cartan_from_bonds(a.num_nodes, [(e.a, e.b, e.mult, e.short) for e in a.edges])


def untwisted_edges(base: CartanType) -> List[Edge]:
    """The edges of base^(1): node 0 is -theta, bonded to each alpha_i by
    the pairings of theta with alpha_i over a whole Cartan-matrix column."""
    n = base.rank
    edges = [e for e in standard_diagram(base).edges]
    theta = highest_root(base)
    a = cartan_matrix(base)
    norms = simple_norms(base)
    theta_norm = max(norms)  # theta is long
    for i in range(1, n + 1):
        p = sum(theta.coeffs[j] * a[j][i - 1] for j in range(n))  # <theta, alpha_i^vee>
        if p == 0:
            continue
        # <alpha_i, theta^vee> = 2(alpha_i, theta)/|theta|^2
        gram_col = sum(theta.coeffs[j] * (a[j][i - 1] * norms[i - 1]) // 2 for j in range(n))
        q = 2 * gram_col // theta_norm
        mult = p * q
        if mult == 1:
            edges.append(Edge(0, i, 1, None))
        elif mult == 4:  # A_1^(1): both pairings -2, no direction
            edges.append(Edge(0, i, 4, None))
        else:
            edges.append(Edge(0, i, mult, i))  # alpha_i short, -theta long
    return edges


def twisted_shape(base: CartanType, twist: int) -> Tuple[List[int], List[Edge], Tuple[int, ...], CartanType]:
    """Twisted shapes transcribed edge by edge (Kac, Tables Aff 2/3):
    (nodes, edges, labels, type of the finite part)."""
    f, n = base.family, base.rank
    if twist == 3:
        if (f, n) != ("D", 4):
            raise ValueError("no such twisted type")
        return [0, 1, 2], [Edge(0, 1, 1), Edge(1, 2, 3, 1)], (1, 2, 1), CartanType("G", 2)
    if twist != 2:
        raise ValueError("no such twisted type")
    if f == "A" and n == 2:
        return [0, 1], [Edge(0, 1, 4, 1)], (1, 2), CartanType("A", 1)
    if f == "A" and n == 3:
        # A_3^(2) = D_3^(2): chain with outward arrows, finite part C_2 = B_2.
        return [0, 1, 2], [Edge(0, 1, 2, 0), Edge(1, 2, 2, 2)], (1, 1, 1), CartanType("B", 2)
    if f == "A" and n >= 4 and n % 2 == 0:
        l = n // 2
        edges = [Edge(0, 1, 2, 1)]
        edges += [Edge(i, i + 1, 1) for i in range(1, l - 1)]
        edges.append(Edge(l - 1, l, 2, l))
        return list(range(l + 1)), edges, (1,) + (2,) * l, CartanType("B", l)
    if f == "A" and n >= 5 and n % 2 == 1:
        l = (n + 1) // 2
        edges = [Edge(0, 2, 1), Edge(1, 2, 1)]
        edges += [Edge(i, i + 1, 1) for i in range(2, l - 1)]
        edges.append(Edge(l - 1, l, 2, l - 1))
        return list(range(l + 1)), edges, (1, 1) + (2,) * (l - 2) + (1,), CartanType("C", l)
    if f == "D" and n >= 3:
        l = n - 1
        edges = [Edge(0, 1, 2, 0)]
        edges += [Edge(i, i + 1, 1) for i in range(1, l - 1)]
        edges.append(Edge(l - 1, l, 2, l))
        return list(range(l + 1)), edges, (1,) * (l + 1), CartanType("B", l)
    if f == "E" and n == 6:
        edges = [Edge(1, 2, 1), Edge(2, 3, 2, 3), Edge(3, 4, 1), Edge(0, 4, 1)]
        return [0, 1, 2, 3, 4], edges, (1, 1, 2, 3, 2), CartanType("F", 4)
    raise ValueError("no such twisted type")


def reference_shape(base: CartanType, twist: int) -> Tuple[Tuple[int, ...], frozenset, Tuple[int, ...], CartanType]:
    """(nodes, edges, labels, finite type) of base^(twist) from the two
    references above."""
    if twist == 1:
        return tuple(range(base.rank + 1)), frozenset(untwisted_edges(base)), (1,) + highest_root(base).coeffs, base
    nodes, edges, labels, finite = twisted_shape(base, twist)
    return tuple(nodes), frozenset(edges), labels, finite


def reference_node_zero_key(family: str, rank: int, twist: int) -> Optional[tuple]:
    """Node 0's deletion key from the reference edges; None if there is no
    such affine type."""
    try:
        _, edges, _, t = reference_shape(CartanType(family, rank), twist)
    except ValueError:
        return None
    return _key(t, tuple(sorted([(e.other(0),) + _edge_signature(e, 0) for e in edges if 0 in (e.a, e.b)])))


# ---------------------------------------------------------------------------
# classify before its components came from one breadth-first walk: a
# depth-first component search, a node -> component map and edge buckets
# for every diagram, and re-validation by comparing sets of Bourbaki edges.
# The component recogniser and its chain walk are a frozen copy, so the
# reference stays independent of the code under test when that changes.


def components_reference(nodes: Sequence[int], adj: Dict[int, Dict[int, Edge]]) -> Tuple[Tuple[int, ...], ...]:
    seen: set = set()
    comps: List[Tuple[int, ...]] = []
    for start in nodes:
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


def _reference_chain_from(adj: Dict[int, Dict[int, Edge]], prev: Optional[int], cur: int) -> List[int]:
    out = []
    while cur is not None:
        out.append(cur)
        nbrs = [v for v in adj[cur] if v != prev]
        prev, cur = cur, (nbrs[0] if nbrs else None)
    return out


@lru_cache(maxsize=None)
def _simple_edge_set(t: CartanType) -> FrozenSet[SimpleEdge]:
    return frozenset(simple_edges(t))


def classify_component_reference(
    adj: Dict[int, Dict[int, Edge]], comp: Tuple[int, ...], edges: Sequence[Edge]
) -> Tuple[CartanType, Dict[int, int]]:
    """One connected component: (type, node -> Bourbaki index), ties
    broken by node id."""
    n = len(comp)
    if n == 1:
        return _cartan_type("A", 1), {comp[0]: 1}

    if len(edges) != n - 1:
        raise UnrecognizedDiagram("cycle is not a finite type")

    multi = sorted((e for e in edges if e.mult >= 2), key=lambda e: (e.a, e.b))
    deg = {v: len(adj[v]) for v in comp}
    if any(e.mult >= 4 for e in multi):
        raise UnrecognizedDiagram("quadruple bond is not a finite type")

    if any(e.mult == 3 for e in multi):
        if n != 2:
            raise UnrecognizedDiagram("triple bond only occurs in G2")
        e = multi[0]
        return _cartan_type("G", 2), {e.short: 1, e.other(e.short): 2}

    if multi:
        if len(multi) > 1 or any(v for v in comp if deg[v] > 2):
            raise UnrecognizedDiagram("not a finite type (bad double bonds)")
        e = multi[0]
        lng = e.other(e.short)
        if n == 2:
            return _cartan_type("B", 2), {e.short: 2, lng: 1}
        end_on_edge = [v for v in (e.a, e.b) if deg[v] == 1]
        if not end_on_edge:
            if n != 4:
                raise UnrecognizedDiagram("interior double bond only occurs in F4")
            (outer_long,) = [v for v in adj[lng] if v != e.short]
            (outer_short,) = [v for v in adj[e.short] if v != lng]
            return _cartan_type("F", 4), {outer_long: 1, lng: 2, e.short: 3, outer_short: 4}
        tip = end_on_edge[0]
        chain = _reference_chain_from(adj, None, tip)
        return _cartan_type("B" if tip == e.short else "C", n), {v: n - k for k, v in enumerate(chain)}

    branch = sorted(v for v in comp if deg[v] >= 3)
    if any(deg[v] > 3 for v in comp) or len(branch) > 1:
        raise UnrecognizedDiagram("not a finite simply-laced type")
    if not branch:
        chain = _reference_chain_from(adj, None, min(v for v in comp if deg[v] == 1))
        return _cartan_type("A", n), {v: k + 1 for k, v in enumerate(chain)}

    c = branch[0]
    arms = sorted((_reference_chain_from(adj, c, first) for first in adj[c]), key=lambda a: (len(a), a[-1]))
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


def _reference_revalidate(t: CartanType, mapping: Dict[int, int], comp: Tuple[int, ...],
                          edges: Sequence[Edge]) -> None:
    got = set()
    for e in edges:
        i, j = mapping.get(e.a, 0), mapping.get(e.b, 0)
        got.add((min(i, j), max(i, j), e.mult, None if e.short is None else mapping.get(e.short, 0)))
    if len(comp) != t.rank or len(got) != len(edges) or got != _simple_edge_set(t):
        raise UnrecognizedDiagram(f"component {comp} failed re-validation")


def classify_reference(d: DynkinDiagram) -> Tuple[Tuple[CartanType, Dict[int, int]], ...]:
    """What `diagrams.classify` returns, or raises, computed the old way."""
    adj = d.adjacency()
    comps = components_reference(d.nodes, adj)
    where = {v: k for k, comp in enumerate(comps) for v in comp}
    buckets: List[List[Edge]] = [[] for _ in comps]
    for e in d.edges:
        buckets[where[e.a]].append(e)
    out = []
    for comp, edges in zip(comps, buckets):
        t, mapping = classify_component_reference(adj, comp, edges)
        _reference_revalidate(t, mapping, comp, edges)
        out.append((t, mapping))
    return tuple(out)


_READER_DECODE = {token: sig for sig, token in _EDGE_TOKEN.items()}
_READER_DECODE.update({"=": (2, 0), "#": (3, 0)})
_READER_ALTS = sorted(_READER_DECODE, key=len, reverse=True)
_READER_DIGITS = frozenset("0123456789")


class ReferenceReader:
    """The tokeniser as it was before `parsing._tokenise`: a method call for
    each node and each character of an annotation, and every bond token
    tried with `startswith`, longest first, from its own bond table.  Reads
    nodes 0, 1, ... in text order, with their bonds and marks."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.sigma = False
        self.nodes: List[int] = []
        self.edges: List[Edge] = []
        self.white: List[int] = []
        self.crossed: List[int] = []
        self.ann: Dict[int, int] = {}

    def add_node(self, token: str, ann: Optional[int]) -> int:
        v = len(self.nodes)
        self.nodes.append(v)
        if token == "O":
            self.white.append(v)
        elif token == "x":
            self.crossed.append(v)
            if ann is not None:
                self.ann[v] = ann
        return v

    def add_edge(self, u: int, v: int, mult: int, rel: int, pos: int) -> None:
        if mult in (2, 3) and rel == 0:
            raise ParseError("a double or triple bond needs an arrowhead", pos)
        short = None if rel == 0 else (v if rel == 1 else u)
        self.edges.append(Edge(min(u, v), max(u, v), mult, short))

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.pos)

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def eat_node(self) -> int:
        ch = self.peek()
        if ch not in ("o", "O", "x"):
            raise self.error("expected a node token o, O or x")
        self.pos += 1
        ann = None
        if ch == "x" and self.peek() == "[":
            self.pos += 1
            start = self.pos
            while self.peek() in _READER_DIGITS:
                self.pos += 1
            if self.pos == start:
                raise self.error("expected digits in annotation")
            if self.peek() != "]":
                raise self.error("expected ]")
            try:
                ann = int(self.text[start:self.pos])
            except ValueError:
                raise ParseError("annotation is too long", start) from None
            self.pos += 1
            if ann < 2:
                raise ParseError("annotation must be >= 2", start)
        return self.add_node(ch, ann)

    def try_edge(self) -> Optional[Tuple[int, int]]:
        for alt in _READER_ALTS:
            if self.text.startswith(alt, self.pos):
                self.pos += len(alt)
                return _READER_DECODE[alt]
        return None

    def parse_chain(self) -> Tuple[int, int, int]:
        first = last = self.eat_node()
        length = 1
        open_chains: List[Tuple[int, int, int]] = []
        while True:
            if self.peek() == "(":
                self.pos += 1
                open_chains.append((first, last, length))
                first = last = self.eat_node()
                length = 1
                continue
            bond = self.pos
            edge = self.try_edge()
            if edge is not None:
                mult, rel = edge
                nxt = self.eat_node()
                self.add_edge(last, nxt, mult, rel, bond)
                last, length = nxt, length + 1
                continue
            if not open_chains:
                return first, last, length
            if self.peek() != ")":
                raise self.error("expected )")
            self.pos += 1
            branch = first
            first, last, length = open_chains.pop()
            self.add_edge(last, branch, 1, 0, self.pos)

    def parse(self) -> None:
        if not self.text:
            return
        while True:
            at = self.pos
            is_cycle = self.peek() == "@"
            if is_cycle:
                self.pos += 1
            first, last, length = self.parse_chain()
            if is_cycle:
                if length < 3:
                    raise ParseError("a cycle needs at least three nodes", at)
                self.add_edge(last, first, 1, 0, self.pos)
            if self.text.startswith(" + ", self.pos):
                self.pos += 3
                continue
            break
        if self.text.startswith(" ~sigma", self.pos):
            self.pos += 7
            self.sigma = True
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
