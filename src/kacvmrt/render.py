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
  components joined by " + "; a sigma-paired diagram ends in " ~sigma"

Texts are canonical: isomorphic marked diagrams always render to the same
string (the renderer minimises over the diagram's automorphisms), and
parse is a strict inverse up to isomorphism.  ASCII, LaTeX picture, DOT
and JSON emitters are presentation-only and never parsed back.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .affine import AffineDiagram, MarkedKacDiagram, affine_diagram
from .diagrams import (
    DynkinDiagram,
    Edge,
    MarkedDynkinDiagram,
    UnrecognizedDiagram,
    classify,
    diagram_automorphisms,
    find_isomorphism,
    find_marked_isomorphism,
    marked,
)
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


def _finite_spine(t: CartanType, inv: Dict[int, int]) -> Spine:
    """Spine of the Bourbaki template with node ids inv[bourbaki index]."""
    n = t.rank
    if t.family == "D":
        spine = _chain_spine([inv[i] for i in range(1, n - 1)])
        v, br = spine[-1]
        spine[-1] = (v, br + [[inv[n - 1]]])
        spine.append((inv[n], []))
        return spine
    if t.family == "E":
        order = [1, 3, 4] + list(range(5, n + 1))
        spine = _chain_spine([inv[i] for i in order])
        v, br = spine[2]
        spine[2] = (v, [[inv[2]]])
        return spine
    return _chain_spine([inv[i] for i in range(1, n + 1)])


def _affine_spine(a: AffineDiagram) -> Optional[Spine]:
    """Spine for affine diagrams; None for the cyclic untwisted A_n, n >= 2."""
    f, n, tw = a.base.family, a.base.rank, a.twist
    l = a.num_nodes - 1
    if tw == 1:
        if f == "A":
            return _chain_spine([0, 1]) if n == 1 else None
        if f == "B":
            if n == 2:  # 0 => 2 <= 1, a chain
                return _chain_spine([0, 2, 1])
            spine = [(0, []), (2, [[1]])] + _chain_spine(range(3, n + 1))
            return spine
        if f == "C" or f == "F" or f == "G":
            if f == "G":
                return _chain_spine([0, 2, 1])
            return _chain_spine(range(0, n + 1))
        if f == "D":
            if n == 3:
                return None  # 4-cycle, same shape as affine A_3
            spine: Spine = [(0, []), (2, [[1]])]
            if n == 4:
                spine[1] = (2, [[1], [3]])
                spine.append((4, []))
                return spine
            spine += _chain_spine(range(3, n - 2))
            spine.append((n - 2, [[n - 1]]))
            spine.append((n, []))
            return spine
        if f == "E":
            if n == 6:
                return [(1, []), (3, []), (4, [[2, 0]]), (5, []), (6, [])]
            if n == 7:
                return [(0, []), (1, []), (3, []), (4, [[2]]), (5, []), (6, []), (7, [])]
            return [(1, []), (3, []), (4, [[2]]), (5, []), (6, []), (7, []), (8, []), (0, [])]
    if tw == 3:
        return _chain_spine([0, 1, 2])
    # twist 2
    if f == "A" and n in (2, 3):
        return _chain_spine(range(0, l + 1))
    if f == "A" and n % 2 == 0:
        return _chain_spine(range(0, l + 1))
    if f == "A":
        return [(0, []), (2, [[1]])] + _chain_spine(range(3, l + 1))
    if f == "D":
        return _chain_spine(range(0, l + 1))
    return _chain_spine([1, 2, 3, 4, 0])  # E_6^(2)


def _affine_automorphisms(a: AffineDiagram) -> Tuple[Dict[int, int], ...]:
    """The full automorphism group of each affine shape, hardcoded."""
    f, n, tw = a.base.family, a.base.rank, a.twist
    nodes = list(a.nodes)
    ident = {v: v for v in nodes}
    l = a.num_nodes - 1

    def perm(mapping: Dict[int, int]) -> Dict[int, int]:
        out = dict(ident)
        out.update(mapping)
        return out

    if tw == 1:
        if f == "A" and n == 1:
            return (ident, perm({0: 1, 1: 0}))
        if f == "A":
            cyc = list(range(n + 1))
            res = []
            for r in range(n + 1):
                rot = cyc[r:] + cyc[:r]
                res.append({cyc[i]: rot[i] for i in range(n + 1)})
                rev = rot[::-1]
                res.append({cyc[i]: rev[i] for i in range(n + 1)})
            return tuple(res)
        if f == "B":
            return (ident, perm({0: 1, 1: 0}))
        if f == "C":
            return (ident, {v: n - v for v in nodes})
        if f == "D":
            if n == 3:
                # the 4-cycle 0-2-1-3: dihedral group
                cyc = [0, 2, 1, 3]
                res = []
                for r in range(4):
                    rot = cyc[r:] + cyc[:r]
                    res.append({cyc[i]: rot[i] for i in range(4)})
                    rev = rot[::-1]
                    res.append({cyc[i]: rev[i] for i in range(4)})
                return tuple(res)
            if n == 4:
                res = []
                for p in itertools.permutations((0, 1, 3, 4)):
                    res.append({0: p[0], 1: p[1], 3: p[2], 4: p[3], 2: 2})
                return tuple(res)
            flips = [ident, {v: n - v for v in nodes}]
            swaps01 = [ident, perm({0: 1, 1: 0})]
            swapsnn = [ident, perm({n - 1: n, n: n - 1})]
            res = []
            for x in flips:
                for y in swaps01:
                    for z in swapsnn:
                        res.append({v: z[y[x[v]]] for v in nodes})
            return tuple(res)
        if f == "E" and n == 6:
            arms = [(3, 1), (5, 6), (2, 0)]
            res = []
            for p in itertools.permutations(range(3)):
                m = {4: 4}
                for i, j in enumerate(p):
                    m[arms[i][0]], m[arms[i][1]] = arms[j][0], arms[j][1]
                res.append(m)
            return tuple(res)
        if f == "E" and n == 7:
            return (ident, perm({0: 7, 7: 0, 1: 6, 6: 1, 3: 5, 5: 3}))
        return (ident,)
    if tw == 2:
        if f == "A" and n == 3:
            return (ident, {v: 2 - v for v in nodes})
        if f == "A" and n % 2 == 1 and n >= 5:
            return (ident, perm({0: 1, 1: 0}))
        if f == "D":
            return (ident, {v: l - v for v in nodes})
        return (ident,)
    return (ident,)


# ---------------------------------------------------------------------------
# Rendering

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


def _edge_token(e: Edge, left: int) -> str:
    if e.short is None:
        return _EDGE_TOKEN[(e.mult, 0)]
    rel = 1 if e.short == e.other(left) else -1
    return _EDGE_TOKEN[(e.mult, rel)]


def _node_token(v: int, marks: Dict[int, str]) -> str:
    return marks.get(v, "o")


def _render_chain(nodes: Sequence[int], edge_of: Callable[[int, int], Edge],
                  marks: Dict[int, str]) -> str:
    out = [_node_token(nodes[0], marks)]
    for u, v in zip(nodes, nodes[1:]):
        out.append(_edge_token(edge_of(u, v), u))
        out.append(_node_token(v, marks))
    return "".join(out)


def _render_spine(spine: Spine, edge_of: Callable[[int, int], Edge],
                  marks: Dict[int, str]) -> str:
    out: List[str] = []
    prev: Optional[int] = None
    for v, branches in spine:
        if prev is not None:
            out.append(_edge_token(edge_of(prev, v), prev))
        out.append(_node_token(v, marks))
        for br in branches:
            if edge_of(v, br[0]).mult != 1:
                raise AssertionError("branch attachments are single edges")
            out.append("(" + _render_chain(br, edge_of, marks) + ")")
        prev = v
    return "".join(out)


def _marks_of(d: Diagram) -> Dict[int, str]:
    if isinstance(d, MarkedKacDiagram):
        return {v: "O" for v in d.white}
    if isinstance(d, MarkedDynkinDiagram):
        out = {}
        ann = d.annotation_map
        for v in d.crossed:
            out[v] = f"x[{ann[v]}]" if v in ann else "x"
        return out
    return {}


def _edge_lookup(adj: Dict[int, Dict[int, Edge]]) -> Callable[[int, int], Edge]:
    """edge_of(u, v) by dict lookup in a per-call adjacency map."""
    def edge_of(u: int, v: int) -> Edge:
        e = adj[u].get(v)
        if e is None:
            raise AssertionError("template edge missing")
        return e

    return edge_of


def _component_canonical(t: CartanType, mapping: Dict[int, int],
                         edge_of: Callable[[int, int], Edge], marks: Dict[int, str]) -> str:
    inv = {i: v for v, i in mapping.items()}
    best = None
    for aut in diagram_automorphisms(t):
        inv_a = {i: inv[aut[i]] for i in aut}
        text = _render_spine(_finite_spine(t, inv_a), edge_of, marks)
        if best is None or text < best:
            best = text
    return best


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


def _affine_canonical(a: AffineDiagram, marks: Dict[int, str]) -> str:
    adj = a.adjacency()
    edge_of = _edge_lookup(adj)
    base_spine = _affine_spine(a)
    texts = []
    if base_spine is None:
        # cycle: nodes in cyclic order starting anywhere, both directions
        cyc = _cycle_order(adj)
        k = len(cyc)
        for r in range(k):
            for seq in (cyc[r:] + cyc[:r], (cyc[r:] + cyc[:r])[::-1]):
                texts.append("@" + _render_chain(seq, edge_of, marks))
    else:
        for aut in _affine_automorphisms(a):
            spine = [(aut[v], [[aut[x] for x in br] for br in brs])
                     for v, brs in base_spine]
            texts.append(_render_spine(spine, edge_of, marks))
    return min(texts)


def to_canonical_text(d: Diagram) -> str:
    """Canonical single-line encoding; equal iff diagrams are isomorphic."""
    if isinstance(d, (AffineDiagram, MarkedKacDiagram)):
        a = d.diagram if isinstance(d, MarkedKacDiagram) else d
        return _affine_canonical(a, _marks_of(d))
    md = d if isinstance(d, MarkedDynkinDiagram) else MarkedDynkinDiagram(d)
    marks = _marks_of(md)
    edge_of = _edge_lookup(md.diagram.adjacency())
    parts = sorted(
        _component_canonical(t, mapping, edge_of, marks)
        for t, mapping in classify(md.diagram)
    )
    text = " + ".join(parts)
    if md.sigma_pairs is not None and text:
        text += " ~sigma"
    return text


# ---------------------------------------------------------------------------
# Parsing

_EDGE_ALTS = ["####>", "<####", "####", "#>", "<#", "=>", "<=", "#", "=", "-"]
_EDGE_DECODE = {
    "-": (1, 0), "=": (2, 0), "#": (3, 0), "####": (4, 0),
    "=>": (2, 1), "<=": (2, -1), "#>": (3, 1), "<#": (3, -1),
    "####>": (4, 1), "<####": (4, -1),
}


class _Builder:
    def __init__(self) -> None:
        self.next_id = 0
        self.nodes: List[int] = []
        self.edges: List[Edge] = []
        self.white: List[int] = []
        self.crossed: List[int] = []
        self.ann: Dict[int, int] = {}

    def add_node(self, token: str, ann: Optional[int]) -> int:
        v = self.next_id
        self.next_id += 1
        self.nodes.append(v)
        if token == "O":
            self.white.append(v)
        elif token == "x":
            self.crossed.append(v)
            if ann is not None:
                self.ann[v] = ann
        return v

    def add_edge(self, u: int, v: int, mult: int, rel: int, pos: int) -> None:
        """Add the bond written at offset pos; double and triple bonds
        need their arrowhead."""
        if mult in (2, 3) and rel == 0:
            raise ParseError("a double or triple bond needs an arrowhead", pos)
        short = None
        if rel == 1:
            short = v
        elif rel == -1:
            short = u
        if mult == 1:
            short = None
        a, b = min(u, v), max(u, v)
        self.edges.append(Edge(a, b, mult, short))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.b = _Builder()
        self.sigma = False
        self.cycle_components: List[bool] = []

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
            while self.peek().isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected digits in annotation")
            if self.peek() != "]":
                raise self.error("expected ]")
            ann = int(self.text[start:self.pos])
            self.pos += 1
            if ann < 2:
                raise ParseError("annotation must be >= 2", start)
        return self.b.add_node(ch, ann)

    def try_edge(self) -> Optional[Tuple[int, int]]:
        for alt in _EDGE_ALTS:
            if self.text.startswith(alt, self.pos):
                self.pos += len(alt)
                return _EDGE_DECODE[alt]
        return None

    def parse_chain(self) -> Tuple[int, int, int]:
        """Parse node (branches)* (edge ...)*; returns the first and last
        ids and the number of nodes on the chain, branches not counted."""
        first = self.eat_node()
        last, length = first, 1
        while True:
            while self.peek() == "(":
                self.pos += 1
                sub_first, _, _ = self.parse_chain()
                if self.peek() != ")":
                    raise self.error("expected )")
                self.pos += 1
                self.b.add_edge(last, sub_first, 1, 0, self.pos)
            bond = self.pos
            edge = self.try_edge()
            if edge is None:
                return first, last, length
            mult, rel = edge
            nxt = self.eat_node()
            self.b.add_edge(last, nxt, mult, rel, bond)
            last, length = nxt, length + 1

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
                # Two nodes would close the cycle on their own bond again;
                # affine A_1 is written o####o.
                if length < 3:
                    raise ParseError("a cycle needs at least three nodes", at)
                self.b.add_edge(last, first, 1, 0, self.pos)
            if self.text.startswith(" + ", self.pos):
                self.pos += 3
                continue
            break
        if self.text.startswith(" ~sigma", self.pos):
            self.pos += 7
            self.sigma = True
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")


def _recognize_affine(d: DynkinDiagram, num_nodes: int) -> Optional[Tuple[AffineDiagram, Dict[int, int]]]:
    """Match a parsed connected multigraph against the affine catalogue."""
    candidates: List[Tuple[CartanType, int]] = []
    r = num_nodes - 1
    for fam in "ABCDEFG":
        try:
            candidates.append((CartanType(fam, r), 1))
        except ValueError:
            pass
    for base, tw in [
        (("A", 2 * r), 2), (("A", 2 * r - 1), 2), (("D", num_nodes), 2),
        (("E", 6), 2), (("D", 4), 3),
    ]:
        try:
            candidates.append((CartanType(base[0], base[1]), tw))
        except ValueError:
            pass
    for base, tw in candidates:
        try:
            a = affine_diagram(base, tw)
        except (ValueError, AssertionError):
            continue
        if a.num_nodes != num_nodes:
            continue
        target = DynkinDiagram(a.nodes, a.edges)
        iso = find_isomorphism(d, target)
        if iso is not None:
            return a, iso
    return None


def parse(s: str) -> Diagram:
    """Inverse of to_canonical_text (up to isomorphism); rejects malformed
    input with position-annotated errors."""
    p = _Parser(s)
    p.parse()
    b = p.b
    d = DynkinDiagram(tuple(b.nodes), frozenset(b.edges))
    if not b.white:
        try:
            md = marked(d, b.crossed, b.ann)
            classify(d)  # raises on non-finite shapes
            if p.sigma:
                comps = d.components()
                if len(comps) % 2 != 0:
                    raise ParseError("sigma needs an even number of components", len(s))
                halves = md.component_marked()
                k = len(comps) // 2
                left = halves[:k]
                right = halves[k:]
                pairs: List[Tuple[int, int]] = []
                for lm, rm in zip(left, right):
                    iso = find_marked_isomorphism(lm, rm)
                    if iso is None:
                        raise ParseError("sigma halves are not isomorphic", len(s))
                    pairs.extend(sorted(iso.items()))
                md = marked(d, b.crossed, b.ann, tuple(sorted(pairs)))
            return md
        except UnrecognizedDiagram:
            pass  # fall through to affine recognition
    if b.crossed:
        raise ParseError("crossed nodes only occur in finite diagrams", len(s))
    comps = d.components()
    if len(comps) != 1:
        raise ParseError("an affine diagram is connected", len(s))
    hit = _recognize_affine(d, len(b.nodes))
    if hit is None:
        raise ParseError("not a recognised finite or affine diagram", len(s))
    a, iso = hit
    if not b.white:
        return a
    return MarkedKacDiagram(a, frozenset(iso[w] for w in b.white))


# ---------------------------------------------------------------------------
# Presentation emitters (never parsed back)


def _layout(d: Diagram) -> List[str]:
    """Rows of ASCII art, spine on the base row and branches stacked above."""
    marks = _marks_of(d)
    if isinstance(d, (AffineDiagram, MarkedKacDiagram)):
        a = d.diagram if isinstance(d, MarkedKacDiagram) else d
        spine = _affine_spine(a)
        adj = a.adjacency()
        edge_of = _edge_lookup(adj)
        if spine is None:  # cycle: apex row + base chain
            cyc = _cycle_order(adj)
            apex, base = cyc[0], cyc[1:]
            base_text = _render_chain(base, edge_of, marks)
            width = len(base_text)
            mid = max(width // 2 - 1, 0)
            apex_tok = _node_token(apex, marks)
            return [
                " " * mid + apex_tok,
                " " * max(mid - 1, 0) + "/" + " " * len(apex_tok) + "\\",
                base_text,
            ]
        return _spine_layout(spine, edge_of, marks)
    md = d if isinstance(d, MarkedDynkinDiagram) else MarkedDynkinDiagram(d)
    edge_of = _edge_lookup(md.diagram.adjacency())
    blocks: List[str] = []
    for t, mapping in classify(md.diagram):
        inv = {i: v for v, i in mapping.items()}
        blocks.extend(_spine_layout(_finite_spine(t, inv), edge_of, marks))
        blocks.append("")
    if blocks and blocks[-1] == "":
        blocks.pop()
    if isinstance(md, MarkedDynkinDiagram) and md.sigma_pairs is not None:
        blocks.append("~sigma")
    return blocks


def _spine_layout(spine: Spine, edge_of, marks: Dict[int, str]) -> List[str]:
    base = ""
    above: List[Tuple[int, List[int]]] = []  # (column, branch chain)
    below: List[Tuple[int, List[int]]] = []
    cols: Dict[int, int] = {}
    prev = None
    for v, branches in spine:
        if prev is not None:
            base += _edge_token(edge_of(prev, v), prev)
        cols[v] = len(base)
        base += _node_token(v, marks)
        for i, br in enumerate(branches):
            (above if i == 0 else below).append((cols[v], list(br)))
        prev = v
    return _branch_rows(above, marks)[::-1] + [base] + _branch_rows(below, marks)


def _branch_rows(branches: List[Tuple[int, List[int]]], marks: Dict[int, str]) -> List[str]:
    """Rows of (column, chain) branches hung vertically, nearest row first."""
    height = max((len(br) for _, br in branches), default=0)
    grid: List[Dict[int, str]] = [{} for _ in range(2 * height)]
    for col, br in branches:
        for j, u in enumerate(br):
            grid[2 * j][col] = "|"
            grid[2 * j + 1][col] = _node_token(u, marks)
    rows = []
    for row in grid:
        line = ""
        for col in sorted(row):
            line = line.ljust(col) + row[col]
        rows.append(line)
    return rows


def to_ascii(d: Diagram) -> str:
    return "\n".join(_layout(d))


def to_latex(d: Diagram) -> str:
    """A plain picture-environment rendering in the style of the source
    tables; purely presentational."""
    rows = _layout(d)
    height = len(rows)
    width = max((len(r) for r in rows), default=1)
    out = [f"\\begin{{picture}}({width * 0.5:.1f},{height:d})(0,0)"]
    for rn, row in enumerate(rows):
        y = height - 1 - rn
        col = 0
        while col < len(row):
            ch = row[col]
            x = col * 0.5
            if ch == "o":
                out.append(f"\\put({x:.1f},{y}){{\\circle*{{0.3}}}}")
            elif ch == "O":
                out.append(f"\\put({x:.1f},{y}){{\\circle{{0.3}}}}")
            elif ch == "x":
                tail = row[col + 1:col + 4]
                if tail.startswith("["):
                    close = row.index("]", col)
                    deg = row[col + 2:close]
                    out.append(f"\\put({x:.1f},{y}){{$\\times$}}")
                    out.append(f"\\put({x:.1f},{y}.4){{\\small ${deg}$}}")
                    col = close
                else:
                    out.append(f"\\put({x:.1f},{y}){{$\\times$}}")
            elif ch == "-":
                out.append(f"\\put({x:.1f},{y}){{\\line(1,0){{0.5}}}}")
            elif ch == "|":
                out.append(f"\\put({x:.1f},{y}){{\\line(0,1){{1}}}}")
            elif ch in "=<>#/\\":
                out.append(f"\\put({x:.1f},{y}){{${ch}$}}")
            col += 1
    out.append("\\end{picture}")
    return "\n".join(out)


def to_dot(d: Diagram) -> str:
    marks = _marks_of(d)
    if isinstance(d, (AffineDiagram, MarkedKacDiagram)):
        a = d.diagram if isinstance(d, MarkedKacDiagram) else d
        nodes, edges = a.nodes, a.edges
        extra = {v: f" a={a.labels[v]}" for v in nodes}
    else:
        dd = d.diagram if isinstance(d, MarkedDynkinDiagram) else d
        nodes, edges = dd.nodes, dd.edges
        extra = {v: "" for v in nodes}
    lines = ["graph diagram {"]
    for v in nodes:
        tok = marks.get(v, "o")
        style = "filled" if tok == "o" else "solid"
        label = f"{v}{extra[v]}" + (f" {tok}" if tok != "o" else "")
        lines.append(f'  n{v} [shape=circle, style={style}, label="{label}"];')
    for e in sorted(edges):
        attrs = [f"label=\"{e.mult}\""] if e.mult > 1 else []
        if e.short is not None:
            attrs.append(f"comment=\"short end n{e.short}\"")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  n{e.a} -- n{e.b}{suffix};")
    lines.append("}")
    return "\n".join(lines)


def to_json(d: Diagram) -> str:
    """Stable JSON per the documented schema; byte-deterministic."""
    if isinstance(d, (AffineDiagram, MarkedKacDiagram)):
        a = d.diagram if isinstance(d, MarkedKacDiagram) else d
        white = d.white if isinstance(d, MarkedKacDiagram) else frozenset()
        obj = {
            "kind": "affine",
            "base": {"family": a.base.family, "rank": a.base.rank},
            "twist": a.twist,
            "nodes": [
                {"id": v, "mark": "white" if v in white else "black"}
                for v in a.nodes
            ],
            "edges": _edges_json(a.edges),
            "labels": list(a.labels),
        }
        return json.dumps(obj)
    md = d if isinstance(d, MarkedDynkinDiagram) else MarkedDynkinDiagram(d)
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
    for e in sorted(edges):
        rec: Dict[str, object] = {"from": e.a, "to": e.b, "mult": e.mult}
        if e.short is not None:
            rec["short_end"] = e.short
        out.append(rec)
    return out


FORMATS = ("ascii", "latex", "dot", "json", "canonical")


def render(d: Diagram, fmt: str = "ascii") -> str:
    if fmt == "ascii":
        return to_ascii(d)
    if fmt == "latex":
        return to_latex(d)
    if fmt == "dot":
        return to_dot(d)
    if fmt == "json":
        return to_json(d)
    if fmt == "canonical":
        return to_canonical_text(d)
    raise ValueError(f"unknown format {fmt!r}")
