"""The reader of the canonical grammar, behind `render.parse`.

`render` imports this module on the first parse, so a process that only
computes and renders diagrams (a `kacvmrt vmrt` query) never compiles it.
Affine recognition is imported only where a Kac or affine text is read,
so reading finite text (`kacvmrt dim` and `fold`) never compiles it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .affine import MAX_RANK, MarkedKacDiagram, affine_diagram
from .diagrams import (
    Classes,
    DynkinDiagram,
    Edge,
    UnrecognizedDiagram,
    _edge,
    _mark_key,
    classify,
    find_marked_isomorphism,
    marked,
)
from .render import _EDGE_TOKEN, Diagram, ParseError, _affine_canonical, _affine_template

# The rendered bonds plus the arrowless double and triple bonds, which are
# read only to be rejected with their offset; longest tokens are tried first.
_EDGE_DECODE = {token: sig for sig, token in _EDGE_TOKEN.items()}
_EDGE_DECODE.update({"=": (2, 0), "#": (3, 0)})
_EDGE_ALTS = sorted(_EDGE_DECODE, key=len, reverse=True)
# ASCII digits only: str.isdigit() also takes superscripts and other
# scripts' digits.  peek() gives "" at the end, which is no member.
_DIGITS = frozenset("0123456789")


class _Parser:
    """Reads nodes 0, 1, ... in text order, with their bonds and marks."""

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
        """Add the bond written at offset pos; double and triple bonds
        need their arrowhead."""
        if mult in (2, 3) and rel == 0:
            raise ParseError("a double or triple bond needs an arrowhead", pos)
        short = None if rel == 0 else (v if rel == 1 else u)
        self.edges.append(_edge(u, v, mult, short))

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
            while self.peek() in _DIGITS:
                self.pos += 1
            if self.pos == start:
                raise self.error("expected digits in annotation")
            if self.peek() != "]":
                raise self.error("expected ]")
            try:
                ann = int(self.text[start:self.pos])
            except ValueError:  # more digits than int() converts
                raise ParseError("annotation is too long", start) from None
            self.pos += 1
            if ann < 2:
                raise ParseError("annotation must be >= 2", start)
        return self.add_node(ch, ann)

    def try_edge(self) -> Optional[Tuple[int, int]]:
        for alt in _EDGE_ALTS:
            if self.text.startswith(alt, self.pos):
                self.pos += len(alt)
                return _EDGE_DECODE[alt]
        return None

    def parse_chain(self) -> Tuple[int, int, int]:
        """Parse node (branches)* (edge ...)*; returns the first and last
        ids and the number of nodes on the chain, branches not counted.
        A branch pushes the chain it hangs off and pops it at its ), so
        nesting depth costs no recursion."""
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
                # Two nodes would close the cycle on their own bond again;
                # affine A_1 is written o####o.
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


# Deletes the bond, bracket and cycle characters of a text, leaving its
# node letters in text order.
_DROP_BONDS = str.maketrans("", "", "-=<>#()@")


def _read_kac_text(s: str) -> Optional[MarkedKacDiagram]:
    """s read through the writer's per-type template if it is the canonical
    text of a marked Kac diagram, else None.

    Slot i of a template holds node i of the tokeniser, so the least of the
    template's image tuples is the isomorphism onto the catalogue diagram
    whose images, read in node order, are least: what `recognize_affine`
    gives.  The candidates come in its order, and the first template that
    the node letters fill back into s decides; a filling that is not the
    least text is left to the tokeniser."""
    letters = s.translate(_DROP_BONDS)
    k = len(letters)
    if k > MAX_RANK + 1 or letters.count("o") + letters.count("O") != k:
        return None
    from .recognition import affine_candidates

    for base, twist, _ in affine_candidates(k - 1):
        text, images = _affine_template(base, twist)
        # Each of the k "%s" slots takes one letter: compare lengths first.
        if len(text) - k == len(s) and text % tuple(letters) == s:
            least = min(images)
            a = affine_diagram(base, twist)
            m = MarkedKacDiagram(a, [least[i] for i, c in enumerate(letters) if c == "O"])
            return m if _affine_canonical(a, dict.fromkeys(m.white, "O")) == s else None
    return None


def read(s: str) -> Diagram:
    """Parse s; `render.parse`, which calls this, documents the contract."""
    return _read(s)[0]


def _read(s: str) -> Tuple[Diagram, Optional[Classes]]:
    """read(s) and the classification of its diagram that the reader made
    to check it: the classes of a finite (sigma-paired too) diagram, None
    for an affine or Kac diagram."""
    if "O" in s:
        m = _read_kac_text(s)
        if m is not None:
            return m, None
    p = _Parser(s)
    p.parse()
    d = DynkinDiagram(tuple(p.nodes), p.edges)
    if not p.white:
        try:
            classes = classify(d)
        except UnrecognizedDiagram:
            pass  # fall through to affine recognition
        else:
            if not p.sigma:
                return marked(d, p.crossed, p.ann), classes
            if len(classes) % 2 != 0:
                raise ParseError("sigma needs an even number of components", len(s))
            # Halve each class of marked-isomorphic components, in text order.
            md = marked(d, p.crossed, p.ann)
            mark = lambda v: (v in md.crossed, p.ann.get(v, 0))  # noqa: E731
            groups: Dict[object, list] = {}
            for c in classes:
                groups.setdefault(_mark_key(*c, mark), []).append(c)
            if any(len(g) % 2 for g in groups.values()):
                raise ParseError("sigma halves are not isomorphic", len(s))
            left = [c for g in groups.values() for c in g[:len(g) // 2]]
            right = [c for g in groups.values() for c in g[len(g) // 2:]]
            iso = find_marked_isomorphism(md, md, left, right)
            return marked(d, p.crossed, p.ann, sorted(iso.items())), classes
    if p.crossed:
        raise ParseError("crossed nodes only occur in finite diagrams", len(s))
    if len(p.nodes) > MAX_RANK + 1:
        raise ParseError(f"an affine diagram has at most MAX_RANK + 1 = {MAX_RANK + 1} nodes", len(s))
    if len(d.components()) != 1:
        raise ParseError("an affine diagram is connected", len(s))
    from .recognition import recognize_affine

    hit = recognize_affine(d)
    if hit is None:
        raise ParseError("not a recognised finite or affine diagram", len(s))
    a, iso = hit
    if not p.white:
        return a, None
    return MarkedKacDiagram(a, frozenset([iso[w] for w in p.white])), None
