"""The reader of the canonical grammar, behind `render.parse`.

`_tokenise` walks a text once, keeping its state in local variables: it
numbers the nodes in text order, reads each bond with one compiled pattern
at the current offset, and keeps open branches on a stack.  `_read` tries a
canonical Kac text against its type's template first, and classifies what
the tokeniser read otherwise.

`render` imports this module on the first parse, so a process that only
computes and renders diagrams (a `kacvmrt vmrt` query) never compiles it.
Affine recognition is imported only where a Kac or affine text is read,
so reading finite text (`kacvmrt dim` and `fold`) never compiles it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .affine import MAX_RANK, MarkedKacDiagram, affine_diagram
from .diagrams import (
    Classes,
    DynkinDiagram,
    Edge,
    UnrecognizedDiagram,
    _mark_key,
    classify,
    find_marked_isomorphism,
    marked,
)
from .render import _EDGE_TOKEN, Diagram, ParseError, _affine_canonical, _affine_template

# The rendered bonds plus the arrowless double and triple bonds, which are
# read only to be rejected with their offset; the pattern tries the longest
# tokens first.
_EDGE_DECODE = {token: sig for sig, token in _EDGE_TOKEN.items()}
_EDGE_DECODE.update({"=": (2, 0), "#": (3, 0)})
_BOND = re.compile("|".join(map(re.escape, sorted(_EDGE_DECODE, key=len, reverse=True))))
# ASCII digits only: str.isdigit() also takes superscripts and other
# scripts' digits.  A slice past the end gives "", which is no member.
_DIGITS = frozenset("0123456789")
_NODE_TOKENS = frozenset("oOx")

Tokens = Tuple[int, List[Edge], List[int], List[int], Dict[int, int], bool]


def _tokenise(s: str) -> Tokens:
    """The node count of s, its bonds, white nodes, crossed nodes,
    annotations and whether it ends in " ~sigma"; nodes are 0, 1, ... in
    text order.

    Each turn of the loop reads one node, bonds it to the node before it,
    and then reads what follows: a branch, a bond, the ) closing a branch,
    or the end of a component.  A branch pushes the chain it hangs off
    (first and last node, and its length, branches not counted) and pops
    it at its ), so nesting depth costs no recursion.  A bond always runs
    from an earlier node to a later one."""
    edges: List[Edge] = []
    white: List[int] = []
    crossed: List[int] = []
    ann: Dict[int, int] = {}
    if not s:
        return 0, edges, white, crossed, ann, False
    match, decode = _BOND.match, _EDGE_DECODE
    chains: List[Tuple[int, int, int]] = []
    bond: Optional[Tuple[int, int]] = None  # (mult, rel) before the next node; None starts a chain
    n = at = 0  # at: where the current component starts
    cycle = s.startswith("@")
    pos = 1 if cycle else 0
    while True:
        ch = s[pos:pos + 1]
        if ch not in _NODE_TOKENS:
            raise ParseError("expected a node token o, O or x", pos)
        pos += 1
        if ch == "x":
            crossed.append(n)
            if s.startswith("[", pos):
                pos += 1
                start = pos
                while s[pos:pos + 1] in _DIGITS:
                    pos += 1
                if pos == start:
                    raise ParseError("expected digits in annotation", pos)
                if not s.startswith("]", pos):
                    raise ParseError("expected ]", pos)
                try:
                    k = int(s[start:pos])
                except ValueError:  # more digits than int() converts
                    raise ParseError("annotation is too long", start) from None
                pos += 1
                if k < 2:
                    raise ParseError("annotation must be >= 2", start)
                ann[n] = k
        elif ch == "O":
            white.append(n)
        if bond is None:
            first = last = n
            length = 1
        else:
            mult, rel = bond
            if rel == 0:
                if mult in (2, 3):
                    raise ParseError("a double or triple bond needs an arrowhead", bond_at)
                edges.append(Edge(last, n, mult))
            else:
                edges.append(Edge(last, n, mult, n if rel == 1 else last))
            last = n
            length += 1
        n += 1
        while True:
            if s.startswith("(", pos):
                pos += 1
                chains.append((first, last, length))
                bond = None
                break
            m = match(s, pos)
            if m is not None:
                bond = decode[m.group()]
                bond_at = pos
                pos = m.end()
                break
            if chains:
                if not s.startswith(")", pos):
                    raise ParseError("expected )", pos)
                pos += 1
                branch = first
                first, last, length = chains.pop()
                edges.append(Edge(last, branch))
                continue
            if cycle:
                # Two nodes would close the cycle on their own bond again;
                # affine A_1 is written o####o.
                if length < 3:
                    raise ParseError("a cycle needs at least three nodes", at)
                edges.append(Edge(first, last))
            if not s.startswith(" + ", pos):
                sigma = s.startswith(" ~sigma", pos)
                if sigma:
                    pos += 7
                if pos != len(s):
                    raise ParseError("unexpected trailing input", pos)
                return n, edges, white, crossed, ann, sigma
            pos += 3
            at = pos
            cycle = s.startswith("@", pos)
            if cycle:
                pos += 1
            bond = None
            break


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
    n, edges, white, crossed, ann, sigma = _tokenise(s)
    d = DynkinDiagram(range(n), edges)
    if not white:
        try:
            classes = classify(d)
        except UnrecognizedDiagram:
            pass  # fall through to affine recognition
        else:
            if not sigma:
                return marked(d, crossed, ann), classes
            if len(classes) % 2 != 0:
                raise ParseError("sigma needs an even number of components", len(s))
            # Halve each class of marked-isomorphic components, in text order.
            md = marked(d, crossed, ann)
            mark = lambda v: (v in md.crossed, ann.get(v, 0))  # noqa: E731
            groups: Dict[object, list] = {}
            for c in classes:
                groups.setdefault(_mark_key(*c, mark), []).append(c)
            if any(len(g) % 2 for g in groups.values()):
                raise ParseError("sigma halves are not isomorphic", len(s))
            left = [c for g in groups.values() for c in g[:len(g) // 2]]
            right = [c for g in groups.values() for c in g[len(g) // 2:]]
            iso = find_marked_isomorphism(md, md, left, right)
            return marked(d, crossed, ann, sorted(iso.items())), classes
    if crossed:
        raise ParseError("crossed nodes only occur in finite diagrams", len(s))
    if n > MAX_RANK + 1:
        raise ParseError(f"an affine diagram has at most MAX_RANK + 1 = {MAX_RANK + 1} nodes", len(s))
    if len(d.components()) != 1:
        raise ParseError("an affine diagram is connected", len(s))
    from .recognition import recognize_affine

    hit = recognize_affine(d)
    if hit is None:
        raise ParseError("not a recognised finite or affine diagram", len(s))
    a, iso = hit
    if not white:
        return a, None
    return MarkedKacDiagram(a, frozenset([iso[w] for w in white])), None
