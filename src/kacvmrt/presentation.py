"""Presentation emitters: ASCII art, a LaTeX picture and DOT.

They are never parsed back.  `render.render` loads this module for those
three formats only, so the canonical and JSON writers compile none of it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .diagrams import _edge_signature, classify
from .render import (_EDGE_TOKEN, Diagram, Spine, _affine_spine, _chain_spine, _cycle_order,
                     _edge_lookup, _finite_spine, _kind_of, _node_token, _render_spine)


def _layout(d: Diagram) -> List[str]:
    """Rows of ASCII art, spine on the base row and branches stacked above."""
    a, md, marks = _kind_of(d)
    if a is not None:
        spine = _affine_spine(a.base, a.twist)
        adj = a.adjacency()
        edge_of = _edge_lookup(adj)
        if spine is None:  # cycle: apex row + base chain
            cyc = _cycle_order(adj)
            apex, base = cyc[0], cyc[1:]
            base_text = _render_spine(_chain_spine(base), edge_of, marks)
            width = len(base_text)
            mid = max(width // 2 - 1, 0)
            apex_tok = _node_token(apex, marks)
            return [
                " " * mid + apex_tok,
                " " * max(mid - 1, 0) + "/" + " " * len(apex_tok) + "\\",
                base_text,
            ]
        return _spine_layout(spine, edge_of, marks)
    edge_of = _edge_lookup(md.diagram.adjacency())
    blocks: List[str] = []
    for t, mapping in classify(md.diagram):
        inv = {i: v for v, i in mapping.items()}
        blocks.extend(_spine_layout(_finite_spine(t, inv), edge_of, marks))
        blocks.append("")
    if blocks and blocks[-1] == "":
        blocks.pop()
    if md.sigma_pairs is not None:
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
            base += _EDGE_TOKEN[_edge_signature(edge_of(prev, v), prev)]
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
        if row == "~sigma":  # the pairing marker, as text
            out.append(f"\\put(0.0,{y}){{$\\sim\\sigma$}}")
            continue
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
    a, md, marks = _kind_of(d)
    g = md.diagram if a is None else a
    lines = ["graph diagram {"]
    for v in g.nodes:
        tok = marks.get(v, "o")
        style = "filled" if tok == "o" else "solid"
        extra = "" if a is None else f" a={a.labels[v]}"
        label = f"{v}{extra}" + (f" {tok}" if tok != "o" else "")
        lines.append(f'  n{v} [shape=circle, style={style}, label="{label}"];')
    for e in g.edges:
        attrs = [f"label=\"{e.mult}\""] if e.mult > 1 else []
        if e.short is not None:
            attrs.append(f"comment=\"short end n{e.short}\"")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  n{e.a} -- n{e.b}{suffix};")
    lines.append("}")
    return "\n".join(lines)
