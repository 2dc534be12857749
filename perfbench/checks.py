"""Correctness checks the benchmark makes apart from the program.

Nothing here calls kacvmrt: each checker takes the program's output as
plain data (strings, dicts, lists) and compares it with a computation of
its own, from the classical tables (Bourbaki, Lie Groups and Lie Algebras
Ch. VI, plates I-IX, for root counts; Kac, Infinite-Dimensional Lie
Algebras, for the null vector of an affine Cartan matrix).  Every checker
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Bourbaki tables

# Number of positive roots of each simple type.
def num_positive_roots(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[(family, rank)]


def bourbaki_edges(family: str, rank: int) -> List[Tuple[int, int, int, Optional[int]]]:
    """Edges (a, b, mult, short end) of the diagram on nodes 1..rank."""
    n = rank
    if family == "G":
        return [(1, 2, 3, 1)]
    if family == "F":
        return [(1, 2, 1, None), (2, 3, 2, 3), (3, 4, 1, None)]
    if family == "E":
        spine = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        return [(min(a, b), max(a, b), 1, None) for a, b in zip(spine, spine[1:])] + [(2, 4, 1, None)]
    if family == "D":
        return [(i, i + 1, 1, None) for i in range(1, n - 1)] + [(n - 2, n, 1, None)]
    chain = [(i, i + 1, 1, None) for i in range(1, n - 1)]
    if family == "A":
        return chain + ([(n - 1, n, 1, None)] if n >= 2 else [])
    if family == "B":
        return chain + [(n - 1, n, 2, n)]
    return chain + [(n - 1, n, 2, n - 1)]  # C: alpha_n is the long root


def components(nodes: Iterable[int], edges) -> List[List[int]]:
    adj: Dict[int, List[int]] = {v: [] for v in nodes}
    for a, b, *_ in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), []
    for v in adj:
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def connected_positive_roots(nodes: Sequence[int], edges) -> int:
    """|Phi+| of a connected finite Dynkin diagram given as a graph.

    Recognised by its shape alone: a triple bond is G2, an interior double
    bond on four nodes F4, any other double bond B_k/C_k (k^2 either way),
    a simply-laced tree with a branch point D or E by its arm lengths, and
    a chain A_k.
    """
    k = len(nodes)
    mults = [e[2] for e in edges]
    if 3 in mults:
        return num_positive_roots("G", 2)
    deg = {v: 0 for v in nodes}
    for a, b, *_ in edges:
        deg[a] += 1
        deg[b] += 1
    if 2 in mults:
        (a, b, _, _), = [e for e in edges if e[2] == 2]
        if k == 4 and deg[a] == 2 and deg[b] == 2:
            return num_positive_roots("F", 4)
        return k * k
    branch = [v for v in nodes if deg[v] == 3]
    if not branch:
        return num_positive_roots("A", k)
    c = branch[0]
    adj: Dict[int, List[int]] = {v: [] for v in nodes}
    for a, b, *_ in edges:
        adj[a].append(b)
        adj[b].append(a)
    arms = []
    for first in adj[c]:
        length, prev, cur = 0, c, first
        while cur is not None:
            length += 1
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return num_positive_roots("D", k)
    return {(1, 2, 2): 36, (1, 2, 3): 63, (1, 2, 4): 120}[tuple(arms)]


def parabolic_dim(family: str, rank: int, crossed: Iterable[int]) -> int:
    """dim G/P = |Phi+(G)| - |Phi+(Levi)|; the Levi is the diagram with the
    crossed Bourbaki nodes deleted."""
    drop = set(crossed)
    keep = [v for v in range(1, rank + 1) if v not in drop]
    edges = [e for e in bourbaki_edges(family, rank) if e[0] not in drop and e[1] not in drop]
    levi = 0
    for comp in components(keep, edges):
        cs = set(comp)
        levi += connected_positive_roots(comp, [e for e in edges if e[0] in cs])
    return num_positive_roots(family, rank) - levi


def check_parabolic_dim(name: str, parts: Sequence[Tuple[str, int, Sequence[int]]],
                        got: int) -> List[str]:
    """`parts`: (family, rank, crossed Bourbaki nodes) per component."""
    want = sum(parabolic_dim(f, r, cx) for f, r, cx in parts)
    if got != want:
        return [f"{name} crossing {list(parts)}: dim G/P {got}, Bourbaki count {want}"]
    return []


# ---------------------------------------------------------------------------
# VMRT closed forms, per family


def _quadric(k: int) -> List[str]:
    """Q_k under the low-dimensional identifications the namer uses."""
    return {1: ["v_2(P^1)"], 2: ["P^1", "P^1"], 4: ["Gr(2,4)"]}.get(k, [f"Q_{k}"])


_FIXED = {
    "group-F": ([["F_4/P_1"]], 15),
    "group-G": ([["G_2/P_2"]], 5),
    "EI": ([["LG(4,8)"]], 10),
    "EII": ([["Gr(3,6)", "P^1"]], 10),
    "EIV": ([["E_6/P_1"]], 16),
    "EV": ([["Gr(4,8)"]], 16),
    "EVI": ([["OG(6,12)", "P^1"]], 16),
    "EVIII": ([["OG(8,16)"]], 28),
    "EIX": ([["E_7/P_7", "P^1"]], 28),
    "FI": ([["LG(3,6)", "P^1"]], 7),
    "FII": ([["OG(4,9)"]], 10),
    "G": ([["P^1", "v_3(P^1)"]], 2),
    "herm-AI": ([["P^1"]], 1),
    "herm-EIII": ([["OG(5,10)"], ["OG(5,10)"]], 10),
    "herm-EVII": ([["E_6/P_1"], ["E_6/P_6"]], 16),
}

# Restricted root system of type A: boundary degree 2, else 1.
RESTRICTED_TYPE_A = {"group-A", "AI", "AI-even", "AII", "BII", "DII", "EIV", "herm-AI"}


def expected_vmrt(label: str, params: Dict[str, int]) -> Tuple[List[List[str]], int]:
    """(halves, each a list of factor names; dim C) from the closed forms."""
    if label in _FIXED:
        return _FIXED[label]
    n = params.get("n")
    m = params.get("m")
    if label == "group-A":
        return ([["P^2"]], 2) if n == 1 else ([[f"P^{n}", f"P^{n}"]], 2 * n)
    if label == "group-B":
        return ([["v_2(P^3)"]], 3) if n == 2 else ([[f"OG(2,{2 * n + 1})"]], 4 * n - 5)
    if label == "group-C":
        return [[f"v_2(P^{2 * n - 1})"]], 2 * n - 1
    if label == "group-D":
        return [[f"OG(2,{2 * n})"]], 4 * n - 7
    if label == "group-E":
        return {6: ([["E_6/P_2"]], 21), 7: ([["E_7/P_1"]], 33), 8: ([["E_8/P_8"]], 57)}[n]
    if label == "AI":
        return [[f"v_2(P^{2 * n})"]], 2 * n
    if label == "AI-even":
        return [[f"v_2(P^{2 * n - 1})"]], 2 * n - 1
    if label == "AII":
        return [[f"Gr(2,{2 * n})"]], 4 * n - 4
    if label == "BII":
        return [[f"P^{2 * n - 1}"]], 2 * n - 1
    if label == "DII":
        return [[f"P^{2 * n - 2}"]], 2 * n - 2
    if label == "BI":  # S(O_m x O_{2n+1-m}), m even
        return [_quadric(m - 2) + _quadric(2 * n - 1 - m)], 2 * n - 3
    if label == "CII":  # Sp_2m x Sp_2(n-m)
        return [[f"P^{2 * m - 1}", f"P^{2 * (n - m) - 1}"]], 2 * n - 2
    if label == "DI-odd":  # S(O_2m+1 x O_2(n-m)-1)
        return [_quadric(2 * m - 1) + _quadric(2 * n - 2 * m - 3)], 2 * n - 4
    if label == "DI-even":  # S(O_2m x O_2(n-m))
        return [_quadric(2 * m - 2) + _quadric(2 * n - 2 * m - 2)], 2 * n - 4
    if label == "herm-AIII":  # P(GL_m x GL_n-m): P^{m-1} x P^{n-m-1}, P^0 dropped
        half = [f"P^{k}" for k in (m - 1, n - m - 1) if k > 0]
        return [half, list(half)], n - 2
    if label == "herm-BI":
        return [_quadric(2 * n - 3), _quadric(2 * n - 3)], 2 * n - 3
    if label == "herm-CI":
        return [[f"v_2(P^{n - 1})"], [f"v_2(P^{n - 1})"]], n - 1
    if label == "herm-DI":
        return [_quadric(2 * n - 4), _quadric(2 * n - 4)], 2 * n - 4
    if label == "herm-DIII-odd":
        return [[f"Gr(2,{2 * n + 1})"], [f"Gr(2,{2 * n + 1})"]], 4 * n - 2
    if label == "herm-DIII-even":
        return [[f"Gr(2,{2 * n})"], [f"Gr(2,{2 * n})"]], 4 * n - 4
    raise KeyError(f"no closed form for {label}")


_GR = re.compile(r"^Gr\((\d+),(\d+)\)$")


def _normal_factor(f: str) -> str:
    g = _GR.match(f)
    if g:
        k, n = int(g.group(1)), int(g.group(2))
        k = min(k, n - k)  # Gr(k,N) = Gr(N-k,N)
        return f"P^{n - 1}" if k == 1 else f"Gr({k},{n})"
    return f


def normal_identification(halves: Iterable[Iterable[str]]) -> Tuple[Tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(_normal_factor(f) for f in h)) for h in halves))


def parse_identification(text: str) -> Tuple[Tuple[str, ...], ...]:
    return normal_identification(h.split(" x ") for h in text.split(" u "))


def check_vmrt(label: str, params: Dict[str, int], identification: str, dim: int) -> List[str]:
    halves, want_dim = expected_vmrt(label, params)
    problems = []
    if parse_identification(identification) != normal_identification(halves):
        want = " u ".join(" x ".join(h) for h in halves)
        problems.append(f"{label}{params}: VMRT {identification!r}, closed form {want!r}")
    if dim != want_dim:
        problems.append(f"{label}{params}: dim C {dim}, closed form {want_dim}")
    return problems


# ---------------------------------------------------------------------------
# Export records of the sweep


def check_record(rec: dict) -> List[str]:
    """One export record: closed-form VMRT, dim C = dim Z + boundary - 1,
    and the Kac diagram's JSON (labels and white-node rule)."""
    label, params = rec["label"], rec["params"]
    problems = check_vmrt(label, params, rec["identification"], rec["vmrt_dim"])
    boundary = 2 if label in RESTRICTED_TYPE_A else 1
    if rec["boundary_degree"] != boundary:
        problems.append(f"{label}{params}: boundary degree {rec['boundary_degree']}, want {boundary}")
    if rec["vmrt_dim"] != rec["z_dim"] + boundary - 1:
        problems.append(f"{label}{params}: dim C {rec['vmrt_dim']} != dim Z {rec['z_dim']} + {boundary} - 1")
    problems += [f"{label}{params}: {p}" for p in check_kac_json(rec["kac_json"], rec["kind"])]
    return problems


def affine_cartan(num_nodes: int, edges: Sequence[dict]) -> List[List[int]]:
    """a[i][j] = <alpha_i, alpha_j^vee>: -mult from the long end of a bond
    to its short end, -1 back; the undirected quadruple bond is (-2, -2)."""
    a = [[2 if i == j else 0 for j in range(num_nodes)] for i in range(num_nodes)]
    for e in edges:
        i, j, mult, short = e["from"], e["to"], e["mult"], e.get("short_end")
        if mult == 1:
            a[i][j] = a[j][i] = -1
        elif short is None:
            a[i][j] = a[j][i] = -mult // 2
        else:
            lng = j if short == i else i
            a[lng][short] = -mult
            a[short][lng] = -1
    return a


def check_kac_json(text: str, kind: Optional[str] = None) -> List[str]:
    """Labels must be a positive, gcd-1 null vector of the Cartan matrix
    rebuilt from the emitted edges; with `kind`, the white nodes must obey
    the white-node rule of that kind of space."""
    obj = json.loads(text)
    if obj.get("kind") != "affine":
        return ["JSON is not an affine diagram"]
    ids = [v["id"] for v in obj["nodes"]]
    labels = obj["labels"]
    n = len(ids)
    if ids != list(range(n)) or len(labels) != n:
        return [f"nodes {ids} / labels {labels} do not match"]
    problems = []
    a = affine_cartan(n, obj["edges"])
    if any(sum(labels[i] * a[i][j] for i in range(n)) for j in range(n)):
        problems.append(f"labels {labels} are not a null vector")
    g = 0
    for x in labels:
        g = gcd(g, x)
    if min(labels) <= 0 or g != 1:
        problems.append(f"labels {labels} are not positive with gcd 1")
    if kind is not None:
        white = [v["id"] for v in obj["nodes"] if v["mark"] == "white"]
        wl = sorted(labels[w] for w in white)
        twist = obj["twist"]
        ok = {
            "group": twist == 1 and wl == [1],
            "simple": (twist == 1 and wl == [2]) or (twist == 2 and wl == [1]),
        }.get(kind, twist == 1 and wl == [1, 1])
        if not ok:
            problems.append(f"white labels {wl} on twist {twist} break the {kind} rule")
    return problems


def check_verify_results(rows: Sequence[Tuple[str, str, str, str]]) -> List[str]:
    """run_all rows (section, name, status, detail): no FAIL, and WARN only
    on the documented paper_gap and name_flag rows."""
    problems = []
    if not rows:
        problems.append("run_all returned no rows")
    for section, name, status, detail in rows:
        if status == "FAIL":
            problems.append(f"FAIL {section}: {name}: {detail}")
        elif status == "WARN" and not (detail.startswith("paper_gap") or detail.startswith("name_flag")):
            problems.append(f"undocumented WARN {section}: {name}: {detail}")
        elif status not in ("PASS", "WARN", "FAIL"):
            problems.append(f"bad status {status!r} on {section}: {name}")
    return problems


# ---------------------------------------------------------------------------
# CLI output of `kacvmrt vmrt ... --format canonical`


def check_vmrt_cli(label: str, params: Dict[str, int], returncode: int, stdout: str) -> List[str]:
    if returncode != 0:
        return [f"{label}{params}: exit code {returncode}"]
    lines = stdout.splitlines()
    head = re.match(r"^(.*), dim (\d+)$", lines[0]) if lines else None
    if head is None:
        return [f"{label}{params}: unreadable output {stdout[:80]!r}"]
    problems = check_vmrt(label, params, head.group(1), int(head.group(2)))
    diagrams = [ln for ln in lines[1:] if re.fullmatch(r"[oOx\[\]0-9()\-=<>#@ +~sigma]+", ln)]
    if len(diagrams) != 1:
        problems.append(f"{label}{params}: {len(diagrams)} diagram lines, want 1")
    return problems


# ---------------------------------------------------------------------------
# Round trips and presentation formats


def check_roundtrip(name: str, writes: Sequence[str], rewrites: Sequence[str]) -> List[str]:
    """Canonical text is the same under every relabelling, and
    parse . to_canonical_text is idempotent."""
    problems = []
    if len(set(writes)) != 1:
        problems.append(f"{name}: canonical text changes under relabelling: {sorted(set(writes))}")
    for w, r in zip(writes, rewrites):
        if w != r:
            problems.append(f"{name}: re-emitted {r!r} != emitted {w!r}")
    return problems


def check_presentations(name: str, num_nodes: int, num_edges: int, ascii_: str, latex: str,
                        dot: str, json_text: str) -> List[str]:
    """Every presentation shows each node once, and DOT each edge once."""
    problems = []
    glyphs = sum(ascii_.count(c) for c in "oOx")
    if glyphs != num_nodes:
        problems.append(f"{name}: ASCII shows {glyphs} nodes, want {num_nodes}")
    pics = latex.count("\\circle") + latex.count("$\\times$")
    if pics != num_nodes:
        problems.append(f"{name}: LaTeX shows {pics} nodes, want {num_nodes}")
    dot_nodes = len(re.findall(r"^  n\d+ \[", dot, re.M))
    dot_edges = len(re.findall(r"^  n\d+ -- n\d+", dot, re.M))
    if (dot_nodes, dot_edges) != (num_nodes, num_edges):
        problems.append(f"{name}: DOT has {dot_nodes} nodes / {dot_edges} edges, "
                        f"want {num_nodes} / {num_edges}")
    obj = json.loads(json_text)
    if (len(obj["nodes"]), len(obj["edges"])) != (num_nodes, num_edges):
        problems.append(f"{name}: JSON has {len(obj['nodes'])} nodes / {len(obj['edges'])} edges")
    if obj["kind"] == "affine":
        problems += [f"{name}: {p}" for p in check_kac_json(json_text)]
    return problems


def check_parse_error(text: str, outcome: Optional[Tuple[str, bool, Optional[int]]]) -> List[str]:
    """A malformed string must raise ParseError with an offset inside it.

    `outcome` is None when the string parsed, else (exception type name,
    whether it is a ParseError, its offset).
    """
    if outcome is None:
        return [f"{text!r} parsed without error"]
    name, is_parse_error, pos = outcome
    if not is_parse_error:
        return [f"{text!r} raised {name}, not ParseError"]
    if not isinstance(pos, int) or not 0 <= pos <= len(text):
        return [f"{text!r}: ParseError offset {pos!r} outside the input"]
    return []
