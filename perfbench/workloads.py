"""Seeded inputs and one round of work for each workload.

A workload is built by `build(name, seed)` and returns a `Workload`: the
inputs drawn from the seed, and `steps`, the operations of one round in a
fixed order.  Every round runs the same steps, so `failed` is the same
share of `attempted` in every run.  A step returns `(output, failed)`;
outputs go to the checkers in `checks.py` once the timed part is over.

The seed draws markings, relabellings, parameters inside narrow windows
and the order of the work, but not the amount of it: shapes and sizes are
stratified, so that the cost of a round does not depend on the seed.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import checks

SWEEP_MAX_RANK = 14

# query: (label, n, the window the seed draws m from, or None).  The
# ranks are fixed and only the split m of BI and CII, where the cost is
# flat around the middle, and the order are drawn: a window over n would
# move a round's cost with the seed (about 3% on total_s and 6% on
# op_p50_s by a cost model).  The sizes put one CLI call at 0.1-0.35 s,
# so that a 30 s run holds five rounds or more.
QUERY_FAMILIES: Tuple[Tuple[str, int, Optional[Tuple[int, ...]]], ...] = (
    # sigma-paired Hermitian
    ("herm-CI", 22, None),
    ("herm-DIII-even", 13, None),
    ("herm-AIII", 34, (17,)),
    # restricted A_1: the VMRT is all of P(p)
    ("DII", 31, None),
    ("BII", 26, None),
    # Legendrian Z
    ("herm-BI", 29, None),
    ("herm-DI", 27, None),
    ("BI", 32, (30, 32, 34)),
    ("CII", 30, (13, 14, 15)),
    ("group-B", 36, None),
    ("group-D", 33, None),
    # restricted type A_r, r >= 2: the ambient pair (G, P_lambda)
    ("group-A", 36, None),
    ("AI", 23, None),
    ("AII", 25, None),
)

# Malformed double and triple bonds written without their arrowhead.  They
# leak a bare ValueError from diagrams.Edge instead of a ParseError, on
# every run; they stay in the roundtrip workload as failed operations.
KNOWN_BAD_BONDS = ("o=o", "x[3]-O-x[2]=x[3]", "o#o", "O-o=o")

FINITE_SHAPES = (
    [(("A", n),) for n in range(1, 33)]
    + [(("B", n),) for n in range(2, 33)]
    + [(("C", n),) for n in range(3, 33)]
    + [(("D", n),) for n in range(4, 33)]
    + [(("E", 6),), (("E", 7),), (("E", 8),), (("F", 4),), (("G", 2),)]
    + [(("A", 3), ("B", 2)), (("D", 5), ("A", 1), ("A", 1)), (("E", 6), ("G", 2)),
       (("C", 4), ("C", 4)), (("A", 2), ("A", 2), ("A", 2)), (("F", 4), ("D", 4)),
       (("B", 7), ("E", 7)), (("A", 9), ("D", 9)), (("C", 6), ("B", 6), ("G", 2)),
       (("E", 8), ("E", 8))]
)

AFFINE_SHAPES = (
    [(("A", n), 1) for n in range(1, 10)]
    + [(("B", n), 1) for n in range(2, 9)]
    + [(("C", n), 1) for n in range(2, 9)]
    + [(("D", n), 1) for n in range(4, 9)]
    + [(("E", 6), 1), (("E", 7), 1), (("E", 8), 1), (("F", 4), 1), (("G", 2), 1)]
    + [(("A", n), 2) for n in range(2, 10)]
    + [(("D", n), 2) for n in range(3, 9)]
    + [(("E", 6), 2), (("D", 4), 3)]
)

SIGMA_ENTRIES = (
    [("herm-CI", {"n": n}) for n in range(2, 9)]
    + [("herm-BI", {"n": n}) for n in range(3, 9)]
    + [("herm-DI", {"n": n}) for n in range(5, 9)]
    + [("herm-DIII-even", {"n": n}) for n in range(2, 5)]
    + [("herm-AIII", {"n": 2 * m, "m": m}) for m in range(2, 5)]
    + [("herm-EVII", {})]
)

RELABELLINGS = 20
MALFORMED_PER_KIND = 8


@dataclass
class Workload:
    name: str
    seed: int
    steps: List[Tuple[str, Callable[[], Tuple[object, bool]]]]  # (op class, op)
    p50_class: str
    entries: int = 0  # atlas entries handled per round (base of vmrt calls_per_entry)
    data: Dict[str, object] = field(default_factory=dict)


def build(name: str, seed: int, root: str) -> Workload:
    return {"sweep": _sweep, "query": _query, "roundtrip": _roundtrip}[name](seed, root)


# ---------------------------------------------------------------------------
# sweep


def _sweep(seed: int, root: str) -> Workload:
    from kacvmrt import enumerate_entries
    from kacvmrt.cli import _entry_json
    from kacvmrt.render import to_json
    from kacvmrt.verify import run_all

    rng = random.Random(f"sweep-{seed}")
    entries: List[object] = []
    steps: List[Tuple[str, Callable[[], Tuple[object, bool]]]] = []
    w = Workload("sweep", seed, steps, "record")

    def verify_all():
        rows = run_all(SWEEP_MAX_RANK)
        return [(r.section, r.name, r.status, r.detail) for r in rows], False

    def enumerate_all():
        found = enumerate_entries(SWEEP_MAX_RANK)
        if not entries:
            # The first enumeration (in the warm-up round) fixes the record
            # steps, so that set-up does no enumeration; the seed fixes the
            # order in which records are built.
            order = list(range(len(found)))
            rng.shuffle(order)
            w.data["order"] = order
            w.entries = len(found)
            steps.extend(("record", record(i)) for i in range(len(found)))
        entries[:] = [found[j] for j in w.data["order"]]
        return [e.name for e in found], False

    def record(i: int):
        # The program's own export-atlas record, plus the Kac diagram's
        # JSON for the label check.
        def op():
            e = entries[i]
            return dict(_entry_json(e), kac_json=to_json(e.kac_diagram())), False
        return op

    steps += [("verify", verify_all), ("enumerate", enumerate_all)]
    return w


def check_sweep(w: Workload, outputs: Sequence[object]) -> List[str]:
    problems = checks.check_verify_results(outputs[0])
    names = outputs[1]
    if len(names) != len(set(names)) or len(names) != w.entries:
        problems.append(f"enumerate_entries gave {len(names)} names, {len(set(names))} distinct")
    for rec in outputs[2:]:
        problems += checks.check_record(rec)
    return problems


# ---------------------------------------------------------------------------
# query


def query_draw(seed: int) -> List[Tuple[str, Dict[str, int]]]:
    rng = random.Random(f"query-{seed}")
    draw = []
    for label, n, m_window in QUERY_FAMILIES:
        params = {"n": n} if m_window is None else {"n": n, "m": rng.choice(m_window)}
        draw.append((label, params))
    rng.shuffle(draw)
    return draw


def _query(seed: int, root: str) -> Workload:
    draw = query_draw(seed)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    state = {"max_rss_kb": 0, "trace_dir": None, "traced": 0}

    def op_for(i: int, label: str, params: Dict[str, int]):
        args = ["vmrt", label] + [a for k, v in sorted(params.items()) for a in (f"--{k}", str(v))]
        args += ["--format", "canonical"]

        def op():
            if state["trace_dir"] is None:
                cmd = [sys.executable, "-m", "kacvmrt"] + args
            else:
                state["traced"] += 1
                out = os.path.join(state["trace_dir"], f"child-{state['traced']}.json")
                cmd = [sys.executable, os.path.join(root, "perfbench", "trace_cli.py"), out, str(i)] + args
            proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT)
            stdout = proc.stdout.read().decode()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            state["max_rss_kb"] = max(state["max_rss_kb"], usage.ru_maxrss)
            return (proc.returncode, stdout), False
        return op

    steps = [("query", op_for(i, label, params)) for i, (label, params) in enumerate(draw)]
    return Workload("query", seed, steps, "query", entries=len(draw),
                    data={"draw": draw, "state": state})


def check_query(w: Workload, outputs: Sequence[object]) -> List[str]:
    problems = []
    for (label, params), (code, stdout) in zip(w.data["draw"], outputs):
        problems += checks.check_vmrt_cli(label, params, code, stdout)
    return problems


# ---------------------------------------------------------------------------
# roundtrip

_EDGE_TEXT = {(1, 0): "-", (2, 1): "=>", (2, -1): "<=", (3, 1): "#>", (3, -1): "<#",
              (4, 1): "####>", (4, -1): "<####", (4, 0): "####"}


def write_text(nodes: Sequence[int], edges: Sequence[Tuple[int, int, int, Optional[int]]],
               marks: Dict[int, str], rng: random.Random,
               sigma: Optional[Sequence[Tuple[int, int]]] = None) -> str:
    """A random, usually non-canonical, text of a diagram in the grammar:
    random component order, start node, direction and branch choice.

    Written here rather than by the program, so that parsing it checks the
    canonical form against an independent writer.  With `sigma`, the
    components of the left half are written first and the right half in
    the matching order, which is how the grammar pairs them.
    """
    adj: Dict[int, Dict[int, Tuple[int, Optional[int]]]] = {v: {} for v in nodes}
    for a, b, mult, short in edges:
        adj[a][b] = adj[b][a] = (mult, short)
    comps = checks.components(nodes, edges)
    if sigma is None:
        rng.shuffle(comps)
    else:
        partner = dict(sigma)
        left = [c for c in comps if c[0] in partner]
        rng.shuffle(left)
        by_node = {v: c for c in comps for v in c}
        comps = left + [by_node[partner[c[0]]] for c in left]

    def token(u: int, v: int) -> str:
        mult, short = adj[u][v]
        rel = 0 if short is None else (1 if short == v else -1)
        return _EDGE_TEXT[(mult, rel)]

    def chain(v: int, parent: Optional[int]) -> Optional[str]:
        kids = [w for w in adj[v] if w != parent]
        rng.shuffle(kids)
        multi = [w for w in kids if adj[v][w][0] != 1]
        if len(multi) > 1:
            return None  # a branch can only hang on a single bond
        nxt = multi[0] if multi else (kids[0] if kids else None)
        out = marks.get(v, "o")
        for w in kids:
            if w != nxt:
                sub = chain(w, v)
                if sub is None:
                    return None
                out += f"({sub})"
        if nxt is not None:
            sub = chain(nxt, v)
            if sub is None:
                return None
            out += token(v, nxt) + sub
        return out

    parts = []
    for comp in comps:
        if len(comp) > 2 and sum(len(adj[v]) for v in comp) == 2 * len(comp):
            # a cycle (untwisted affine A_n): '@' closes the chain with a single bond
            start = rng.choice(comp)
            order, prev = [start], None
            nbrs = sorted(adj[start])
            cur = rng.choice(nbrs)
            prev = start
            while cur != start:
                order.append(cur)
                (nxt,) = [w for w in adj[cur] if w != prev]
                prev, cur = cur, nxt
            parts.append("@" + marks.get(order[0], "o") + "".join(
                token(u, v) + marks.get(v, "o") for u, v in zip(order, order[1:])))
            continue
        roots = list(comp)
        rng.shuffle(roots)
        for r in roots:
            text = chain(r, None)
            if text is not None:
                parts.append(text)
                break
        else:
            raise AssertionError(f"no writable root for component {comp}")
    text = " + ".join(parts)
    return text + (" ~sigma" if sigma is not None else "")


def automorphisms(nodes: Sequence[int], edges) -> List[Dict[int, int]]:
    """Every automorphism of a small labelled graph (edge multiplicity and
    direction preserved), by backtracking."""
    bond: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for a, b, mult, short in edges:
        bond[a, b] = (mult, 0 if short is None else (1 if short == b else -1))
        bond[b, a] = (mult, 0 if short is None else (1 if short == a else -1))
    deg = {v: sum(1 for (a, _) in bond if a == v) for v in nodes}
    order = sorted(nodes, key=lambda v: -deg[v])
    image: Dict[int, int] = {}
    found: List[Dict[int, int]] = []

    def extend(i: int) -> None:
        if i == len(order):
            found.append(dict(image))
            return
        v = order[i]
        for w in nodes:
            if w in image.values() or deg[w] != deg[v]:
                continue
            if all(bond.get((image[u], w)) == bond.get((u, v)) for u in image):
                image[v] = w
                extend(i + 1)
                del image[v]

    extend(0)
    return found


def _mark_token(v: int, crossed, ann: Dict[int, int]) -> str:
    return f"x[{ann[v]}]" if v in ann else ("x" if v in crossed else "o")


def _malformed(rng: random.Random, texts: Sequence[str]) -> List[str]:
    """Strings that no grammar rule accepts, MALFORMED_PER_KIND of each kind."""
    out = []
    edge_re = re.compile(r"####>|<####|####|#>|<#|=>|<=|-")
    for kind in range(6):
        made = 0
        while made < MALFORMED_PER_KIND:
            t = rng.choice(texts)
            if kind == 0:  # a character outside the grammar
                i = rng.randrange(len(t) + 1)
                s = t[:i] + rng.choice("q?*%&!;") + t[i:]
            elif kind == 1:  # cut right after an edge token
                ends = [m.end() for m in edge_re.finditer(t)]
                if not ends:
                    continue
                s = t[:rng.choice(ends)]
            elif kind == 2:  # an unclosed branch
                if ")" not in t:
                    continue
                i = rng.choice([k for k, c in enumerate(t) if c == ")"])
                s = t[:i] + t[i + 1:]
            elif kind == 3:  # an annotation below 2 or without digits
                xs = [k for k, c in enumerate(t) if c == "x" and not t[k + 1:k + 2] == "["]
                if not xs:
                    continue
                i = rng.choice(xs)
                s = t[:i] + rng.choice(("x[1]", "x[]", "x[0]", "x[2")) + t[i + 1:]
            elif kind == 4:  # an empty component
                s = t + " +  + " + rng.choice(texts)
            else:  # sigma on one connected diagram
                if "@" in t or " + " in t or "O" in t or "sigma" in t:
                    continue
                s = t + " ~sigma"
            out.append(s)
            made += 1
    return out


def _roundtrip(seed: int, root: str) -> Workload:
    from kacvmrt import (DynkinDiagram, Edge, MarkedKacDiagram, affine_diagram, lookup, marked,
                         z_orbit_diagram)
    from kacvmrt.render import ParseError, parse, render, to_canonical_text
    from kacvmrt.roots import CartanType

    rng = random.Random(f"roundtrip-{seed}")
    # Each item: name, its instances under RELABELLINGS relabellings, the
    # plain graph (nodes, edges, marks, sigma) and, for finite shapes, the
    # Bourbaki data for the dim G/P check.
    items: List[dict] = []

    def finite_instance(nodes, edges, crossed, ann, sigma):
        ids = rng.sample(range(10 * len(nodes) + 10), len(nodes))
        rl = dict(zip(nodes, ids))
        es = [Edge(min(rl[a], rl[b]), max(rl[a], rl[b]), m, None if s is None else rl[s])
              for a, b, m, s in edges]
        pairs = None if sigma is None else [(rl[a], rl[b]) for a, b in sigma]
        return marked(DynkinDiagram(tuple(ids), frozenset(es)), {rl[v] for v in crossed},
                      {rl[v]: k for v, k in ann.items()}, pairs)

    for shape in FINITE_SHAPES:
        nodes, edges, crossed, ann, parts = [], [], set(), {}, []
        for family, rank in shape:
            off = len(nodes)
            comp = [off + i for i in range(1, rank + 1)]
            nodes += comp
            edges += [(a + off, b + off, m, None if s is None else s + off)
                      for a, b, m, s in checks.bourbaki_edges(family, rank)]
            cx = {i for i in range(1, rank + 1) if rng.random() < 0.35} or {rng.randint(1, rank)}
            crossed |= {off + i for i in cx}
            ann.update({off + i: rng.choice((2, 3)) for i in cx if rng.random() < 0.25})
            parts.append((family, rank, sorted(cx)))
        items.append({
            "name": " + ".join(f"{f}{r}" for f, r in shape),
            "instances": [finite_instance(nodes, edges, crossed, ann, None)
                          for _ in range(RELABELLINGS)],
            "graph": (nodes, edges, {v: _mark_token(v, crossed, ann) for v in nodes}, None),
            "bourbaki": parts,
        })

    for (family, rank), twist in AFFINE_SHAPES:
        a = affine_diagram(CartanType(family, rank), twist)
        white = {v for v in a.nodes if rng.random() < 0.3} or {rng.choice(a.nodes)}
        graph = (list(a.nodes), [(e.a, e.b, e.mult, e.short) for e in a.edges],
                 {v: "O" if v in white else "o" for v in a.nodes}, None)
        # AffineDiagram ids are fixed by the shape, so a relabelling moves
        # the white nodes by a random automorphism of the diagram.
        auts = automorphisms(graph[0], graph[1])
        instances = []
        for _ in range(RELABELLINGS):
            aut = rng.choice(auts)
            instances.append(MarkedKacDiagram(a, frozenset(aut[w] for w in white)))
        items.append({"name": f"{family}{rank}^({twist})", "instances": instances, "graph": graph})

    for label, params in SIGMA_ENTRIES:
        e = lookup(label, params)
        (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
        d = z.diagram
        edges = [(x.a, x.b, x.mult, x.short) for x in d.edges]
        ann = z.annotation_map
        items.append({
            "name": e.name,
            "instances": [finite_instance(list(d.nodes), edges, z.crossed, ann, z.sigma_pairs)
                          for _ in range(RELABELLINGS)],
            "graph": (list(d.nodes), edges, {v: _mark_token(v, z.crossed, ann) for v in d.nodes},
                      z.sigma_pairs),
        })

    rng.shuffle(items)
    texts = [write_text(*it["graph"][:3], rng, it["graph"][3]) for it in items]
    malformed = _malformed(rng, texts) + list(KNOWN_BAD_BONDS)
    for it, t in zip(items, texts):
        it["text"] = t

    def roundtrip(d):
        def op():
            text = to_canonical_text(d)
            return (text, to_canonical_text(parse(text))), False
        return op

    def presentations(d):
        def op():
            return tuple(render(d, fmt) for fmt in ("ascii", "latex", "dot", "json")), False
        return op

    def bad_input(s):
        # Outcome: None when the string parses, else (exception type,
        # is a ParseError, offset).
        def op():
            try:
                parse(s)
            except ParseError as ex:
                return (type(ex).__name__, True, ex.position), False
            except ValueError as ex:
                return (type(ex).__name__, False, None), True
            return None, False
        return op

    steps = [("roundtrip", roundtrip(d)) for it in items for d in it["instances"]]
    steps += [("render", presentations(it["instances"][0])) for it in items]
    steps += [("malformed", bad_input(s)) for s in malformed]
    return Workload("roundtrip", seed, steps, "roundtrip",
                    data={"items": items, "malformed": malformed, "parse": parse,
                          "to_canonical_text": to_canonical_text})


def check_roundtrip(w: Workload, outputs: Sequence[object]) -> List[str]:
    from kacvmrt import parabolic_dimension

    items = w.data["items"]
    parse, canon = w.data["parse"], w.data["to_canonical_text"]
    problems: List[str] = []
    k = 0
    for it in items:
        pairs = outputs[k:k + RELABELLINGS]
        k += RELABELLINGS
        writes = [p[0] for p in pairs]
        problems += checks.check_roundtrip(it["name"], writes, [p[1] for p in pairs])
        # The benchmark's own random text of the same diagram reads back to
        # the same canonical text.
        got = canon(parse(it["text"]))
        if got != writes[0]:
            problems.append(f"{it['name']}: text {it['text']!r} reads back as {got!r}, "
                            f"canonical is {writes[0]!r}")
        if "bourbaki" in it:
            d = it["instances"][0]
            problems += checks.check_parabolic_dim(it["name"], it["bourbaki"],
                                                   parabolic_dimension(d.diagram, d.crossed))
    for it in items:
        nodes, edges, _, _ = it["graph"]
        problems += checks.check_presentations(it["name"], len(nodes), len(edges), *outputs[k])
        k += 1
    for s in w.data["malformed"]:
        outcome = outputs[k]
        k += 1
        if s in KNOWN_BAD_BONDS and outcome is not None and outcome[0] == "ValueError":
            continue  # the known fault, counted in `failed`
        problems += checks.check_parse_error(s, outcome)
    return problems


CHECKERS = {"sweep": check_sweep, "query": check_query, "roundtrip": check_roundtrip}
