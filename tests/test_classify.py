"""`classify` against the implementation it replaced.

`root_oracles.classify_reference` is classify as it was before its
components came from one breadth-first walk: a depth-first component
search, a node-to-component map and edge buckets for every diagram, and
re-validation by comparing sets of Bourbaki edges.  It keeps its own copy
of the component recogniser, so a fault there shows too.  classify must
return exactly its (type, mapping) tuples, ties by node id included, and
raise `UnrecognizedDiagram` exactly where it does, and `components()`
must give the same sorted tuples in the same order.  The diagrams: every
type to rank 40 under random relabellings, random disjoint unions of them,
every Z and VMRT diagram of `engine.vmrt` to rank 30 and those texts read
back, and one-edit perturbations of all of these.
"""

import random

import pytest

from kacvmrt import diagrams
from kacvmrt.atlas import enumerate_entries
from kacvmrt.diagrams import DynkinDiagram, Edge, UnrecognizedDiagram, classify, standard_diagram
from kacvmrt.engine import vmrt
from kacvmrt.render import parse, to_canonical_text
from kacvmrt.roots import CartanType
from root_oracles import classify_reference, components_reference

MAX_TYPE_RANK = 40
TYPES = (
    [CartanType("A", n) for n in range(1, MAX_TYPE_RANK + 1)]
    + [CartanType(f, n) for f in "BC" for n in range(2, MAX_TYPE_RANK + 1)]
    + [CartanType("D", n) for n in range(3, MAX_TYPE_RANK + 1)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)


def _outcome(f, d):
    try:
        return f(d)
    except UnrecognizedDiagram:
        return "unrecognized"


def _assert_agrees(ds):
    for d in ds:
        assert _outcome(classify, d) == _outcome(classify_reference, d), (d.nodes, sorted(d.edges))
        assert d.components() == components_reference(d.nodes, d.adjacency())


def _moved(e, to):
    a, b = to[e.a], to[e.b]
    return Edge(min(a, b), max(a, b), e.mult, None if e.short is None else to[e.short])


def _relabelled(parts, rng):
    """The disjoint union of the diagrams parts on fresh random ids."""
    n = sum(len(p.nodes) for p in parts)
    ids = rng.sample(range(10 * n + 10), n)
    nodes, edges = [], set()
    for p in parts:
        to = dict(zip(p.nodes, ids[len(nodes):len(nodes) + len(p.nodes)]))
        nodes += to.values()
        edges |= {_moved(e, to) for e in p.edges}
    return DynkinDiagram(nodes, edges)


def _one_edits(d, rng, k):
    """Up to k diagrams one edit away from d: an edge dropped, an arrow
    flipped, a multiplicity changed, an edge added that closes a cycle, or
    one that joins two components."""
    out = []
    edges = sorted(d.edges)
    comp_of = {v: c for c in d.components() for v in c}
    for _ in range(k):
        how = rng.choice(["drop", "arrow", "mult", "cycle", "join"])
        if how in ("drop", "arrow", "mult") and edges:
            e = rng.choice(edges)
            rest = set(d.edges) - {e}
            if how == "drop":
                out.append(DynkinDiagram(d.nodes, rest))
            elif how == "arrow" and e.short is not None:
                out.append(DynkinDiagram(d.nodes, rest | {Edge(e.a, e.b, e.mult, e.other(e.short))}))
            elif how == "mult":
                mult = rng.choice([m for m in (1, 2, 3, 4) if m != e.mult])
                short = None if mult == 1 else rng.choice([e.a, e.b] + ([None] if mult == 4 else []))
                out.append(DynkinDiagram(d.nodes, rest | {Edge(e.a, e.b, mult, short)}))
        elif how in ("cycle", "join") and len(d.nodes) >= 2:
            joined = {(e.a, e.b) for e in d.edges}
            u, v = sorted(rng.sample(d.nodes, 2))
            if (u, v) not in joined and (comp_of[u] == comp_of[v]) == (how == "cycle"):
                out.append(DynkinDiagram(d.nodes, set(d.edges) | {Edge(u, v)}))
    return out


@pytest.fixture(scope="module")
def zv_diagrams():
    """Every Z and VMRT diagram of vmrt to rank 30, marked."""
    out = []
    for e in enumerate_entries(30):
        v = vmrt(e)
        out += v.z if v.components is v.z else v.z + v.components
    return out


def test_every_type_under_relabellings():
    rng = random.Random(1)
    ds = [_relabelled([standard_diagram(t)], rng) for t in TYPES for _ in range(3)]
    _assert_agrees(ds)
    assert all(len(classify(d)) == 1 for d in ds)


def test_random_disjoint_unions():
    rng = random.Random(2)
    ds = [_relabelled([standard_diagram(t) for t in rng.sample(TYPES, rng.randint(2, 5))], rng)
          for _ in range(300)]
    _assert_agrees(ds)


def test_z_and_vmrt_diagrams_to_rank_30(zv_diagrams):
    _assert_agrees([m.diagram for m in zv_diagrams])


def test_z_and_vmrt_texts_read_back(zv_diagrams):
    _assert_agrees([parse(to_canonical_text(m)).diagram for m in zv_diagrams])


def test_one_edit_perturbations(zv_diagrams):
    rng = random.Random(3)
    ds = [_relabelled([standard_diagram(t)], rng) for t in TYPES]
    ds += [_relabelled([standard_diagram(t) for t in rng.sample(TYPES, rng.randint(2, 4))], rng)
           for _ in range(100)]
    ds += [m.diagram for m in rng.sample(zv_diagrams, 300)]
    edits = [x for d in ds for x in _one_edits(d, rng, 12)]
    rejected = [d for d in edits if _outcome(classify_reference, d) == "unrecognized"]
    # The edits must reach both sides of the line.
    assert 0.2 < len(rejected) / len(edits) < 0.8
    _assert_agrees(edits)


@pytest.mark.parametrize("change", ["drop", "repeat", "flip"])
def test_revalidation_hits_every_bond_once(change):
    # B_4 on nodes 5..8 with its true classes: dropping an edge, handing
    # one over twice or flipping the arrow leaves a bond missed, hit twice
    # or hit with the wrong short end.
    d = standard_diagram(CartanType("B", 4), [5, 6, 7, 8])
    ((t, mapping),) = classify(d)
    edges = sorted(d.edges)
    diagrams._revalidate(t, mapping, d.nodes, edges)
    if change == "drop":
        edges = edges[1:]
    elif change == "repeat":
        edges = edges[:-1] + edges[:1]
    else:
        e = edges[-1]
        edges = edges[:-1] + [Edge(e.a, e.b, e.mult, e.other(e.short))]
    with pytest.raises(UnrecognizedDiagram, match="re-validation"):
        diagrams._revalidate(t, mapping, d.nodes, edges)
