"""Property tests of the closed forms against the computations they replaced.

`parabolic_dimension` counts |Phi+(G)| - |Phi+(L)|; the oracle enumerates
the positive roots and counts those meeting a crossed node.
`find_isomorphism` builds per-call incidence maps and filters candidates
by mapped neighbours; the oracle is the plain backtracking search over
`neighbors`/`edge_between`, which must return the very same mapping.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kacvmrt.affine import affine_diagram  # noqa: E402
from kacvmrt.diagrams import (  # noqa: E402
    DynkinDiagram,
    Edge,
    _edge_signature,
    classify,
    find_isomorphism,
    parabolic_dimension,
    standard_diagram,
)
from kacvmrt.roots import CartanType, positive_roots  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

FINITE_TYPES = st.one_of(
    st.builds(CartanType, st.just("A"), st.integers(1, 9)),
    st.builds(CartanType, st.just("B"), st.integers(2, 9)),
    st.builds(CartanType, st.just("C"), st.integers(2, 9)),
    st.builds(CartanType, st.just("D"), st.integers(3, 9)),
    st.sampled_from([CartanType("E", 6), CartanType("E", 7), CartanType("E", 8),
                     CartanType("F", 4), CartanType("G", 2)]),
)

AFFINE_SHAPES = [(CartanType("A", n), 1) for n in range(1, 7)] + [
    (CartanType("B", 4), 1), (CartanType("C", 3), 1), (CartanType("D", 5), 1),
    (CartanType("E", 6), 1), (CartanType("A", 5), 2), (CartanType("A", 6), 2),
    (CartanType("D", 5), 2), (CartanType("E", 6), 2), (CartanType("D", 4), 3),
]


def _relabel(d, perm):
    def edge(e):
        a, b = perm[e.a], perm[e.b]
        return Edge(min(a, b), max(a, b), e.mult, None if e.short is None else perm[e.short])

    return DynkinDiagram(tuple(perm[v] for v in d.nodes), frozenset(edge(e) for e in d.edges))


@st.composite
def finite_unions(draw, max_parts=4):
    """A disjoint union of Bourbaki diagrams on shuffled node ids."""
    types = draw(st.lists(FINITE_TYPES, min_size=1, max_size=max_parts))
    ids = draw(st.permutations(range(100, 100 + sum(t.rank for t in types))))
    nodes, edges, k = [], set(), 0
    for t in types:
        part = standard_diagram(t, ids[k:k + t.rank])
        nodes += part.nodes
        edges |= part.edges
        k += t.rank
    return DynkinDiagram(tuple(nodes), frozenset(edges))


@st.composite
def graphs(draw):
    """Finite unions, or one affine diagram (cycles and twisted shapes)."""
    if draw(st.booleans()):
        return draw(finite_unions())
    a = affine_diagram(*draw(st.sampled_from(AFFINE_SHAPES)))
    return DynkinDiagram(a.nodes, a.edges)


def _root_count(d, crossed):
    total = 0
    for (t, mapping), comp in zip(classify(d), d.components()):
        idx = {mapping[v] for v in crossed if v in comp}
        total += sum(1 for r in positive_roots(t) if any(i in idx for i in r.support()))
    return total


@SETTINGS
@given(st.data())
def test_parabolic_dimension_matches_root_count(data):
    d = data.draw(finite_unions())
    crossed = data.draw(st.sets(st.sampled_from(d.nodes)))
    assert parabolic_dimension(d, crossed) == _root_count(d, crossed)


def _backtracking_oracle(d1, d2, t1, t2):
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return None

    def profile(d, tags, v):
        sig = sorted(_edge_signature(e, v) for e in d.edges if v in (e.a, e.b))
        return (tags.get(v), tuple(sig))

    p1 = {v: profile(d1, t1, v) for v in d1.nodes}
    p2 = {v: profile(d2, t2, v) for v in d2.nodes}
    if sorted(map(repr, p1.values())) != sorted(map(repr, p2.values())):
        return None
    order = sorted(d1.nodes, key=lambda v: (repr(p1[v]), v))
    mapping, used = {}, set()

    def compatible(v, w):
        if p1[v] != p2[w]:
            return False
        for u in d1.neighbors(v):
            if u in mapping:
                e2 = d2.edge_between(mapping[u], w)
                if e2 is None or _edge_signature(d1.edge_between(u, v), v) != _edge_signature(e2, w):
                    return False
        return True

    def extend(i):
        if i == len(order):
            return True
        for w in sorted(d2.nodes):
            if w not in used and compatible(order[i], w):
                mapping[order[i]] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[order[i]]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def _is_isomorphism(iso, d1, d2, t1, t2):
    return (
        sorted(iso.values()) == sorted(d2.nodes)
        and _relabel(d1, iso).edges == d2.edges
        and all(t1.get(v) == t2.get(iso[v]) for v in d1.nodes)
    )


@st.composite
def relabelled_pairs(draw):
    d1 = draw(graphs())
    tags = draw(st.lists(st.sampled_from([(False, 0), (True, 0), (True, 2)]),
                         min_size=len(d1.nodes), max_size=len(d1.nodes)))
    t1 = dict(zip(d1.nodes, tags))
    ids = draw(st.permutations(range(500, 500 + len(d1.nodes))))
    perm = dict(zip(d1.nodes, ids))
    return d1, _relabel(d1, perm), t1, {perm[v]: t for v, t in t1.items()}


@SETTINGS
@given(relabelled_pairs())
def test_find_isomorphism_on_relabelled_copies(pair):
    d1, d2, t1, t2 = pair
    iso = find_isomorphism(d1, d2, t1, t2)
    assert iso is not None and _is_isomorphism(iso, d1, d2, t1, t2)
    assert iso == _backtracking_oracle(d1, d2, t1, t2)


@SETTINGS
@given(relabelled_pairs(), st.data())
def test_find_isomorphism_on_near_misses(pair, data):
    d1, d2, t1, t2 = pair
    how = data.draw(st.sampled_from(["tag", "arrow", "rewire"])) if d2.edges else "tag"
    if how == "tag":
        v = data.draw(st.sampled_from(d2.nodes))
        t2 = dict(t2)
        t2[v] = (not t2[v][0], t2[v][1])
    else:
        e = data.draw(st.sampled_from(sorted(d2.edges)))
        rest = set(d2.edges) - {e}
        if how == "arrow" and e.short is not None:
            rest.add(Edge(e.a, e.b, e.mult, e.other(e.short)))
        else:
            # Move the bond to an unjoined pair: no parallel edges, which no
            # Dynkin diagram has and no caller passes.
            joined = {(f.a, f.b) for f in rest}
            free = [(u, v) for u in d2.nodes for v in d2.nodes if u < v and (u, v) not in joined]
            if free:
                u, v = data.draw(st.sampled_from(free))
                rest.add(Edge(u, v, e.mult, None if e.short is None else u))
        d2 = DynkinDiagram(d2.nodes, frozenset(rest))
    iso = find_isomorphism(d1, d2, t1, t2)
    assert iso == _backtracking_oracle(d1, d2, t1, t2)
    if iso is not None:
        assert _is_isomorphism(iso, d1, d2, t1, t2)
