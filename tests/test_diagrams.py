"""Diagram recognition, parabolic dimensions and gradings."""

import random

import pytest

from kacvmrt import diagrams
from kacvmrt.diagrams import (
    DynkinDiagram,
    Edge,
    MarkedDynkinDiagram,
    UnrecognizedDiagram,
    classify,
    find_marked_isomorphism,
    graded_dimensions,
    marked,
    parabolic_dimension,
    standard_diagram,
    standard_marked,
)
from kacvmrt.roots import CartanType, positive_roots

ALL_TYPES = (
    [CartanType("A", n) for n in range(1, 9)]
    + [CartanType("B", n) for n in range(2, 9)]
    + [CartanType("C", n) for n in range(3, 9)]
    + [CartanType("D", n) for n in range(4, 9)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_classify_round_trip_under_relabelling(t):
    from kacvmrt.diagrams import diagram_automorphisms

    rng = random.Random(hash(str(t)) & 0xFFFF)
    ids = list(range(20, 20 + t.rank))
    rng.shuffle(ids)
    d = standard_diagram(t, ids)
    ((got, mapping),) = classify(d)
    assert got == t
    # the recovered numbering agrees with the original up to a diagram
    # automorphism (exactly, for rigid types)
    perm = {i + 1: mapping[ids[i]] for i in range(t.rank)}
    assert perm in [dict(a) for a in diagram_automorphisms(t)]


def test_classify_c2_is_canonical_b2():
    d = standard_diagram(CartanType("C", 2))
    ((got, mapping),) = classify(d)
    assert got == CartanType("B", 2)
    assert mapping == {1: 2, 2: 1}  # C_2's short alpha_1 is B_2's alpha_2


def test_classify_d3_is_canonical_a3():
    d = standard_diagram(CartanType("D", 3))
    ((got, _),) = classify(d)
    assert got == CartanType("A", 3)


def test_classify_rejects_garbage():
    square = DynkinDiagram((1, 2, 3, 4), frozenset({
        Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(1, 4)}))
    with pytest.raises(UnrecognizedDiagram):
        classify(square)
    double_fork = DynkinDiagram((1, 2, 3, 4, 5, 6), frozenset({
        Edge(1, 2), Edge(1, 3), Edge(1, 4), Edge(4, 5), Edge(4, 6)}))
    with pytest.raises(UnrecognizedDiagram):
        classify(double_fork)
    # a cycle through a branch node: the arm walks must not go round it
    triangle_tail = DynkinDiagram((1, 2, 3, 4), frozenset({
        Edge(1, 2), Edge(2, 3), Edge(1, 3), Edge(3, 4)}))
    with pytest.raises(UnrecognizedDiagram):
        classify(triangle_tail)
    # a second bond on a joined pair; adjacency maps keep only one of them
    b3 = standard_diagram(CartanType("B", 3))
    for extra in (Edge(1, 2, 2, 1), Edge(1, 2, 3, 2), Edge(2, 3, 1)):
        with pytest.raises(UnrecognizedDiagram):
            classify(DynkinDiagram(b3.nodes, b3.edges | {extra}))


@pytest.mark.parametrize("lie", ["type", "mapping"])
def test_classify_revalidates_recognition(monkeypatch, lie):
    real = diagrams._classify_component

    def lying(adj, comp, edges):
        t, mapping = real(adj, comp, edges)
        if lie == "type":  # read B_n as C_n: same shape, other arrow
            return CartanType("C", t.rank), mapping
        a, b = sorted(mapping)[:2]
        return t, {**mapping, a: mapping[b], b: mapping[a]}

    monkeypatch.setattr(diagrams, "_classify_component", lying)
    with pytest.raises(UnrecognizedDiagram, match="re-validation"):
        classify(standard_diagram(CartanType("B", 4), [5, 6, 7, 8]))


def _support_count(t, marked_idx):
    return sum(
        1 for r in positive_roots(t) if any(i in marked_idx for i in r.support())
    )


class TestParabolicDimension:
    def test_empty_marking(self):
        d = standard_diagram(CartanType("E", 7))
        assert parabolic_dimension(d, set()) == 0

    def test_b3_node2(self):
        # dim OG(2,7): enumerate the nine positive B_3 roots by hand:
        # e1,e2,e3, e1-e2, e1-e3, e2-e3, e1+e2, e1+e3, e2+e3; seven contain alpha_2.
        assert parabolic_dimension(standard_diagram(CartanType("B", 3)), {2}) == 7

    def test_g2_node2(self):
        # five of the six positive G_2 roots contain alpha_2
        assert parabolic_dimension(standard_diagram(CartanType("G", 2)), {2}) == 5

    def test_full_marking_is_all_positive_roots(self):
        for t in [CartanType("A", 4), CartanType("F", 4), CartanType("D", 5)]:
            d = standard_diagram(t)
            assert parabolic_dimension(d, set(d.nodes)) == len(positive_roots(t))

    def test_monotone_in_marked_set(self):
        d = standard_diagram(CartanType("D", 6))
        prev = 0
        marked_set = set()
        for v in (3, 1, 6, 4):
            marked_set.add(v)
            cur = parabolic_dimension(d, marked_set)
            assert cur >= prev
            prev = cur

    def test_unknown_node(self):
        d = standard_diagram(CartanType("A", 3))
        with pytest.raises(ValueError, match="not in diagram"):
            parabolic_dimension(d, {9})

    def test_components_add(self):
        a = standard_diagram(CartanType("B", 3))
        b = standard_diagram(CartanType("A", 2), [11, 12])
        both = DynkinDiagram(a.nodes + b.nodes, a.edges | b.edges)
        assert parabolic_dimension(both, {2, 11}) == 7 + 2


class TestGradedDimensions:
    def test_sl2(self):
        d = standard_diagram(CartanType("A", 1))
        assert graded_dimensions(d, {1}) == {-1: 1, 0: 1, 1: 1}

    def test_contact_grading_g2(self):
        # marking the long simple root of G_2 gives the contact gradation
        d = standard_diagram(CartanType("G", 2))
        dims = graded_dimensions(d, {2})
        assert max(dims) == 2 and dims[2] == 1

    def test_contact_grading_a_type_double_mark(self):
        for n in range(2, 7):
            d = standard_diagram(CartanType("A", n))
            dims = graded_dimensions(d, {1, n})
            assert max(dims) == 2 and dims[2] == 1

    def test_symmetry_and_total(self):
        for t in [CartanType("F", 4), CartanType("D", 5), CartanType("C", 4)]:
            d = standard_diagram(t)
            for marked_set in ({1}, {2}, {1, t.rank}):
                dims = graded_dimensions(d, marked_set)
                assert all(dims[k] == dims[-k] for k in dims)
                assert sum(dims.values()) == 2 * len(positive_roots(t)) + t.rank

    def test_zero_marking(self):
        t = CartanType("B", 4)
        dims = graded_dimensions(standard_diagram(t), set())
        assert dims == {0: t.algebra_dimension}


class TestMarkedDiagram:
    def test_invariants(self):
        d = standard_diagram(CartanType("A", 3))
        with pytest.raises(ValueError):
            marked(d, {7})
        with pytest.raises(ValueError):
            marked(d, {1}, {2: 2})  # annotation off the crossed set
        with pytest.raises(ValueError):
            marked(d, {1}, {1: 1})  # degree must be >= 2
        m = marked(d, {1}, {1: 2})
        assert m.annotation_map == {1: 2}

    def test_marked_isomorphism_respects_annotations(self):
        m1 = standard_marked(CartanType("A", 3), {1}, {1: 2})
        m2 = standard_marked(CartanType("A", 3), {3}, {3: 2})
        m3 = standard_marked(CartanType("A", 3), {3})
        assert find_marked_isomorphism(m1, m2) is not None
        assert find_marked_isomorphism(m1, m3) is None

    def test_marked_isomorphism_direction_sensitive(self):
        b = standard_marked(CartanType("B", 3), {3})
        c = standard_marked(CartanType("C", 3), {3})
        assert find_marked_isomorphism(b, c) is None

    def test_sigma_pairs_validated(self):
        d1 = standard_diagram(CartanType("A", 2))
        d2 = standard_diagram(CartanType("A", 2), [11, 12])
        both = DynkinDiagram(d1.nodes + d2.nodes, d1.edges | d2.edges)
        m = marked(both, {1, 12}, sigma_pairs=((1, 11), (2, 12)))
        assert m.sigma_left_nodes() == {1, 2}
        with pytest.raises(ValueError):
            marked(both, set(), sigma_pairs=((1, 11),))  # not a cover
