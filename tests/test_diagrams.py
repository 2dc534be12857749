"""Diagram recognition, parabolic dimensions and gradings."""

import itertools
import os
import random
import subprocess
import sys

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
from root_oracles import support

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
            classify(DynkinDiagram(b3.nodes, set(b3.edges) | {extra}))


def test_branch_node_zero_with_a_double_bond_is_rejected_as_bad_double_bonds():
    # The branch test must read the degree, not the node id: node 0 is the
    # centre of a star with one double bond.
    star = DynkinDiagram((0, 1, 2, 3), {Edge(0, 1, 2, 1), Edge(0, 2), Edge(0, 3)})
    with pytest.raises(UnrecognizedDiagram, match="bad double bonds"):
        classify(star)


def test_edges_are_one_sorted_tuple():
    d = DynkinDiagram((1, 2, 3, 4), [Edge(3, 4, 2, 4), Edge(1, 2), Edge(2, 3), Edge(1, 2)])
    assert d.edges == (Edge(1, 2), Edge(2, 3), Edge(3, 4, 2, 4))
    for t in ALL_TYPES:
        edges = standard_diagram(t, list(range(t.rank, 0, -1))).edges
        assert isinstance(edges, tuple) and list(edges) == sorted(edges)


def test_parallel_edges_sort_without_type_error():
    # A quadruple bond with and without an arrow on one pair: None against
    # an int short end.  The arrowless one comes first.
    bonds = [Edge(1, 2, 4, 2), Edge(1, 2, 4), Edge(1, 2, 4, 1), Edge(1, 2), Edge(0, 1, 4)]
    want = (Edge(0, 1, 4), Edge(1, 2), Edge(1, 2, 4), Edge(1, 2, 4, 1), Edge(1, 2, 4, 2))
    for k in range(len(bonds)):
        order = bonds[k:] + bonds[:k]
        assert DynkinDiagram((0, 1, 2), order).edges == want
        assert DynkinDiagram((0, 1, 2), frozenset(order)).edges == want


def test_edge_order_is_the_same_in_every_process():
    # Edge hashes take in hash(None), which on CPython 3.11 is the address
    # of None, so a set of edges is iterated in another order in another
    # process; the stored tuple must not be.
    code = """if True:
        from kacvmrt import affine_diagram, lookup, standard_diagram, z_orbit_diagram
        from kacvmrt.presentation import to_dot
        from kacvmrt.roots import CartanType
        e = lookup("herm-CI", {"n": 4})
        (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
        assert z.sigma_pairs
        for edges in (standard_diagram(CartanType("E", 8)).edges, z.diagram.edges,
                      affine_diagram(CartanType("E", 6), 2).edges):
            print([(x.a, x.b, x.mult, x.short) for x in edges])
        print(to_dot(z))
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(diagrams.__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


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
        1 for r in positive_roots(t) if any(i in marked_idx for i in support(r))
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
        both = DynkinDiagram(a.nodes + b.nodes, set(a.edges) | set(b.edges))
        assert parabolic_dimension(both, {2, 11}) == 7 + 2


def _levi_root_count(t, crossed):
    """|Phi+(L)| by enumeration: the positive roots that miss every crossed index."""
    return sum(1 for r in positive_roots(t) if not any(r.coefficient(i) for i in crossed))


ALL_TYPES_TO_RANK_9 = (
    [CartanType("A", n) for n in range(1, 10)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 10)]
    + [CartanType("D", n) for n in range(3, 10)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)


def test_levi_closed_form_on_every_crossing_to_rank_9():
    cases = 0
    for t in ALL_TYPES_TO_RANK_9:
        for k in range(t.rank + 1):
            for crossed in itertools.combinations(range(1, t.rank + 1), k):
                assert diagrams._levi_positive_roots(t, crossed) == _levi_root_count(t, crossed), (t, crossed)
                cases += 1
    assert cases == 4546


@pytest.mark.parametrize("family", "ABCD")
def test_levi_closed_form_on_random_crossings_to_rank_40(family):
    rng = random.Random(family)
    for n in (17, 40):
        t = CartanType(family, n)
        for _ in range(40):
            crossed = sorted(rng.sample(range(1, n + 1), rng.randint(0, 6)))
            assert diagrams._levi_positive_roots(t, crossed) == _levi_root_count(t, crossed), (t, crossed)


def test_classify_builds_each_type_once(monkeypatch):
    # One CartanType per (family, rank): a relabelled copy of a classified
    # diagram is recognised without constructing a type, and as the very
    # same type objects.
    types = [CartanType(f, n) for f, n in (("A", 1), ("A", 5), ("B", 2), ("B", 4), ("C", 3),
                                           ("D", 6), ("E", 7), ("F", 4), ("G", 2))]
    nodes, edges, k = [], set(), 0
    for t in types:
        part = standard_diagram(t, list(range(k, k + t.rank)))
        nodes += part.nodes
        edges |= set(part.edges)
        k += t.rank
    d = DynkinDiagram(nodes, edges)
    first = [t for t, _ in classify(d)]
    ids = list(range(1000, 1000 + k))
    random.Random(7).shuffle(ids)
    perm = dict(zip(nodes, ids))
    copy = DynkinDiagram(ids, {Edge(min(perm[e.a], perm[e.b]), max(perm[e.a], perm[e.b]), e.mult,
                                    None if e.short is None else perm[e.short]) for e in edges})
    built = []
    real_init = CartanType.__init__
    monkeypatch.setattr(CartanType, "__init__", lambda self, *a: built.append(a) or real_init(self, *a))
    again = [t for t, _ in classify(copy)]
    assert built == []
    assert sorted(first) == sorted(types)
    assert sorted(map(id, again)) == sorted(map(id, first))


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

    def test_crossed_is_one_sorted_tuple(self):
        # A set of 2, 9 and 16 iterates as 16, 9, 2.
        d = standard_diagram(CartanType("A", 16))
        m = marked(d, [9, 2, 16, 9])
        assert m.crossed == (2, 9, 16)
        assert m == marked(d, {16, 9, 2}) == marked(d, iter([16, 2, 9]))
        assert hash(m) == hash(marked(d, frozenset([2, 16, 9])))
        assert m.restrict(range(1, 10)).crossed == (2, 9)

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
        both = DynkinDiagram(d1.nodes + d2.nodes, set(d1.edges) | set(d2.edges))
        m = marked(both, {1, 11}, sigma_pairs=((1, 11), (2, 12)))
        assert m.sigma_left_nodes() == {1, 2}
        with pytest.raises(ValueError):
            marked(both, set(), sigma_pairs=((1, 11),))  # not a cover
        # The pairing must carry the left half's marks and bonds onto the
        # right half's, not merely match the nodes.
        for crossed, ann, pairs in [
            ({1, 12}, {}, ((1, 11), (2, 12))),  # crossing sent to a plain node
            ({1, 11}, {11: 2}, ((1, 11), (2, 12))),  # annotation on one side only
        ]:
            with pytest.raises(ValueError, match="not isomorphic under the pairing"):
                marked(both, crossed, ann, pairs)
        b2 = standard_diagram(CartanType("B", 2), [11, 12])
        with pytest.raises(ValueError, match="not isomorphic under the pairing"):
            marked(DynkinDiagram(d1.nodes + b2.nodes, set(d1.edges) | set(b2.edges)),
                   sigma_pairs=((1, 11), (2, 12)))  # a bond sent to a double bond
        with pytest.raises(ValueError, match="not isomorphic under the pairing"):
            marked(DynkinDiagram((1, 2, 3, 4), {Edge(1, 3), Edge(2, 4)}),
                   sigma_pairs=((1, 3), (2, 4)))  # bonds between the halves
        # Two copies of o-o + o with only the first copy crossed.
        three = DynkinDiagram((10, 11, 12, 20, 21, 22), {Edge(10, 11), Edge(20, 21)})
        with pytest.raises(ValueError, match="not isomorphic under the pairing"):
            marked(three, {11, 12}, {}, [(10, 20), (11, 21), (12, 22)])
        assert marked(three, {11, 12, 21, 22}, {}, [(10, 20), (11, 21), (12, 22)]).sigma_pairs

    def test_sigma_halves(self):
        d1 = standard_diagram(CartanType("B", 2))
        d2 = standard_diagram(CartanType("B", 2), [11, 12])
        both = DynkinDiagram(d1.nodes + d2.nodes, set(d1.edges) | set(d2.edges))
        m = marked(both, {1, 11}, {1: 2, 11: 2}, sigma_pairs=((1, 11), (2, 12)))
        left, right = m.sigma_halves()
        assert left == marked(d1, {1}, {1: 2})
        assert right == marked(d2, {11}, {11: 2})
        with pytest.raises(ValueError):
            marked(both).sigma_halves()  # no pairing
