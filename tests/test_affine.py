"""Affine diagram construction, Kac labels and the white-node rules."""

from fractions import Fraction
from math import gcd

import pytest

from kacvmrt.affine import (
    AffineDiagram,
    MarkedKacDiagram,
    affine_diagram,
    affine_node_count,
    kac_labels,
    validate_kac_marking,
)
from kacvmrt.atlas import MAX_RANK
from kacvmrt.diagrams import Edge, classify
from kacvmrt.recognition import affine_candidates
from kacvmrt.roots import CartanType, highest_root
from root_oracles import affine_cartan_matrix, reference_node_zero_key, reference_shape


def _null_labels(a):
    """Oracle: the positive gcd-1 left null vector of a, by exact Gaussian
    elimination over the rationals."""
    n = len(a)
    # Solve x A = 0, i.e. A^T x = 0.
    m = [[Fraction(a[j][i]) for j in range(n)] for i in range(n)]
    piv_cols = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        piv_cols.append(col)
        row += 1
    free = [c for c in range(n) if c not in piv_cols]
    assert len(free) == 1, "affine Cartan matrix must have a 1-dimensional kernel"
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for r, c in enumerate(piv_cols):
        x[c] = -m[r][free[0]]
    denom = 1
    for v in x:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in x]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    if all(v < 0 for v in ints):
        ints = [-v for v in ints]
    assert all(v > 0 for v in ints), "null vector is not positive"
    return tuple(ints)


# Every affine shape up to base rank 12, untwisted and twisted: a superset
# of the shapes named in the tests below.
ALL_SHAPES = (
    [(CartanType(f, n), 1) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for n in range(lo, 13)]
    + [(CartanType("E", n), 1) for n in (6, 7, 8)]
    + [(CartanType("F", 4), 1), (CartanType("G", 2), 1)]
    + [(CartanType("A", n), 2) for n in range(2, 13)]
    + [(CartanType("D", n), 2) for n in range(3, 13)]
    + [(CartanType("E", 6), 2), (CartanType("D", 4), 3)]
)


@pytest.mark.parametrize("base,twist", ALL_SHAPES, ids=lambda x: str(x))
def test_closed_form_labels_match_elimination_oracle(base, twist):
    a = affine_diagram(base, twist)
    assert a.labels == _null_labels(affine_cartan_matrix(a))
    assert affine_node_count(base.family, base.rank, twist) == a.num_nodes


# Every affine shape of at most MAX_RANK + 1 nodes.
SHAPES_TO_MAX_RANK = (
    [(CartanType(f, n), 1) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for n in range(lo, MAX_RANK + 1)]
    + [(CartanType("E", n), 1) for n in (6, 7, 8)]
    + [(CartanType("F", 4), 1), (CartanType("G", 2), 1)]
    + [(CartanType("A", n), 2) for n in range(2, 2 * MAX_RANK + 2)]
    + [(CartanType("D", n), 2) for n in range(3, MAX_RANK + 2)]
    + [(CartanType("E", 6), 2), (CartanType("D", 4), 3)]
)


def test_construction_matches_reference_shapes():
    """Finite part plus node 0's bonds gives the nodes, edges and labels of
    the theta-pairing derivation (untwisted) and of the transcribed edge
    lists (twisted), on every shape to MAX_RANK."""
    assert len(SHAPES_TO_MAX_RANK) == 702
    for base, twist in SHAPES_TO_MAX_RANK:
        a = affine_diagram(base, twist)
        nodes, edges, labels, _ = reference_shape(base, twist)
        assert (a.nodes, frozenset(a.edges), a.labels) == (nodes, edges, labels), (base, twist)
        assert affine_node_count(base.family, base.rank, twist) == a.num_nodes


def test_node_zero_key_matches_reference():
    """Node 0's deletion key of every candidate type of 2 to MAX_RANK + 1
    nodes, None where there is no such type."""
    keys = {(base.family, base.rank, twist): key
            for r in range(1, MAX_RANK + 1) for base, twist, key in affine_candidates(r)}
    for r in range(1, MAX_RANK + 1):
        order = [(f, r, 1) for f in "ABCDEFG"] + [
            ("A", 2 * r, 2), ("A", 2 * r - 1, 2), ("D", r + 1, 2), ("E", 6, 2), ("D", 4, 3)]
        for f, n, twist in order:
            assert keys.get((f, n, twist)) == reference_node_zero_key(f, n, twist), (f, n, twist)


def _rebonded(a, old, new):
    """a with the edge old replaced by new, labels kept."""
    return AffineDiagram(a.base, a.twist, a.nodes, (set(a.edges) - {old}) | {new}, a.labels)


def test_null_check_rejects_wrong_node_zero_bond():
    e8 = affine_diagram(CartanType("E", 8), 1)
    assert Edge(0, 8) in e8.edges
    with pytest.raises(AssertionError, match="null vector"):
        kac_labels(_rebonded(e8, Edge(0, 8), Edge(0, 1)))
    b2 = affine_diagram(CartanType("B", 2), 1)  # o=>o<=o, node 2 short
    assert Edge(0, 2, 2, 2) in b2.edges
    with pytest.raises(AssertionError, match="null vector"):
        kac_labels(_rebonded(b2, Edge(0, 2, 2, 2), Edge(0, 2, 2, 0)))


def test_null_check_rejects_wrong_labels():
    a = affine_diagram(CartanType("C", 4), 1)  # labels (1, 2, 2, 2, 1)
    for bad in [(2, 4, 4, 4, 2), (1, 2, 2, 2, 2), (1, 2, 2, 2), (-1, -2, -2, -2, -1)]:
        with pytest.raises(AssertionError):
            kac_labels(AffineDiagram(a.base, a.twist, a.nodes, a.edges, bad))


def test_a1_untwisted():
    a = affine_diagram(CartanType("A", 1), 1)
    assert a.labels == (1, 1)
    (e,) = a.edges
    assert e.mult == 4 and e.short is None  # the (-2,-2) bond


def test_a2_twisted():
    a = affine_diagram(CartanType("A", 2), 2)
    (e,) = a.edges
    assert e.mult == 4 and e.short == 1
    # the label-1 node is the long (arrow-tail) end, label 2 the short end
    assert a.labels == (1, 2)


def test_e6_untwisted_labels():
    a = affine_diagram(CartanType("E", 6), 1)
    assert a.labels == (1, 1, 2, 2, 3, 2, 1)
    theta = highest_root(CartanType("E", 6))
    assert a.labels[1:] == theta.coeffs


@pytest.mark.parametrize("n", range(2, 9))
def test_untwisted_labels_extend_highest_root(n):
    for fam in "BCD":
        if fam == "D" and n < 3:
            continue
        t = CartanType(fam, n)
        a = affine_diagram(t, 1)
        assert a.labels[0] == 1
        assert a.labels[1:] == highest_root(t).coeffs


def test_cn_labels():
    assert affine_diagram(CartanType("C", 4), 1).labels == (1, 2, 2, 2, 1)


def test_twisted_label_tables():
    cases = [
        (("A", 4), 2, (1, 2, 2)),
        (("A", 6), 2, (1, 2, 2, 2)),
        (("A", 5), 2, (1, 1, 2, 1)),
        (("A", 7), 2, (1, 1, 2, 2, 1)),
        (("A", 3), 2, (1, 1, 1)),
        (("D", 5), 2, (1, 1, 1, 1, 1)),
        (("E", 6), 2, (1, 1, 2, 3, 2)),
        (("D", 4), 3, (1, 2, 1)),
    ]
    for (fam, r), tw, want in cases:
        assert affine_diagram(CartanType(fam, r), tw).labels == want


def test_labels_are_null_vector():
    for base, tw in [(CartanType("A", 8), 1), (CartanType("B", 6), 1),
                     (CartanType("A", 10), 2), (CartanType("D", 7), 2),
                     (CartanType("E", 8), 1), (CartanType("G", 2), 1),
                     (CartanType("D", 4), 3)]:
        a = affine_diagram(base, tw)
        m = affine_cartan_matrix(a)
        n = a.num_nodes
        for j in range(n):
            assert sum(a.labels[i] * m[i][j] for i in range(n)) == 0
        assert kac_labels(a) == a.labels


def test_untwisted_finite_part_is_base():
    for t in [CartanType("A", 5), CartanType("B", 4), CartanType("C", 5),
              CartanType("D", 6), CartanType("E", 7), CartanType("F", 4),
              CartanType("G", 2)]:
        a = affine_diagram(t, 1)
        ((got, _),) = classify(a.finite_part((0,)))
        assert got == t


def test_twisted_finite_parts():
    cases = [
        (("A", 8), 2, CartanType("B", 4)),
        (("A", 7), 2, CartanType("C", 4)),
        (("D", 6), 2, CartanType("B", 5)),
        (("E", 6), 2, CartanType("F", 4)),
        (("D", 4), 3, CartanType("G", 2)),
    ]
    for (fam, r), tw, want in cases:
        a = affine_diagram(CartanType(fam, r), tw)
        ((got, _),) = classify(a.finite_part((0,)))
        assert got == want


def test_inadmissible_twists_rejected():
    for base, tw in [(CartanType("B", 3), 2), (CartanType("C", 4), 2),
                     (CartanType("A", 2), 3), (CartanType("D", 5), 3),
                     (CartanType("F", 4), 2), (CartanType("A", 4), 5)]:
        with pytest.raises(ValueError, match="twisted"):
            affine_diagram(base, tw)


class TestMarkingRules:
    def test_group_rule(self):
        bn = affine_diagram(CartanType("B", 5), 1)
        assert validate_kac_marking(MarkedKacDiagram(bn, frozenset({0})), "group")
        assert validate_kac_marking(MarkedKacDiagram(bn, frozenset({1})), "group")
        # white on a label-2 node violates the rule
        assert not validate_kac_marking(MarkedKacDiagram(bn, frozenset({3})), "group")
        # two whites are Hermitian, not group
        assert not validate_kac_marking(MarkedKacDiagram(bn, frozenset({0, 1})), "group")

    def test_simple_rule_twist1(self):
        cn = affine_diagram(CartanType("C", 4), 1)
        assert validate_kac_marking(MarkedKacDiagram(cn, frozenset({2})), "simple")
        assert not validate_kac_marking(MarkedKacDiagram(cn, frozenset({0})), "simple")

    def test_simple_rule_twist2(self):
        a = affine_diagram(CartanType("A", 4), 2)
        assert validate_kac_marking(MarkedKacDiagram(a, frozenset({0})), "simple")
        assert not validate_kac_marking(MarkedKacDiagram(a, frozenset({1})), "simple")

    def test_hermitian_rule(self):
        cn = affine_diagram(CartanType("C", 4), 1)
        m = MarkedKacDiagram(cn, frozenset({0, 4}))
        assert validate_kac_marking(m, "hermitian-nonexceptional")
        assert validate_kac_marking(m, "hermitian")
        assert not validate_kac_marking(m, "group")
        bad = MarkedKacDiagram(cn, frozenset({0, 2}))
        assert not validate_kac_marking(bad, "hermitian-nonexceptional")

    def test_unknown_kind(self):
        a = affine_diagram(CartanType("A", 3), 1)
        with pytest.raises(ValueError):
            validate_kac_marking(MarkedKacDiagram(a, frozenset({0})), "weird")
