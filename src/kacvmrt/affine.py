"""Affine Dynkin diagrams with Kac labels, twisted and untwisted.

Every diagram is built one way: the Bourbaki diagram of its finite part
on nodes 1..l, plus node 0's bonds as Kac's Tables Aff 1-3 draw them
(Kac, Infinite-Dimensional Lie Algebras, Ch. 4).  The labels are
(1, theta) for untwisted types and transcribed from Tables Aff 2/3 for
twisted ones.  Neither is trusted blind: construction checks, bond by
bond, that the labels are a positive gcd-1 null vector of the affine
Cartan matrix.  The finite part is of finite type by construction, so its
Cartan block is nonsingular and the labels are the unique such vector.

Node numbering: the finite subdiagram obtained by deleting node 0 keeps
its Bourbaki indices.  For untwisted X_l^(1) node 0 is -theta; for twisted
diagrams node 0 is the extension node of the fixed subalgebra, so deleting
it leaves B_l (A_2l^(2)), C_l (A_{2l-1}^(2)), B_l (D_{l+1}^(2)), F_4
(E_6^(2)) or G_2 (D_4^(3)).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Tuple

from .diagrams import DynkinDiagram, Edge, _edge_tuple, standard_diagram
from .roots import CartanType, Record, highest_root

# The largest rank the package handles: the atlas lists, and the reader
# accepts, affine diagrams of at most MAX_RANK + 1 nodes.
MAX_RANK = 100

# A bond of node 0: (Bourbaki index of the node it meets, multiplicity,
# short end: 0, that index, or None for a bond without an arrow).
Bond = Tuple[int, int, Optional[int]]


class AffineDiagram(Record):
    """The affine diagram base^(twist) on nodes 0..l with Kac labels
    (labels indexed by node id)."""

    __slots__ = ("base", "twist", "nodes", "edges", "labels")

    def __init__(self, base: CartanType, twist: int, nodes: Tuple[int, ...],
                 edges: Iterable[Edge], labels: Tuple[int, ...]) -> None:
        self._set(base, twist, nodes, _edge_tuple(edges), labels)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # Nodes and edges as in a DynkinDiagram, so its graph methods serve.
    neighbors = DynkinDiagram.neighbors
    edge_between = DynkinDiagram.edge_between
    adjacency = DynkinDiagram.adjacency

    def label(self, v: int) -> int:
        return self.labels[v]

    def finite_part(self, drop: Tuple[int, ...]) -> DynkinDiagram:
        drop_set = set(drop)
        return DynkinDiagram.restrict(self, [v for v in self.nodes if v not in drop_set])


def _pairing(e: Edge, j: int) -> int:
    """<alpha_i, alpha_j^vee> across the bond e from its other end i to j."""
    if e.short is None:
        return -1 if e.mult == 1 else -2  # -2: the undirected A_1^(1) bond
    return -e.mult if e.short == j else -1


def _check_null_labels(a: AffineDiagram) -> None:
    """Assert that the labels are positive, coprime and a left null vector
    of the affine Cartan matrix, summing labels . A column by column over
    each node's bonds."""
    labels = a.labels
    if len(a.nodes) != len(labels) or any(x <= 0 for x in labels):
        raise AssertionError("Kac labels must be one positive integer per node")
    g = 0
    for x in labels:
        g = gcd(g, x)
    if g != 1:
        raise AssertionError("Kac labels must have gcd 1")
    column = [2 * x for x in labels]  # the diagonal <alpha_j, alpha_j^vee> = 2
    for e in a.edges:
        column[e.b] += labels[e.a] * _pairing(e, e.b)
        column[e.a] += labels[e.b] * _pairing(e, e.a)
    if any(column):
        raise AssertionError("Kac labels are not a null vector")


# The one simple root theta meets, by a single bond, where that is not
# alpha_2 as in B_l (l >= 3), D_l (l >= 4), E_6 and G_2.
_THETA_NODE = {"E7": 1, "E8": 8, "F4": 1}


def _kac_shape(base: CartanType, twist: int) -> Tuple[CartanType, Tuple[Bond, ...], Tuple[int, ...]]:
    """base^(twist) as Kac's Tables Aff 1-3 draw it: the type of the finite
    part on nodes 1..l, node 0's bonds, and the labels by node id."""
    f, n = base.family, base.rank
    if twist == 1:
        # Table Aff 1: node 0 is -theta, a long root bonded as theta is.
        if f == "A":
            bonds: Tuple[Bond, ...] = ((1, 4, None),) if n == 1 else ((1, 1, None), (n, 1, None))
        elif f == "C":
            bonds = ((1, 2, 1),)
        elif (f, n) == ("B", 2):
            bonds = ((2, 2, 2),)
        elif (f, n) == ("D", 3):
            bonds = ((2, 1, None), (3, 1, None))
        else:
            bonds = ((_THETA_NODE.get(str(base), 2), 1, None),)
        return base, bonds, (1,) + highest_root(base).coeffs
    if twist == 3 and (f, n) == ("D", 4):
        return CartanType("G", 2), ((1, 1, None),), (1, 2, 1)
    if twist == 2 and f in "ADE":
        if (f, n) == ("E", 6):
            return CartanType("F", 4), ((4, 1, None),), (1, 1, 2, 3, 2)
        if (f, n) == ("A", 2):
            return CartanType("A", 1), ((1, 4, 1),), (1, 2)
        l = affine_node_count(f, n, twist) - 1
        if f == "A" and n >= 4 and n % 2 == 0:  # A_2l^(2)
            return CartanType("B", l), ((1, 2, 1),), (1,) + (2,) * l
        if f == "A" and n >= 5:  # A_{2l-1}^(2)
            return CartanType("C", l), ((2, 1, None),), (1, 1) + (2,) * (l - 2) + (1,)
        if f == "D" or (f, n) == ("A", 3):  # D_{l+1}^(2), and A_3^(2) = D_3^(2)
            return CartanType("B", l), ((1, 2, 0),), (1,) * (l + 1)
    raise ValueError("no such twisted type")


def affine_node_count(family: str, rank: int, twist: int) -> int:
    """Node count of family_rank^(twist) without building it: one more than
    the rank l of the finite part, which only this states for twisted types."""
    if twist == 1:
        return rank + 1
    if twist == 3:
        return 3  # D_4^(3), finite part G_2
    return {"A": (rank + 1) // 2, "D": rank - 1, "E": 4}[family] + 1


@lru_cache(maxsize=None)
def affine_diagram(base: CartanType, twist: int = 1) -> AffineDiagram:
    """Construct base^(twist) from its Kac shape, checking its labels."""
    finite, bonds, labels = _kac_shape(base, twist)
    edges = standard_diagram(finite).edges + tuple([Edge(0, i, mult, short) for i, mult, short in bonds])
    diag = AffineDiagram(base, twist, tuple(range(finite.rank + 1)), edges, labels)
    _check_null_labels(diag)
    return diag


def kac_labels(a: AffineDiagram) -> Tuple[int, ...]:
    """The stored labels, re-checked as the positive gcd-1 null vector."""
    _check_null_labels(a)
    return a.labels


class MarkedKacDiagram(Record):
    """An affine diagram with a black/white colouring: white nodes are the
    lowest weights of the isotropy representation, black nodes the simple
    roots of the symmetric subgroup."""

    __slots__ = ("diagram", "white")

    def __init__(self, diagram: AffineDiagram, white: Iterable[int] = frozenset()) -> None:
        white = frozenset(white)
        if not white:
            raise ValueError("at least one white node")
        if not white <= set(diagram.nodes):
            raise ValueError("white nodes must lie in the diagram")
        self._set(diagram, white)


KINDS = ("group", "simple", "hermitian-exceptional", "hermitian-nonexceptional")


def validate_kac_marking(m: MarkedKacDiagram, kind: str) -> bool:
    """The white-node rule per space kind.

    group: twist 1, one white node of label 1.  simple: one white node,
    label 2 on a twist-1 diagram or label 1 on a twist-2 diagram.
    hermitian (either flavour): twist 1, two white nodes, both label 1.
    """
    if kind not in KINDS and kind != "hermitian":
        raise ValueError(f"unknown kind {kind!r}")
    d = m.diagram
    whites = sorted(m.white)
    if kind == "group":
        return d.twist == 1 and len(whites) == 1 and d.label(whites[0]) == 1
    if kind == "simple":
        if len(whites) != 1:
            return False
        lbl = d.label(whites[0])
        if d.twist == 1:
            return lbl == 2
        return d.twist == 2 and lbl == 1
    return (
        d.twist == 1
        and len(whites) == 2
        and all(d.label(w) == 1 for w in whites)
    )
