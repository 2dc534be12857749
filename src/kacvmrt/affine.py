"""Affine Dynkin diagrams with Kac labels, twisted and untwisted.

Untwisted diagrams and their labels (1, theta) are built from the highest
root; twisted shapes and labels are transcribed from the classical tables.
Neither is trusted blind: construction asserts that the labels are a
positive gcd-1 null vector of the affine Cartan matrix and that deleting
the affine node leaves the expected finite type, which together make them
the unique such vector.

Node numbering: the finite subdiagram obtained by deleting node 0 keeps
its Bourbaki indices.  For untwisted X_l^(1) node 0 is -theta; for twisted
diagrams node 0 is the extension node of the fixed subalgebra, so deleting
it leaves B_l (A_2l^(2)), C_l (A_{2l-1}^(2)), B_l (D_{l+1}^(2)), F_4
(E_6^(2)) or G_2 (D_4^(3)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import FrozenSet, List, Optional, Tuple

from .diagrams import DynkinDiagram, Edge, classify, standard_diagram
from .roots import CartanType, cartan_matrix, highest_root, simple_norms


@dataclass(frozen=True)
class AffineDiagram:
    """The affine diagram base^(twist) on nodes 0..l with Kac labels."""

    base: CartanType
    twist: int
    nodes: Tuple[int, ...]
    edges: FrozenSet[Edge]
    labels: Tuple[int, ...]  # indexed by node id

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(sorted(e.other(v) for e in self.edges if v in (e.a, e.b)))

    def edge_between(self, u: int, v: int) -> Optional[Edge]:
        for e in self.edges:
            if {e.a, e.b} == {u, v}:
                return e
        return None

    def label(self, v: int) -> int:
        return self.labels[v]

    def finite_part(self, drop: Tuple[int, ...] = (0,)) -> DynkinDiagram:
        keep = [v for v in self.nodes if v not in set(drop)]
        return DynkinDiagram(
            tuple(keep),
            frozenset(e for e in self.edges if e.a not in set(drop) and e.b not in set(drop)),
        )

    def cartan_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """Affine Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> by node id."""
        n = self.num_nodes
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for e in self.edges:
            if e.mult == 1:
                a[e.a][e.b] = a[e.b][e.a] = -1
            elif e.short is None:  # the (-2,-2) bond of A_1^(1)
                a[e.a][e.b] = a[e.b][e.a] = -2
            else:
                lng = e.other(e.short)
                a[lng][e.short] = -e.mult
                a[e.short][lng] = -1
        return tuple(tuple(row) for row in a)


def _check_null_labels(a: AffineDiagram) -> None:
    """Assert that the labels are positive, coprime and a left null vector.

    The finite part is of finite type (asserted separately), so its Cartan
    block is nonsingular and the kernel is at most one-dimensional: these
    checks then prove the labels are *the* Kac labels.
    """
    labels, m = a.labels, a.cartan_matrix()
    n = len(labels)
    if len(a.nodes) != n or any(x <= 0 for x in labels):
        raise AssertionError("Kac labels must be one positive integer per node")
    g = 0
    for x in labels:
        g = gcd(g, x)
    if g != 1:
        raise AssertionError("Kac labels must have gcd 1")
    for j in range(n):
        if sum(labels[i] * m[i][j] for i in range(n)) != 0:
            raise AssertionError("Kac labels are not a null vector")


def _untwisted_edges(base: CartanType) -> List[Edge]:
    n = base.rank
    edges = [e for e in standard_diagram(base).edges]
    theta = highest_root(base)
    a = cartan_matrix(base)
    norms = simple_norms(base)
    theta_norm = max(norms)  # theta is long
    for i in range(1, n + 1):
        p = sum(theta.coeffs[j] * a[j][i - 1] for j in range(n))  # <theta, alpha_i^vee>
        if p == 0:
            continue
        # <alpha_i, theta^vee> = 2(alpha_i, theta)/|theta|^2
        gram_col = sum(theta.coeffs[j] * (a[j][i - 1] * norms[i - 1]) // 2 for j in range(n))
        q = 2 * gram_col // theta_norm
        mult = p * q
        if mult == 1:
            edges.append(Edge(0, i, 1, None))
        elif mult == 4:  # A_1^(1): both pairings -2, no direction
            edges.append(Edge(0, i, 4, None))
        else:
            edges.append(Edge(0, i, mult, i))  # alpha_i short, -theta long
    return edges


def _twisted_shape(
    base: CartanType, twist: int
) -> Tuple[List[int], List[Edge], Tuple[int, ...], CartanType]:
    """Transcribed twisted shapes (Kac, Tables Aff 2/3); returns (nodes,
    edges, labels, fixed subtype)."""
    f, n = base.family, base.rank
    if twist == 3:
        if (f, n) != ("D", 4):
            raise ValueError("no such twisted type")
        return [0, 1, 2], [Edge(0, 1, 1), Edge(1, 2, 3, 1)], (1, 2, 1), CartanType("G", 2)
    if twist != 2:
        raise ValueError("no such twisted type")
    if f == "A" and n == 2:
        return [0, 1], [Edge(0, 1, 4, 1)], (1, 2), CartanType("A", 1)
    if f == "A" and n == 3:
        # A_3^(2) = D_3^(2): chain with outward arrows, fixed type C_2.
        return [0, 1, 2], [Edge(0, 1, 2, 0), Edge(1, 2, 2, 2)], (1, 1, 1), CartanType("B", 2)
    if f == "A" and n >= 4 and n % 2 == 0:
        l = n // 2
        edges = [Edge(0, 1, 2, 1)]
        edges += [Edge(i, i + 1, 1) for i in range(1, l - 1)]
        edges.append(Edge(l - 1, l, 2, l))
        return list(range(l + 1)), edges, (1,) + (2,) * l, CartanType("B", l)
    if f == "A" and n >= 5 and n % 2 == 1:
        l = (n + 1) // 2
        edges = [Edge(0, 2, 1), Edge(1, 2, 1)]
        edges += [Edge(i, i + 1, 1) for i in range(2, l - 1)]
        edges.append(Edge(l - 1, l, 2, l - 1))
        return list(range(l + 1)), edges, (1, 1) + (2,) * (l - 2) + (1,), CartanType("C", l)
    if f == "D" and n >= 3:
        l = n - 1
        edges = [Edge(0, 1, 2, 0)]
        edges += [Edge(i, i + 1, 1) for i in range(1, l - 1)]
        edges.append(Edge(l - 1, l, 2, l))
        return list(range(l + 1)), edges, (1,) * (l + 1), CartanType("B", l)
    if f == "E" and n == 6:
        edges = [Edge(1, 2, 1), Edge(2, 3, 2, 3), Edge(3, 4, 1), Edge(0, 4, 1)]
        return [0, 1, 2, 3, 4], edges, (1, 1, 2, 3, 2), CartanType("F", 4)
    raise ValueError("no such twisted type")


def affine_node_count(family: str, rank: int, twist: int) -> int:
    """Node count of family_rank^(twist) without building it: one more than
    the rank of the finite part left by deleting node 0."""
    if twist == 1:
        return rank + 1
    if twist == 3:
        return 3  # D_4^(3), finite part G_2
    return {"A": (rank + 1) // 2, "D": rank - 1, "E": 4}[family] + 1


@lru_cache(maxsize=None)
def affine_diagram(base: CartanType, twist: int = 1) -> AffineDiagram:
    """Construct base^(twist), validating labels and the finite part."""
    if twist == 1:
        nodes = list(range(base.rank + 1))
        edges = _untwisted_edges(base)
        labels = (1,) + highest_root(base).coeffs
        expected_finite = base
    else:
        nodes, edges, labels, expected_finite = _twisted_shape(base, twist)
    diag = AffineDiagram(base, twist, tuple(nodes), frozenset(edges), labels)
    _check_null_labels(diag)
    comps = classify(diag.finite_part())
    if twist == 1:
        # classify emits the canonical member of a coincidence (C_2 -> B_2,
        # D_3 -> A_3), so compare up to those identifications.
        canonical = {("C", 2): CartanType("B", 2), ("D", 3): CartanType("A", 3)}
        want = canonical.get((base.family, base.rank), base)
        if len(comps) != 1 or comps[0][0] != want:
            raise AssertionError("deleting node 0 must recover the base type")
    else:
        if len(comps) != 1 or comps[0][0] != expected_finite:
            raise AssertionError("twisted finite part has the wrong type")
    return diag


def kac_labels(a: AffineDiagram) -> Tuple[int, ...]:
    """The stored labels, re-checked as the positive gcd-1 null vector."""
    _check_null_labels(a)
    return a.labels


@dataclass(frozen=True)
class MarkedKacDiagram:
    """An affine diagram with a black/white colouring: white nodes are the
    lowest weights of the isotropy representation, black nodes the simple
    roots of the symmetric subgroup."""

    diagram: AffineDiagram
    white: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "white", frozenset(self.white))
        if not self.white:
            raise ValueError("at least one white node")
        if not self.white <= set(self.diagram.nodes):
            raise ValueError("white nodes must lie in the diagram")

    def color(self, v: int) -> str:
        return "white" if v in self.white else "black"


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
