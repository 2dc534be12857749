"""Finite root systems in Bourbaki numbering.

Cartan matrices, positive-root enumeration by root strings, highest and
highest-short roots, and the -w0 diagram automorphism.  Everything is
exact integer arithmetic; all values are immutable and all functions are
pure, with enumeration results cached per type.

Conventions, frozen once for the whole package:

* node numbering follows the Bourbaki plates (so e.g. the triple edge of
  G2 points at alpha_1, F4 has alpha_3 and alpha_4 short, and the E-series
  hangs node 2 off node 4);
* the Cartan matrix entry a[i][j] is <alpha_i, alpha_j^vee>, i.e. the
  column of a short root carries the -2/-3 entry.  Under this convention
  G2 -> [[2,-1],[-3,2]] and B3 has a_23 = -2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

FAMILIES = "ABCDEFG"

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXACT_RANK = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


@dataclass(frozen=True, order=True)
class CartanType:
    """A simple finite type, e.g. CartanType("B", 3)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        exact = _EXACT_RANK.get(self.family)
        if exact is not None:
            if self.rank not in exact:
                raise ValueError(f"{self.family}_{self.rank} is not a finite type")
        elif self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"{self.family}_{self.rank} rejected (rank >= "
                f"{_MIN_RANK[self.family]} keeps canonical forms unique)"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def algebra_dimension(self) -> int:
        """Dimension of the simple Lie algebra of this type."""
        n = self.rank
        if self.family == "A":
            return n * (n + 2)
        if self.family in ("B", "C"):
            return n * (2 * n + 1)
        if self.family == "D":
            return n * (2 * n - 1)
        if self.family == "E":
            return {6: 78, 7: 133, 8: 248}[n]
        if self.family == "F":
            return 52
        return 14  # G2

    @property
    def num_positive_roots(self) -> int:
        return (self.algebra_dimension - self.rank) // 2


# An edge is (a, b, mult, short) with a < b; `short` names the endpoint
# carrying the shorter root, None for multiplicity 1 (and for the
# undirected quadruple bond of untwisted affine A1, which never occurs in
# a finite diagram).
SimpleEdge = Tuple[int, int, int, Optional[int]]


def simple_edges(t: CartanType) -> Tuple[SimpleEdge, ...]:
    """Edges of the Dynkin diagram of t on nodes 1..rank (Bourbaki)."""
    n, f = t.rank, t.family
    chain = [(i, i + 1, 1, None) for i in range(1, n)]
    if f == "A":
        return tuple(chain)
    if f == "B":
        return tuple(chain[:-1] + [(n - 1, n, 2, n)])
    if f == "C":
        return tuple(chain[:-1] + [(n - 1, n, 2, n - 1)])
    if f == "D":
        base = [(i, i + 1, 1, None) for i in range(1, n - 2)]
        return tuple(base + [(n - 2, n - 1, 1, None), (n - 2, n, 1, None)])
    if f == "E":
        spine = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        edges = [(min(a, b), max(a, b), 1, None) for a, b in zip(spine, spine[1:])]
        return tuple(edges + [(2, 4, 1, None)])
    if f == "F":
        return ((1, 2, 1, None), (2, 3, 2, 3), (3, 4, 1, None))
    return ((1, 2, 3, 1),)  # G2: alpha_1 short


def simple_norms(t: CartanType) -> Tuple[int, ...]:
    """Squared lengths |alpha_i|^2, normalised so short roots have norm 2."""
    n, f = t.rank, t.family
    if f == "B":
        return tuple([4] * (n - 1) + [2])
    if f == "C":
        return tuple([2] * (n - 1) + [4])
    if f == "F":
        return (4, 4, 2, 2)
    if f == "G":
        return (2, 6)
    return tuple([2] * n)


@lru_cache(maxsize=None)
def cartan_matrix(t: CartanType) -> Tuple[Tuple[int, ...], ...]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee>, 0-indexed."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, mult, short in simple_edges(t):
        if mult == 1:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        else:
            lng = i if short == j else j
            a[lng - 1][short - 1] = -mult
            a[short - 1][lng - 1] = -1
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True, order=True)
class Root:
    """A root as its integer coefficient vector over the simple roots."""

    coeffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        signs = {c > 0 for c in self.coeffs if c != 0}
        if len(signs) != 1:
            raise ValueError(f"mixed-sign coefficient vector {self.coeffs}")

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    def support(self) -> Tuple[int, ...]:
        """1-based indices of the nonzero coefficients."""
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c != 0)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    def coefficient(self, node: int) -> int:
        """Coefficient at the 1-based simple root index `node`."""
        return self.coeffs[node - 1]


def _pairing(coeffs: Tuple[int, ...], i: int, a: Tuple[Tuple[int, ...], ...]) -> int:
    """<beta, alpha_i^vee> for beta with the given coefficients (i 0-based)."""
    return sum(c * a[j][i] for j, c in enumerate(coeffs) if c)


@lru_cache(maxsize=None)
def positive_roots(t: CartanType) -> Tuple[Root, ...]:
    """All positive roots, by root-string closure from the Cartan matrix.

    Deterministic order: graded lexicographic (height, then coefficients).
    """
    n = t.rank
    a = cartan_matrix(t)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                # q = p - <beta, alpha_i^vee> with p the depth of the
                # alpha_i-string below beta; beta + alpha_i is a root iff q >= 1.
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in found:
                        break
                    p += 1
                if p - _pairing(beta, i, a) >= 1:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in found:
                        found.add(cand)
                        nxt.append(cand)
        frontier = nxt
    ordered = sorted(found, key=lambda c: (sum(c), c))
    return tuple(Root(c) for c in ordered)


@lru_cache(maxsize=None)
def _gram(t: CartanType) -> Tuple[Tuple[int, ...], ...]:
    norms = simple_norms(t)
    a = cartan_matrix(t)
    n = t.rank
    # (alpha_i, alpha_j) = a[i][j] * |alpha_j|^2 / 2, an integer throughout.
    g = [[(a[i][j] * norms[j]) // 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] = norms[i]
    return tuple(tuple(row) for row in g)


def root_norm(t: CartanType, r: Root) -> int:
    """Squared length of r in the normalisation of simple_norms."""
    g = _gram(t)
    c = r.coeffs
    return sum(c[i] * c[j] * g[i][j] for i in range(t.rank) for j in range(t.rank) if c[i] and c[j])


_EXCEPTIONAL_HIGHEST = {
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}


def highest_root(t: CartanType) -> Root:
    """The unique maximal root, from the Bourbaki plates (no enumeration)."""
    n, f = t.rank, t.family
    if f == "A":
        return Root((1,) * n)
    if f == "B":
        return Root((1,) + (2,) * (n - 1))
    if f == "C":
        return Root((2,) * (n - 1) + (1,))
    if f == "D":
        return Root((1,) + (2,) * (n - 3) + (1, 1))
    return Root(_EXCEPTIONAL_HIGHEST[(f, n)])


def highest_short_root(t: CartanType) -> Root:
    """The maximal short root; equals highest_root for simply-laced types."""
    short = min(simple_norms(t))
    cands = [r for r in positive_roots(t) if root_norm(t, r) == short]
    return cands[-1]


def minus_w0(t: CartanType) -> Dict[int, int]:
    """The diagram automorphism induced by -w0, as a node bijection.

    Identity except A_n (reversal), D_odd (fork-tip swap) and E6.
    """
    n = t.rank
    if t.family == "A":
        return {i: n + 1 - i for i in range(1, n + 1)}
    if t.family == "D" and n % 2 == 1:
        perm = {i: i for i in range(1, n + 1)}
        perm[n - 1], perm[n] = n, n - 1
        return perm
    if t.family == "E" and n == 6:
        return {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
    return {i: i for i in range(1, n + 1)}
