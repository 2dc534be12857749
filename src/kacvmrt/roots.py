"""Finite root systems in Bourbaki numbering.

Cartan matrices, positive-root enumeration by root strings and the
highest root.  Everything is exact integer arithmetic; all values are
immutable and all functions are pure, with enumeration results cached
per type.

Conventions, frozen once for the whole package:

* node numbering follows the Bourbaki plates (so e.g. the triple edge of
  G2 points at alpha_1, F4 has alpha_3 and alpha_4 short, and the E-series
  hangs node 2 off node 4);
* the Cartan matrix entry a[i][j] is <alpha_i, alpha_j^vee>, i.e. the
  column of a short root carries the -2/-3 entry.  Under this convention
  G2 -> [[2,-1],[-3,2]] and B3 has a_23 = -2.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter, ge, gt, le, lt
from typing import Iterable, Optional, Tuple

FAMILIES = "ABCDEFG"

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXACT_RANK = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in __slots__, in order, and sets them once,
    in its __init__, through _set.  As for a frozen dataclass, == holds
    only between instances of one class, the hash is that of the field
    tuple (which fixes the iteration order of every set of records), and
    fields cannot be assigned or deleted.  OrderedRecord adds ordering by
    the field tuple.  copy, deepcopy and pickle rebuild an instance through
    its __init__, so its checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        if names:
            get = attrgetter(*names)
            # _values(record) -> the field tuple; attrgetter binds no self.
            cls._values = get if len(names) > 1 else staticmethod(lambda r: (get(r),))
            # _set writes through the slot descriptors: __setattr__ refuses all.
            cls._setters = tuple([getattr(cls, name).__set__ for name in names])

    def _set(self, *values: object) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join([f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self))])
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self):
        return self.__class__, self._values(self)


def _compare(op):
    def method(self, other: object):
        if other.__class__ is self.__class__:
            return op(self._values(self), other._values(other))
        return NotImplemented

    return method


class OrderedRecord(Record):
    """A Record ordered by its field tuple, within one class."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = [_compare(op) for op in (lt, le, gt, ge)]


class CartanType(OrderedRecord):
    """A simple finite type, e.g. CartanType("B", 3)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        exact = _EXACT_RANK.get(family)
        if exact is not None:
            if rank not in exact:
                raise ValueError(f"{family}_{rank} is not a finite type")
        elif rank < _MIN_RANK[family]:
            raise ValueError(
                f"{family}_{rank} rejected (rank >= "
                f"{_MIN_RANK[family]} keeps canonical forms unique)"
            )
        self._set(family, rank)

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


def _cartan_from_bonds(n: int, bonds: Iterable[Tuple[int, int, int, Optional[int]]]
                       ) -> Tuple[Tuple[int, ...], ...]:
    """a[i][j] = <alpha_i, alpha_j^vee> on nodes 0..n-1 from bonds (i, j,
    mult, short end or None); an undirected quadruple bond gives (-2, -2)."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, mult, short in bonds:
        if short is None:
            a[i][j] = a[j][i] = -1 if mult == 1 else -2
        else:
            lng = i if short == j else j
            a[lng][short] = -mult
            a[short][lng] = -1
    return tuple([tuple(row) for row in a])


@lru_cache(maxsize=None)
def cartan_matrix(t: CartanType) -> Tuple[Tuple[int, ...], ...]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee>, 0-indexed."""
    return _cartan_from_bonds(t.rank, [(i - 1, j - 1, mult, None if short is None else short - 1)
                                       for i, j, mult, short in simple_edges(t)])


class Root(OrderedRecord):
    """A root as its integer coefficient vector over the simple roots."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[int, ...]) -> None:
        signs = {c > 0 for c in coeffs if c != 0}
        if len(signs) != 1:
            raise ValueError(f"mixed-sign coefficient vector {coeffs}")
        self._set(coeffs)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple([-c for c in self.coeffs]))

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
    simples = [tuple([1 if j == i else 0 for j in range(n)]) for i in range(n)]
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
    return tuple([Root(c) for c in ordered])


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

