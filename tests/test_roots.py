"""Root-system engine tests.

The classical families are checked against an independent oracle: the
explicit e_i-basis root lists converted to simple-root coordinates by
hand, not by the package's root-string closure.
"""

import copy
import dataclasses
import pickle

import pytest

from kacvmrt.affine import affine_diagram
from kacvmrt.atlas import RestrictedType, lookup
from kacvmrt.diagrams import DynkinDiagram, Edge, MarkedDynkinDiagram
from kacvmrt.engine import vmrt
from kacvmrt.roots import (
    CartanType,
    Root,
    cartan_matrix,
    highest_root,
    positive_roots,
)
from root_oracles import highest_short_root, is_positive, minus_w0


def classical_positive_roots(family, n):
    """Positive roots in simple-root coordinates, from the e_i-basis lists."""
    roots = set()

    def vec(pairs):
        v = [0] * n
        for idx, c in pairs:
            v[idx - 1] += c
        return tuple(v)

    def interval(i, j, c=1):  # c * (alpha_i + ... + alpha_{j-1})
        return [(k, c) for k in range(i, j)]

    if family == "A":
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                roots.add(vec(interval(i, j)))  # e_i - e_j
    elif family == "B":
        for i in range(1, n + 1):
            roots.add(vec(interval(i, n + 1)))  # e_i
            for j in range(i + 1, n + 1):
                roots.add(vec(interval(i, j)))  # e_i - e_j
                roots.add(vec(interval(i, j) + interval(j, n + 1, 2)))  # e_i + e_j
    elif family == "C":
        for i in range(1, n + 1):
            roots.add(vec(interval(i, n, 2) + [(n, 1)]))  # 2 e_i
            for j in range(i + 1, n + 1):
                roots.add(vec(interval(i, j)))  # e_i - e_j
                roots.add(vec(interval(i, j) + interval(j, n, 2) + [(n, 1)]))  # e_i + e_j
    elif family == "D":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.add(vec(interval(i, j)))  # e_i - e_j
                if j < n:
                    roots.add(vec(interval(i, j) + interval(j, n - 1, 2) + [(n - 1, 1), (n, 1)]))
                else:
                    roots.add(vec(interval(i, n - 1) + [(n, 1)]))  # e_i + e_n
    else:
        raise ValueError(family)
    return roots


def test_cartan_matrix_small_cases():
    assert cartan_matrix(CartanType("A", 1)) == ((2,),)
    assert cartan_matrix(CartanType("G", 2)) == ((2, -1), (-3, 2))
    b3 = cartan_matrix(CartanType("B", 3))
    assert b3[1][2] == -2 and b3[2][1] == -1  # a_23 = -2, alpha_3 short


def test_cartan_matrix_shape_constraints():
    for t in [CartanType("F", 4), CartanType("E", 7), CartanType("C", 5)]:
        a = cartan_matrix(t)
        for i in range(t.rank):
            assert a[i][i] == 2
            for j in range(t.rank):
                if i != j:
                    assert a[i][j] in (0, -1, -2, -3)
                    assert a[i][j] * a[j][i] in (0, 1, 2, 3)


@pytest.mark.parametrize("family", "ABCD")
@pytest.mark.parametrize("n", range(1, 9))
def test_positive_roots_match_classical_oracle(family, n):
    if n < {"A": 1, "B": 2, "C": 2, "D": 3}[family]:
        pytest.skip("below minimal rank")
    t = CartanType(family, n)
    got = {r.coeffs for r in positive_roots(t)}
    assert got == classical_positive_roots(family, n)


@pytest.mark.parametrize("family,ranks", [
    ("A", range(1, 13)), ("B", range(2, 13)), ("C", range(2, 13)),
    ("D", range(3, 13)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)),
])
def test_dimension_identity(family, ranks):
    for n in ranks:
        t = CartanType(family, n)
        assert 2 * len(positive_roots(t)) + n == t.algebra_dimension


def test_small_counts():
    assert len(positive_roots(CartanType("A", 2))) == 3
    assert len(positive_roots(CartanType("G", 2))) == 6
    assert len(positive_roots(CartanType("E", 8))) == 120


def test_highest_roots():
    assert highest_root(CartanType("A", 4)).coeffs == (1, 1, 1, 1)
    assert highest_root(CartanType("C", 3)).coeffs == (2, 2, 1)
    assert highest_short_root(CartanType("C", 3)).coeffs == (1, 2, 1)
    assert highest_root(CartanType("F", 4)).coeffs == (2, 3, 4, 2)
    assert highest_root(CartanType("G", 2)).coeffs == (3, 2)
    assert highest_short_root(CartanType("G", 2)).coeffs == (2, 1)
    # simply laced: both agree
    for t in [CartanType("A", 5), CartanType("D", 5), CartanType("E", 6)]:
        assert highest_root(t) == highest_short_root(t)


@pytest.mark.parametrize("t", [
    CartanType(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 13)
] + [CartanType("E", n) for n in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)], ids=str)
def test_highest_root_closed_form_matches_enumeration(t):
    assert highest_root(t) == positive_roots(t)[-1]


def test_root_ordering_deterministic():
    t = CartanType("D", 5)
    rts = positive_roots(t)
    keys = [(r.height, r.coeffs) for r in rts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_root_sign_invariant():
    with pytest.raises(ValueError):
        Root((1, -1))
    assert is_positive(Root((0, 2, 1)))
    assert not is_positive(-Root((0, 2, 1)))


def test_rank_bounds():
    for family, bad in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("F", 3), ("G", 1)]:
        with pytest.raises(ValueError):
            CartanType(family, bad)
    CartanType("D", 3)  # permitted; classifies as A_3


def brute_minus_w0(t):
    """Oracle: walk 2*rho to the antidominant chamber, read off w0."""
    a = cartan_matrix(t)
    n = t.rank
    two_rho = [0] * n
    for r in positive_roots(t):
        for i in range(n):
            two_rho[i] += r.coeffs[i]

    def pair(v, i):
        return sum(v[j] * a[j][i] for j in range(n))

    def refl(v, i):
        p = pair(v, i)
        w = list(v)
        w[i] -= p
        return w

    v, word = list(two_rho), []
    while True:
        i = next((i for i in range(n) if pair(v, i) > 0), None)
        if i is None:
            break
        word.append(i)
        v = refl(v, i)
    out = {}
    for j in range(n):
        img = [0] * n
        img[j] = 1
        for i in word:
            img = refl(img, i)
        neg = [-c for c in img]
        k = next(k for k in range(n) if neg == [1 if x == k else 0 for x in range(n)])
        out[j + 1] = k + 1
    return out


@pytest.mark.parametrize("family,ranks", [
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
    ("D", range(3, 9)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)),
])
def test_minus_w0_against_weyl_oracle(family, ranks):
    for n in ranks:
        t = CartanType(family, n)
        assert minus_w0(t) == brute_minus_w0(t)


def test_minus_w0_is_involution_and_automorphism():
    from kacvmrt.roots import simple_edges

    for t in [CartanType("A", 6), CartanType("D", 7), CartanType("E", 6), CartanType("B", 4)]:
        perm = minus_w0(t)
        assert all(perm[perm[i]] == i for i in perm)
        edges = {(a, b, m, s) for a, b, m, s in simple_edges(t)}
        mapped = set()
        for a, b, m, s in edges:
            x, y = perm[a], perm[b]
            mapped.add((min(x, y), max(x, y), m, None if s is None else perm[s]))
        assert mapped == edges


def _records():
    """One instance of each value type, and whether the type is ordered."""
    from kacvmrt.verify import GOLDEN, CheckResult

    e = lookup("herm-CI", {"n": 3})
    v = vmrt(e)  # its component is sigma-paired
    d = DynkinDiagram((1, 2, 3), {Edge(1, 2), Edge(2, 3, 2, 3)})
    return [
        (CartanType("A", 3), True),
        (RestrictedType("A", 3), True),  # CartanType's fields and values
        (Root((1, 1, 0)), True),
        (Edge(1, 2, 2, 1), True),
        (d, False),
        (MarkedDynkinDiagram(d, {1, 3}, ((3, 2),)), False),
        (affine_diagram(CartanType("G", 2)), False),
        (e.kac_diagram(), False),
        (e, False),
        (v, False),
        (v.components[0], False),
        (CheckResult("golden", "a row", "WARN", "why"), False),
        (GOLDEN[0], False),  # its params are a dict, so it has no hash
    ]


_RECORDS = _records()


@pytest.mark.parametrize("r, ordered", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_behave_as_frozen_dataclasses(r, ordered):
    cls = type(r)
    values = tuple([getattr(r, name) for name in cls.__slots__])
    twin = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True, order=ordered)
    assert repr(r) == repr(twin(*values))
    assert repr(Edge(1, 2, 2, 1)) == "Edge(a=1, b=2, mult=2, short=1)"
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected
    # == holds only within one class.
    assert r == cls(*values) and not r != cls(*values)
    assert r.__eq__(values) is NotImplemented and r != values
    assert all(r != other for other, _ in _RECORDS if type(other) is not cls)
    assert CartanType("A", 3) != RestrictedType("A", 3)
    if ordered:
        assert r <= cls(*values) and r >= cls(*values) and not r < cls(*values)
    else:
        with pytest.raises(TypeError):
            r < r  # noqa: B015
    with pytest.raises(TypeError):
        CartanType("A", 3) < RestrictedType("A", 3)  # noqa: B015
    for name, value in zip(cls.__slots__, values):
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert getattr(r, cls.__slots__[0]) is values[0]
    for again in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(again) is cls and again == r
