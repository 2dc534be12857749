"""From marked Kac diagrams to marked Dynkin diagrams of the VMRT.

This is the heart of the package: the four-step diagram procedure (cross
the neighbours of a white node, record bond degrees, delete whites, pair
the halves for non-exceptional Hermitian spaces), the dimension bookkeeping
dim C = dim Z + (boundary degree) - 1, the restricted-type-A branch with
its ambient pair (G, P_lambda), diagram folding, and the naming of the
resulting rational homogeneous spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .affine import MarkedKacDiagram, validate_kac_marking
from .atlas import SymmetricSpaceEntry
from .diagrams import (
    DynkinDiagram,
    Edge,
    MarkedDynkinDiagram,
    classify,
    find_marked_isomorphism,
    graded_dimensions,
    marked,
    parabolic_dimension,
    standard_diagram,
    standard_marked,
)
from .roots import CartanType


def _single_orbit_half(m: MarkedKacDiagram, w: int) -> MarkedDynkinDiagram:
    """Steps (a)-(b) for one chosen white node."""
    d = m.diagram
    around = d.adjacency()[w]
    crossed = [v for v in sorted(around) if v not in m.white]
    ann: Dict[int, int] = {}
    for v in crossed:
        e = around[v]
        # The degree annotation fires only when the white node sits at the
        # long end of a multiple bond (arrow pointing away from it).
        if e.mult >= 2 and e.short == v:
            ann[v] = e.mult
    finite = d.finite_part(tuple(sorted(m.white)))
    return marked(finite, crossed, ann)


def _shift_marked(m: MarkedDynkinDiagram, offset: int) -> MarkedDynkinDiagram:
    nodes = tuple(v + offset for v in m.diagram.nodes)
    edges = frozenset(
        Edge(e.a + offset, e.b + offset, e.mult, None if e.short is None else e.short + offset)
        for e in m.diagram.edges
    )
    return marked(
        DynkinDiagram(nodes, edges),
        frozenset(v + offset for v in m.crossed),
        tuple((k + offset, v) for k, v in m.annotations),
    )


def z_orbit_diagram(m: MarkedKacDiagram, kind: str) -> Tuple[MarkedDynkinDiagram, ...]:
    """Marked Dynkin diagram(s) of the closed H-orbit Z in P(p).

    One diagram for group/simple type; two independent diagrams for the
    Hermitian exceptional type; for the Hermitian non-exceptional type a
    single diagram whose two isomorphic halves carry the sigma pairing.
    """
    if not validate_kac_marking(m, kind):
        raise ValueError(
            f"marking violates the {kind} white-node rule "
            "(white nodes must carry the prescribed Kac labels)"
        )
    whites = sorted(m.white)
    if kind in ("group", "simple"):
        return (_single_orbit_half(m, whites[0]),)
    h0 = _single_orbit_half(m, whites[0])
    h1 = _single_orbit_half(m, whites[1])
    if kind == "hermitian-exceptional":
        return (h0, h1)

    # Non-exceptional: one sigma-paired diagram out of two disjoint copies.
    if not h0.diagram.nodes:
        return (marked(DynkinDiagram(()), sigma_pairs=()),)
    offset = max(h0.diagram.nodes) + 1
    h1s = _shift_marked(h1, offset)
    iso = find_marked_isomorphism(h0, _shift_marked(h1, 0))
    if iso is None:
        raise AssertionError("non-exceptional halves are not isomorphic")
    union = DynkinDiagram(
        h0.diagram.nodes + h1s.diagram.nodes,
        h0.diagram.edges | h1s.diagram.edges,
    )
    pairs = tuple(sorted((v, iso[v] + offset) for v in h0.diagram.nodes))
    return (
        marked(
            union,
            h0.crossed | h1s.crossed,
            tuple(h0.annotations) + tuple(h1s.annotations),
            pairs,
        ),
    )


def z_dimension(z: MarkedDynkinDiagram) -> int:
    """dim Z: positive roots over the crossed nodes, one sigma half only."""
    if z.sigma_pairs is not None:
        left = z.sigma_left_nodes()
        return parabolic_dimension(z.diagram.restrict(left), z.crossed & left)
    return parabolic_dimension(z.diagram, z.crossed)


# ---------------------------------------------------------------------------
# Naming


def _component_name(t: CartanType, crossed: Tuple[int, ...], ann: Dict[int, int]) -> str:
    f, n = t.family, t.rank
    name: Optional[str] = None
    if len(crossed) == 1:
        (j,) = crossed
        if f == "A":
            name = f"P^{n}" if j in (1, n) else f"Gr({j},{n + 1})"
        elif f == "B":
            if j == 1:
                name = f"Q_{2 * n - 1}"
            elif (n, j) == (2, 2):
                name = "P^3"  # the spinor variety of so_5
            else:
                name = f"OG({j},{2 * n + 1})"
        elif f == "C":
            name = f"P^{2 * n - 1}" if j == 1 else (
                f"LG({n},{2 * n})" if j == n else f"IG({j},{2 * n})")
        elif f == "D":
            if j == 1 or (n == 4 and j in (3, 4)):
                # D_4 triality: every tip carries the quadric Q_6.
                name = f"Q_{2 * n - 2}"
            elif j in (n - 1, n):
                name = f"OG({n},{2 * n})"
            else:
                name = f"OG({j},{2 * n})"
        else:
            name = f"{f}_{n}/P_{j}"
        d = ann.get(j)
        if d is not None:
            name = f"v_{d}({name})"
    elif f == "A" and len(crossed) == 2 and set(crossed) == {1, n} and not ann:
        name = f"Flag(1,{n})"
    if name is None:
        inner = ",".join(
            str(j) + (f"[{ann[j]}]" if j in ann else "") for j in crossed)
        name = f"X({f}_{n},{{{inner}}})"
    return name


def identify(v: MarkedDynkinDiagram) -> str:
    """Human-readable name: Gr/OG/LG/IG/Q/P/Veronese patterns with a total
    fallback; sigma-paired diagrams name their two halves."""
    if not v.diagram.nodes:
        return "P^0"
    if v.sigma_pairs is not None:
        left = v.sigma_left_nodes()
        right = frozenset(v.diagram.nodes) - left
        halves = []
        for side in (left, right):
            halves.append(
                identify(
                    marked(
                        v.diagram.restrict(side),
                        v.crossed & side,
                        tuple((k, d) for k, d in v.annotations if k in side),
                    )
                )
            )
        return " u ".join(halves)
    names: List[Tuple[int, str]] = []
    for (t, mapping), comp in zip(classify(v.diagram), v.diagram.components()):
        comp_set = set(comp)
        crossed = tuple(sorted(mapping[x] for x in v.crossed & comp_set))
        ann = {mapping[k]: d for k, d in v.annotations if k in comp_set}
        names.append((t.rank, _component_name(t, crossed, ann)))
    names.sort(key=lambda p: (-p[0], p[1]))
    return " x ".join(n for _, n in names)


# ---------------------------------------------------------------------------
# The VMRT pipeline


@dataclass(frozen=True)
class VMRTDescription:
    kind: str  # legendrian-Z | typeA-GPlambda | full-projective-space
    components: Tuple[MarkedDynkinDiagram, ...]
    dimension: int
    identification: str
    ambient_note: str = ""


def _type_a_table(e: SymmetricSpaceEntry) -> Tuple[MarkedDynkinDiagram, str]:
    """The pair (G, P_lambda) for restricted type A_r, r >= 2."""
    r = e.restricted.rank
    if e.label == "group-A":
        copy1 = standard_diagram(CartanType("A", r))
        copy2 = standard_diagram(CartanType("A", r), [r + i for i in range(1, r + 1)])
        diagram = DynkinDiagram(copy1.nodes + copy2.nodes, copy1.edges | copy2.edges)
        gp = marked(diagram, {1, 2 * r})
        note = f"(SL_{r + 1} x SL_{r + 1}, P_1 x P_{r}), lambda = (w_1,0)+(0,w_{r})"
    elif e.label in ("AI", "AI-even"):
        gp = standard_marked(CartanType("A", r), {1}, {1: 2})
        note = f"(SL_{r + 1}, P_1), lambda = 2w_1"
    elif e.label == "AII":
        gp = standard_marked(CartanType("A", 2 * r + 1), {2})
        note = f"(SL_{2 * r + 2}, P_2), lambda = w_2"
    elif e.label == "EIV":
        gp = standard_marked(CartanType("E", 6), {1})
        note = "(E_6, P_1), lambda = w_1"
    else:
        raise ValueError(f"no ambient pair known for restricted type A entry {e.name}")
    return gp, note


def vmrt(e: SymmetricSpaceEntry) -> VMRTDescription:
    """The variety of minimal rational tangents of the wonderful
    compactification of e, as marked diagram(s) plus dimension and name."""
    kac = e.kac_diagram()
    zs = z_orbit_diagram(kac, e.kind)
    zdims = {z_dimension(z) for z in zs}
    if len(zdims) != 1:
        raise AssertionError("orbit halves have different dimensions")
    zdim = zdims.pop()

    if not e.restricted.is_type_a:
        return VMRTDescription(
            kind="legendrian-Z",
            components=zs,
            dimension=zdim,
            identification=" u ".join(identify(z) for z in zs),
        )
    if e.restricted.rank >= 2:
        gp, note = _type_a_table(e)
        return VMRTDescription(
            kind="typeA-GPlambda",
            components=(gp,),
            dimension=zdim + 1,
            identification=identify(gp),
            ambient_note=note,
        )
    # Restricted type A_1: the VMRT is all of P(T_pX) = P(p).
    k = e.isotropy_proj_dim
    if k is None:
        raise AssertionError(f"entry {e.name} lacks its stored dim P(p)")
    proj = standard_marked(CartanType("A", k), {1})
    return VMRTDescription(
        kind="full-projective-space",
        components=(proj,),
        dimension=k,
        identification=f"P^{k}",
        ambient_note="C_p = P(T_pX) = P(p)",
    )


# ---------------------------------------------------------------------------
# Folding

FOLDING_PAIRS = {
    "ab": "A_2l -> B_l (includes A_2 -> A_1)",
    "ac": "A_2l-1 -> C_l",
    "db": "D_l+1 -> B_l",
    "ef": "E_6 -> F_4",
    "swap": "D + D -> D (exchange of two identical components)",
}


def _fold_orbits(pair: str, t: CartanType) -> Tuple[CartanType, Dict[int, int], set]:
    """Target type, orbit map (source Bourbaki index -> target index), and
    the set of target nodes coming from an adjacent source pair."""
    n = t.rank
    if pair == "ab":
        if t.family != "A" or n % 2 != 0:
            raise ValueError(f"pair ab needs type A_2l, got {t}")
        l = n // 2
        target = CartanType("A", 1) if l == 1 else CartanType("B", l)
        orbit = {i: min(i, n + 1 - i) for i in range(1, n + 1)}
        return target, orbit, {l}  # the middle orbit {l, l+1} is adjacent
    if pair == "ac":
        if t.family != "A" or n % 2 != 1 or n < 3:
            raise ValueError(f"pair ac needs type A_2l-1 (l >= 2), got {t}")
        l = (n + 1) // 2
        target = CartanType("B", 2) if l == 2 else CartanType("C", l)
        orbit = {i: min(i, n + 1 - i) for i in range(1, n + 1)}
        if l == 2:  # B_2 canonical form: the fixed (long) node is alpha_...
            # A_3 -> C_2: orbit {1,3} -> short root, {2} -> long root.
            # In B_2 canonical labels the short root is alpha_2.
            orbit = {1: 2, 3: 2, 2: 1}
        return target, orbit, set()
    if pair == "db":
        if t.family != "D":
            raise ValueError(f"pair db needs type D_l+1, got {t}")
        l = n - 1
        target = CartanType("B", l)
        orbit = {i: i for i in range(1, n - 1)}
        orbit[n - 1] = orbit[n] = l
        return target, orbit, set()
    if pair == "ef":
        if t != CartanType("E", 6):
            raise ValueError(f"pair ef needs type E_6, got {t}")
        return CartanType("F", 4), {2: 1, 4: 2, 3: 3, 5: 3, 1: 4, 6: 4}, set()
    raise ValueError(f"unknown folding pair {pair!r}")


def fold(v: MarkedDynkinDiagram, pair: str) -> MarkedDynkinDiagram:
    """Quotient a marked diagram by the named order-2 folding.

    Crossings pass to node orbits; degree annotations are carried along and
    double on an orbit of two adjacent nodes (the restricted root there is
    the sum of the pair, so embedding degrees compose).
    """
    if v.sigma_pairs is not None:
        raise ValueError("cannot fold a sigma-paired diagram")
    if pair == "swap":
        comps = v.component_marked()
        if len(comps) != 2:
            raise ValueError("swap folding needs exactly two components")
        c1, c2 = comps
        (t1, map1), = classify(c1.diagram)
        (t2, map2), = classify(c2.diagram)
        if t1 != t2:
            raise ValueError("swap folding needs two copies of one diagram")
        # Align by Bourbaki index and take the union of the markings.
        inv1 = {i: x for x, i in map1.items()}
        crossed = set(c1.crossed) | {inv1[map2[x]] for x in c2.crossed}
        ann: Dict[int, int] = dict(c1.annotations)
        for x, d in c2.annotations:
            tgt = inv1[map2[x]]
            if ann.get(tgt, d) != d:
                raise ValueError("conflicting annotations under swap folding")
            ann[tgt] = d
        return marked(c1.diagram, crossed, ann)

    comps = classify(v.diagram)
    if len(comps) != 1:
        raise ValueError(f"pair {pair} folds a connected diagram")
    (t, mapping), = comps
    target, orbit, adjacent = _fold_orbits(pair, t)
    crossed = set()
    ann: Dict[int, int] = {}
    annotation = v.annotation_map
    for x in v.crossed:
        o = orbit[mapping[x]]
        crossed.add(o)
        d = annotation.get(x, 1)
        if o in adjacent:
            d *= 2
        if o in ann and ann[o] != d:
            raise ValueError("conflicting annotations in one orbit")
        ann[o] = d
    ann = {o: d for o, d in ann.items() if d >= 2}
    return standard_marked(target, crossed, ann)


_FOLD_PAIR_BY_LABEL = {"group-A": "swap", "AI": "ab", "AII": "ac", "EIV": "ef"}


def entry_folding_pair(e: SymmetricSpaceEntry) -> str:
    """The admissible folding for a restricted-type-A entry, if any."""
    if not (e.restricted.is_type_a and e.restricted.rank >= 2):
        raise ValueError(f"{e.name} is not of restricted type A_r with r >= 2")
    pair = _FOLD_PAIR_BY_LABEL.get(e.label)
    if pair is None:
        raise ValueError(
            f"no admissible folding for {e.name} (the fixed subalgebra of "
            "the diagram flip is not H)")
    return pair


def fold_consistency(e: SymmetricSpaceEntry) -> bool:
    """Does folding the ambient VMRT diagram reproduce the Z diagram?"""
    pair = entry_folding_pair(e)
    folded = fold(vmrt(e).components[0], pair)
    (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
    return find_marked_isomorphism(folded, z) is not None


def contact_grading_check(e: SymmetricSpaceEntry) -> bool:
    """Group type only: the grading by the crossed nodes of Z has depth 2
    with one-dimensional top piece (the contact gradation)."""
    if e.kind != "group":
        raise ValueError(f"{e.name} is not of group type")
    (z,) = z_orbit_diagram(e.kac_diagram(), e.kind)
    dims = graded_dimensions(z.diagram, z.crossed)
    top = max(dims)
    return top == 2 and dims[2] == 1
