"""From marked Kac diagrams to marked Dynkin diagrams of the VMRT.

This is the heart of the package: the four-step diagram procedure (cross
the neighbours of a white node, record bond degrees, delete whites, pair
the halves for non-exceptional Hermitian spaces), the dimension bookkeeping
dim C = dim Z + (boundary degree) - 1, the restricted-type-A branch with
its ambient pair (G, P_lambda), the folding checks, and the naming of the
resulting rational homogeneous spaces.  Folding itself is in folding.py.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .affine import MarkedKacDiagram, validate_kac_marking
from .atlas import SymmetricSpaceEntry
from .diagrams import (
    Classes,
    DynkinDiagram,
    Edge,
    MarkedDynkinDiagram,
    _bourbaki,
    classify,
    find_marked_isomorphism,
    graded_dimensions,
    marked,
    parabolic_dimension,
    standard_diagram,
    standard_marked,
)
from .roots import CartanType, Record


def _orbit_half(around: Dict[int, Edge], white: FrozenSet[int],
                finite: DynkinDiagram) -> MarkedDynkinDiagram:
    """Steps (a)-(b) for the white node with bonds `around`, on the diagram
    `finite` left by deleting the whites (step c)."""
    crossed = [v for v in sorted(around) if v not in white]
    # The degree annotation fires only when the white node sits at the long
    # end of a multiple bond (arrow pointing away from it).
    ann = {v: around[v].mult for v in crossed if around[v].mult >= 2 and around[v].short == v}
    return marked(finite, crossed, ann)


def _shift_marked(m: MarkedDynkinDiagram, offset: int) -> MarkedDynkinDiagram:
    nodes = tuple([v + offset for v in m.diagram.nodes])
    edges = frozenset(
        Edge(e.a + offset, e.b + offset, e.mult, None if e.short is None else e.short + offset)
        for e in m.diagram.edges
    )
    return marked(
        DynkinDiagram(nodes, edges),
        [v + offset for v in m.crossed],
        tuple([(k + offset, v) for k, v in m.annotations]),
    )


def z_orbit_diagram(m: MarkedKacDiagram, kind: str) -> Tuple[MarkedDynkinDiagram, ...]:
    """Marked Dynkin diagram(s) of the closed H-orbit Z in P(p).

    One diagram for group/simple type; two independent diagrams for the
    Hermitian exceptional type; for the Hermitian non-exceptional type a
    single diagram whose two isomorphic halves carry the sigma pairing.
    """
    return _z_orbit(m, kind)[0]


def _z_orbit(m: MarkedKacDiagram, kind: str) -> Tuple[Tuple[MarkedDynkinDiagram, ...], int, str,
                                                      Tuple[Classes, ...]]:
    """z_orbit_diagram's result, dim Z, the name of Z and the classes of
    each Z diagram, all read off one classification of the diagram that
    every half of Z marks."""
    if not validate_kac_marking(m, kind):
        raise ValueError(
            f"marking violates the {kind} white-node rule "
            "(white nodes must carry the prescribed Kac labels)"
        )
    whites = sorted(m.white)
    adj = m.diagram.adjacency()
    finite = m.diagram.finite_part(tuple(whites))
    halves = [_orbit_half(adj[w], m.white, finite) for w in whites]
    classes = classify(finite)
    dims = {parabolic_dimension(finite, h.crossed, classes) for h in halves}
    if len(dims) != 1:
        raise AssertionError("orbit halves have different dimensions")
    zdim = dims.pop()
    name = " u ".join([_name(h, classes) for h in halves])
    if kind in ("group", "simple", "hermitian-exceptional"):
        return tuple(halves), zdim, name, (classes,) * len(halves)

    # Non-exceptional: one sigma-paired diagram out of two disjoint copies.
    if not finite.nodes:
        return (marked(DynkinDiagram(()), sigma_pairs=()),), zdim, "P^0", ((),)
    h0, h1 = halves
    iso = find_marked_isomorphism(h0, h1, classes, classes)
    if iso is None:
        raise AssertionError("non-exceptional halves are not isomorphic")
    offset = max(finite.nodes) + 1
    h1s = _shift_marked(h1, offset)
    union = DynkinDiagram(finite.nodes + h1s.diagram.nodes, finite.edges + h1s.diagram.edges)
    pairs = tuple(sorted([(v, iso[v] + offset) for v in finite.nodes]))
    z = marked(union, h0.crossed + h1s.crossed, h0.annotations + h1s.annotations, pairs)
    shifted = tuple([(t, {v + offset: i for v, i in mapping.items()}) for t, mapping in classes])
    return (z,), zdim, name, (classes + shifted,)


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
    if v.sigma_pairs is not None and v.diagram.nodes:
        return " u ".join(identify(h) for h in v.sigma_halves())
    return _name(v, classify(v.diagram))


def _name(v: MarkedDynkinDiagram, classes: Classes) -> str:
    """The name of the components of v that classes lists; P^0 if none."""
    names: List[Tuple[int, str]] = []
    for t, mapping in classes:
        crossed = tuple(sorted(mapping[x] for x in v.crossed if x in mapping))
        ann = {mapping[k]: d for k, d in v.annotations if k in mapping}
        names.append((t.rank, _component_name(t, crossed, ann)))
    names.sort(key=lambda p: (-p[0], p[1]))
    return " x ".join(n for _, n in names) or "P^0"


# ---------------------------------------------------------------------------
# The VMRT pipeline


class VMRTDescription(Record):
    __slots__ = ("kind", "components", "dimension", "identification", "z", "z_dim", "z_classes",
                 "classes", "ambient_note")

    def __init__(
        self,
        kind: str,  # legendrian-Z | typeA-GPlambda | full-projective-space
        components: Tuple[MarkedDynkinDiagram, ...],
        dimension: int,
        identification: str,
        z: Tuple[MarkedDynkinDiagram, ...],  # the closed orbit Z, as z_orbit_diagram gives it
        z_dim: int,
        z_classes: Tuple[Classes, ...],  # classify of each z diagram
        classes: Tuple[Classes, ...],  # classify of each components diagram
        ambient_note: str = "",
    ) -> None:
        self._set(kind, components, dimension, identification, z, z_dim, z_classes, classes,
                  ambient_note)


def _type_a_table(e: SymmetricSpaceEntry) -> Tuple[MarkedDynkinDiagram, Classes, str]:
    """The pair (G, P_lambda) for restricted type A_r, r >= 2, and the
    classes of its diagram, known from the Bourbaki types it is built of."""
    r = e.restricted.rank
    if e.label == "group-A":
        t = CartanType("A", r)
        copy1 = standard_diagram(t)
        copy2 = standard_diagram(t, [r + i for i in range(1, r + 1)])
        diagram = DynkinDiagram(copy1.nodes + copy2.nodes, copy1.edges + copy2.edges)
        note = f"(SL_{r + 1} x SL_{r + 1}, P_1 x P_{r}), lambda = (w_1,0)+(0,w_{r})"
        return marked(diagram, {1, 2 * r}), (_bourbaki(t), _bourbaki(t, r + 1)), note
    if e.label in ("AI", "AI-even"):
        t, crossed, ann = CartanType("A", r), {1}, {1: 2}
        note = f"(SL_{r + 1}, P_1), lambda = 2w_1"
    elif e.label == "AII":
        t, crossed, ann = CartanType("A", 2 * r + 1), {2}, {}
        note = f"(SL_{2 * r + 2}, P_2), lambda = w_2"
    elif e.label == "EIV":
        t, crossed, ann = CartanType("E", 6), {1}, {}
        note = "(E_6, P_1), lambda = w_1"
    else:
        raise ValueError(f"no ambient pair known for restricted type A entry {e.name}")
    return standard_marked(t, crossed, ann), (_bourbaki(t),), note


def vmrt(e: SymmetricSpaceEntry) -> VMRTDescription:
    """The variety of minimal rational tangents of the wonderful
    compactification of e, as marked diagram(s) plus dimension and name,
    with the classes of each diagram as the canonical writer takes them."""
    zs, zdim, ident, zclasses = _z_orbit(e.kac_diagram(), e.kind)
    if not e.restricted.is_type_a:
        return VMRTDescription(
            kind="legendrian-Z",
            components=zs,
            dimension=zdim,
            identification=ident,
            z=zs, z_dim=zdim,
            z_classes=zclasses, classes=zclasses,
        )
    if e.restricted.rank >= 2:
        gp, classes, note = _type_a_table(e)
        return VMRTDescription(
            kind="typeA-GPlambda",
            components=(gp,),
            dimension=zdim + 1,
            identification=_name(gp, classes),
            z=zs, z_dim=zdim,
            z_classes=zclasses, classes=(classes,),
            ambient_note=note,
        )
    # Restricted type A_1: the VMRT is all of P(T_pX) = P(p).  By the Kac
    # grading (Kac, Infinite-Dimensional Lie Algebras, Ch. 8), dim p = dim g
    # - dim g_0, g_0 being the finite part Z marks (one copy if sigma-paired)
    # plus a centre of dimension #white - 1.
    levi = zclasses[0][:len(zclasses[0]) // 2] if zs[0].sigma_pairs is not None else zclasses[0]
    k = (e.kac_base.algebra_dimension * (2 if e.kind == "group" else 1)  # g = h x h for group type
         - sum([t.algebra_dimension for t, _ in levi]) - len(e.kac_white))
    t = CartanType("A", k)
    return VMRTDescription(
        kind="full-projective-space",
        components=(standard_marked(t, {1}),),
        dimension=k,
        identification=f"P^{k}",
        z=zs, z_dim=zdim,
        z_classes=zclasses, classes=((_bourbaki(t),),),
        ambient_note="C_p = P(T_pX) = P(p)",
    )


# ---------------------------------------------------------------------------
# Folding checks

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


def fold_consistency(e: SymmetricSpaceEntry, v: Optional[VMRTDescription] = None) -> bool:
    """Does folding the ambient VMRT diagram reproduce the Z diagram?  v is
    vmrt(e) when the caller has it; the fold and the match take its classes."""
    from .folding import _fold

    pair = entry_folding_pair(e)
    v = vmrt(e) if v is None else v
    (z,) = v.z
    folded, folded_classes = _fold(v.components[0], pair, v.classes[0])
    return find_marked_isomorphism(folded, z, folded_classes, v.z_classes[0]) is not None


def contact_grading_check(e: SymmetricSpaceEntry, v: Optional[VMRTDescription] = None) -> bool:
    """Group type only: the grading by the crossed nodes of Z has depth 2
    with one-dimensional top piece (the contact gradation); v, if given, is
    vmrt(e)."""
    if e.kind != "group":
        raise ValueError(f"{e.name} is not of group type")
    v = vmrt(e) if v is None else v
    (z,) = v.z
    dims = graded_dimensions(z.diagram, z.crossed, v.z_classes[0])
    top = max(dims)
    return top == 2 and dims[2] == 1
