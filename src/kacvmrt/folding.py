"""Diagram folding: a marked Dynkin diagram quotiented by an order-2
diagram symmetry (or the exchange of two identical components).

Kept apart from the VMRT pipeline, so that `kacvmrt fold` compiles
neither the engine nor the atlas; the engine imports it only to check a
folding, so of the CLI commands only `fold` and `verify` compile it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .diagrams import Classes, MarkedDynkinDiagram, _bourbaki, classify, marked, standard_marked
from .roots import CartanType

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
        if l == 2:  # B_2 canonical form: the fixed (long) node is alpha_1.
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


def fold(v: MarkedDynkinDiagram, pair: str, classes: Optional[Classes] = None) -> MarkedDynkinDiagram:
    """Quotient a marked diagram by the named order-2 folding.

    Crossings pass to node orbits; degree annotations are carried along and
    double on an orbit of two adjacent nodes (the restricted root there is
    the sum of the pair, so embedding degrees compose).  classes, if given,
    is classify of v's diagram.
    """
    return _fold(v, pair, classes)[0]


def _fold(v: MarkedDynkinDiagram, pair: str,
          classes: Optional[Classes] = None) -> Tuple[MarkedDynkinDiagram, Classes]:
    """fold(v, pair, classes) and the classes of the folded diagram."""
    if v.sigma_pairs is not None:
        raise ValueError("cannot fold a sigma-paired diagram")
    comps = classify(v.diagram) if classes is None else classes
    ann: Dict[int, int] = {}
    if pair == "swap":
        if len(comps) != 2:
            raise ValueError("swap folding needs exactly two components")
        (t1, map1), (t2, map2) = comps
        if t1 != t2:
            raise ValueError("swap folding needs two copies of one diagram")
        # Align by Bourbaki index and take the union of the markings.
        inv1 = {i: x for x, i in map1.items()}
        crossed = {x if x in map1 else inv1[map2[x]] for x in v.crossed}
        for x, d in v.annotations:
            tgt = x if x in map1 else inv1[map2[x]]
            if ann.get(tgt, d) != d:
                raise ValueError("conflicting annotations under swap folding")
            ann[tgt] = d
        return marked(v.diagram.restrict(map1), crossed, ann), ((t1, map1),)

    if len(comps) != 1:
        raise ValueError(f"pair {pair} folds a connected diagram")
    (t, mapping), = comps
    target, orbit, adjacent = _fold_orbits(pair, t)
    crossed = set()
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
    return standard_marked(target, crossed, ann), (_bourbaki(target),)
