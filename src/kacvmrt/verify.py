"""The verification sweep behind `kacvmrt verify` and the acceptance tests.

Eight checks: the golden catalogue rows (each classification-table row at
its smallest admissible rank and one larger one, transcribed by hand from
the classical tables into the canonical grammar), the exceptional dimension
spot values, the dimension identity dim C = dim Z + boundary - 1, the
folding round trips, the contact gradations, the white-node rules, the
component structure per kind, and the engine self-checks.

Rows carrying a documented discrepancy against the catalogue (the blank
EIV cell, the quadric-index naming of BI/DI) report WARN, never FAIL.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .affine import affine_diagram, kac_labels, validate_kac_marking
from .atlas import SymmetricSpaceEntry, enumerate_entries, lookup
from .diagrams import find_marked_isomorphism, parabolic_dimension
from .engine import VMRTDescription, contact_grading_check, fold_consistency, vmrt
from .folding import _fold
from .render import _finite_canonical, to_canonical_text
from .roots import CartanType, Record, positive_roots


class CheckResult(Record):
    __slots__ = ("section", "name", "status", "detail")

    def __init__(self, section: str, name: str, status: str, detail: str = "") -> None:
        # status: PASS | FAIL | WARN
        self._set(section, name, status, detail)


class GoldenRow(Record):
    """One classification-table row instantiated at concrete parameters.

    texts/ident/dim transcribed by hand from the classical tables; `alias`
    records a catalogued name that differs from root counting (the row then
    reports WARN instead of comparing names).
    """

    __slots__ = ("label", "params", "texts", "ident", "dim", "table", "alias")

    def __init__(self, label: str, params: Dict[str, int], texts: Tuple[str, ...], ident: str,
                 dim: int, table: str, alias: Optional[str] = None) -> None:
        # alias: the catalogued name, when flagged
        self._set(label, params, texts, ident, dim, table, alias)


# The golden catalogue.  Canonical texts derived by hand from the drawn
# diagrams under the package grammar (components sorted, automorphism-
# minimal orientation).
GOLDEN: Tuple[GoldenRow, ...] = (
    # --- restricted type A (VMRT table) -----------------------------------
    GoldenRow("group-A", {"n": 1}, ("o-x",), "P^2", 2, "typeA"),
    GoldenRow("group-A", {"n": 2}, ("o-x + o-x",), "P^2 x P^2", 4, "typeA"),
    GoldenRow("group-A", {"n": 5}, ("o-o-o-o-x + o-o-o-o-x",), "P^5 x P^5", 10, "typeA"),
    GoldenRow("herm-AI", {}, ("x",), "P^1", 1, "typeA"),
    GoldenRow("AI", {"n": 1}, ("o-x[2]",), "v_2(P^2)", 2, "typeA"),
    GoldenRow("AI", {"n": 3}, ("o-o-o-o-o-x[2]",), "v_2(P^6)", 6, "typeA"),
    GoldenRow("AI-even", {"n": 2}, ("o-o-x[2]",), "v_2(P^3)", 3, "typeA"),
    GoldenRow("AI-even", {"n": 4}, ("o-o-o-o-o-o-x[2]",), "v_2(P^7)", 7, "typeA"),
    GoldenRow("AII", {"n": 3}, ("o-o-o-x-o",), "Gr(2,6)", 8, "typeA"),
    GoldenRow("AII", {"n": 5}, ("o-o-o-o-o-o-o-x-o",), "Gr(2,10)", 16, "typeA"),
    GoldenRow("BII", {"n": 2}, ("o-o-x",), "P^3", 3, "typeA"),
    GoldenRow("BII", {"n": 4}, ("o-o-o-o-o-o-x",), "P^7", 7, "typeA"),
    GoldenRow("DII", {"n": 3}, ("o-o-o-x",), "P^4", 4, "typeA"),
    GoldenRow("DII", {"n": 5}, ("o-o-o-o-o-o-o-x",), "P^8", 8, "typeA"),
    GoldenRow("EIV", {}, ("o-o-o(o)-o-x",), "E_6/P_1", 16, "typeA"),
    # --- group type --------------------------------------------------------
    # B_2 = C_2: the adjoint orbit degree-2 annotation appears honestly,
    # giving v_2 of the spinor P^3 (the catalogue's C_2 row, nu_2(P^3)).
    GoldenRow("group-B", {"n": 2}, ("o=>x[2]",), "v_2(P^3)", 3, "group"),
    GoldenRow("group-B", {"n": 5}, ("o-x-o-o=>o",), "OG(2,11)", 15, "group"),
    GoldenRow("group-C", {"n": 3}, ("x[2]-o<=o",), "v_2(P^5)", 5, "group"),
    GoldenRow("group-C", {"n": 6}, ("x[2]-o-o-o-o<=o",), "v_2(P^11)", 11, "group"),
    GoldenRow("group-D", {"n": 4}, ("o-x(o)-o",), "OG(2,8)", 9, "group"),
    GoldenRow("group-D", {"n": 6}, ("o-x-o-o(o)-o",), "OG(2,12)", 17, "group"),
    GoldenRow("group-E", {"n": 6}, ("o-o-o(x)-o-o",), "E_6/P_2", 21, "group"),
    GoldenRow("group-E", {"n": 7}, ("x-o-o(o)-o-o-o",), "E_7/P_1", 33, "group"),
    GoldenRow("group-E", {"n": 8}, ("o-o-o(o)-o-o-o-x",), "E_8/P_8", 57, "group"),
    GoldenRow("group-F", {}, ("x-o=>o-o",), "F_4/P_1", 15, "group"),
    GoldenRow("group-G", {}, ("o<#x",), "G_2/P_2", 5, "group"),
    # --- simple type, restricted type not A --------------------------------
    GoldenRow("BI", {"n": 3, "m": 4}, ("x + x + x[2]",), "P^1 x P^1 x v_2(P^1)", 3,
              "simple", alias="Q_4 x Q_3"),
    GoldenRow("BI", {"n": 7, "m": 8}, ("o-o(o)-x + x-o=>o",), "Q_6 x Q_5", 11,
              "simple", alias="Q_8 x Q_7"),
    GoldenRow("CII", {"n": 2, "m": 1}, ("x + x",), "P^1 x P^1", 2, "simple"),
    GoldenRow("CII", {"n": 4, "m": 1}, ("x + x-o<=o",), "P^5 x P^1", 6, "simple"),
    GoldenRow("CII", {"n": 5, "m": 2}, ("o=>x + x-o<=o",), "P^5 x P^3", 8, "simple"),
    GoldenRow("DI-odd", {"n": 4, "m": 1}, ("x=>o + x[2]",), "Q_3 x v_2(P^1)", 4,
              "simple", alias="Q_3 x Q_5"),
    GoldenRow("DI-odd", {"n": 6, "m": 2}, ("x-o=>o + x=>o",), "Q_5 x Q_3", 8,
              "simple", alias="Q_5 x Q_7"),
    GoldenRow("DI-even", {"n": 4, "m": 2}, ("x + x + x + x",), "P^1 x P^1 x P^1 x P^1", 4,
              "simple", alias="Q_4 x Q_4"),
    GoldenRow("DI-even", {"n": 6, "m": 2}, ("o-o(o)-x + x + x",), "Q_6 x P^1 x P^1", 8,
              "simple", alias="Q_4 x Q_8"),
    GoldenRow("EI", {}, ("o-o-o<=x",), "LG(4,8)", 10, "simple"),
    GoldenRow("EII", {}, ("o-o-x-o-o + x",), "Gr(3,6) x P^1", 10, "simple"),
    GoldenRow("EV", {}, ("o-o-o-x-o-o-o",), "Gr(4,8)", 16, "simple"),
    GoldenRow("EVI", {}, ("o-o-o-o(o)-x + x",), "OG(6,12) x P^1", 16, "simple"),
    GoldenRow("EVIII", {}, ("o-o-o-o-o-o(o)-x",), "OG(8,16)", 28, "simple"),
    GoldenRow("EIX", {}, ("o-o-o(o)-o-o-x + x",), "E_7/P_7 x P^1", 28, "simple"),
    GoldenRow("FI", {}, ("o-o<=x + x",), "LG(3,6) x P^1", 7, "simple"),
    GoldenRow("FII", {}, ("o-o-o=>x",), "OG(4,9)", 10, "simple"),
    GoldenRow("G", {}, ("x + x[3]",), "P^1 x v_3(P^1)", 2, "simple"),
    # --- Hermitian type ----------------------------------------------------
    GoldenRow("herm-AIII", {"n": 3, "m": 1}, ("x", "x"), "P^1 u P^1", 1, "hermitian"),
    GoldenRow("herm-AIII", {"n": 7, "m": 2}, ("o-o-o-x + x", "o-o-o-x + x"),
              "P^4 x P^1 u P^4 x P^1", 5, "hermitian"),
    GoldenRow("herm-DIII-odd", {"n": 2}, ("o-o-x-o", "o-o-x-o"),
              "Gr(2,5) u Gr(3,5)", 6, "hermitian"),
    GoldenRow("herm-DIII-odd", {"n": 3}, ("o-o-o-o-x-o", "o-o-o-o-x-o"),
              "Gr(2,7) u Gr(5,7)", 10, "hermitian"),
    GoldenRow("herm-EIII", {}, ("o-o-o(o)-x", "o-o-o(o)-x"),
              "OG(5,10) u OG(5,10)", 10, "hermitian"),
    GoldenRow("herm-AIII", {"n": 4, "m": 2}, ("x + x + x + x ~sigma",),
              "P^1 x P^1 u P^1 x P^1", 2, "hermitian"),
    GoldenRow("herm-AIII", {"n": 8, "m": 4},
              ("o-o-x + o-o-x + o-o-x + o-o-x ~sigma",),
              "P^3 x P^3 u P^3 x P^3", 6, "hermitian"),
    GoldenRow("herm-BI", {"n": 3}, ("x=>o + x=>o ~sigma",), "Q_3 u Q_3", 3, "hermitian"),
    GoldenRow("herm-BI", {"n": 5}, ("x-o-o=>o + x-o-o=>o ~sigma",), "Q_7 u Q_7", 7,
              "hermitian"),
    GoldenRow("herm-CI", {"n": 2}, ("x[2] + x[2] ~sigma",), "v_2(P^1) u v_2(P^1)", 1,
              "hermitian"),
    GoldenRow("herm-CI", {"n": 4}, ("o-o-x[2] + o-o-x[2] ~sigma",),
              "v_2(P^3) u v_2(P^3)", 3, "hermitian"),
    GoldenRow("herm-DI", {"n": 5}, ("o-o(o)-x + o-o(o)-x ~sigma",), "Q_6 u Q_6", 6,
              "hermitian"),
    GoldenRow("herm-DI", {"n": 7}, ("x-o-o-o(o)-o + x-o-o-o(o)-o ~sigma",),
              "Q_10 u Q_10", 10, "hermitian"),
    GoldenRow("herm-DIII-even", {"n": 2}, ("o-x-o + o-x-o ~sigma",),
              "Gr(2,4) u Gr(2,4)", 4, "hermitian"),
    GoldenRow("herm-DIII-even", {"n": 3}, ("o-o-o-x-o + o-o-o-x-o ~sigma",),
              "Gr(2,6) u Gr(4,6)", 8, "hermitian"),
    GoldenRow("herm-EVII", {}, ("o-o-o(o)-o-x + o-o-o(o)-o-x ~sigma",),
              "E_6/P_1 u E_6/P_6", 16, "hermitian"),
)


def _entry_flags(e: SymmetricSpaceEntry) -> Tuple[str, ...]:
    return tuple([n.split(":", 1)[0] for n in e.notes])


# VMRTs by (label, params) as the atlas stores them, shared by the checks
# of one run so that each entry's VMRT is computed once.
VMRTs = Dict[Tuple[str, tuple], Optional[VMRTDescription]]


def _vmrt_of(label: str, params: Optional[Dict[str, int]], vmrts: VMRTs):
    """The entry and its VMRT, from vmrts or computed into it."""
    e = lookup(label, params)
    if vmrts.get((e.label, e.params)) is None:
        vmrts[(e.label, e.params)] = vmrt(e)
    return e, vmrts[(e.label, e.params)]


def check_golden_tables(vmrts: Optional[VMRTs] = None) -> List[CheckResult]:
    out: List[CheckResult] = []
    vmrts = {} if vmrts is None else vmrts
    for row in GOLDEN:
        e, v = _vmrt_of(row.label, row.params, vmrts)
        got_texts = tuple([_finite_canonical(c, k) for c, k in zip(v.components, v.classes)])
        problems = []
        if got_texts != row.texts:
            problems.append(f"diagram {got_texts} != {row.texts}")
        if v.identification != row.ident:
            problems.append(f"name {v.identification!r} != {row.ident!r}")
        if v.dimension != row.dim:
            problems.append(f"dim {v.dimension} != {row.dim}")
        flags = _entry_flags(e)
        if problems:
            out.append(CheckResult("golden", e.name, "FAIL", "; ".join(problems)))
        elif flags:
            alias = f"; catalogued name {row.alias!r}" if row.alias else ""
            out.append(CheckResult("golden", e.name, "WARN", ", ".join(flags) + alias))
        else:
            out.append(CheckResult("golden", e.name, "PASS", v.identification))
    return out


# (label, params, row name, dimension): the exceptional adjoint varieties
# and OG(2, 2n+1), the adjoint variety of B_n.
_DIMENSION_ROWS = (
    [(label, {}, f"{label} adjoint dim", want) for label, want in (("group-F", 15), ("group-G", 5))]
    + [("group-E", {"n": n}, f"group-E{n} adjoint dim", want) for n, want in ((6, 21), (7, 33), (8, 57))]
    + [("group-B", {"n": n}, f"OG(2,{2 * n + 1}) dim", 4 * n - 5) for n in range(2, 9)])


def check_exceptional_dimensions(vmrts: Optional[VMRTs] = None) -> List[CheckResult]:
    out = []
    vmrts = {} if vmrts is None else vmrts
    for label, params, name, want in _DIMENSION_ROWS:
        got = _vmrt_of(label, params, vmrts)[1].dimension
        out.append(CheckResult("dims", name, "PASS" if got == want else "FAIL", f"{got} (want {want})"))
    return out


def check_dimension_formula(max_rank: int) -> List[CheckResult]:
    return _entry_pass(max_rank, ("dimension-formula",))


_FOLDING_CASES = ([("group-A", {"n": r}) for r in range(2, 11)]
                  + [("AI", {"n": n}) for n in range(1, 6)]      # restricted A_2..A_10, even
                  + [("AII", {"n": n}) for n in range(3, 12)]    # restricted A_2..A_10
                  + [("EIV", {})])
# The three classical folding instances.  The first is traditionally
# captioned nu_2(P^9) -> Q_8, one rank below the drawn diagrams (ten nodes
# folding onto five): the drawn instance is nu_2(P^10) -> nu_2(Q_9).
_FOLDING_DISPLAYS = [
    ("AI", {"n": 5}, "ab", "x[2]-o-o-o=>o", "nu_2(P^10) -> nu_2(Q_9)"),
    ("AII", {"n": 5}, "ac", "o-x-o-o<=o", "Gr(2,10) -> IG(2,10)"),
    ("EIV", {}, "ef", "o-o=>o-x", "E_6/P_6 -> F_4/P_4"),
]


def check_folding(vmrts: Optional[VMRTs] = None) -> List[CheckResult]:
    vmrts = {} if vmrts is None else vmrts
    bad = []
    for label, params in _FOLDING_CASES:
        e, v = _vmrt_of(label, params, vmrts)
        if not fold_consistency(e, v):
            bad.append(e.name)
    out = [_row("folding", f"{len(_FOLDING_CASES)} foldable entries", bad)]
    for label, params, pair, want, note in _FOLDING_DISPLAYS:
        v = _vmrt_of(label, params, vmrts)[1]
        got = _finite_canonical(*_fold(v.components[0], pair, v.classes[0]))
        ok = got == want and got == _finite_canonical(v.z[0], v.z_classes[0])
        out.append(CheckResult("folding", f"displayed folding {note}",
                               "PASS" if ok else "FAIL", got))
    return out


def check_contact_grading(max_rank: int = 8) -> List[CheckResult]:
    return _entry_pass(max_rank, ("contact",))


def check_kac_markings(max_rank: int) -> List[CheckResult]:
    return _entry_pass(max_rank, ("kac-rules",))


def check_component_structure(max_rank: int) -> List[CheckResult]:
    return _entry_pass(max_rank, ("components",))


def check_engine_selfchecks(max_rank: int) -> List[CheckResult]:
    return [_lie_dimensions(max_rank)] + _entry_pass(max_rank, ("kac-labels", "round-trip"))


def _row(section: str, name: str, bad: Sequence[str]) -> CheckResult:
    return CheckResult(section, name, "PASS" if not bad else "FAIL", "; ".join(bad))


# |Phi+| by the root-string closure, keeping the count but not the roots.
_root_count = lru_cache(maxsize=None)(lambda t, closure=positive_roots.__wrapped__: len(closure(t)))


def _lie_dimensions(max_rank: int) -> CheckResult:
    bad = []
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for r in range(lo, max_rank + 1):
            t = CartanType(fam, r)
            if 2 * _root_count(t) + r != t.algebra_dimension:
                bad.append(str(t))
    for t in (CartanType("E", 6), CartanType("E", 7), CartanType("E", 8),
              CartanType("F", 4), CartanType("G", 2)):
        if 2 * _root_count(t) + t.rank != t.algebra_dimension:
            bad.append(str(t))
    return _row("self-checks", f"Lie dimension identities rank <= {max_rank}", bad)


def _orbit_structure_ok(kind: str, v: VMRTDescription) -> bool:
    if kind in ("group", "simple"):
        return len(v.z) == 1 and v.z[0].sigma_pairs is None
    if kind == "hermitian-exceptional":
        return len(v.z) == 2 and find_marked_isomorphism(*v.z, *v.z_classes) is not None
    # A sigma pairing is checked to match the halves when the Z is built.
    return len(v.z) == 1 and v.z[0].sigma_pairs is not None


# The per-entry parts of five checks, in the order run_all reports them;
# the rows of the parts in _SHOWN list only their first few failures.  The
# Kac parts run before vmrt, which raises on a marking that breaks the
# white-node rule: check_kac_markings alone reports it as FAIL.  The
# contact part needs the VMRT of the group entries only.
_ENTRY_PARTS = ("dimension-formula", "contact", "kac-rules", "components", "kac-labels", "round-trip")
_NEEDS_VMRT = {"dimension-formula", "components", "round-trip"}
_SHOWN = {"dimension-formula": 4, "round-trip": 3}


def _entry_pass(max_rank: int, parts: Sequence[str], vmrts: Optional[VMRTs] = None,
                contact_rank: Optional[int] = None) -> List[CheckResult]:
    """One walk of the atlas up to max_rank, giving one row per part named
    in `parts`; the contact part checks the group entries up to
    contact_rank (default max_rank).  Each entry's Kac diagram and VMRT
    (which carries Z, dim Z and the classes of each diagram) are built
    once, shared by the parts and dropped with the entry, unless its
    (label, params) is a key of vmrts: its VMRT is kept there."""
    bad: Dict[str, List[str]] = {p: [] for p in _ENTRY_PARTS}
    count = contacts = diagrams = 0
    label_keys = set()
    contact_rank = max_rank if contact_rank is None else contact_rank
    if "round-trip" in parts:
        # Imported here, as render.parse does, so that importing this
        # module does not compile the reader.
        from .parsing import _read
    for e in enumerate_entries(max_rank):
        count += 1
        kac = e.kac_diagram()
        if "kac-rules" in parts:
            if not validate_kac_marking(kac, e.kind):
                bad["kac-rules"].append(e.name)
            if (e.boundary_degree == 2) != e.restricted.is_type_a:
                bad["kac-rules"].append(f"{e.name} boundary/type-A mismatch")
        key = (e.kac_base, e.kac_twist)
        if "kac-labels" in parts and key not in label_keys:
            label_keys.add(key)
            try:
                kac_labels(affine_diagram(*key))
            except AssertionError as ex:
                bad["kac-labels"].append(f"{key}: {ex}")
        # sl_2 carries no depth-2 gradation; the contact statement
        # explicitly excludes PGL_2.
        contact = ("contact" in parts and e.kind == "group" and e.kac_base.rank <= contact_rank
                   and e.kac_base != CartanType("A", 1))
        if _NEEDS_VMRT.isdisjoint(parts) and not contact:
            continue
        v = vmrt(e)
        if vmrts is not None and (e.label, e.params) in vmrts:
            vmrts[(e.label, e.params)] = v
        if contact:
            contacts += 1
            if not contact_grading_check(e, v):
                bad["contact"].append(e.name)
        if "dimension-formula" in parts:
            if v.dimension != v.z_dim + e.boundary_degree - 1:
                bad["dimension-formula"].append(
                    f"{e.name}: {v.dimension} != {v.z_dim}+{e.boundary_degree}-1")
            if e.restricted.is_type_a and e.restricted.rank >= 2:
                gp = v.components[0]
                gp_dim = parabolic_dimension(gp.diagram, gp.crossed, v.classes[0])
                if gp_dim != v.z_dim + 1:
                    bad["dimension-formula"].append(
                        f"{e.name}: ambient {gp_dim} != z+1 = {v.z_dim + 1}")
        if "components" in parts and not _orbit_structure_ok(e.kind, v):
            bad["components"].append(e.name)
        if "round-trip" in parts:
            # A Legendrian entry's VMRT diagrams are its Z diagrams: each
            # object is read back once but counted as before.  Z and VMRT
            # texts are written from vmrt's classes; the reader classifies
            # each text afresh and the read-back text is written from that,
            # so the row checks vmrt's classes too.
            diagrams += 1 + len(v.z) + len(v.components)
            written = list(zip(v.z, v.z_classes))
            if v.components is not v.z:
                written += zip(v.components, v.classes)
            for text in [to_canonical_text(kac)] + [_finite_canonical(d, k) for d, k in written]:
                back, back_classes = _read(text)
                if (to_canonical_text(back) if back_classes is None
                        else _finite_canonical(back, back_classes)) != text:
                    bad["round-trip"].append(f"{e.name}: {text!r}")
    heads = {
        "dimension-formula": ("dimension-formula", f"{count} entries, rank <= {max_rank}"),
        "contact": ("contact", f"{contacts} group entries, rank <= {contact_rank}"),
        "kac-rules": ("kac-rules", f"{count} entries"),
        "components": ("components", f"{count} entries"),
        "kac-labels": ("self-checks", f"Kac label null vectors ({len(label_keys)} diagrams)"),
        "round-trip": ("self-checks", f"canonical round trip ({diagrams} diagrams)"),
    }
    return [_row(*heads[p], bad[p][:_SHOWN.get(p)]) for p in parts]


def run_all(max_rank: int = 12) -> List[CheckResult]:
    """Every check's rows, in a fixed order; the per-entry checks share one
    walk of the atlas, which keeps the VMRTs of the entries the golden, dims
    and folding checks name for them."""
    named = ([(row.label, row.params) for row in GOLDEN] + _FOLDING_CASES
             + [row[:2] for row in _DIMENSION_ROWS + _FOLDING_DISPLAYS])
    vmrts: VMRTs = {(label, tuple(sorted(params.items()))): None for label, params in named}
    dims, contact, kac, comps, labels, trips = _entry_pass(
        max_rank, _ENTRY_PARTS, vmrts, contact_rank=min(max_rank, 8))
    return (check_golden_tables(vmrts) + check_exceptional_dimensions(vmrts) + [dims]
            + check_folding(vmrts) + [contact, kac, comps, _lie_dimensions(max_rank), labels, trips])


def format_results(results: Sequence[CheckResult]) -> str:
    lines = []
    width = max(len(f"{r.section}: {r.name}") for r in results)
    for r in results:
        head = f"{r.section}: {r.name}"
        lines.append(f"{head:<{width}}  {r.status:4s}  {r.detail}".rstrip())
    n_fail = sum(1 for r in results if r.status == "FAIL")
    n_warn = sum(1 for r in results if r.status == "WARN")
    lines.append(f"{len(results)} checks: {len(results) - n_fail - n_warn} passed, "
                 f"{n_warn} warnings, {n_fail} failures")
    return "\n".join(lines)
