"""Classification atlas of irreducible adjoint symmetric spaces.

One parametrised row per family: the Cartan class label, the space kind,
the marked Kac diagram (base, twist, white nodes), the restricted root
system, and the boundary degree.  Restricted types and boundary degrees
are stored data validated downstream by dimension consistency; the marked
Kac data is validated against the white-node rules at construction.

Parameter ranges are chosen so the enumeration lists every space exactly
once (low-rank coincidences such as SL_4/SO_4 = SO_6/S(O_3 x O_3) are kept
in a single family).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .affine import MarkedKacDiagram, affine_diagram, affine_node_count, validate_kac_marking
from .roots import CartanType

RESTRICTED_FAMILIES = "ABCDEFG" + "?"  # plus the non-reduced BC


@dataclass(frozen=True, order=True)
class RestrictedType:
    """Type of the restricted root system; BC covers the non-reduced cases."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "B", "C", "D", "E", "F", "G", "BC"):
            raise ValueError(f"bad restricted family {self.family!r}")
        if self.rank < 1:
            raise ValueError("restricted rank must be positive")

    @property
    def is_type_a(self) -> bool:
        return self.family == "A"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class SymmetricSpaceEntry:
    label: str
    params: Tuple[Tuple[str, int], ...]
    kind: str  # group | simple | hermitian-exceptional | hermitian-nonexceptional
    g_desc: str
    h_desc: str
    kac_base: CartanType
    kac_twist: int
    kac_white: Tuple[int, ...]
    restricted: RestrictedType
    boundary_degree: int
    isotropy_proj_dim: Optional[int] = None  # dim P(p), stored for restricted A_1
    notes: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        if not self.params:
            return self.label
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.label}({inner})"

    def kac_diagram(self) -> MarkedKacDiagram:
        return MarkedKacDiagram(affine_diagram(self.kac_base, self.kac_twist), frozenset(self.kac_white))

    @property
    def num_kac_nodes(self) -> int:
        return self.kac_diagram().diagram.num_nodes


NOTE_EIV = (
    "paper_gap: the classical tables leave this row's Kac diagram unstated; "
    "filled by the simple-type rule (twisted diagram, white at the label-1 "
    "node whose deletion leaves F_4)"
)
NOTE_QUADRIC = (
    "name_flag: catalogued quadric names carry the orthogonal-factor sizes; "
    "root counting gives Q_{k-2} for the factor O_k"
)


def _entry(label, params, kind, g, h, base, twist, white, restricted, notes=(), proj_dim=None):
    boundary = 2 if restricted.is_type_a else 1
    e = SymmetricSpaceEntry(
        label=label,
        params=tuple(sorted(params.items())),
        kind=kind,
        g_desc=g,
        h_desc=h,
        kac_base=base,
        kac_twist=twist,
        kac_white=tuple(sorted(white)),
        restricted=restricted,
        boundary_degree=boundary,
        isotropy_proj_dim=proj_dim,
        notes=tuple(notes),
    )
    if not validate_kac_marking(e.kac_diagram(), kind):
        raise AssertionError(f"atlas row {e.name} violates the white-node rule")
    return e


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# The Kac diagram of each parametrised family at parameter n, as (base
# family, base rank, twist).  The builders take their base from here, and
# enumeration reads node counts off it before building any row.
_KAC_SHAPES: Dict[str, Callable[[int], Tuple[str, int, int]]] = {
    **{f"group-{f}": (lambda n, f=f: (f, n, 1)) for f in "ABCDEFG"},
    "AI": lambda n: ("A", 2 * n, 2),
    "AI-even": lambda n: ("A", 2 * n - 1, 2),
    "AII": lambda n: ("A", 2 * n - 1, 2),
    "BI": lambda n: ("B", n, 1),
    "BII": lambda n: ("B", n, 1),
    "CII": lambda n: ("C", n, 1),
    "DI-odd": lambda n: ("D", n, 2),
    "DI-even": lambda n: ("D", n, 1),
    "DII": lambda n: ("D", n, 2),
    "herm-AIII": lambda n: ("A", n - 1, 1),
    "herm-BI": lambda n: ("B", n, 1),
    "herm-CI": lambda n: ("C", n, 1),
    "herm-DI": lambda n: ("D", n, 1),
    "herm-DIII-odd": lambda n: ("D", 2 * n + 1, 1),
    "herm-DIII-even": lambda n: ("D", 2 * n, 1),
}


def _kac(label: str, n: int) -> Tuple[CartanType, int]:
    fam, rank, twist = _KAC_SHAPES[label](n)
    return CartanType(fam, rank), twist


# ---------------------------------------------------------------------------
# Group type (one row per simple adjoint H)

_GROUP_NAMES = {
    "A": lambda n: f"PGL_{n + 1}",
    "B": lambda n: f"PO_{2 * n + 1}",
    "C": lambda n: f"PSp_{2 * n}",
    "D": lambda n: f"PO_{2 * n}",
    "E": lambda n: f"E_{n}^ad",
    "F": lambda n: "F_4^ad",
    "G": lambda n: "G_2^ad",
}

_GROUP_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}


def _group_entry(fam: str, n: int) -> SymmetricSpaceEntry:
    if fam in _GROUP_MIN_RANK:
        _require(n >= _GROUP_MIN_RANK[fam],
                 f"group-{fam} requires n >= {_GROUP_MIN_RANK[fam]} "
                 f"(smaller ranks duplicate another family)")
    h = _GROUP_NAMES[fam](n)
    proj = 2 if (fam, n) == ("A", 1) else None
    return _entry(
        f"group-{fam}", {"n": n} if fam in "ABCD" or fam == "E" else {},
        "group", f"{h} x {h}", h, *_kac(f"group-{fam}", n), (0,),
        RestrictedType(fam, n), proj_dim=proj,
    )


# ---------------------------------------------------------------------------
# Simple type (Table 2 rows) and Hermitian type (Table 3 rows)


def _ai(n: int) -> SymmetricSpaceEntry:
    _require(n >= 1, "AI requires n >= 1 (SL_{2n+1}/SO_{2n+1})")
    return _entry("AI", {"n": n}, "simple", f"SL_{2 * n + 1}", f"SO_{2 * n + 1}",
                  *_kac("AI", n), (0,), RestrictedType("A", 2 * n))


def _ai_even(n: int) -> SymmetricSpaceEntry:
    _require(n >= 2, "AI-even requires n >= 2 (SL_{2n}/SO_{2n}; n=1 is Hermitian AI)")
    white = 1 if n == 2 else n  # A_3^(2) degenerates to the three-node chain
    return _entry("AI-even", {"n": n}, "simple", f"SL_{2 * n}", f"SO_{2 * n}",
                  *_kac("AI-even", n), (white,), RestrictedType("A", 2 * n - 1))


def _aii(n: int) -> SymmetricSpaceEntry:
    _require(n >= 3, "AII requires n >= 3 (SL_4/Sp_4 duplicates DII at n=3)")
    return _entry("AII", {"n": n}, "simple", f"SL_{2 * n}", f"Sp_{2 * n}",
                  *_kac("AII", n), (0,), RestrictedType("A", n - 1))


def _bi(n: int, m: int) -> SymmetricSpaceEntry:
    _require(n >= 3, "BI requires n >= 3")
    _require(3 <= m <= 2 * n - 2,
             "BI requires 3 <= m <= 2n-2 (m = 2 or 2n-1 is the Hermitian BI row; "
             "m = 1 or 2n is BII)")
    m_even = m if m % 2 == 0 else 2 * n + 1 - m  # S(O_m x O_{2n+1-m}) is symmetric in m
    j = m_even // 2
    rest = RestrictedType("B", min(m, 2 * n + 1 - m))
    return _entry("BI", {"n": n, "m": m_even}, "simple", f"SO_{2 * n + 1}",
                  f"S(O_{m_even} x O_{2 * n + 1 - m_even})",
                  *_kac("BI", n), (j,), rest, notes=(NOTE_QUADRIC,))


def _bii(n: int) -> SymmetricSpaceEntry:
    _require(n >= 2, "BII requires n >= 2 (n = 1 is the Hermitian AI row)")
    return _entry("BII", {"n": n}, "simple", f"SO_{2 * n + 1}", f"O_{2 * n}",
                  *_kac("BII", n), (n,), RestrictedType("A", 1),
                  proj_dim=2 * n - 1)


def _cii(n: int, m: int) -> SymmetricSpaceEntry:
    _require(n >= 2, "CII requires n >= 2")
    _require(1 <= m <= n - 1, "CII requires 1 <= m <= n-1")
    m = min(m, n - m)
    rest = RestrictedType("C", m) if 2 * m == n else RestrictedType("BC", m)
    return _entry("CII", {"n": n, "m": m}, "simple", f"Sp_{2 * n}",
                  f"Sp_{2 * m} x Sp_{2 * (n - m)}",
                  *_kac("CII", n), (m,), rest)


def _di_odd(n: int, m: int) -> SymmetricSpaceEntry:
    _require(n >= 4, "DI-odd requires n >= 4 (SO_6/S(O_3 x O_3) duplicates AI-even)")
    _require(1 <= m <= n - 2, "DI-odd requires 1 <= m <= n-2")
    m = min(m, n - 1 - m)
    rest = RestrictedType("B", min(2 * m + 1, 2 * (n - m) - 1))
    return _entry("DI-odd", {"n": n, "m": m}, "simple", f"SO_{2 * n}",
                  f"S(O_{2 * m + 1} x O_{2 * (n - m) - 1})",
                  *_kac("DI-odd", n), (m,), rest, notes=(NOTE_QUADRIC,))


def _di_even(n: int, m: int) -> SymmetricSpaceEntry:
    _require(n >= 4, "DI-even requires n >= 4")
    _require(2 <= m <= n - 2,
             "DI-even requires 2 <= m <= n-2 (m = 1 is the Hermitian DI row)")
    m = min(m, n - m)
    rest = RestrictedType("D", n) if 2 * m == n else RestrictedType("B", 2 * m)
    return _entry("DI-even", {"n": n, "m": m}, "simple", f"SO_{2 * n}",
                  f"S(O_{2 * m} x O_{2 * (n - m)})",
                  *_kac("DI-even", n), (m,), rest, notes=(NOTE_QUADRIC,))


def _dii(n: int) -> SymmetricSpaceEntry:
    _require(n >= 3, "DII requires n >= 3")
    return _entry("DII", {"n": n}, "simple", f"SO_{2 * n}", f"O_{2 * n - 1}",
                  *_kac("DII", n), (0,), RestrictedType("A", 1),
                  proj_dim=2 * n - 2)


def _herm_aiii(n: int, m: int) -> SymmetricSpaceEntry:
    _require(n >= 3, "herm-AIII requires n >= 3 (n = 2 is the Hermitian AI row)")
    _require(1 <= m <= n - 1, "herm-AIII requires 1 <= m <= n-1")
    m = min(m, n - m)
    exceptional = 2 * m != n
    kind = "hermitian-exceptional" if exceptional else "hermitian-nonexceptional"
    rest = RestrictedType("BC", m) if exceptional else RestrictedType("C", m)
    return _entry("herm-AIII", {"n": n, "m": m}, kind, f"PGL_{n}",
                  f"P(GL_{m} x GL_{n - m})",
                  *_kac("herm-AIII", n), (0, m), rest)


def _herm_bi(n: int) -> SymmetricSpaceEntry:
    _require(n >= 3, "herm-BI requires n >= 3 (PO_5/P(O_2 x O_3) duplicates herm-CI)")
    return _entry("herm-BI", {"n": n}, "hermitian-nonexceptional", f"PO_{2 * n + 1}",
                  f"P(O_2 x O_{2 * n - 1})", *_kac("herm-BI", n), (0, 1),
                  RestrictedType("B", 2))


def _herm_ci(n: int) -> SymmetricSpaceEntry:
    _require(n >= 2, "herm-CI requires n >= 2")
    return _entry("herm-CI", {"n": n}, "hermitian-nonexceptional", f"PSp_{2 * n}",
                  f"PGL_{n}", *_kac("herm-CI", n), (0, n), RestrictedType("C", n))


def _herm_di(n: int) -> SymmetricSpaceEntry:
    _require(n >= 5, "herm-DI requires n >= 5 (PO_8/P(O_2 x O_6) duplicates herm-DIII by triality)")
    return _entry("herm-DI", {"n": n}, "hermitian-nonexceptional", f"PO_{2 * n}",
                  f"P(O_2 x O_{2 * n - 2})", *_kac("herm-DI", n), (0, 1),
                  RestrictedType("B", 2))


def _herm_diii_odd(n: int) -> SymmetricSpaceEntry:
    _require(n >= 2, "herm-DIII-odd requires n >= 2")
    rank = 2 * n + 1
    return _entry("herm-DIII-odd", {"n": n}, "hermitian-exceptional", f"PO_{4 * n + 2}",
                  f"PGL_{2 * n + 1}", *_kac("herm-DIII-odd", n), (0, rank),
                  RestrictedType("BC", n))


def _herm_diii_even(n: int) -> SymmetricSpaceEntry:
    _require(n >= 2, "herm-DIII-even requires n >= 2")
    rank = 2 * n
    return _entry("herm-DIII-even", {"n": n}, "hermitian-nonexceptional", f"PO_{4 * n}",
                  f"PGL_{2 * n}", *_kac("herm-DIII-even", n), (0, rank),
                  RestrictedType("C", n))


_FIXED_ROWS: Dict[str, Callable[[], SymmetricSpaceEntry]] = {
    "group-F": lambda: _group_entry("F", 4),
    "group-G": lambda: _group_entry("G", 2),
    "EI": lambda: _entry("EI", {}, "simple", "E_6", "C_4", CartanType("E", 6), 2, (1,),
                         RestrictedType("E", 6)),
    "EII": lambda: _entry("EII", {}, "simple", "E_6", "A_5 x A_1", CartanType("E", 6), 1, (2,),
                          RestrictedType("F", 4)),
    "EIV": lambda: _entry("EIV", {}, "simple", "E_6", "F_4", CartanType("E", 6), 2, (0,),
                          RestrictedType("A", 2), notes=(NOTE_EIV,)),
    "EV": lambda: _entry("EV", {}, "simple", "E_7", "A_7", CartanType("E", 7), 1, (2,),
                         RestrictedType("E", 7)),
    "EVI": lambda: _entry("EVI", {}, "simple", "E_7", "D_6 x A_1", CartanType("E", 7), 1, (6,),
                          RestrictedType("F", 4)),
    "EVIII": lambda: _entry("EVIII", {}, "simple", "E_8", "D_8", CartanType("E", 8), 1, (1,),
                            RestrictedType("E", 8)),
    "EIX": lambda: _entry("EIX", {}, "simple", "E_8", "E_7 x A_1", CartanType("E", 8), 1, (8,),
                          RestrictedType("F", 4)),
    "FI": lambda: _entry("FI", {}, "simple", "F_4", "C_3 x A_1", CartanType("F", 4), 1, (1,),
                         RestrictedType("F", 4)),
    "FII": lambda: _entry("FII", {}, "simple", "F_4", "B_4", CartanType("F", 4), 1, (4,),
                          RestrictedType("BC", 1)),
    "G": lambda: _entry("G", {}, "simple", "G_2", "A_1 x A_1", CartanType("G", 2), 1, (2,),
                        RestrictedType("G", 2)),
    "herm-AI": lambda: _entry("herm-AI", {}, "hermitian-nonexceptional", "PGL_2", "PO_2",
                              CartanType("A", 1), 1, (0, 1), RestrictedType("A", 1),
                              proj_dim=1),
    "herm-EIII": lambda: _entry("herm-EIII", {}, "hermitian-exceptional", "E_6^ad",
                                "D_5 x C*", CartanType("E", 6), 1, (0, 1),
                                RestrictedType("BC", 2)),
    "herm-EVII": lambda: _entry("herm-EVII", {}, "hermitian-nonexceptional", "E_7^ad",
                                "E_6 x C*", CartanType("E", 7), 1, (0, 7),
                                RestrictedType("C", 3)),
}

_N_FAMILIES: Dict[str, Callable[[int], SymmetricSpaceEntry]] = {
    "group-A": lambda n: _group_entry("A", n),
    "group-B": lambda n: _group_entry("B", n),
    "group-C": lambda n: _group_entry("C", n),
    "group-D": lambda n: _group_entry("D", n),
    "group-E": lambda n: _group_entry("E", n),
    "AI": _ai,
    "AI-even": _ai_even,
    "AII": _aii,
    "BII": _bii,
    "DII": _dii,
    "herm-BI": _herm_bi,
    "herm-CI": _herm_ci,
    "herm-DI": _herm_di,
    "herm-DIII-odd": _herm_diii_odd,
    "herm-DIII-even": _herm_diii_even,
}

_NM_FAMILIES: Dict[str, Callable[[int, int], SymmetricSpaceEntry]] = {
    "BI": _bi,
    "CII": _cii,
    "DI-odd": _di_odd,
    "DI-even": _di_even,
    "herm-AIII": _herm_aiii,
}

ALL_LABELS: Tuple[str, ...] = tuple(
    list(_N_FAMILIES) + list(_NM_FAMILIES) + list(_FIXED_ROWS)
)


def _normalize_label(label: str) -> Tuple[str, Optional[int]]:
    """Case-insensitive label matching; accepts forms like 'group-E7'."""
    raw = label.strip().replace("_", "")
    low = raw.lower()
    by_low = {name.lower().replace("_", ""): name for name in ALL_LABELS}
    if low in by_low:
        return by_low[low], None
    # A trailing rank glued onto a group label: group-B3, group-E7, ...
    for name in ("group-A", "group-B", "group-C", "group-D", "group-E"):
        prefix = name.lower()
        if low.startswith(prefix) and low[len(prefix):].isdigit():
            return name, int(low[len(prefix):])
    if low in ("group-f4", "group-f"):
        return "group-F", None
    if low in ("group-g2", "group-g"):
        return "group-G", None
    raise ValueError(f"unknown label {label!r}")


def lookup(label: str, params: Optional[Dict[str, int]] = None) -> SymmetricSpaceEntry:
    """Fetch one atlas row; errors name the violated parameter bound."""
    params = dict(params or {})
    name, glued_n = _normalize_label(label)
    if glued_n is not None:
        if params.get("n", glued_n) != glued_n:
            raise ValueError(f"conflicting rank in {label!r} and n={params['n']}")
        params["n"] = glued_n
    if name in _FIXED_ROWS:
        if params:
            raise ValueError(f"{name} takes no parameters")
        return _FIXED_ROWS[name]()
    if name in _N_FAMILIES:
        if set(params) != {"n"}:
            raise ValueError(f"{name} requires exactly the parameter n")
    elif set(params) != {"n", "m"}:
        raise ValueError(f"{name} requires exactly the parameters n and m")
    # The bound of enumerate_entries, checked before any row is built.
    if affine_node_count(*_KAC_SHAPES[name](params["n"])) > MAX_RANK + 1:
        raise ValueError(f"{name} at n={params['n']} has a Kac diagram of more than "
                         f"MAX_RANK + 1 = {MAX_RANK + 1} nodes")
    if name in _N_FAMILIES:
        return _N_FAMILIES[name](params["n"])
    return _NM_FAMILIES[name](params["n"], params["m"])


def kac_diagram(e: SymmetricSpaceEntry) -> MarkedKacDiagram:
    return e.kac_diagram()


def _family_instances(label: str, max_nodes: int) -> Iterable[SymmetricSpaceEntry]:
    if label in _FIXED_ROWS:
        e = _FIXED_ROWS[label]()
        if e.num_kac_nodes <= max_nodes:
            yield e
        return
    # Node counts grow with n and do not depend on m, so the cut on n is
    # made before any row is built.
    build = _N_FAMILIES.get(label) or _NM_FAMILIES[label]
    n = 1
    while affine_node_count(*_KAC_SHAPES[label](n)) <= max_nodes:
        args = [(n,)] if label in _N_FAMILIES else [(n, m) for m in range(1, 2 * n + 2)]
        rows: Dict[Tuple[Tuple[str, int], ...], SymmetricSpaceEntry] = {}
        for a in args:
            try:
                e = build(*a)
            except ValueError:
                continue
            rows.setdefault(e.params, e)  # m and its mirror give one row
        yield from rows.values()
        n += 1


MAX_RANK = 100


def enumerate_entries(max_rank: int) -> Tuple[SymmetricSpaceEntry, ...]:
    """Every family at every admissible parameter choice whose Kac diagram
    has at most max_rank + 1 nodes, in deterministic order."""
    if not 2 <= max_rank <= MAX_RANK:
        raise ValueError(f"enumerate requires 2 <= max_rank <= {MAX_RANK}")
    out: List[SymmetricSpaceEntry] = []
    for label in ALL_LABELS:
        out.extend(_family_instances(label, max_rank + 1))
    return tuple(out)
