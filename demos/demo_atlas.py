#!/usr/bin/env python3
"""Walk the classification atlas and print, for a sample of symmetric
spaces, the marked Kac diagram, the H-orbit Z it produces, and the VMRT
with its dimension bookkeeping.

Run:  python3 demos/demo_atlas.py
"""

from kacvmrt import enumerate_entries, lookup, to_ascii, to_canonical_text, vmrt

SAMPLE = [
    ("group-G", {}),            # (G_2 x G_2)/G_2: the G_2 adjoint variety
    ("AI", {"n": 1}),           # SL_3/SO_3: the quadruple bond, nu_4(P^1)
    ("AI", {"n": 2}),           # SL_5/SO_5: restricted type A, dim Z + 1
    ("BII", {"n": 3}),          # SO_7/O_6: restricted A_1, full P(p)
    ("FII", {}),                # F_4/B_4: the spinor OG(4,9)
    ("herm-CI", {"n": 3}),      # PSp_6/PGL_3: sigma-paired Veronese pair
    ("herm-EVII", {}),          # E_7/(E_6 x C*): E_6/P_1 u E_6/P_6
]


def show(label, params):
    e = lookup(label, params)
    kac = e.kac_diagram()
    v = vmrt(e)  # carries the Z diagram(s) and dim Z it was read from
    print("=" * 64)
    print(f"{e.name}: {e.g_desc} / {e.h_desc}   [{e.kind}]")
    print(f"restricted type {e.restricted}, boundary degree {e.boundary_degree}")
    print("marked Kac diagram:")
    print("  " + to_ascii(kac).replace("\n", "\n  "))
    print(f"Z diagram(s): {', '.join(to_canonical_text(z) for z in v.z)}")
    print(f"dim Z = {v.z_dim}")
    print(f"VMRT: {v.identification}, dim {v.dimension} "
          f"(= dim Z + {e.boundary_degree} - 1)   [{v.kind}]")
    if v.ambient_note:
        print(f"ambient: {v.ambient_note}")


def main():
    for label, params in SAMPLE:
        show(label, params)

    print("=" * 64)
    entries = enumerate_entries(8)
    by_kind = {}
    for e in entries:
        by_kind.setdefault(e.kind, []).append(e)
    print(f"atlas at max rank 8: {len(entries)} spaces")
    for kind, group in sorted(by_kind.items()):
        print(f"  {kind:26s} {len(group)}")
    type_a = [e.name for e in entries if e.restricted.is_type_a and e.restricted.rank >= 2]
    print(f"restricted type A_r (r >= 2), where the VMRT outgrows Z: {len(type_a)} spaces")
    print("  " + ", ".join(type_a))


if __name__ == "__main__":
    main()
