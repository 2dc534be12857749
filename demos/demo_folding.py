#!/usr/bin/env python3
"""The restricted-type-A story: when the restricted root system is A_r
with r >= 2, the VMRT lives in an ambient pair (G, P_lambda) one dimension
above the H-orbit Z, and its marked diagram folds onto the diagram of Z.

This script runs the three displayed foldings and then mechanises the
check across all four foldable families.

Run:  python3 demos/demo_folding.py
"""

from kacvmrt import fold, lookup, to_ascii, to_canonical_text, vmrt
from kacvmrt.engine import entry_folding_pair, fold_consistency


def show_fold(title, label, params):
    e = lookup(label, params)
    pair = entry_folding_pair(e)
    v = vmrt(e)
    src = v.components[0]
    out = fold(src, pair)
    (z,) = v.z
    print("=" * 64)
    print(f"{title}   [{e.name}: {e.g_desc}/{e.h_desc}, folding {pair}]")
    print(f"VMRT {v.identification} (dim {v.dimension}):")
    print("  " + to_ascii(src).replace("\n", "\n  "))
    print(f"folds to: {to_canonical_text(out)}")
    print(f"Z diagram: {to_canonical_text(z)}"
          f"   ->  {'match' if to_canonical_text(out) == to_canonical_text(z) else 'MISMATCH'}")


def main():
    # The three displayed instances (the first is drawn at SL_11/SO_11,
    # i.e. nu_2(P^10) -> nu_2(Q_9)).
    show_fold("nu_2(P^10) -> nu_2(Q_9)", "AI", {"n": 5})
    show_fold("Gr(2,10) -> IG(2,10)", "AII", {"n": 5})
    show_fold("E_6/P_1 -> F_4/P_4", "EIV", {})
    # Group type folds the two identical copies onto each other.
    show_fold("P^7 x (P^7)* -> Flag(1,7)", "group-A", {"n": 7})

    print("=" * 64)
    cases = (
        [("group-A", {"n": r}) for r in range(2, 11)]
        + [("AI", {"n": n}) for n in range(1, 6)]
        + [("AII", {"n": n}) for n in range(3, 12)]
        + [("EIV", {})]
    )
    ok = sum(fold_consistency(lookup(l, p)) for l, p in cases)
    print(f"fold consistency across restricted-type-A families: {ok}/{len(cases)}")


if __name__ == "__main__":
    main()
