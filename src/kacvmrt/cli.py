"""Command-line front end.

Thin adapters over the library: lookup and rendering (list/kac/zorbit/vmrt),
parsing helpers (dim/fold), the verification sweep (verify) and the JSON
catalogue export (export-atlas).  No classification logic lives here.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .atlas import MAX_RANK, enumerate_entries, lookup
from .diagrams import MarkedDynkinDiagram, parabolic_dimension
from .engine import FOLDING_PAIRS, fold, identify, vmrt, z_dimension, z_orbit_diagram
from .render import FORMATS, ParseError, parse, render, to_canonical_text
from .verify import format_results, run_all


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kacvmrt",
        description="Marked Dynkin diagrams of VMRTs of wonderful symmetric varieties",
    )
    p.add_argument("--version", action="version", version=f"kacvmrt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_entry_args(sp):
        sp.add_argument("label", help="atlas label, e.g. group-B, AI, herm-CI (case-insensitive)")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)

    def add_format(sp):
        sp.add_argument("--format", choices=FORMATS, default="ascii")

    sp = sub.add_parser("list", help="print atlas entries up to a rank bound")
    sp.add_argument("--max-rank", type=int, default=8)

    for name, help_text in (
        ("kac", "print the marked Kac diagram of an entry"),
        ("zorbit", "print the marked Dynkin diagram(s) of the H-orbit Z"),
        ("vmrt", "print the VMRT of an entry"),
    ):
        sp = sub.add_parser(name, help=help_text)
        add_entry_args(sp)
        add_format(sp)

    sp = sub.add_parser("dim", help="parabolic dimension of a canonical-text diagram")
    sp.add_argument("diagram")

    sp = sub.add_parser("fold", help="apply a named folding to a canonical-text diagram")
    sp.add_argument("pair", choices=sorted(FOLDING_PAIRS))
    sp.add_argument("diagram")
    add_format(sp)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--max-rank", type=int, default=12)

    sp = sub.add_parser("export-atlas", help="write the machine-readable catalogue")
    sp.add_argument("--max-rank", type=int, default=12)
    sp.add_argument("--out", default="atlas.json")
    return p


def _params(args) -> dict:
    out = {}
    if args.n is not None:
        out["n"] = args.n
    if args.m is not None:
        out["m"] = args.m
    return out


def _entry_json(e) -> dict:
    kac = e.kac_diagram()
    zs = z_orbit_diagram(kac, e.kind)
    v = vmrt(e)
    return {
        "label": e.label,
        "params": dict(e.params),
        "kind": e.kind,
        "g": e.g_desc,
        "h": e.h_desc,
        "kac": to_canonical_text(kac),
        "restricted_type": str(e.restricted),
        "boundary_degree": e.boundary_degree,
        "z": [to_canonical_text(z) for z in zs],
        "z_dim": z_dimension(zs[0]),
        "vmrt": [to_canonical_text(c) for c in v.components],
        "vmrt_kind": v.kind,
        "vmrt_dim": v.dimension,
        "identification": v.identification,
        "notes": list(e.notes),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except AssertionError as ex:
        # A broken internal invariant, not bad input.
        print(f"internal error: {ex}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    max_rank = getattr(args, "max_rank", None)
    if max_rank is not None and not 2 <= max_rank <= MAX_RANK:
        raise ValueError(f"--max-rank must lie between 2 and {MAX_RANK}")

    if args.command == "list":
        for e in enumerate_entries(args.max_rank):
            print(f"{e.name:24s} {e.kind:26s} {e.g_desc} / {e.h_desc}"
                  f"  [restricted {e.restricted}, boundary {e.boundary_degree}]")
        return 0

    if args.command == "kac":
        e = lookup(args.label, _params(args))
        print(render(e.kac_diagram(), args.format))
        return 0

    if args.command == "zorbit":
        e = lookup(args.label, _params(args))
        zs = z_orbit_diagram(e.kac_diagram(), e.kind)
        for z in zs:
            print(render(z, args.format))
        print(f"dim {z_dimension(zs[0])}")
        print(" u ".join(identify(z) for z in zs))
        return 0

    if args.command == "vmrt":
        e = lookup(args.label, _params(args))
        v = vmrt(e)
        print(f"{v.identification}, dim {v.dimension}")
        for c in v.components:
            print(render(c, args.format))
        if v.ambient_note:
            print(v.ambient_note)
        return 0

    if args.command == "dim":
        try:
            d = parse(args.diagram)
        except ParseError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
        if not isinstance(d, MarkedDynkinDiagram):
            print("error: dim expects a finite marked diagram", file=sys.stderr)
            return 2
        print(parabolic_dimension(d.diagram, d.crossed))
        return 0

    if args.command == "fold":
        try:
            d = parse(args.diagram)
        except ParseError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
        if not isinstance(d, MarkedDynkinDiagram):
            print("error: fold expects a finite marked diagram", file=sys.stderr)
            return 2
        print(render(fold(d, args.pair), args.format))
        return 0

    if args.command == "verify":
        results = run_all(args.max_rank)
        print(format_results(results))
        return 0 if all(r.status != "FAIL" for r in results) else 1

    if args.command == "export-atlas":
        entries = [_entry_json(e) for e in enumerate_entries(args.max_rank)]
        payload = json.dumps({"max_rank": args.max_rank, "entries": entries}, indent=1)
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {len(entries)} entries to {args.out}")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
