"""Command-line front end.

Thin adapters over the library: lookup and rendering (list/kac/zorbit/vmrt),
parsing helpers (dim/fold), the verification sweep (verify) and the JSON
catalogue export (export-atlas).  No classification logic lives here.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from . import __version__
from .affine import MAX_RANK
from .diagrams import Classes, MarkedDynkinDiagram, parabolic_dimension
from .render import FORMATS, _finite_canonical, render, to_canonical_text

# Each command imports the modules that only it needs (the atlas, the engine,
# the reader, folding, the sweep) in its own branch, so a fresh process
# compiles no module its command does not run.  The parser names the fold
# pairs itself: sorted(folding.FOLDING_PAIRS), which a test pins.
_FOLD_PAIRS = ("ab", "ac", "db", "ef", "swap")


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
    sp.add_argument("pair", choices=_FOLD_PAIRS)
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


def _finite_marked(args) -> Tuple[MarkedDynkinDiagram, Classes]:
    """The diagram that dim and fold read, which must be finite and marked,
    and the classes the reader found for it."""
    from .parsing import _read

    d, classes = _read(args.diagram)
    if not isinstance(d, MarkedDynkinDiagram):
        raise ValueError(f"{args.command} expects a finite marked diagram")
    return d, classes


def _entry_json(e) -> dict:
    # The Z and VMRT texts are written from the classes vmrt already holds.
    from .engine import vmrt

    v = vmrt(e)
    z = [_finite_canonical(c, k) for c, k in zip(v.z, v.z_classes)]
    vmrt_texts = z if v.components is v.z else [_finite_canonical(c, k) for c, k in zip(v.components, v.classes)]
    return {
        "label": e.label,
        "params": dict(e.params),
        "kind": e.kind,
        "g": e.g_desc,
        "h": e.h_desc,
        "kac": to_canonical_text(e.kac_diagram()),
        "restricted_type": str(e.restricted),
        "boundary_degree": e.boundary_degree,
        "z": z,
        "z_dim": v.z_dim,
        "vmrt": vmrt_texts,
        "vmrt_kind": v.kind,
        "vmrt_dim": v.dimension,
        "identification": v.identification,
        "notes": list(e.notes),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`): exit quietly with the code a
        # shell gives a process SIGPIPE kills, 128 + 13, stdout on devnull
        # so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
        from .atlas import enumerate_entries

        for e in enumerate_entries(args.max_rank):
            print(f"{e.name:24s} {e.kind:26s} {e.g_desc} / {e.h_desc}"
                  f"  [restricted {e.restricted}, boundary {e.boundary_degree}]")
        return 0

    if args.command == "kac":
        from .atlas import lookup

        e = lookup(args.label, _params(args))
        print(render(e.kac_diagram(), args.format))
        return 0

    if args.command == "zorbit":
        from .atlas import lookup
        from .engine import _z_orbit

        e = lookup(args.label, _params(args))
        zs, zdim, name, _ = _z_orbit(e.kac_diagram(), e.kind)
        for z in zs:
            print(render(z, args.format))
        print(f"dim {zdim}")
        print(name)
        return 0

    if args.command == "vmrt":
        from .atlas import lookup
        from .engine import vmrt

        e = lookup(args.label, _params(args))
        v = vmrt(e)
        print(f"{v.identification}, dim {v.dimension}")
        for c in v.components:
            print(render(c, args.format))
        if v.ambient_note:
            print(v.ambient_note)
        return 0

    if args.command == "dim":
        d, classes = _finite_marked(args)
        print(parabolic_dimension(d.diagram, d.crossed, classes))
        return 0

    if args.command == "fold":
        from .folding import fold

        d, classes = _finite_marked(args)
        print(render(fold(d, args.pair, classes), args.format))
        return 0

    if args.command == "verify":
        from .verify import format_results, run_all

        results = run_all(args.max_rank)
        print(format_results(results))
        return 0 if all(r.status != "FAIL" for r in results) else 1

    if args.command == "export-atlas":
        import json

        from .atlas import enumerate_entries

        entries = [_entry_json(e) for e in enumerate_entries(args.max_rank)]
        payload = json.dumps({"max_rank": args.max_rank, "entries": entries}, indent=1)
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {len(entries)} entries to {args.out}")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
