"""Byte-stability of the presentation emitters up to rank 30.

For each entry, its Kac diagram, Z diagrams and VMRT diagrams are written
with `to_ascii`, `to_latex` and `to_dot`.  The fixture holds one line per
entry: its name and a SHA-256 prefix per emitter, so a change to one
emitter shows in its own column.  The canonical text and JSON are pinned
by test_digest.py; these pin the layout that the text spines drive.
Regenerate the fixture only for an intended change of output:

    PYTHONPATH=src python tests/test_presentations.py > tests/fixtures/presentations_rank30.txt
"""

import hashlib
import os

from kacvmrt.atlas import enumerate_entries
from kacvmrt.engine import vmrt
from kacvmrt.presentation import to_ascii, to_dot, to_latex

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "presentations_rank30.txt")
MAX_RANK = 30
EMITTERS = (to_ascii, to_latex, to_dot)


def entry_digests(max_rank):
    """[entry name, ascii digest, latex digest, dot digest] for every entry."""
    out = []
    for e in enumerate_entries(max_rank):
        v = vmrt(e)
        diagrams = (e.kac_diagram(),) + v.z + v.components
        row = [e.name]
        for emit in EMITTERS:
            h = hashlib.sha256()
            for d in diagrams:
                h.update(f"{emit(d)}\n".encode())
            row.append(h.hexdigest()[:16])
        out.append(row)
    return out


def test_every_presentation_up_to_rank_30_is_pinned():
    with open(FIXTURE) as fh:
        want = [line.split() for line in fh.read().splitlines()]
    got = entry_digests(MAX_RANK)
    assert [row[0] for row in got] == [row[0] for row in want]
    for col, emit in enumerate(EMITTERS, start=1):
        changed = [g[0] for g, w in zip(got, want) if g[col] != w[col]]
        assert changed == [], emit.__name__


if __name__ == "__main__":
    for row in entry_digests(MAX_RANK):
        print(" ".join(row))
