"""Byte-stability of every diagram the atlas gives up to rank 30.

For each entry, its Kac diagram, Z diagrams and VMRT diagrams are written
as canonical text, as JSON, and as the JSON of that text parsed back.  The
fixture holds a SHA-256 prefix of those lines per entry, so it pins the
canonical texts, the JSON (sigma pairs included) and where parsing puts the
white nodes and the sigma pairs.  Regenerate it only for an intended change
of output:

    PYTHONPATH=src python tests/test_digest.py > tests/fixtures/digest_rank30.txt
"""

import hashlib
import os

from kacvmrt.atlas import enumerate_entries
from kacvmrt.engine import vmrt
from kacvmrt.render import parse, to_canonical_text, to_json

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "digest_rank30.txt")
MAX_RANK = 30


def entry_digests(max_rank):
    """(entry name, digest, number of diagrams) for every entry."""
    out = []
    for e in enumerate_entries(max_rank):
        v = vmrt(e)
        diagrams = (e.kac_diagram(),) + v.z + v.components
        h = hashlib.sha256()
        for d in diagrams:
            text = to_canonical_text(d)
            h.update(f"{text}\n{to_json(d)}\n{to_json(parse(text))}\n".encode())
        out.append((e.name, h.hexdigest()[:16], len(diagrams)))
    return out


def test_every_diagram_up_to_rank_30_is_pinned():
    with open(FIXTURE) as fh:
        want = [line.split() for line in fh.read().splitlines()]
    got = entry_digests(MAX_RANK)
    assert sum(n for _, _, n in got) == 5509
    assert [name for name, _, _ in got] == [name for name, _ in want]
    changed = [name for (name, digest, _), (_, pinned) in zip(got, want) if digest != pinned]
    assert changed == []


if __name__ == "__main__":
    for name, digest, _ in entry_digests(MAX_RANK):
        print(name, digest)
