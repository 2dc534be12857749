"""Mutation checks: each mutant is a small deliberate fault in src/ that
the named test files must catch.

For each mutant, a temporary copy of src/ is patched (one exact text, which
must occur once in its file, replaced by another) and pytest runs the
mutant's test files against the copy.  The mutant is killed when a test
fails.  Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

Exit status: 0 when every mutant is killed; 1 when one survives or its
run errs (pytest exits other than 0 or 1); 2 when a mutant's old text
no longer occurs exactly once, so the list needs mending.  Each later
check adds its mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # under src/kacvmrt/
    old: str
    new: str
    tests: Tuple[str, ...]  # test files, relative to the repository root


MUTANTS: Tuple[Mutant, ...] = (
    # The right half of a sigma-paired Z keeps the left half's node ids.
    Mutant("sigma-classes-unshifted", "engine.py",
           "{v + offset: i for v, i in mapping.items()}",
           "{v: i for v, i in mapping.items()}",
           ("tests/test_engine.py",)),
    # The ambient pair (G, P_lambda) is written with the classes of Z.
    Mutant("type-a-component-given-z-classes", "engine.py",
           "z_classes=zclasses, classes=(classes,),",
           "z_classes=zclasses, classes=zclasses,",
           ("tests/test_engine.py", "tests/test_cli.py")),
    # Affine canonical text tries the automorphisms of the greatest first
    # token instead of the least.
    Mutant("affine-greatest-first-token", "render.py",
           'first = min([marks.get(nodes[0], "o") for nodes in images])',
           'first = max([marks.get(nodes[0], "o") for nodes in images])',
           ("tests/test_render.py", "tests/test_oracles.py")),
    # The Levi factor D_{k+2} of a D diagram counted as (k+2)k roots.
    Mutant("levi-d-factor-miscounted", "diagrams.py",
           "return levi + (k + 2) * (k + 1)",
           "return levi + (k + 2) * k",
           ("tests/test_diagrams.py", "tests/test_oracles.py")),
    # The Bourbaki class of a standard diagram read backwards.
    Mutant("bourbaki-reversed", "diagrams.py",
           "return t, {first + i: i + 1 for i in range(t.rank)}",
           "return t, {first + i: t.rank - i for i in range(t.rank)}",
           ("tests/test_engine.py", "tests/test_verify.py")),
    # The template reader takes the greatest image tuple as the isomorphism.
    Mutant("kac-reader-greatest-image", "parsing.py",
           "least = min(images)",
           "least = max(images)",
           ("tests/test_oracles.py", "tests/test_render.py")),
    # The template reader accepts a filling that is not the least text.
    Mutant("kac-reader-no-canonical-check", "parsing.py",
           'return m if _affine_canonical(a, dict.fromkeys(m.white, "O")) == s else None',
           "return m",
           ("tests/test_oracles.py", "tests/test_render.py")),
    # Affine candidates keep the types whose finite part has another rank,
    # so E_6^(2) and D_4^(3) are listed for every node count.
    Mutant("affine-candidates-unfiltered", "recognition.py",
           "if t.rank == r:  # the finite part of r + 1 nodes",
           "if True:",
           ("tests/test_oracles.py", "tests/test_render.py")),
    # The reader hands over the classes of a finite text less its first
    # component.
    Mutant("read-drops-a-class", "parsing.py",
           "return marked(d, crossed, ann), classes",
           "return marked(d, crossed, ann), classes[1:]",
           ("tests/test_render.py", "tests/test_verify.py", "tests/test_cli.py")),
    # The reader hands over the classes of one half of a sigma text.
    Mutant("read-sigma-hands-one-half", "parsing.py",
           "return marked(d, crossed, ann, sorted(iso.items())), classes",
           "return marked(d, crossed, ann, sorted(iso.items())), left",
           ("tests/test_render.py", "tests/test_verify.py")),
    # The ambient dimension of (G, P_lambda) is counted with Z's classes.
    Mutant("ambient-dimension-given-z-classes", "verify.py",
           "parabolic_dimension(gp.diagram, gp.crossed, v.classes[0])",
           "parabolic_dimension(gp.diagram, gp.crossed, v.z_classes[0])",
           ("tests/test_verify.py",)),
    # B_2^(1)'s node-0 bond points its arrow at node 0.
    Mutant("b2-node-zero-short-end-on-0", "affine.py",
           "bonds = ((2, 2, 2),)",
           "bonds = ((2, 2, 0),)",
           ("tests/test_affine.py",)),
    # The null check sums each bond one way only, dropping <alpha_b, alpha_a^vee>.
    Mutant("null-check-one-way", "affine.py",
           "        column[e.a] += labels[e.b] * _pairing(e, e.a)\n",
           "",
           ("tests/test_affine.py",)),
    # A_{2l-1}^(2) counted as l nodes: the one statement of a twisted
    # type's finite rank, which its Kac shape reads too, is off by one.
    Mutant("twisted-a-rank-halved-down", "affine.py",
           '{"A": (rank + 1) // 2,',
           '{"A": rank // 2,',
           ("tests/test_affine.py",)),
    # EII's Kac diagram read as E_7^(1), whose node 2 also has label 2, so
    # the white-node rule still passes.
    Mutant("fixed-row-wrong-kac-shape", "atlas.py",
           '"EII": lambda n: ("E", 6, 1),',
           '"EII": lambda n: ("E", 7, 1),',
           ("tests/test_atlas.py",)),
    # Node 0's deletion key reads its bonds from the far end.
    Mutant("node-zero-key-seen-from-far-end", "recognition.py",
           "_edge_signature(Edge(0, i, mult, short), 0)",
           "_edge_signature(Edge(0, i, mult, short), i)",
           ("tests/test_affine.py",)),
    # CII builds a row for every m, its mirror included.
    Mutant("cii-every-m", "atlas.py",
           '"CII": lambda n: range(1, n // 2 + 1),',
           '"CII": lambda n: range(1, n),',
           ("tests/test_atlas.py",)),
    # The CLI loads the engine (and with it the atlas) for every command.
    Mutant("cli-imports-engine-at-top", "cli.py",
           "from .affine import MAX_RANK\n",
           "from . import engine  # noqa: F401\nfrom .affine import MAX_RANK\n",
           ("tests/test_cli.py",)),
    # fold_consistency folds the ambient diagram with the classes of Z.
    Mutant("fold-consistency-given-z-classes", "engine.py",
           "_fold(v.components[0], pair, v.classes[0])",
           "_fold(v.components[0], pair, v.z_classes[0])",
           ("tests/test_engine.py", "tests/test_verify.py")),
    # Re-validation compares only the multiplicity of each bond, not its
    # short end, so B_n read as C_n passes.
    Mutant("revalidation-ignores-short-end", "diagrams.py",
           "left.pop((i, j) if i < j else (j, i), None) != (e.mult, s if s is None else get(s, 0))",
           "left.pop((i, j) if i < j else (j, i), (0,))[0] != e.mult",
           ("tests/test_diagrams.py", "tests/test_classify.py")),
    # Re-validation does not ask that every bond of the type was hit.
    Mutant("revalidation-misses-an-unhit-bond", "diagrams.py",
           "            if not left:\n",
           "            if True:\n",
           ("tests/test_classify.py",)),
    # A chain of type A is numbered from its greatest leaf, not its least.
    Mutant("chain-from-greatest-leaf", "diagrams.py",
           "_chain_from(adj, None, min(v for v in comp if deg[v] == 1))",
           "_chain_from(adj, None, max(v for v in comp if deg[v] == 1))",
           ("tests/test_classify.py",)),
    # The one-component shortcut hands over its nodes in walk order, not
    # sorted.
    Mutant("connected-component-in-walk-order", "diagrams.py",
           "return (tuple(nodes),)",
           "return (tuple(comp),)",
           ("tests/test_diagrams.py", "tests/test_classify.py")),
    # The arms of a branch node are ordered by length alone, so D_4's and
    # E_6's equal arms keep the order of the adjacency map, not of node ids.
    Mutant("arms-ordered-by-length-only", "diagrams.py",
           "key=lambda a: (len(a), a[-1])",
           "key=len",
           ("tests/test_classify.py",)),
    # The branch test of a component with a double bond yields node ids, so
    # a branch node with id 0 passes it.
    Mutant("double-bond-branch-reads-node-id", "diagrams.py",
           "any(deg[v] > 2 for v in comp)",
           "any(v for v in comp if deg[v] > 2)",
           ("tests/test_diagrams.py",)),
    # The finite templates are filled under the identity alone, so a
    # component's text depends on which end its classification starts at.
    Mutant("finite-templates-identity-only", "render.py",
           "for aut in diagram_automorphisms(t)])",
           "for aut in diagram_automorphisms(t)[:1]])",
           ("tests/test_oracles.py",)),
    # The right half of a sigma-paired Z gets classes one node off.
    Mutant("sigma-classes-shifted-one-node", "engine.py",
           "{v + offset: i for v, i in mapping.items()}",
           "{v + offset + 1: i for v, i in mapping.items()}",
           ("tests/test_oracles.py",)),
    # A diagram keeps its edges in the order they were given.
    Mutant("edges-kept-in-input-order", "diagrams.py",
           "    if not isinstance(edges, (set, frozenset)):\n        edges = set(edges)\n    try:\n"
           "        return tuple(sorted(edges, key=Edge._values))  # the field tuple, read in C\n",
           "    try:\n        return tuple(dict.fromkeys(edges))\n",
           ("tests/test_diagrams.py",)),
    # The tokeniser tries the shortest bond tokens first: # before #> and
    # ####, = before =>.
    Mutant("reader-shortest-bond-first", "parsing.py",
           "sorted(_EDGE_DECODE, key=len, reverse=True)",
           "sorted(_EDGE_DECODE, key=len)",
           ("tests/test_render.py",)),
    # The tokeniser takes the annotation x[1].
    Mutant("reader-annotation-bound", "parsing.py",
           "if k < 2:",
           "if k < 1:",
           ("tests/test_render.py",)),
    # A marked diagram keeps its crossed nodes in the order of a set, so
    # equal diagrams can differ.
    Mutant("crossed-unsorted", "diagrams.py",
           "crossed = tuple(sorted(cross))",
           "crossed = tuple(cross)",
           ("tests/test_diagrams.py",)),
    # dim P(p) of a restricted-A_1 entry drops the centre of g_0, so the
    # Hermitian PGL_2/PO_2 reads P^2.
    Mutant("isotropy-dimension-drops-the-centre", "engine.py",
           "- len(e.kac_white))",
           "- 1)",
           ("tests/test_engine.py",)),
)


def _run(m: Mutant, tmp: str) -> str:
    """'killed', 'survived', 'stale' or 'error'; an error prints the tail
    of pytest's output."""
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(src, "kacvmrt", m.file)
    with open(path) as fh:
        text = fh.read()
    if text.count(m.old) != 1:
        return "stale"
    with open(path, "w") as fh:
        fh.write(text.replace(m.old, m.new))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout[-2000:])
        return "error"
    return "killed" if proc.returncode == 1 else "survived"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    outcomes = []
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        with tempfile.TemporaryDirectory(prefix="kacvmrt-mutant-") as tmp:
            outcome = _run(m, tmp)
        print(f"{m.name:36s} {outcome}", flush=True)
        outcomes.append(outcome)
    if "stale" in outcomes:
        return 2
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
