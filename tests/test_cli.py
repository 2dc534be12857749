"""CLI behaviour: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from kacvmrt import cli, diagrams
from kacvmrt.atlas import enumerate_entries
from kacvmrt.cli import main
from kacvmrt.engine import vmrt


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def hook_classify(monkeypatch):
    """The diagrams classify is called on from now on, in every loaded
    kacvmrt module."""
    recognised = []
    real = diagrams.classify
    for module in [m for name, m in sys.modules.items() if name.startswith("kacvmrt")]:
        if getattr(module, "classify", None) is real:
            monkeypatch.setattr(module, "classify", lambda d: recognised.append(d) or real(d))
    return recognised


def test_vmrt_group_g(capsys):
    code, out, _ = run(capsys, "vmrt", "group-G")
    assert code == 0
    assert out.splitlines()[0] == "G_2/P_2, dim 5"
    assert "x" in out


def test_vmrt_formats(capsys):
    for fmt in ("ascii", "canonical", "json", "dot", "latex"):
        code, out, _ = run(capsys, "vmrt", "AI", "--n", "2", "--format", fmt)
        assert code == 0 and "v_2(P^4), dim 4" in out


def test_dim_parses_canonical_text(capsys):
    code, out, _ = run(capsys, "dim", "o-x-o(o)-o")
    assert code == 0 and out.strip() == "13"
    code, out, _ = run(capsys, "dim", "o-x=>o")
    assert code == 0 and out.strip() == "7"


def test_dim_classifies_its_diagram_once(capsys, monkeypatch):
    # dim takes the reader's classes: one classify per text, sigma ones too.
    import kacvmrt.parsing  # noqa: F401  (loaded, so that it is hooked too)

    recognised = hook_classify(monkeypatch)
    for text, want in (("o-x-o(o)-o", "13"), ("o-x=>o", "7"), ("x + x-o<=o", "6"),
                       ("o-o-x + o-o-x ~sigma", "6"), ("", "0")):
        recognised.clear()
        assert main(["dim", text]) == 0, text
        assert capsys.readouterr().out.strip() == want, text
        assert len(recognised) == 1, text


def test_dim_rejects_bad_input(capsys):
    code, out, err = run(capsys, "dim", "x[")
    assert (code, out, err) == (2, "", "error: syntax error at offset 2: expected digits in annotation\n")
    code, out, err = run(capsys, "dim", "@O-o-o")
    assert (code, out, err) == (2, "", "error: dim expects a finite marked diagram\n")
    code, out, err = run(capsys, "dim", "@" + "-".join(["o"] * 1000))
    assert (code, out) == (2, "")
    assert err == ("error: syntax error at offset 2000: an affine diagram has at most"
                   " MAX_RANK + 1 = 101 nodes\n")


def test_dim_reads_deeply_nested_branches(capsys):
    # A_5001 with its last node crossed: P^5001.
    code, out, err = run(capsys, "dim", "o(" * 5000 + "x" + ")" * 5000)
    assert (code, out, err) == (0, "5001\n", "")


def test_fold_command(capsys):
    code, out, err = run(capsys, "fold", "ef", "o-o-o(o)-o-x", "--format", "canonical")
    assert (code, out, err) == (0, "o-o=>o-x\n", "")
    code, out, err = run(capsys, "fold", "ab", "o-o-o")
    assert (code, out, err) == (2, "", "error: pair ab needs type A_2l, got A3\n")
    code, out, err = run(capsys, "fold", "ab", "@O-o-o")
    assert (code, out, err) == (2, "", "error: fold expects a finite marked diagram\n")


def test_fold_pairs_are_the_folding_pairs(capsys):
    # The parser names the pairs without loading folding; they must be its.
    from kacvmrt.folding import FOLDING_PAIRS

    assert cli._FOLD_PAIRS == tuple(sorted(FOLDING_PAIRS))
    with pytest.raises(SystemExit) as ex:
        main(["fold", "xy", "o-o"])
    assert ex.value.code == 2
    assert "invalid choice: 'xy'" in capsys.readouterr().err


def test_kac_and_zorbit(capsys):
    code, out, _ = run(capsys, "kac", "herm-CI", "--n", "3", "--format", "canonical")
    assert code == 0 and out.strip() == "O=>o-o<=O"
    code, out, _ = run(capsys, "zorbit", "AI", "--n", "3", "--format", "canonical")
    assert code == 0
    assert "x[2]-o=>o" in out and "dim 5" in out and "v_2(Q_5)" in out


def test_zorbit_recognises_each_z_diagram_once(capsys, monkeypatch):
    # dim Z and the name come from `engine._z_orbit`, which zorbit calls as
    # vmrt does: one classification of the diagram every Z marks.
    from kacvmrt import engine

    recognised, made = [], []
    real_classify, real_z = diagrams.classify, engine._z_orbit

    def classify(d):
        recognised.append(d)
        return real_classify(d)

    def z_orbit(*args):
        out = real_z(*args)
        made.append(out[0])
        return out

    for module in (diagrams, engine):
        monkeypatch.setattr(module, "classify", classify)
    monkeypatch.setattr(engine, "_z_orbit", z_orbit)  # the zorbit branch imports it from there
    for e in enumerate_entries(8):
        recognised.clear()
        params = [a for k, v in e.params for a in (f"--{k}", str(v))]
        assert main(["zorbit", e.label, *params, "--format", "dot"]) == 0, e.name
        for z in made.pop():
            if z.sigma_pairs is None:
                assert sum(d is z.diagram for d in recognised) == 1, e.name
    capsys.readouterr()


def test_list_deterministic(capsys):
    code, out1, _ = run(capsys, "list", "--max-rank", "5")
    assert code == 0
    _, out2, _ = run(capsys, "list", "--max-rank", "5")
    assert out1 == out2
    assert "group-G" in out1 and "herm-CI(n=2)" in out1


def test_unknown_label_exit_2(capsys):
    code, _, err = run(capsys, "vmrt", "nosuch")
    assert code == 2 and "unknown label" in err


def test_max_rank_capped_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "list", "--max-rank", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "--max-rank" in err
    code, _, err = run(capsys, "verify", "--max-rank", "1")
    assert code == 2 and "--max-rank" in err


def test_lookup_bounded_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "vmrt", "herm-CI", "--n", "1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "MAX_RANK" in err


def test_internal_error_exit_3(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "_dispatch", broken)
    code, _, err = run(capsys, "vmrt", "group-G")
    assert code == 3 and err.startswith("internal error: invariant broken")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["vmrt"])  # missing label
    assert exc.value.code == 2


def test_verify_exit_zero_and_stable(capsys):
    code, out1, _ = run(capsys, "verify", "--max-rank", "6")
    assert code == 0
    assert "PASS" in out1 and "FAIL" not in out1.replace("failures", "")
    assert "WARN" in out1  # the documented paper-gap / naming rows
    _, out2, _ = run(capsys, "verify", "--max-rank", "6")
    assert out1 == out2


def test_export_atlas_byte_stable(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert run(capsys, "export-atlas", "--max-rank", "5", "--out", str(p1))[0] == 0
    assert run(capsys, "export-atlas", "--max-rank", "5", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["max_rank"] == 5
    by_name = {(e["label"], tuple(sorted(e["params"].items()))): e for e in payload["entries"]}
    gg = by_name[("group-G", ())]
    assert gg["identification"] == "G_2/P_2" and gg["vmrt_dim"] == 5
    assert gg["kac"] == "O-o#>o"


def test_entry_json_renders_each_diagram_once(monkeypatch):
    # A Legendrian entry's VMRT diagrams are its Z diagrams: rendered once.
    texts = []
    real, real_finite = cli.to_canonical_text, cli._finite_canonical
    monkeypatch.setattr(cli, "to_canonical_text", lambda d: texts.append(d) or real(d))
    monkeypatch.setattr(cli, "_finite_canonical", lambda d, k: texts.append(d) or real_finite(d, k))
    for e in enumerate_entries(8):
        texts.clear()
        record = cli._entry_json(e)
        v = vmrt(e)
        shared = v.components is v.z
        assert len(texts) == 1 + len(v.z) + (0 if shared else len(v.components)), e.name
        assert record["vmrt"] == [real(c) for c in v.components]


def test_entry_json_classifies_each_entry_once(monkeypatch):
    # The Z and VMRT texts are written from the classes vmrt holds, so the
    # record's one classification is the one that builds Z.  The first pass
    # fills the per-type caches.
    entries = enumerate_entries(12)
    for e in entries:
        cli._entry_json(e)
    recognised = hook_classify(monkeypatch)
    for e in entries:
        recognised.clear()
        cli._entry_json(e)
        assert len(recognised) == 1, e.name


# SHA-256 of `kacvmrt export-atlas --max-rank R`: the catalogue must not
# move when the way it is computed does.
EXPORT_SHA256 = {
    12: "7a860b98540dd43bc9449279608fcfe26323093e1e9ca3eceda00bbd98c3940b",
    30: "bdeaced44c4490924d0bd675da2f1d1bbeaccd9451b2eb0a50cfee6272e2f4d4",
}


@pytest.mark.parametrize("max_rank", sorted(EXPORT_SHA256))
def test_export_atlas_is_pinned(tmp_path, capsys, max_rank):
    out = tmp_path / "atlas.json"
    assert run(capsys, "export-atlas", "--max-rank", str(max_rank), "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[max_rank]


def test_closed_pipe_exits_quietly():
    # `kacvmrt list --max-rank 30 | head -1`: the output is larger than a
    # pipe buffer, so closing the pipe after one line cuts the writer off.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "kacvmrt", "list", "--max-rank", "30"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline().startswith(b"group-A(n=1) ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# The kacvmrt modules a fresh interpreter has loaded after each entry
# point: every command compiles the modules it runs and no other.  The
# atlas serves lookups and listings, the engine Z orbits and VMRTs, the
# reader parsing (with affine recognition only for Kac and affine text),
# folding `fold`, the emitters the ascii, latex and dot formats, and the
# sweep `verify` alone.
_PACKAGE = {"kacvmrt", "affine", "diagrams", "render", "roots"}
_CLI = _PACKAGE | {"cli"}


def _main(*argv):
    """Code that runs the CLI on argv, as `python -m kacvmrt` would."""
    return f"import kacvmrt.cli\ntry:\n    kacvmrt.cli.main({list(argv)!r})\nexcept SystemExit:\n    pass"


FRESH_MODULES = {
    "import kacvmrt": ("import kacvmrt", _PACKAGE),
    "import kacvmrt.cli": ("import kacvmrt.cli", _CLI),
    "--version": (_main("--version"), _CLI),
    "dim": (_main("dim", "x-o-o"), _CLI | {"parsing"}),
    "fold": (_main("fold", "ab", "x[2]-o-o-o"), _CLI | {"folding", "parsing", "presentation"}),
    "kac": (_main("kac", "AI", "--n", "3"), _CLI | {"atlas", "presentation"}),
    "kac canonical": (_main("kac", "AI", "--n", "3", "--format", "canonical"), _CLI | {"atlas", "recognition"}),
    "list": (_main("list", "--max-rank", "4"), _CLI | {"atlas"}),
    "vmrt canonical": (_main("vmrt", "herm-CI", "--n", "4", "--format", "canonical"), _CLI | {"atlas", "engine"}),
    "zorbit": (_main("zorbit", "herm-CI", "--n", "4"), _CLI | {"atlas", "engine", "presentation"}),
    "verify": (_main("verify", "--max-rank", "2"),
               _CLI | {"atlas", "engine", "folding", "parsing", "recognition", "verify"}),
}


@pytest.mark.parametrize("entry", sorted(FRESH_MODULES))
def test_fresh_interpreter_loads_only_its_modules(entry):
    # No entry point loads `dataclasses` or `json` either.
    run, want = FRESH_MODULES[entry]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (run + "\nimport sys\nprint(sorted(m.partition('.')[2] or m for m in sys.modules if m.split('.')[0] == "
            "'kacvmrt'), sorted({'dataclasses', 'json'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{sorted(want)} []"
