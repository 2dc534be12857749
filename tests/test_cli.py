"""CLI behaviour: outputs, exit codes, determinism."""

import json
import time

import pytest

from kacvmrt import cli
from kacvmrt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_dim_rejects_bad_input(capsys):
    code, _, err = run(capsys, "dim", "x[")
    assert code == 2 and "syntax error" in err
    code, _, err = run(capsys, "dim", "@O-o-o")
    assert code == 2 and "finite" in err


def test_fold_command(capsys):
    code, out, _ = run(capsys, "fold", "ef", "o-o-o(o)-o-x", "--format", "canonical")
    assert code == 0 and out.strip() == "o-o=>o-x"
    code, _, err = run(capsys, "fold", "ab", "o-o-o", )
    assert code == 2 and "A_2l" in err


def test_kac_and_zorbit(capsys):
    code, out, _ = run(capsys, "kac", "herm-CI", "--n", "3", "--format", "canonical")
    assert code == 0 and out.strip() == "O=>o-o<=O"
    code, out, _ = run(capsys, "zorbit", "AI", "--n", "3", "--format", "canonical")
    assert code == 0
    assert "x[2]-o=>o" in out and "dim 5" in out and "v_2(Q_5)" in out


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
