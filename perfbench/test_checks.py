"""Each checker of the benchmark accepts a correct output and rejects a
deliberately corrupted one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; the tests that compare with the
program's hand-written tables or parse a text import kacvmrt from src/.
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

# The program's JSON for the marked Kac diagrams of group-B(3) (B_3^(1))
# and AI(2) (A_4^(2)), and the unmarked A_1^(1).
KAC_B3 = ('{"kind": "affine", "base": {"family": "B", "rank": 3}, "twist": 1, "nodes": '
          '[{"id": 0, "mark": "white"}, {"id": 1, "mark": "black"}, {"id": 2, "mark": "black"}, '
          '{"id": 3, "mark": "black"}], "edges": [{"from": 0, "to": 2, "mult": 1}, {"from": 1, '
          '"to": 2, "mult": 1}, {"from": 2, "to": 3, "mult": 2, "short_end": 3}], '
          '"labels": [1, 1, 2, 2]}')
KAC_A4_2 = ('{"kind": "affine", "base": {"family": "A", "rank": 4}, "twist": 2, "nodes": '
            '[{"id": 0, "mark": "white"}, {"id": 1, "mark": "black"}, {"id": 2, "mark": "black"}], '
            '"edges": [{"from": 0, "to": 1, "mult": 2, "short_end": 1}, {"from": 1, "to": 2, '
            '"mult": 2, "short_end": 2}], "labels": [1, 2, 2]}')
KAC_A1 = ('{"kind": "affine", "base": {"family": "A", "rank": 1}, "twist": 1, "nodes": '
          '[{"id": 0, "mark": "black"}, {"id": 1, "mark": "black"}], "edges": '
          '[{"from": 0, "to": 1, "mult": 4}], "labels": [1, 1]}')


def _with(text: str, **changes) -> str:
    obj = json.loads(text)
    obj.update(changes)
    return json.dumps(obj)


class KacLabels(unittest.TestCase):
    def test_program_labels_pass(self):
        self.assertEqual(checks.check_kac_json(KAC_B3, "group"), [])
        self.assertEqual(checks.check_kac_json(KAC_A4_2, "simple"), [])
        self.assertEqual(checks.check_kac_json(KAC_A1), [])

    def test_not_a_null_vector(self):
        self.assertTrue(checks.check_kac_json(_with(KAC_B3, labels=[1, 1, 2, 1])))
        self.assertTrue(checks.check_kac_json(_with(KAC_A4_2, labels=[2, 2, 1])))

    def test_not_primitive_or_not_positive(self):
        self.assertTrue(checks.check_kac_json(_with(KAC_B3, labels=[2, 2, 4, 4])))
        self.assertTrue(checks.check_kac_json(_with(KAC_A1, labels=[-1, -1])))

    def test_arrow_turned_round(self):
        obj = json.loads(KAC_B3)
        obj["edges"][2]["short_end"] = 2
        self.assertTrue(checks.check_kac_json(json.dumps(obj)))

    def test_white_node_rule(self):
        obj = json.loads(KAC_B3)
        obj["nodes"][2]["mark"] = "white"  # a label-2 white node
        self.assertTrue(checks.check_kac_json(json.dumps(obj), "group"))
        self.assertTrue(checks.check_kac_json(KAC_B3, "simple"))


class ClosedForms(unittest.TestCase):
    def test_examples(self):
        self.assertEqual(checks.check_vmrt("herm-CI", {"n": 40}, "v_2(P^39) u v_2(P^39)", 39), [])
        self.assertEqual(checks.check_vmrt("DII", {"n": 40}, "P^78", 78), [])
        self.assertEqual(checks.check_vmrt("group-B", {"n": 40}, "OG(2,81)", 155), [])
        self.assertEqual(checks.check_vmrt("AII", {"n": 20}, "Gr(2,40)", 76), [])
        # Gr(k,N) = Gr(N-k,N), and the factors of a product in any order
        self.assertEqual(checks.check_vmrt("herm-DIII-even", {"n": 20}, "Gr(2,40) u Gr(38,40)", 76), [])
        self.assertEqual(checks.check_vmrt("BI", {"n": 40, "m": 40}, "Q_39 x Q_38", 77), [])

    def test_corrupted(self):
        self.assertTrue(checks.check_vmrt("herm-CI", {"n": 40}, "v_2(P^39) u v_2(P^38)", 39))
        self.assertTrue(checks.check_vmrt("herm-CI", {"n": 40}, "v_2(P^39)", 39))
        self.assertTrue(checks.check_vmrt("DII", {"n": 40}, "P^78", 77))
        self.assertTrue(checks.check_vmrt("group-B", {"n": 40}, "OG(3,81)", 155))
        self.assertTrue(checks.check_vmrt("BI", {"n": 40, "m": 40}, "Q_39 x Q_39", 77))

    def test_agrees_with_golden_rows(self):
        from kacvmrt import lookup
        from kacvmrt.verify import GOLDEN

        for row in GOLDEN:
            e = lookup(row.label, row.params)
            self.assertEqual(checks.check_vmrt(e.label, dict(e.params), row.ident, row.dim), [],
                             msg=row)

    def test_record(self):
        rec = {"label": "group-B", "params": {"n": 3}, "kind": "group", "kac_json": KAC_B3,
               "boundary_degree": 1, "z_dim": 7, "vmrt_dim": 7, "identification": "OG(2,7)"}
        self.assertEqual(checks.check_record(rec), [])
        self.assertTrue(checks.check_record(dict(rec, z_dim=6)))
        self.assertTrue(checks.check_record(dict(rec, boundary_degree=2)))
        self.assertTrue(checks.check_record(dict(rec, kac_json=_with(KAC_B3, labels=[1, 1, 1, 1]))))

    def test_cli_output(self):
        out = "P^78, dim 78\no-o-o-o-x\nC_p = P(T_pX) = P(p)\n"
        self.assertEqual(checks.check_vmrt_cli("DII", {"n": 40}, 0, out), [])
        self.assertTrue(checks.check_vmrt_cli("DII", {"n": 40}, 0, out.replace("78,", "77,")))
        self.assertTrue(checks.check_vmrt_cli("DII", {"n": 40}, 2, out))
        self.assertTrue(checks.check_vmrt_cli("DII", {"n": 40}, 0, "P^78, dim 78\n"))


class VerifyRows(unittest.TestCase):
    def test_documented_warnings_only(self):
        ok = [("golden", "EIV", "WARN", "paper_gap"),
              ("golden", "BI(m=4,n=3)", "WARN", "name_flag; catalogued name 'Q_4 x Q_3'"),
              ("dims", "group-G adjoint dim", "PASS", "5 (want 5)")]
        self.assertEqual(checks.check_verify_results(ok), [])
        self.assertTrue(checks.check_verify_results(ok + [("dims", "x", "FAIL", "1 (want 2)")]))
        self.assertTrue(checks.check_verify_results(ok + [("dims", "x", "WARN", "something")]))
        self.assertTrue(checks.check_verify_results([]))


class Dimensions(unittest.TestCase):
    def test_bourbaki_counts(self):
        self.assertEqual(checks.parabolic_dim("E", 8, [8]), 57)
        self.assertEqual(checks.parabolic_dim("E", 7, [7]), 27)
        self.assertEqual(checks.parabolic_dim("F", 4, [4]), 15)
        self.assertEqual(checks.parabolic_dim("G", 2, [1]), 5)
        for n in range(2, 12):
            self.assertEqual(checks.parabolic_dim("B", n, [1]), 2 * n - 1)  # quadric Q_{2n-1}
            self.assertEqual(checks.parabolic_dim("C", n, [n]), n * (n + 1) // 2)  # LG(n,2n)
            self.assertEqual(checks.parabolic_dim("A", n, [2]), 2 * (n - 1))  # Gr(2,n+1)
            self.assertEqual(checks.parabolic_dim("A", n, range(1, n + 1)), n * (n + 1) // 2)

    def test_wrong_dimension(self):
        parts = [("D", 5, [1]), ("A", 1, [1])]
        self.assertEqual(checks.check_parabolic_dim("D5 + A1", parts, 9), [])
        self.assertTrue(checks.check_parabolic_dim("D5 + A1", parts, 10))


class RoundTrips(unittest.TestCase):
    def test_relabelling_and_idempotence(self):
        self.assertEqual(checks.check_roundtrip("D4", ["o-o(o)-x"] * 3, ["o-o(o)-x"] * 3), [])
        self.assertTrue(checks.check_roundtrip("D4", ["o-o(o)-x", "x-o(o)-o"], ["o-o(o)-x"] * 2))
        self.assertTrue(checks.check_roundtrip("D4", ["o-o(o)-x"] * 2, ["o-o(o)-x", "o-o(x)-o"]))

    def test_presentations(self):
        from kacvmrt import lookup, render

        d = lookup("herm-CI", {"n": 3}).kac_diagram()
        outs = [render(d, f) for f in ("ascii", "latex", "dot", "json")]
        self.assertEqual(checks.check_presentations("C3^(1)", 4, 3, *outs), [])
        self.assertTrue(checks.check_presentations("C3^(1)", 5, 3, *outs))
        self.assertTrue(checks.check_presentations("C3^(1)", 4, 3, outs[0] + "o", *outs[1:]))
        bad_dot = outs[2].replace("  n3 [", "  m3 [")
        self.assertTrue(checks.check_presentations("C3^(1)", 4, 3, outs[0], outs[1], bad_dot, outs[3]))

    def test_parse_errors(self):
        self.assertEqual(checks.check_parse_error("o-", ("ParseError", True, 2)), [])
        self.assertTrue(checks.check_parse_error("o-", None))
        self.assertTrue(checks.check_parse_error("o=o", ("ValueError", False, None)))
        self.assertTrue(checks.check_parse_error("o-", ("ParseError", True, 9)))


class Inputs(unittest.TestCase):
    """The benchmark's own input tools: automorphisms and the random writer."""

    def test_cycle_automorphisms(self):
        for n in range(3, 9):
            edges = [(i, (i + 1) % n, 1, None) for i in range(n)]
            edges = [(min(a, b), max(a, b), m, s) for a, b, m, s in edges]
            self.assertEqual(len(workloads.automorphisms(list(range(n)), edges)), 2 * n)
        self.assertEqual(len(workloads.automorphisms([1, 2, 3], [(1, 2, 2, 2), (2, 3, 2, 3)])), 1)

    def test_random_texts_read_back(self):
        from kacvmrt import parse, to_canonical_text

        rng = random.Random(7)
        for family, rank in (("D", 6), ("E", 7), ("B", 4), ("F", 4), ("G", 2)):
            nodes = list(range(1, rank + 1))
            edges = checks.bourbaki_edges(family, rank)
            marks = {v: rng.choice(("o", "x", "x[2]")) for v in nodes}
            texts = {to_canonical_text(parse(workloads.write_text(nodes, edges, marks, rng)))
                     for _ in range(6)}
            self.assertEqual(len(texts), 1, msg=texts)

    def test_query_draw_covers_every_branch(self):
        labels = {label for label, _ in workloads.query_draw(3)}
        self.assertEqual(labels, {label for label, _, _ in workloads.QUERY_FAMILIES})
        self.assertEqual(workloads.query_draw(3), workloads.query_draw(3))
        self.assertNotEqual(workloads.query_draw(3), workloads.query_draw(4))


if __name__ == "__main__":
    unittest.main()
