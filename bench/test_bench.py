"""Self-tests of the benchmark.  From the repository root:

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import re
import sys
import unittest
from fractions import Fraction

import checker
import run
import spans
from workloads import WORKLOADS, cli_op, run_cli

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def setUpModule():
    sys.path.insert(0, str(run.SRC))
    global PKG
    PKG = run.load_package()


def first_ops(workload, seed, n=12):
    return list(itertools.islice(workload.ops(random.Random(seed)), n))


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        for name in itertools.chain(run.END_TO_END_UNITS, run.PER_LAYER_UNITS):
            self.assertRegex(name, NAME)

    def test_benchmark_json_lists_what_the_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))


class Checker(unittest.TestCase):
    def output(self, command, fmt, at):
        op = cli_op(command, fmt, at)
        rc, text = run_cli(PKG.cli, op.argv)
        self.assertIsNone(checker.check_cli(command, fmt, at, rc, text))
        return rc, text

    def test_correct_specialized_reports_pass(self):
        big = Fraction(-123456789012345678901234567890123, 98765432109876543210987654321)
        for command, at in (("matrix", {"q": Fraction(3, 2)}),
                            ("table", {"q": big}),
                            ("criterion", {"q": Fraction(-7)}),
                            ("deform", {"q": big, "t": Fraction(2, 9)})):
            for fmt in ("json", "markdown"):
                with self.subTest(command=command, fmt=fmt):
                    self.output(command, fmt, at)

    def test_corrupted_payload_is_flagged(self):
        at = {"q": Fraction(3, 2)}
        rc, text = self.output("matrix", "json", at)
        payload = json.loads(text)

        def flagged(mutate):
            bad = copy.deepcopy(payload)
            mutate(bad)
            return checker.check_cli("matrix", "json", at, rc, json.dumps(bad))

        self.assertTrue(flagged(lambda p: p["certificates"][0].update(computed="x")))
        self.assertTrue(flagged(lambda p: p["certificates"][1].update(status="failed")))
        self.assertTrue(flagged(lambda p: p["certificates"].pop()))
        self.assertTrue(flagged(lambda p: p["at_report"]["matrix"][1].__setitem__(0, "2")))
        self.assertTrue(flagged(lambda p: p["at_report"].update(
            eigenvalue_squares=["33 + 15*sqrt(5)", "33 - 14*sqrt(5)"])))
        # wording is not compared
        self.assertIsNone(flagged(lambda p: p["certificates"][0].update(trace=["reworded"])))
        self.assertIsNone(flagged(lambda p: p["summary"].update(kernel_dimension="two")))
        self.assertTrue(checker.check_cli("matrix", "json", at, 1, text))

    def test_corrupted_markdown_is_flagged(self):
        at = {"q": Fraction(5), "t": Fraction(1, 3)}
        rc, text = self.output("deform", "markdown", at)
        self.assertTrue(checker.check_cli(
            "deform", "markdown", at, rc, text.replace("| verified |", "| failed |", 1)))
        row = next(line for line in text.splitlines() if line.startswith("    ["))
        entries = row.strip()[1:-1].split(", ")
        entries[0] = str(Fraction(entries[0]) + 1)
        wrong = text.replace(row, "    [%s]" % ", ".join(entries))
        self.assertTrue(checker.check_cli("deform", "markdown", at, rc, wrong))

    def test_wrong_at_value_is_flagged(self):
        for command in ("matrix", "table", "criterion"):
            rc, text = self.output(command, "json", {"q": Fraction(3, 2)})
            with self.subTest(command=command):
                if command == "criterion":
                    # the profile is the same for every q != 0; q = 0 differs
                    at = {"q": Fraction(0)}
                else:
                    at = {"q": Fraction(2)}
                self.assertTrue(checker.check_cli(command, "json", at, rc, text))

    def test_wrong_product_is_flagged(self):
        workload = WORKLOADS["ring-products"]()
        workload.prepare(PKG)
        batch = first_ops(workload, 3, 1)[0]
        verdicts, (ab, pair) = workload.run(PKG, batch)
        self.assertIsNone(workload.check(batch, (verdicts, (ab, pair))))
        a, b, c, _ = batch.triples[0]
        ring = workload.ring
        wrong = ring.star(ab, ring.basis_element("s1"))
        self.assertTrue(workload.reference.check(a, b, c, wrong, pair))
        self.assertTrue(workload.reference.check(a, b, c, ab, pair + 1))


class Generators(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(first_ops(cls(), 5), first_ops(cls(), 5))
                self.assertNotEqual(first_ops(cls(), 5), first_ops(cls(), 6))

    def test_report_mix_rounds_cover_every_command(self):
        ops = first_ops(WORKLOADS["report-mix"](), 9, 12)
        for start in (0, 6):
            self.assertEqual(sorted(op.command for op in ops[start:start + 6]),
                             sorted(spans.GROUPS))
        self.assertEqual([op.fmt for op in ops[:4]],
                         ["markdown", "json", "markdown", "json"])


class Tracing(unittest.TestCase):
    def traced_twice(self, workload, op):
        recorder = spans.Recorder()
        for op_id in (0, 1):
            result = recorder.run_op(op_id, op.name, workload.run, PKG, op)
            self.assertIsNone(workload.check(op, result))
        self.assertEqual(recorder.missing, [])
        return recorder

    def test_counts_repeat_for_the_same_op(self):
        ring_products = WORKLOADS["ring-products"]()
        ring_products.prepare(PKG)
        batch = first_ops(ring_products, 4, 1)[0]
        report = WORKLOADS["report-mix"]()
        table = cli_op("table", "json", {"q": Fraction(2)})
        for workload, op, label in ((ring_products, batch, "quantum.star"),
                                    (report, table, "gwcounts.all_reports")):
            with self.subTest(op=op.name):
                recorder = self.traced_twice(workload, op)
                self.assertEqual(recorder.counts[0], recorder.counts[1])
                self.assertGreater(recorder.counts[0][label], 0)

    def test_hooks_are_removed_after_the_op(self):
        quantum = sys.modules["gmquantum.quantum"]
        star = quantum.QuantumRing.__dict__["star"]
        builders = dict(PKG.certificates.GROUP_BUILDERS)
        self.traced_twice(WORKLOADS["report-mix"](),
                          cli_op("gw", "markdown"))
        self.assertIs(quantum.QuantumRing.__dict__["star"], star)
        self.assertEqual(PKG.certificates.GROUP_BUILDERS, builders)
        self.assertIs(PKG.cli.json, json)

    def test_self_times_cover_the_op(self):
        recorder = self.traced_twice(WORKLOADS["report-mix"](),
                                     cli_op("criterion", "json", {"q": Fraction(1)}))
        for op_id, per_label in recorder.self_times().items():
            total = recorder.op_durations()[op_id]
            self.assertAlmostEqual(sum(per_label.values()), total, delta=1e-6)
            self.assertGreater(per_label["certificates.criterion"], 0)


if __name__ == "__main__":
    unittest.main()
