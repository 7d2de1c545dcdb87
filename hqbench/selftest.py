"""Self-test of the benchmark at toy size.

    python3 hqbench/selftest.py

Runs every workload end to end, traced and untraced, on shrunken
inputs, and shows that each oracle rejects a deliberately wrong answer.
"""

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

import oracle
import run
import spans
import workloads
from oracle import OracleError

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_program()

    def call(self, argv):
        res, _ = run.run_op(self.cli, argv, None)
        return res

    def toy_ops(self, workload, name="oracles"):
        workdir = run.RUNS / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        return workloads.WORKLOADS[workload](5, workdir, toy=True)


class EndToEnd(Harness):
    def test_every_workload_runs_and_reports_its_metrics(self):
        want = {0: {m["name"] for m in BENCH["end_to_end"]},
                1: {m["name"] for m in BENCH["per_layer"]}}
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run.measure(w["name"], 5, 0.01, bool(trace), toy=True)
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(set(r["metrics"]), want[trace])

    def test_spans_account_for_each_operation(self):
        run.measure("cli-small", 5, 0.01, True, toy=True)
        dump = json.loads((run.RUNS / "cli-small-seed5-trace1" / "trace.json").read_text())
        sp = dump["spans"]
        children = {}
        for i, s in enumerate(sp):
            children.setdefault(s["parent"], []).append(i)

        def self_sum(i):
            own = sp[i]["end"] - sp[i]["start"]
            own -= sum(sp[c]["end"] - sp[c]["start"] for c in children.get(i, []))
            return own + sum(self_sum(c) for c in children.get(i, []))

        roots = children[None]
        self.assertTrue(roots and all(sp[i]["name"] == spans.OP_SPAN for i in roots))
        for i in roots:
            self.assertAlmostEqual(self_sum(i), sp[i]["end"] - sp[i]["start"], places=9)

    def test_a_removed_name_is_reported_absent(self):
        wrapped = spans.WRAPPED + (("hyperq.cli", "no_such_stage", "io.no_such_stage"),)
        with mock.patch.object(spans, "WRAPPED", wrapped):
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        self.assertEqual(tracer.absent, ["hyperq.cli.no_such_stage"])


class OraclesRejectWrongAnswers(Harness):
    def test_mu_entry_off_by_one(self):
        op = next(o for o in self.toy_ops("realize-ladder") if o.key.startswith("algebra:"))
        res = self.call(op.argv)
        op.check(res)
        doc = json.loads(res.out)
        entry = next(m for m in doc["mu"] if m["value"] > 0)
        entry["value"] += 1
        with self.assertRaises(OracleError):
            op.check(workloads.Result(0, json.dumps(doc), ""))

    def test_changed_stdout_byte(self):
        real_main = self.cli.main
        calls = {"n": 0}

        def main(argv):
            calls["n"] += 1
            code = real_main(argv)
            if calls["n"] == 3:
                sys.stdout.write("!")
            return code

        with mock.patch.object(self.cli, "main", main):
            r = run.measure("realize-ladder", 5, 0.01, False, toy=True)
        self.assertFalse(r["correct"])
        record = json.loads((run.RUNS / "realize-ladder-seed5-trace0" / "record.json").read_text())
        self.assertTrue(any("differs from the warm-up pass" in e for e in record["errors"]))

    def test_mutant_reported_as_passing(self):
        mutants = [o for o in self.toy_ops("check-battery") if "mutant" in o.key]
        self.assertTrue(mutants)
        for op in mutants:
            res = self.call(op.argv)
            op.check(res)
            with self.assertRaises(OracleError):
                op.check(workloads.Result(0, res.out, ""))
            with self.assertRaises(OracleError):
                op.check(workloads.Result(1, res.out, "check failed: Q4\n"))

    def test_arrow_count_against_burnside(self):
        op = next(o for o in self.toy_ops("realize-ladder") if o.key.startswith("algebra:"))
        doc = json.loads(self.call(op.argv).out)
        doc["atoms"].pop()
        with self.assertRaises(OracleError):
            op.check(workloads.Result(0, json.dumps(doc), ""))

    def test_burnside_matches_pair_orbits(self):
        n, gens = oracle.coset_action(4, workloads._sym(4), [[], [[1, 0, 2, 3]]])
        membership, reps = oracle.pair_orbits(n, gens)
        self.assertEqual(len(reps), oracle.burnside_rank(n, gens))
        self.assertEqual(reps, sorted(reps))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    unittest.main()
