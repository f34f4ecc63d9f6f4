"""Self-tests of the benchmark itself, on tiny instances of every workload.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose (the file name does not
match test_*.py): it checks the benchmark, not stnac.
"""

from __future__ import annotations

import dataclasses
import json
import unittest
from pathlib import Path
from unittest import mock

import checks
import run
import stnac

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "central-budget": dict(
        gens=(
            ("grid-stn", dict(rows=6, cols=6, **run.BUDGET)),
            ("scale-free-stn", dict(n=40, m=3, **run.BUDGET)),
        )
    ),
    "central-consistent": dict(
        gens=(("random-stn", dict(n=30, density=0.1, consistent=True)),), pool=(0, 1)
    ),
    "dsolve-sweep": dict(gens=(("factory-mastn", dict(agents=4, tasks=40)),), pool=(0, 2)),
    "dsolve-sync": dict(
        gens=(("factory-mastn", dict(agents=6, tasks=18, externals=8)),), pool=(3,)
    ),
}
SECONDS = 0.05
run.SETUP_SECONDS = 0  # tiny instances: the minimum repetitions are enough
COUNTERS = ("solver.checks", "nccc", "messages") + tuple(
    f"distributed.msgs.{kind}" for kind in run.MSG_KINDS
)


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        self.assertEqual(set(TINY), {w["name"] for w in BENCHMARK["workloads"]})
        for name in TINY:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    out = run.run_workload(tiny(name), 3, SECONDS, trace)
                    self.assertTrue(out["correct"], out["failures"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    if not trace:
                        for metric, value in out["metrics"].items():
                            self.assertGreater(value["value"], 0, metric)

    def test_counters_repeat_for_a_fixed_seed(self):
        for name in TINY:
            with self.subTest(workload=name):
                a = run.run_workload(tiny(name), 5, SECONDS, True)["metrics"]
                b = run.run_workload(tiny(name), 5, SECONDS, True)["metrics"]
                for counter in COUNTERS:
                    self.assertEqual(a[counter], b[counter], counter)
                self.assertEqual(a["sim.log_golden_mismatches"]["value"], 0)

    def test_root_spans_cover_the_timed_operations(self):
        wl = tiny("dsolve-sweep")
        instances = run.SetUp(wl, 1).instances
        tracer = run.spans.Tracer()
        restore = tracer.install(run.st_solver, run.st_distributed)
        try:
            res = run.run_pass(wl, instances, tracer)
        finally:
            restore()
        summary = tracer.summary()
        # the root spans are the timed operations, up to two clock reads each
        self.assertLess(abs(summary.root_sum / run._pass_s(res) - 1), 0.05)
        self.assertGreater(summary.calls["SolverAgent.on_message.DomainSync"], 0)
        overhead = summary.overhead_frac(*run.spans.call_costs(2000))
        self.assertGreater(overhead, 0)
        self.assertLess(overhead, 1)

    def test_speed_comes_from_the_nearest_probe_bursts(self):
        res = run.PassResult()
        run._probe_after(res, 1.0)
        self.assertEqual(len(res.bursts), 1)
        self.assertGreaterEqual(sum(res.bursts[0]), run.PROBE_SHARE)
        times = [0.01, 0.02, 0.04, 0.08]
        passes = [run.PassResult(bursts=[[t]] * (run.PROBE_BURSTS // 2)) for t in times]
        ref = run.PROBE_REF_S
        self.assertEqual(
            run.speeds(passes),
            [ref / 0.015, ref / (0.07 / 3), ref / (0.14 / 3), ref / 0.06],
        )


class Checker(unittest.TestCase):
    def _one_pass(self, name: str):
        wl = tiny(name)
        return run.run_pass(wl, run.SetUp(wl, 2).instances, run.spans.NullTracer())

    def test_clean_pass_has_no_failures(self):
        for name in TINY:
            with self.subTest(workload=name):
                self.assertEqual(self._one_pass(name).failures, [])

    def test_tampered_closure_is_a_failure(self):
        real = stnac.enforce_ac

        def tampered(net, domains=None):
            out = real(net, domains)
            if isinstance(out, stnac.AcClosure):
                d0 = out.domains[0]
                out = dataclasses.replace(
                    out, domains=(stnac.interval(d0.lo, d0.hi + 1),) + out.domains[1:]
                )
            return out

        with mock.patch.object(stnac, "enforce_ac", tampered):
            res = self._one_pass("central-consistent")
        self.assertTrue(any("closure differs" in f for f in res.failures), res.failures)

    def test_tampered_verdict_is_a_failure(self):
        real = stnac.enforce_ac

        def tampered(net, domains=None):
            out = real(net, domains)
            return stnac.AcInconsistent(None, out.iterations, out.checks, out.domain_updates)

        with mock.patch.object(stnac, "enforce_ac", tampered):
            res = self._one_pass("central-consistent")
        self.assertEqual(len(res.failures), 2, res.failures)

    def test_tampered_oracle_witness_is_a_failure(self):
        real = stnac.oracle_minimal_domains

        def tampered(net):
            out = real(net)
            if isinstance(out, stnac.NegativeCycle):
                # a real closed walk, through the zero point, of weight >= 0
                out = stnac.NegativeCycle((0, net.n, 0), out.weight)
            return out

        with mock.patch.object(stnac, "oracle_minimal_domains", tampered):
            res = self._one_pass("central-budget")
        self.assertTrue(any("oracle witness" in f for f in res.failures), res.failures)

    def test_tampered_log_is_a_failure(self):
        real = stnac.solve_distributed

        def tampered(m, cfg=None):
            out = real(m, cfg)
            msg = next(e.message for e in out.log if e.message.kind is stnac.MsgKind.DOMAIN_SYNC)
            # leak a variable the sender does not share
            private = next(
                v for v in range(m.agents[msg.sender].n)
                if v not in stnac.agent_view(m, msg.sender).shared_vars
            )
            msg.domains[(msg.sender, private)] = stnac.interval(0, 1)
            return out

        with mock.patch.object(stnac, "solve_distributed", tampered):
            res = self._one_pass("dsolve-sweep")
        self.assertEqual(len(res.failures), 2, res.failures)
        self.assertTrue(all("privacy audit failed" in f for f in res.failures))

    def test_tampered_agent_domains_are_a_failure(self):
        real = stnac.solve_distributed

        def tampered(m, cfg=None):
            out = real(m, cfg)
            if out.agent_domains is not None:
                d0 = out.agent_domains[0][0]
                out.agent_domains[0] = (stnac.interval(d0.lo + 1, d0.hi),) + out.agent_domains[0][1:]
            return out

        with mock.patch.object(stnac, "solve_distributed", tampered):
            res = self._one_pass("dsolve-sweep")
        self.assertEqual(res.failures, ["dsolve: agent domains differ from the centralized closure"] * 2)

    def test_golden_mismatch_is_counted(self):
        recorded = json.loads(checks.GOLDEN_PATH.read_text(encoding="utf-8"))
        self.assertEqual(checks.golden_mismatches(run.SAMPLES, recorded), 0)
        key = next(k for k in recorded if k.startswith("dump_log"))
        recorded[key] = "0" * 64
        self.assertEqual(checks.golden_mismatches(run.SAMPLES, recorded), 1)


if __name__ == "__main__":
    unittest.main()
