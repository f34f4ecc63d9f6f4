"""Closed-loop benchmark of stnac's solve, sample, oracle and dsolve paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process and one thread drive the public stnac API, one operation at
a time: the next starts only when the previous one has returned and been
checked.  A run generates its instances from --seed (set-up, timed at least
SETUP_REPS times), warms up on the first one, then repeats passes over all
of them for --seconds and reports medians over passes.  A fixed speed
probe runs after the operations, and every time is rescaled by it to one
reference machine speed (see speed_probe).  Every operation's output is
checked (checks.py); check time is reported apart as bench.check_s and is
never inside a timed operation.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 half of the time runs untraced and half traced (spans.py), and
the last line carries the per-layer metrics; the spans of the first traced
operation are written to perfbench/out/.  The workloads, the layer-to-metric
mapping and the known gaps are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks  # puts the checked-out package on sys.path
import spans
import stnac
from stnac import distributed as st_distributed
from stnac import solver as st_solver

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent / "samples"
OUT_DIR = HERE / "out"
clock = spans.clock

SETUP_REPS = 11  # set-up repetitions behind the median, at least
SETUP_SECONDS = 2.0  # and at least this long, speed probes included
MIN_PASSES = 3  # timed passes per run, even when --seconds runs out first
PROBE_REF_S = 0.010  # speed probe time at the reference speed
PROBE_SHARE = 0.1  # speed probe time, as a share of the operations' time
PROBE_BURSTS = 16  # probe bursts behind the speed of each pass, at least
MSG_KINDS = tuple(kind.value for kind in stnac.MsgKind)


@dataclass(frozen=True)
class Workload:
    """`gens` lists one (family, params) per instance, generated from the
    run's seed.  A workload with a `pool` instead runs gens[0] at those
    fixed generator seeds, all with centralized verdict `verdict`, and the
    run's seed picks their scheduler or sampling seeds.  Pools serve the
    families whose cost varies between instances of one size by more than
    the benchmark's bounds (factory runs: up to 2x; consistent random
    networks: closure checks by 14% over eight instances), while the
    schedule moves messages and NCCC by about 1%."""

    name: str
    gens: tuple[tuple[str, dict], ...]
    sample: bool = False
    pool: tuple[int, ...] = ()
    verdict: str | None = None


BUDGET = dict(wmin=-20, wmax=20)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "central-budget",
            (
                ("grid-stn", dict(rows=24, cols=24, **BUDGET)),
                ("scale-free-stn", dict(n=600, m=3, **BUDGET)),
            ),
        ),
        Workload(
            "central-consistent",
            (("random-stn", dict(n=200, density=0.05, consistent=True)),),
            sample=True,
            pool=tuple(range(8)),
            verdict="consistent",
        ),
        # the first four consistent seeds; 2, 3, 4 and 6 use the whole budget
        Workload(
            "dsolve-sweep",
            (("factory-mastn", dict(agents=16, tasks=400)),),
            pool=(0, 1, 5, 7),
            verdict="consistent",
        ),
        # the first two seeds, both of which use the whole iteration budget
        Workload(
            "dsolve-sync",
            (("factory-mastn", dict(agents=32, tasks=160, externals=62)),),
            pool=(0, 1),
            verdict="inconsistent",
        ),
    )
}


@dataclass
class Instance:
    spec: stnac.GenSpec
    multi: bool
    text: str
    reference: object
    seed: int  # for the scheduler (dsolve) or the sampler (solve)


@dataclass
class PassResult:
    times: Counter = field(default_factory=Counter)  # op kind -> seconds
    counters: Counter = field(default_factory=Counter)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    check_s: float = 0.0
    trace: spans.SpanSummary | None = None
    bursts: list[list[float]] = field(default_factory=list)  # probe times after an op
    probe_due: float = 0.0


class BenchError(Exception):
    """The workload could not be set up; the run prints no result."""


# -- machine speed -----------------------------------------------------------
# On a 2-vCPU KVM guest of an Intel Xeon (Sapphire Rapids), the CPUs ran at
# two speed levels about 1.9x apart, in stretches from 0.1 s to many
# minutes, and all the times of a run moved with the share of each level:
# across ten runs of a workload, set-up and pass times correlated at
# 0.87-0.97.  So every reported time is rescaled by a fixed probe timed in
# the same stretch of the run: seconds x PROBE_REF_S / (mean probe time)
# are the seconds at the speed where the probe takes PROBE_REF_S.  A mean,
# unlike a median, follows the share of each level.  Probes run in a burst
# right after every operation.  A burst lasts about 0.1 s and catches one or
# two stretches, so a pass is rescaled by at least PROBE_BURSTS bursts: its
# own and those of the passes nearest it.  Over six runs each, that left
# spreads of 0.028 (central-budget) and 0.046 (dsolve-sync); one speed for
# the whole run left 0.052 and 0.050, and each pass's own bursts 0.024 and
# 0.131, as dsolve-sync has only two operations a pass.


def speed_probe() -> float:
    """Seconds for fixed pure-Python work of the package's kind, kept here
    so that no change to stnac moves it: a seeded random graph, Bellman-Ford
    sweeps over it, and the graph written out as text."""
    t0 = clock()
    rng = random.Random(1711)
    n = 300
    edges = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 99)) for _ in range(2000)]
    dist = [100 * n] * n
    dist[0] = 0
    for _ in range(10):
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    "\n".join(f"{u} {v} [{w}, {dist[v]}]" for u, v, w in edges)
    return clock() - t0


def speeds(passes: list[PassResult]) -> list[float]:
    """Per pass, PROBE_REF_S over the mean probe time of its bursts and of
    those of the passes on both sides of it, widened until PROBE_BURSTS
    bursts are in."""
    out = []
    for i, res in enumerate(passes):
        lo = hi = i
        bursts = list(res.bursts)
        while len(bursts) < PROBE_BURSTS and (lo > 0 or hi < len(passes) - 1):
            if lo > 0:
                lo -= 1
                bursts += passes[lo].bursts
            if hi < len(passes) - 1:
                hi += 1
                bursts += passes[hi].bursts
        out.append(PROBE_REF_S / statistics.fmean(t for burst in bursts for t in burst))
    return out


def rescaled_median(passes: list[PassResult], value) -> float:
    """Median over passes of value(pass), each rescaled by its speed."""
    return _median([f * value(r) for f, r in zip(speeds(passes), passes)])


def _probe_after(res: PassResult, elapsed: float) -> None:
    """Speed probes for PROBE_SHARE of an operation's time, right after it."""
    res.probe_due += PROBE_SHARE * elapsed
    if res.probe_due <= 0:
        return
    gc.collect()
    burst = []
    while res.probe_due > 0:
        burst.append(speed_probe())
        res.probe_due -= burst[-1]
    res.bursts.append(burst)


# -- set-up --------------------------------------------------------------


def _specs(wl: Workload, seed: int) -> list[stnac.GenSpec]:
    if wl.pool:
        family, params = wl.gens[0]
        return [stnac.GenSpec(family, j, dict(params)) for j in wl.pool]
    k = len(wl.gens)
    return [stnac.GenSpec(fam, seed * k + j, dict(p)) for j, (fam, p) in enumerate(wl.gens)]


class SetUp:
    """Instance generation and serialization, the set-up a run pays once.

    It is repeated back to back, each time followed by a speed probe that
    rescales it: a repetition and its probe take 0.02-0.4 s together, and
    share one speed level more often than the set-up and the passes do."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.specs = _specs(wl, seed)
        self.gen_s: list[float] = []
        self.ser_s: list[float] = []
        self.probe_s: list[float] = []
        end = clock() + SETUP_SECONDS
        while len(self.gen_s) < SETUP_REPS or clock() < end:
            objs, texts = self.repeat()
            self.probe_s.append(speed_probe())
        t0 = clock()
        self.instances = []
        for j, (spec, obj, text) in enumerate(zip(self.specs, objs, texts)):
            multi = isinstance(obj, stnac.Mastn)
            ref = checks.dsolve_reference(obj) if multi else stnac.oracle_minimal_domains(obj)
            verdict = checks.reference_verdict(ref)
            if wl.verdict is not None and verdict != wl.verdict:
                raise BenchError(f"{wl.name}: seed {spec.seed} is {verdict}, not {wl.verdict}")
            op_seed = seed * len(self.specs) + j if wl.pool else spec.seed
            self.instances.append(Instance(spec, multi, text, ref, op_seed))
        self.check_s = clock() - t0

    def repeat(self):
        gc.collect()
        t0 = clock()
        objs = [stnac.generate(spec) for spec in self.specs]
        t1 = clock()
        texts = [
            stnac.serialize_mastn(o) if isinstance(o, stnac.Mastn) else stnac.serialize_stn(o)
            for o in objs
        ]
        t2 = clock()
        self.gen_s.append(t1 - t0)
        self.ser_s.append(t2 - t1)
        return objs, texts

    def metrics(self, trace: bool) -> dict:
        """Medians over repetitions, each rescaled by the probe after it."""
        speed = [PROBE_REF_S / p for p in self.probe_s]

        def median(times) -> float:
            return statistics.median(t * f for t, f in zip(times, speed))

        if trace:
            return {
                "workloads.generate_s": (median(self.gen_s), "s"),
                "workloads.serialize_s": (median(self.ser_s), "s"),
            }
        return {"setup_s": (median(g + s for g, s in zip(self.gen_s, self.ser_s)), "s")}


# -- operations ------------------------------------------------------------
# Each takes the tracer first; its spans nest under the op's root span.


def op_solve(tr, text):
    """The `stnac solve` path."""
    with tr.span("stn.parse_stn"):
        net = stnac.parse_stn(text)
    with tr.span("solver.enforce_ac"):
        outcome = stnac.enforce_ac(net)
    return net, outcome


def op_sample(tr, net, closure, seed):
    with tr.span("solver.sample_solution"):
        assignment = stnac.sample_solution(net, closure, seed)
    with tr.span("solver.verify_assignment"):
        verdict = stnac.verify_assignment(net, assignment)
    return assignment, verdict


def op_oracle(tr, text):
    """The `stnac oracle` path."""
    with tr.span("stn.parse_stn"):
        net = stnac.parse_stn(text)
    with tr.span("oracle.minimal_domains"):
        return net, stnac.oracle_minimal_domains(net)


def op_dsolve(tr, text, sched_seed):
    """The `stnac dsolve --log PATH --audit-privacy` path, minus file I/O."""
    with tr.span("mastn.parse_mastn"):
        m = stnac.parse_mastn(text)
    with tr.span("distributed.solve_distributed"):
        run = stnac.solve_distributed(m, stnac.SimConfig(scheduler_seed=sched_seed))
    with tr.span("sim.dump_log"):
        stnac.dump_log(run.log)
    with tr.span("sim.audit_privacy"):
        audit = stnac.audit_privacy(run.log, m)
    return run, audit


def _timed(res: PassResult, tr, kind: str, fn, *args):
    """Run one operation; a StnacError is a failed operation, not an abort."""
    gc.collect()
    tr.new_op()
    res.attempted += 1
    t0 = clock()
    try:
        with tr.span(f"op.{kind}"):
            out = fn(tr, *args)
    except stnac.StnacError as exc:
        res.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        out = None
    elapsed = clock() - t0
    if out is not None:
        res.times[kind] += elapsed
    _probe_after(res, elapsed)
    return out


def _check(res: PassResult, kind: str, fn, *args) -> None:
    t0 = clock()
    reason = fn(*args)
    if reason is not None:
        res.failures.append(f"{kind}: {reason}")
    res.check_s += clock() - t0


def sync_useful(log) -> tuple[int, int]:
    """(DomainSyncs whose payload differs from the previous one on the same
    sender->receiver edge, all DomainSyncs); iterations order each edge."""
    per_edge: dict[tuple[int, int], list] = {}
    for entry in log:
        msg = entry.message
        if msg.kind is stnac.MsgKind.DOMAIN_SYNC:
            per_edge.setdefault((msg.sender, msg.receiver), []).append((msg.k, msg.domains))
    useful = total = 0
    for syncs in per_edge.values():
        syncs.sort(key=lambda s: s[0])
        prev = None
        for _k, payload in syncs:
            useful += payload != prev
            total += 1
            prev = payload
    return useful, total


def run_pass(wl: Workload, instances: list[Instance], tr, index: int = 0) -> PassResult:
    """One closed-loop pass over the instances; pass `index` samples the
    closure of instance `index` mod their number, so that sampling, which
    costs about n solves, does not make passes too long to repeat."""
    res = PassResult()
    c = res.counters
    for j, inst in enumerate(instances):
        if inst.multi:
            out = _timed(res, tr, "dsolve", op_dsolve, inst.text, inst.seed)
            if out is None:
                continue
            run, audit = out
            _check(res, "dsolve", checks.check_dsolve, run, audit, inst.reference)
            c["nccc"] += run.nccc
            c["messages"] += run.messages
            c["distributed.checks"] += run.checks
            c["distributed.iterations"] += run.iterations
            c["sim.setup_messages"] += run.setup_messages
            for kind in MSG_KINDS:
                c[f"distributed.msgs.{kind}"] += run.histogram.get(kind, 0)
            useful, total = sync_useful(run.log)
            c["sync_useful"] += useful
            c["sync_total"] += total
            mean = sum(run.agent_checks) / len(run.agent_checks)
            c["imbalance_sum"] += max(run.agent_checks) / mean if mean else 1.0
            c["dsolve_runs"] += 1
            continue
        out = _timed(res, tr, "solve", op_solve, inst.text)
        if out is not None:
            net, outcome = out
            _check(res, "solve", checks.check_solve, outcome, inst.reference)
            c["solver.checks"] += outcome.checks
            c["solver.iterations"] += outcome.iterations
            c["solver.domain_updates"] += outcome.domain_updates
            if isinstance(outcome, stnac.AcInconsistent):
                c["solver.inconsistent_verdicts"] += 1
                c["uncertified"] += outcome.witness is None
            elif wl.sample and j == index % len(instances):
                sampled = _timed(res, tr, "sample", op_sample, net, outcome, inst.seed)
                if sampled is not None:
                    _check(res, "sample", checks.check_sample, outcome, *sampled)
        out = _timed(res, tr, "oracle", op_oracle, inst.text)
        if out is not None:
            net, result = out
            _check(res, "oracle", checks.check_oracle, result, inst.reference, net)
    return res


def run_passes(wl, instances, tr, seconds: float, min_passes: int):
    """Timed passes until `seconds` have gone by and `min_passes` are done."""
    results = []
    t0 = clock()
    while len(results) < min_passes or clock() - t0 < seconds:
        if tr.enabled:
            tr.reset()
        res = run_pass(wl, instances, tr, len(results))
        if tr.enabled:
            res.trace = tr.summary()
        results.append(res)
    return results


# -- metrics -----------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _pass_s(res: PassResult) -> float:
    return sum(res.times.values())


def end_to_end(passes: list[PassResult]) -> dict:
    return {
        "verdict_s": (rescaled_median(passes, lambda r: r.times["solve"] + r.times["dsolve"]), "s"),
        "pass_s": (rescaled_median(passes, _pass_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(untraced, traced, failed, attempted, check_s, golden, costs) -> dict:
    c = untraced[0].counters
    out = {
        kind + "_s": rescaled_median(untraced, lambda r, kind=kind: r.times[kind])
        for kind in ("solve", "sample", "oracle", "dsolve")
    }
    metrics = {name: (value, "s") for name, value in out.items()}
    metrics["nccc"] = (c["nccc"], "count")
    metrics["messages"] = (c["messages"], "count")
    metrics["failed_frac"] = (failed / attempted, "ratio")

    def layer(fn) -> float:
        """A time from the spans of the traced passes."""
        return rescaled_median(traced, lambda r: fn(r.trace))

    def by_parent(name, parent):
        return lambda t: t.by_parent[(name, parent)]

    propagate_s = layer(by_parent("solver.propagate", "solver.enforce_ac"))
    sync_s = layer(lambda t: t.prefixed("SolverAgent.on_message.DomainSync"))
    t0 = traced[0].trace
    for name, value, unit in (
        ("stn.parse_s", layer(lambda t: t.total["stn.parse_stn"]), "s"),
        ("solver.build_arcs_s", layer(by_parent("solver.build_arcs", "solver.enforce_ac")), "s"),
        ("solver.propagate_s", propagate_s, "s"),
        ("solver.checks", c["solver.checks"], "count"),
        ("solver.iterations", c["solver.iterations"], "count"),
        ("solver.domain_updates", c["solver.domain_updates"], "count"),
        ("solver.checks_per_s", c["solver.checks"] / propagate_s if propagate_s else 0.0, "1/s"),
        (
            "solver.sample_propagate_s",
            layer(by_parent("solver.propagate", "solver.sample_solution")),
            "s",
        ),
        (
            "solver.sample_propagate_calls",
            t0.calls_by_parent[("solver.propagate", "solver.sample_solution")],
            "count",
        ),
        ("solver.sample_checks", t0.propagate_checks["solver.sample_solution"], "count"),
        (
            "solver.uncertified",
            c["uncertified"] / c["solver.inconsistent_verdicts"]
            if c["solver.inconsistent_verdicts"]
            else 0.0,
            "ratio",
        ),
        ("solver.inconsistent_verdicts", c["solver.inconsistent_verdicts"], "count"),
        ("mastn.parse_s", layer(lambda t: t.total["mastn.parse_mastn"]), "s"),
        ("mastn.agent_view_s", layer(lambda t: t.total["distributed.agent_view"]), "s"),
        ("sim.echo_setup_s", layer(lambda t: t.total["distributed.echo_setup"]), "s"),
        ("sim.setup_messages", c["sim.setup_messages"], "count"),
        (
            "sim.scheduler_self_s",
            layer(lambda t: t.self_time["distributed.run_simulation"]),
            "s",
        ),
        ("sim.steps", t0.sim_steps, "count"),
        ("sim.dump_log_s", layer(lambda t: t.total["sim.dump_log"]), "s"),
        ("sim.audit_s", layer(lambda t: t.total["sim.audit_privacy"]), "s"),
        ("sim.log_golden_mismatches", golden, "count"),
        ("distributed.sync_handler_s", sync_s, "s"),
        (
            "distributed.control_handler_s",
            layer(
                lambda t: t.prefixed("SolverAgent.on_message")
                - t.prefixed("SolverAgent.on_message.DomainSync")
                + t.total["SolverAgent.on_start"]
            ),
            "s",
        ),
        ("distributed.build_arcs_s", layer(lambda t: t.total["distributed.build_arcs"]), "s"),
        (
            "distributed.assemble_self_s",
            layer(lambda t: t.self_time["distributed.solve_distributed"]),
            "s",
        ),
        ("distributed.checks", c["distributed.checks"], "count"),
        ("distributed.iterations", c["distributed.iterations"], "count"),
        (
            "distributed.checks_per_s",
            c["distributed.checks"] / sync_s if sync_s else 0.0,
            "1/s",
        ),
        (
            "distributed.sync_useful_frac",
            c["sync_useful"] / c["sync_total"] if c["sync_total"] else 0.0,
            "ratio",
        ),
        (
            "distributed.check_imbalance",
            c["imbalance_sum"] / c["dsolve_runs"] if c["dsolve_runs"] else 0.0,
            "ratio",
        ),
        ("intervals.calls", t0.counts["distributed.interval"], "count"),
    ):
        metrics[name] = (value, unit)
    for kind in MSG_KINDS:
        metrics[f"distributed.msgs.{kind}"] = (c[f"distributed.msgs.{kind}"], "count")
    overhead = _median([r.trace.overhead_frac(*costs) for r in traced])
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.self_sum_s"] = (layer(lambda t: t.self_sum), "s")
    speed = _median(speeds(untraced))
    metrics["bench.check_s"] = (speed * check_s, "s")
    metrics["machine.speed"] = (speed, "ratio")
    return metrics


# -- entry point -------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, dump=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    setup = SetUp(wl, seed)
    instances = setup.instances
    null = spans.NullTracer()
    # warm-up on the first instance settles lazy state and the CPU clock
    warm = run_pass(wl, instances[:1], null)
    untraced_s = seconds / 2 if trace else seconds
    untraced = run_passes(wl, instances, null, untraced_s, MIN_PASSES)
    traced = []
    if trace:
        tracer = spans.Tracer()
        restore = tracer.install(st_solver, st_distributed)
        try:
            traced = run_passes(wl, instances, tracer, 0, 1)
            if dump is not None:
                tracer.dump(dump, op=1)
            traced += run_passes(wl, instances, tracer, seconds / 2, 1)
        finally:
            restore()
    runs = [*untraced, *traced]
    failures = [f for r in [warm, *runs] for f in r.failures]
    if any(r.counters != untraced[0].counters for r in runs):
        failures.append("counters differ between passes of the same instances")
    attempted = sum(r.attempted for r in [warm, *runs])
    t0 = clock()
    golden = checks.golden_mismatches(SAMPLES)
    check_s = setup.check_s + clock() - t0 + sum(r.check_s for r in [warm, *runs])
    if trace:
        costs = spans.call_costs()
        metrics = per_layer(untraced, traced, len(failures), attempted, check_s, golden, costs)
    else:
        metrics = end_to_end(untraced)
    metrics |= setup.metrics(trace)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failures": failures[:20],
        "passes": len(untraced),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    dump = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), dump)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for reason in result.pop("failures"):
        print(f"# FAILED {reason}")
    passes = result.pop("passes")
    print(f"# {args.workload} seed={args.seed} passes={passes}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
