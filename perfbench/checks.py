"""Correctness checks for every benchmarked operation, and the golden bytes.

Each check returns None when the output is right and a one-line reason
when it is not; the benchmark counts a reason as one failed operation.
References are computed independently of the path under test: the
Bellman-Ford oracle for centralized solves, and the centralized closure of
the flattened network for distributed solves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The package is benchmarked from source, as checked out next to this
# directory, never from an installed copy.
SRC = HERE.parent / "src"
if not (SRC / "stnac" / "__init__.py").is_file():
    sys.exit(f"perfbench: no stnac package under {SRC}")
sys.path.insert(0, str(SRC))

from stnac import (
    AcClosure,
    NegativeCycle,
    SimConfig,
    audit_privacy,
    dump_log,
    enforce_ac,
    flatten,
    parse_mastn,
    solve_distributed,
)
from stnac.bench import csv_text, parse_bench_config, run_bench
from stnac.cli import main as cli_main

GOLDEN_PATH = HERE / "golden.json"


def check_solve(outcome, reference) -> str | None:
    """`reference` is oracle_minimal_domains of the same network."""
    if isinstance(reference, NegativeCycle):
        if isinstance(outcome, AcClosure):
            return "solver closed a network the oracle refutes"
        return None
    if not isinstance(outcome, AcClosure):
        return "solver refuted a network the oracle closes"
    if list(outcome.domains) != list(reference):
        return "closure differs from the oracle's minimal domains"
    return None


def _edge_weight(net, u: int, v: int):
    """Weight of the distance-graph edge u->v read back from the network
    (vertex net.n is the zero time point), or None when there is none."""
    zero = net.n
    if u == zero:
        return net.domain(v).hi
    if v == zero:
        return -net.domain(u).lo
    c = net.constraint(u, v)
    if c is None:
        return None
    return -1 if c.is_empty else c.hi


def check_oracle(result, reference, net) -> str | None:
    """A refutation must be a closed walk of real edges with negative
    weight, re-summed here from the network; minimal domains must equal
    the set-up reference, which check_solve compares with the solver's
    closure, so both answers of the oracle are checked independently."""
    if isinstance(reference, NegativeCycle) != isinstance(result, NegativeCycle):
        return "oracle verdict changed between calls"
    if not isinstance(result, NegativeCycle):
        if list(result) != list(reference):
            return "oracle domains changed between calls"
        return None
    walk = result.vertices
    if len(walk) < 3 or walk[0] != walk[-1]:
        return "oracle witness is not a closed walk"
    weights = [_edge_weight(net, u, v) for u, v in zip(walk, walk[1:])]
    if None in weights:
        return "oracle witness uses an edge the network does not have"
    if sum(weights) >= 0 or sum(weights) != result.weight:
        return f"oracle witness re-sums to {sum(weights)}, not a negative {result.weight}"
    return None


def check_sample(closure, assignment, verify_result) -> str | None:
    ok, violation = verify_result
    if not ok:
        return f"sample failed verification at {violation}"
    for v, t in enumerate(assignment):
        if t not in closure.domains[v]:
            return f"sample value of variable {v} lies outside its closure domain"
    return None


def dsolve_reference(m) -> tuple[str, list | None]:
    """Verdict and per-agent domains of the centralized closure of flatten(m)."""
    flat, index = flatten(m)
    outcome = enforce_ac(flat)
    if not isinstance(outcome, AcClosure):
        return "inconsistent", None
    per_agent = [
        tuple(outcome.domains[off : off + n]) for off, n in zip(index.offsets, index.sizes)
    ]
    return "consistent", per_agent


def reference_verdict(reference) -> str:
    """The verdict of an oracle or dsolve reference."""
    if isinstance(reference, tuple):
        return reference[0]
    return "inconsistent" if isinstance(reference, NegativeCycle) else "consistent"


def check_dsolve(run, audit, reference) -> str | None:
    verdict, domains = reference
    if run.verdict != verdict:
        return f"distributed verdict {run.verdict}, centralized {verdict}"
    if verdict == "consistent" and (
        run.agent_domains is None or [tuple(d) for d in run.agent_domains] != domains
    ):
        return "agent domains differ from the centralized closure"
    if not audit.ok:
        return f"privacy audit failed: {audit.reason}"
    return None


# -- golden bytes -----------------------------------------------------------

# One fixed small sweep whose CSV must stay byte-identical.
GOLDEN_SWEEP = """\
family = factory-mastn
sweep = agents
values = 2,3,4
seeds = 2
tasks = 12
"""
GOLDEN_LOGS = ("ring4.mastn", "interview.mastn")
GOLDEN_CLOSURES = ("two_var.stn", "cycle3.stn")
GOLDEN_SCHED_SEEDS = range(5)
GOLDEN_LATENCIES = (0, 3)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_outputs(samples: Path) -> dict[str, str]:
    """Name -> sha256 of each output that a refactor must keep byte-identical."""
    out = {}
    for name in GOLDEN_LOGS:
        m = parse_mastn((samples / name).read_text(encoding="utf-8"))
        for seed in GOLDEN_SCHED_SEEDS:
            for latency in GOLDEN_LATENCIES:
                run = solve_distributed(m, SimConfig(scheduler_seed=seed, latency=latency))
                out[f"dump_log {name} seed={seed} latency={latency}"] = _sha(dump_log(run.log))
    for name in GOLDEN_CLOSURES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_main(["solve", str(samples / name)])
        out[f"solve {name}"] = _sha(buf.getvalue())
    rows = run_bench(parse_bench_config(GOLDEN_SWEEP))
    out["bench csv_text"] = _sha(csv_text(rows))
    return out


def golden_mismatches(samples: Path, recorded: dict[str, str] | None = None) -> int:
    """How many golden outputs differ from (or are missing in) the record."""
    if recorded is None:
        recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    current = golden_outputs(samples)
    return sum(current.get(key) != digest for key, digest in recorded.items())


if __name__ == "__main__":
    # Re-record the golden hashes: python3 perfbench/checks.py
    root = HERE.parent
    GOLDEN_PATH.write_text(
        json.dumps(golden_outputs(root / "samples"), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH.relative_to(root)}")
