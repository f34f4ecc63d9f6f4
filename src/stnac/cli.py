"""Command-line interface.

Subcommands: solve (centralized closure), oracle (shortest-path
cross-check), dsolve (distributed run in the simulated runtime), gen
(workload files), bench (parameter sweeps to CSV).  solve and oracle
print an inconsistent verdict's negative cycle on stderr.  Exit codes: 0
the instance is consistent, 1 inconsistent, 2 usage or I/O errors; a
reader that closes stdout early ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import count
from pathlib import Path

from .bench import csv_text, parse_bench_config, run_bench
from .distributed import SimConfig, solve_distributed
from .errors import FormatError, StnacError
from .mastn import parse_mastn
from .oracle import NegativeCycle, oracle_minimal_domains
from .sim import PrivacyAuditor, log_line
from .solver import (
    AcClosure,
    enforce_ac,
    extract_bound_solution,
    sample_solution,
    verify_assignment,
)
from .stn import parse_stn
from .workloads import FAMILIES, GenSpec, generate, parameters, render_generated

EXIT_CONSISTENT = 0
EXIT_INCONSISTENT = 1
EXIT_ERROR = 2

# Generator parameters that `gen` takes as --flags, with their types: every
# family's, named as in GenSpec.params.
GEN_FLAGS = {name: typ for family in FAMILIES for name, typ in parameters(family).items()}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stnac", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="enforce arc-consistency on a .stn file")
    ps.add_argument("file")
    ps.add_argument(
        "--solution",
        metavar="lower|upper|sample[:<seed>]",
        help="also print an assignment extracted from the closure",
    )
    ps.add_argument("--verify", action="store_true", help="re-check the printed assignment")
    ps.set_defaults(run=_cmd_solve)

    po = sub.add_parser("oracle", help="shortest-path verdict and minimal domains")
    po.add_argument("file")
    po.set_defaults(run=_cmd_oracle)

    pd = sub.add_parser("dsolve", help="distributed solve of a .mastn file")
    pd.add_argument("file")
    pd.add_argument("--sched-seed", type=int, default=0)
    pd.add_argument("--latency", type=int, default=0)
    pd.add_argument("--log", metavar="PATH", help="write the message log")
    pd.add_argument("--audit-privacy", action="store_true")
    pd.set_defaults(run=_cmd_dsolve)

    pg = sub.add_parser("gen", help="generate a workload instance")
    pg.add_argument("family", choices=FAMILIES)
    pg.add_argument("-o", "--output", metavar="FILE", help="default: stdout")
    pg.add_argument("--seed", type=int, default=0)
    for flag, typ in GEN_FLAGS.items():
        kind = {"action": "store_true"} if typ is bool else {"type": typ}
        pg.add_argument(f"--{flag}", default=None, **kind)
    pg.set_defaults(run=_cmd_gen)

    pb = sub.add_parser("bench", help="run a sweep from a key=value config")
    pb.add_argument("config")
    pb.add_argument("-o", "--output", metavar="FILE", help="default: stdout")
    pb.set_defaults(run=_cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # the reader closed early and wants no more output; point stdout at
        # the null device so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CONSISTENT
    except (StnacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _read_input(path: str) -> str:
    """The text of an input file; bytes that are not UTF-8 are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _cmd_solve(args) -> int:
    if args.verify and args.solution is None:
        raise StnacError("--verify needs --solution: it re-checks the printed assignment")
    extract = None if args.solution is None else _extractor(args.solution)
    net = parse_stn(_read_input(args.file))
    outcome = enforce_ac(net)
    if not isinstance(outcome, AcClosure):
        return _refuted(net, outcome.cycle)
    _print_domains(net, outcome.domains)
    if extract is not None:
        assignment = extract(net, outcome)
        for v in range(net.n):
            print(f"{net.label(v)} = {assignment[v]}")
        if args.verify:
            ok, violation = verify_assignment(net, assignment)
            if not ok:
                raise StnacError(f"assignment failed verification at {violation}")
            print("verify: pass")
    return EXIT_CONSISTENT


def _extractor(mode: str):
    """The assignment that --solution names, as a function of (net, closure);
    a bad mode fails here, before any file is read.  Bare sample is sample:0."""
    if mode in ("lower", "upper"):
        return lambda net, closure: extract_bound_solution(closure, mode)
    if mode == "sample":
        seed = 0
    elif mode.startswith("sample:"):
        try:
            seed = int(mode.split(":", 1)[1])
        except ValueError:
            raise StnacError(f"bad sample seed in {mode!r}") from None
    else:
        raise StnacError(f"--solution must be lower, upper, or sample[:<seed>], got {mode!r}")
    return lambda net, closure: sample_solution(net, closure, seed)


def _cmd_oracle(args) -> int:
    net = parse_stn(_read_input(args.file))
    result = oracle_minimal_domains(net)
    if isinstance(result, NegativeCycle):
        return _refuted(net, result)
    _print_domains(net, result)
    return EXIT_CONSISTENT


def _refuted(net, cycle: NegativeCycle) -> int:
    """Report an inconsistent verdict: `inconsistent` on stdout, then its
    certificate on stderr, the cycle's weight and its walk by label with `o`
    for the zero point; returns EXIT_INCONSISTENT."""
    print("inconsistent")
    walk = "->".join("o" if x == net.n else net.label(x) for x in cycle.vertices)
    print(f"negative cycle (weight {cycle.weight}): {walk}", file=sys.stderr)
    return EXIT_INCONSISTENT


def _print_domains(net, domains, prefix: str = "") -> None:
    """One `<prefix><label> <domain>` line per variable of net."""
    for v in range(net.n):
        print(f"{prefix}{net.label(v)} {domains[v]}")


def _cmd_dsolve(args) -> int:
    m = parse_mastn(_read_input(args.file))
    cfg = SimConfig(scheduler_seed=args.sched_seed, latency=args.latency)
    # the audit judges each message as it is delivered, and --log writes
    # each one's line as it is delivered: the run keeps no message
    auditor = PrivacyAuditor(m) if args.audit_privacy else None
    if args.log:
        with open(args.log, "w", encoding="utf-8") as out:
            steps = count(1)

            def observe(msg):
                out.write(log_line(next(steps), msg))
                if auditor is not None:
                    auditor(msg)

            run = solve_distributed(m, cfg, observe)
    else:
        run = solve_distributed(m, cfg, auditor)
    if run.verdict == "consistent":
        for i, domains in enumerate(run.agent_domains):
            _print_domains(m.agents[i], domains, f"{i}.")
    else:
        print("inconsistent")
    if auditor is not None:
        audit = auditor.result
        if audit.ok:
            print("privacy: pass")
        else:
            print(f"privacy: FAIL ({audit.reason} at step {audit.offender.step})")
            return EXIT_ERROR
    return EXIT_CONSISTENT if run.verdict == "consistent" else EXIT_INCONSISTENT


def _cmd_gen(args) -> int:
    params = {k: v for k, v in vars(args).items() if k in GEN_FLAGS and v is not None}
    spec = GenSpec(args.family, args.seed, params)
    _write_output(render_generated(generate(spec), spec), args.output)
    return EXIT_CONSISTENT


def _cmd_bench(args) -> int:
    cfg = parse_bench_config(_read_input(args.config))
    _write_output(csv_text(run_bench(cfg)), args.output)
    return EXIT_CONSISTENT


def _write_output(text: str, output: str | None) -> None:
    """Write text to the file named by -o/--output, or to stdout."""
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    raise SystemExit(main())
