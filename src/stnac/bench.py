"""Benchmark harness: parameter sweeps, per-run metrics, CSV emission.

A bench configuration is a flat key=value text file ('#' comments).  One
parameter sweeps over a value list; every (value, seed) pair generates one
instance, runs it, and contributes one CSV row.  The family decides the
run: a single network (-stn) is solved by enforce_ac, a multi-agent one
(-mastn) by solve_distributed.  Metrics are counts, not wall time: wall_ms
stays 0 unless ``timing = on`` is set, which keeps a default run
byte-identical when repeated with the same seeds.

Recognized keys::

    family     = random-stn | grid-stn | scale-free-stn
                 | random-mastn | factory-mastn
    sweep      = <parameter name>
    values     = comma-separated values of the swept parameter
    seeds      = how many instance seeds per value   (default 1)
    seed       = base instance seed                  (default 0)
    sched-seed = scheduler seed for dsolve           (default 0)
    latency    = message latency for dsolve          (default 0)
    timing     = on | off                            (default off)

Every other key is a parameter of the family's generator, and 'sweep'
must name one too.  Such a key, and each item of 'values', is read as
the parameter's type in workloads.parameters: an int or a float as
Python writes it, a bool as on | off.  A misspelt key or a value of the
wrong type fails at parse time with its line number.  A key that names the
swept parameter is an error, since the sweep sets it, and so is a required
parameter that neither a key nor the sweep sets (workloads.check_spec).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass, fields, replace

from .distributed import SimConfig, solve_distributed
from .errors import FormatError, GenerationError, ValidationError
from .mastn import Mastn
from .solver import AcClosure, enforce_ac
from .stn import Stn, content_lines, split_lines
from .workloads import FAMILIES, GenSpec, check_spec, generate, parameters


@dataclass(frozen=True)
class RunMetrics:
    """One CSV row: the fields, in order, are the CSV columns."""

    instance: str
    n: int
    e: int
    agents: int
    verdict: str
    iterations: int
    checks: int
    nccc: int
    messages: int
    wall_ms: int


CSV_COLUMNS = tuple(f.name for f in fields(RunMetrics))


def csv_text(rows: list[RunMetrics]) -> str:
    """Metrics in run order as CSV text; RFC-4180 quoting, LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(astuple(row) for row in rows)
    return buf.getvalue()


# the bench's own keys besides family, sweep and values, with their defaults;
# a default's type is its key's type
_OWN_KEYS = {"seeds": 1, "seed": 0, "sched-seed": 0, "latency": 0, "timing": False}


def parse_bench_config(text: str) -> dict:
    """Parse the flat key=value bench format into a validated dict."""
    cfg: dict = {}
    for lineno, line in content_lines(split_lines(text)):
        key, _, value = (part.strip() for part in line.partition("="))
        if not key or not value:
            raise FormatError("expected 'key = value'", lineno)
        if key in cfg:
            raise FormatError(f"duplicate key {key!r}", lineno)
        cfg[key] = (lineno, value)

    def need(key: str) -> tuple[int, str]:
        if key not in cfg:
            raise FormatError(f"bench config needs a {key!r} key")
        return cfg.pop(key)

    family_line, family = need("family")
    if family not in FAMILIES:
        raise FormatError(f"unknown family {family!r}", family_line)
    known = parameters(family)
    sweep_line, sweep = need("sweep")
    if sweep not in known:
        raise FormatError(_unknown(family, sweep, known), sweep_line)
    values_line, values = need("values")
    values = [_convert(known[sweep], "values", v, values_line) for v in values.split(",")]
    own, params = dict(_OWN_KEYS), {}
    for key, (lineno, value) in cfg.items():
        if key in own:
            own[key] = _convert(type(own[key]), key, value, lineno)
        elif key == sweep:
            raise FormatError(f"{key!r} is the swept parameter; 'values' sets it", lineno)
        elif key in known:
            params[key] = _convert(known[key], key, value, lineno)
        else:
            raise FormatError(_unknown(family, key, known), lineno)
    if own["seeds"] < 1:
        raise FormatError("seeds must be at least 1", cfg["seeds"][0])
    try:
        sim = SimConfig(scheduler_seed=own.pop("sched-seed"), latency=own.pop("latency"))
    except ValidationError as exc:  # only a negative latency gets here
        raise FormatError(str(exc), cfg["latency"][0]) from None
    try:  # every sweep value has the same type, so the first stands for all
        check_spec(GenSpec(family, own["seed"], {**params, sweep: values[0]}))
    except GenerationError as exc:  # only a missing required parameter gets here
        raise FormatError(str(exc)) from None
    return {
        "family": family, "sweep": sweep, "values": values, "sim": sim, "params": params, **own
    }


def _unknown(family: str, key: str, known: dict) -> str:
    return f"{family} has no parameter {key!r}; it takes {', '.join(known)}"


# what each type reads, for the error message
_EXPECTED = {int: "an integer", float: "a number", bool: "'on' or 'off'"}


def _convert(typ: type, key: str, value: str, lineno: int | None):
    """One value of key as typ: int and float as Python reads them, bool as on|off."""
    value = value.strip()
    try:
        return {"on": True, "off": False}[value] if typ is bool else typ(value)
    except (KeyError, ValueError):
        raise FormatError(f"{key} must be {_EXPECTED[typ]}, got {value!r}", lineno) from None


def run_bench(cfg: dict) -> list[RunMetrics]:
    """Execute the sweep; one RunMetrics per (value, seed) in grid order."""
    rows = []
    for value in cfg["values"]:
        for s in range(cfg["seeds"]):
            inst_seed = cfg["seed"] + s
            params = dict(cfg["params"])
            params[cfg["sweep"]] = value
            spec = GenSpec(cfg["family"], inst_seed, params)
            obj = generate(spec)
            instance = f"{cfg['family']}[{cfg['sweep']}={value},seed={inst_seed}]"
            started = time.perf_counter() if cfg["timing"] else 0.0
            metrics = _run_one(cfg, instance, obj)
            if cfg["timing"]:
                wall = int((time.perf_counter() - started) * 1000)
                metrics = replace(metrics, wall_ms=wall)
            rows.append(metrics)
    return rows


def _run_one(cfg: dict, instance: str, obj: Stn | Mastn) -> RunMetrics:
    # size is (n, e, agents), counts (verdict, iterations, checks, nccc,
    # messages); a central run sends no message and each check is non-concurrent
    if isinstance(obj, Stn):
        outcome = enforce_ac(obj)
        verdict = "consistent" if isinstance(outcome, AcClosure) else "inconsistent"
        size = (obj.n, obj.e, 1)
        counts = (verdict, outcome.iterations, outcome.checks, outcome.checks, 0)
    else:
        run = solve_distributed(obj, cfg["sim"], None)
        size = (obj.total_vars, obj.total_edges, obj.p)
        counts = (run.verdict, run.iterations, run.checks, run.nccc, run.messages)
    return RunMetrics(instance, *size, *counts, wall_ms=0)
