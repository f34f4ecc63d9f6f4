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
    values     = comma-separated integers
    seeds      = how many instance seeds per value   (default 1)
    seed       = base instance seed                  (default 0)
    sched-seed = scheduler seed for dsolve           (default 0)
    latency    = message latency for dsolve          (default 0)
    timing     = on | off                            (default off)

Every other key is a number parameter of the family's generator, and
'sweep' must name one too: both are checked against
workloads.parameters at parse time, so a misspelt key fails with its
line number.  A key that names the swept parameter is an error, since
the sweep sets it.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass, fields, replace

from .distributed import SimConfig, solve_distributed
from .errors import FormatError, ValidationError
from .mastn import Mastn
from .solver import AcClosure, enforce_ac
from .stn import Stn, content_lines
from .workloads import FAMILIES, GenSpec, generate, parameters


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


def parse_bench_config(text: str) -> dict:
    """Parse the flat key=value bench format into a validated dict."""
    cfg: dict = {}
    for lineno, line in content_lines(text.splitlines()):
        if "=" not in line:
            raise FormatError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise FormatError("expected 'key = value'", lineno)
        if key in cfg:
            raise FormatError(f"duplicate key {key!r}", lineno)
        cfg[key] = (lineno, value)

    def take(key, default=None):
        if key in cfg:
            return cfg.pop(key)[1]
        return default

    family = take("family")
    if family is None:
        raise FormatError("bench config needs a 'family' key")
    if family not in FAMILIES:
        raise FormatError(f"unknown family {family!r}")
    known = parameters(family)
    sweep_line, sweep = cfg.pop("sweep", (None, None))
    if sweep is None:
        raise FormatError("bench config needs a 'sweep' key")
    swept = sweep.replace("-", "_")
    if swept not in known:
        raise FormatError(_unknown(family, sweep, known), sweep_line)
    values_raw = take("values")
    if values_raw is None:
        raise FormatError("bench config needs a 'values' key")
    try:
        sim = SimConfig(
            scheduler_seed=_as_int(take("sched-seed", "0"), "sched-seed"),
            latency=_as_int(take("latency", "0"), "latency"),
        )
    except ValidationError as exc:
        raise FormatError(str(exc)) from None
    out = {
        "family": family,
        "sweep": sweep,
        "values": [_as_int(v, "values") for v in values_raw.split(",")],
        "seeds": _as_int(take("seeds", "1"), "seeds"),
        "seed": _as_int(take("seed", "0"), "seed"),
        "sim": sim,
        "timing": _as_flag(take("timing", "off")),
        "params": {},
    }
    for key, (lineno, value) in cfg.items():
        name = key.replace("-", "_")
        if name == swept:
            raise FormatError(f"{key!r} is the swept parameter; 'values' sets it", lineno)
        if name not in known:
            raise FormatError(_unknown(family, key, known), lineno)
        out["params"][name] = _as_number(value, key)
    if out["seeds"] < 1:
        raise FormatError("seeds must be at least 1")
    return out


def _unknown(family: str, key: str, known: tuple[str, ...]) -> str:
    return f"{family} has no parameter {key!r}; it takes {', '.join(known)}"


def _as_int(value: str, key: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise FormatError(f"{key} must be an integer, got {value!r}") from None


def _as_number(value: str, key: str):
    """Generator parameters are integers except densities and the like."""
    try:
        return int(value.strip())
    except ValueError:
        pass
    try:
        return float(value.strip())
    except ValueError:
        raise FormatError(f"{key} must be a number, got {value!r}") from None


def _as_flag(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise FormatError(f"timing must be 'on' or 'off', got {value!r}")


def run_bench(cfg: dict) -> list[RunMetrics]:
    """Execute the sweep; one RunMetrics per (value, seed) in grid order."""
    rows = []
    for value in cfg["values"]:
        for s in range(cfg["seeds"]):
            inst_seed = cfg["seed"] + s
            params = dict(cfg["params"])
            params[cfg["sweep"].replace("-", "_")] = value
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
