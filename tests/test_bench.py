import csv
import io
from dataclasses import replace

import pytest

from conftest import OTHER_LINE_BREAKS
from stnac import (
    AcClosure,
    FormatError,
    GenSpec,
    RunMetrics,
    SimConfig,
    Stn,
    enforce_ac,
    generate,
    parse_bench_config,
    run_bench,
    solve_distributed,
)
from stnac.bench import CSV_COLUMNS, csv_text


def metrics(instance="x", **overrides):
    base = dict(
        instance=instance, n=4, e=3, agents=1, verdict="consistent",
        iterations=2, checks=12, nccc=12, messages=0, wall_ms=0,
    )
    base.update(overrides)
    return RunMetrics(**base)


class TestCsv:
    def test_header_only_for_empty(self):
        assert csv_text([]) == "instance,n,e,agents,verdict,iterations,checks,nccc,messages,wall_ms\n"

    def test_loss_free_round_trip(self):
        rows = [
            metrics("plain"),
            metrics('tricky, "quoted"', verdict="inconsistent", nccc=5),
        ]
        cells = list(csv.reader(io.StringIO(csv_text(rows))))
        assert cells[0] == list(CSV_COLUMNS)
        assert cells[2][:2] == ['tricky, "quoted"', "4"]
        assert cells[1:] == [[str(getattr(r, col)) for col in CSV_COLUMNS] for r in rows]

    def test_column_set_is_fixed(self):
        assert CSV_COLUMNS == (
            "instance", "n", "e", "agents", "verdict",
            "iterations", "checks", "nccc", "messages", "wall_ms",
        )


CONFIG = """\
# sweep the agent count
family = random-mastn
sweep = agents
values = 2,3
seeds = 2
activities = 2
externals = 3
"""

# one small sweep point per generator family
FAMILY_CASES = [
    ("random-stn", "n", 5, {"density": 0.3}),
    ("grid-stn", "rows", 2, {"cols": 3}),
    ("scale-free-stn", "n", 6, {"m": 2}),
    ("random-mastn", "agents", 2, {"activities": 2, "externals": 2}),
    ("factory-mastn", "agents", 2, {"tasks": 2}),
]


class TestConfig:
    def test_parse(self):
        cfg = parse_bench_config(CONFIG)
        assert cfg["values"] == [2, 3]
        assert cfg["seeds"] == 2
        assert cfg["params"] == {"activities": 2, "externals": 3}
        assert cfg["timing"] is False
        assert cfg["sim"] == SimConfig()
        cfg = parse_bench_config(CONFIG + "sched-seed = 4\nlatency = 3\n")
        assert cfg["sim"] == SimConfig(scheduler_seed=4, latency=3)

    def test_missing_family(self):
        with pytest.raises(FormatError):
            parse_bench_config("sweep = n\nvalues = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(FormatError):
            parse_bench_config("family = random-stn\nfamily = grid-stn\nsweep = n\nvalues = 2\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("family = random-mastn\ncommand = dsolve\nsweep = agents\nvalues = 2\n",
             "line 2: random-mastn has no parameter 'command'"),
            ("family = random-stn\nsweep = n\nvalues = 2\ndensty = 0.3\n",
             "line 4: random-stn has no parameter 'densty'"),
            ("family = random-stn\nsweep = seed\nvalues = 2\ndensity = 0.3\n",
             "line 2: random-stn has no parameter 'seed'"),
            ("family = random-stn\nsweep = densty\nvalues = 2\n",
             "line 2: random-stn has no parameter 'densty'"),
            ("family = random-stn\nsweep = n\nvalues = 2\nlatency = -1\n",
             "line 4: latency must be non-negative"),
            ("family = random-stn\nsweep = n\nvalues = 2\nn = 50\n",
             "line 4: 'n' is the swept parameter"),
            ("family = random-stn\nvalues = 2\n", "'sweep' key"),
            ("family = random-stn\nsweep = n\n", "'values' key"),
            ("family = random-stn\nsweep = n\nvalues = 2,x\n", "line 3: values must be an integer"),
            ("family = random-stn\nsweep = n\nvalues = 2\nseeds = 0\n", "line 4: seeds must be at least 1"),
            ("family = random-stn\nsweep = n\nvalues = 2\ndensity = high\n",
             "line 4: density must be a number"),
            ("family = grid-stn\nsweep = rows\nvalues = 2\n", "grid-stn needs parameter 'cols'"),
        ],
    )
    def test_malformed_config_rejected(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_bench_config(text)

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS)
    def test_comment_ends_only_at_a_newline(self, sep):
        text = f"family = random-stn\nsweep = n\n# x{sep}seeds = 3\nvalues = 2\ndensity = 0.5\n"
        assert parse_bench_config(text)["seeds"] == 1
        with pytest.raises(FormatError, match="line 6: seeds must be at least 1"):
            parse_bench_config(text + "seeds = 0\n")

    def test_the_sweep_sets_a_required_parameter(self):
        cfg = parse_bench_config("family = grid-stn\nsweep = cols\nvalues = 2\nrows = 2\n")
        assert cfg["params"] == {"rows": 2}

    def test_bad_timing(self):
        with pytest.raises(FormatError, match="line 4: timing must be 'on' or 'off'"):
            parse_bench_config(
                "family = random-stn\nsweep = n\nvalues = 2\ntiming = maybe\n"
            )

    # each value reads as its parameter's type in workloads.parameters:
    # no float for an int, no integer for a bool
    @pytest.mark.parametrize(
        "line, match",
        [
            ("wmax = 1e3", "line 4: wmax must be an integer, got '1e3'"),
            ("n = 5.0", "line 4: n must be an integer, got '5.0'"),
            ("consistent = 1", "line 4: consistent must be 'on' or 'off', got '1'"),
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, line, match):
        text = f"family = random-stn\nsweep = density\nvalues = 0.5\n{line}\n"
        with pytest.raises(FormatError, match=match):
            parse_bench_config(text)

    def test_values_take_the_swept_type(self):
        cfg = parse_bench_config("family = random-stn\nsweep = density\nvalues = 0.1, 1\nn = 8\n")
        assert cfg["values"] == [0.1, 1.0]
        assert all(type(v) is float for v in cfg["values"])
        cfg = parse_bench_config("family = random-stn\nsweep = consistent\nvalues = off,on\n"
                                 "n = 8\ndensity = 0.5\n")
        assert cfg["values"] == [False, True]
        with pytest.raises(FormatError, match="line 3: values must be 'on' or 'off'"):
            parse_bench_config("family = random-stn\nsweep = consistent\nvalues = yes\n")


class TestRunBench:
    def test_dsolve_sweep(self):
        rows = run_bench(parse_bench_config(CONFIG))
        assert len(rows) == 4  # two values x two seeds
        assert [r.agents for r in rows] == [2, 2, 3, 3]
        assert all(r.n == r.agents * 4 for r in rows)
        assert all(r.nccc <= r.checks for r in rows)
        assert all(r.wall_ms == 0 for r in rows)

    def test_solve_sweep_nccc_equals_checks(self):
        cfg = parse_bench_config(
            "family = random-stn\nsweep = n\nvalues = 5,8\ndensity = 0.3\n"
        )
        rows = run_bench(cfg)
        assert len(rows) == 2
        assert all(r.agents == 1 and r.messages == 0 for r in rows)
        assert all(r.nccc == r.checks for r in rows)
        assert [r.n for r in rows] == [5, 8]

    def test_agent_sweep_monotone_n(self):
        cfg = parse_bench_config(
            "family = random-mastn\nsweep = agents\nvalues = 2,4,8,12,16\n"
            "activities = 2\nexternals = 2\nseeds = 1\n"
        )
        rows = run_bench(cfg)
        ns = [r.n for r in rows]
        assert ns == sorted(ns) and len(set(ns)) == len(ns)

    def test_timing_fills_only_wall_ms(self):
        text = "family = random-stn\nsweep = n\nvalues = 5,8\ndensity = 0.3\n"
        timed = run_bench(parse_bench_config(text + "timing = on\n"))
        untimed = run_bench(parse_bench_config(text + "timing = off\n"))
        assert all(type(r.wall_ms) is int and r.wall_ms >= 0 for r in timed)
        assert [replace(r, wall_ms=0) for r in timed] == untimed

    def test_density_sweep(self):
        rows = run_bench(parse_bench_config(
            "family = random-stn\nsweep = density\nvalues = 0.1,0.5\nn = 8\n"
        ))
        assert [r.instance for r in rows] == [
            "random-stn[density=0.1,seed=0]", "random-stn[density=0.5,seed=0]",
        ]
        for row, density in zip(rows, (0.1, 0.5)):
            net = generate(GenSpec("random-stn", 0, {"n": 8, "density": density}))
            assert (row.e, row.checks) == (net.e, enforce_ac(net).checks)

    def test_bool_key_reads_on(self):
        text = "family = random-stn\nsweep = n\nvalues = 8\ndensity = 0.5\n"
        [row] = run_bench(parse_bench_config(text + "consistent = on\n"))
        [plain] = run_bench(parse_bench_config(text + "consistent = off\n"))
        outcome = enforce_ac(
            generate(GenSpec("random-stn", 0, {"n": 8, "density": 0.5, "consistent": True}))
        )
        assert (row.verdict, row.iterations, row.checks) == (
            "consistent", outcome.iterations, outcome.checks,
        )
        assert plain.verdict == "inconsistent"

    def test_determinism(self):
        cfg = parse_bench_config(CONFIG)
        assert csv_text(run_bench(cfg)) == csv_text(run_bench(cfg))

    @pytest.mark.parametrize(
        "family, sweep, value, params", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES]
    )
    def test_family_decides_the_run(self, family, sweep, value, params):
        text = f"family = {family}\nsweep = {sweep}\nvalues = {value}\n"
        text += "".join(f"{k} = {v}\n" for k, v in params.items())
        [row] = run_bench(parse_bench_config(text))
        obj = generate(GenSpec(family, 0, {**params, sweep: value}))
        if isinstance(obj, Stn):
            outcome = enforce_ac(obj)
            verdict = "consistent" if isinstance(outcome, AcClosure) else "inconsistent"
            expected = (1, verdict, outcome.iterations, outcome.checks, outcome.checks, 0)
        else:
            run = solve_distributed(obj, SimConfig())
            expected = (obj.p, run.verdict, run.iterations, run.checks, run.nccc, run.messages)
        assert (row.agents, row.verdict, row.iterations, row.checks, row.nccc, row.messages) == expected

    def test_sim_keys_reach_the_distributed_run(self):
        text = (
            "family = random-mastn\nsweep = agents\nvalues = 3\n"
            "activities = 2\nexternals = 3\nsched-seed = 3\nlatency = 2\n"
        )
        [row] = run_bench(parse_bench_config(text))
        obj = generate(GenSpec("random-mastn", 0, {"agents": 3, "activities": 2, "externals": 3}))
        run = solve_distributed(obj, SimConfig(scheduler_seed=3, latency=2))
        assert (row.nccc, row.messages) == (run.nccc, run.messages)
        assert row.nccc != solve_distributed(obj, SimConfig()).nccc
