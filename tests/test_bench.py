import io
from dataclasses import replace

import pytest

from stnac import FormatError, RunMetrics, parse_bench_config, read_metrics_csv, run_bench
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

    def test_loss_free_round_trip(self, tmp_path):
        rows = [
            metrics("plain"),
            metrics('tricky, "quoted"', verdict="inconsistent", nccc=5),
        ]
        path = tmp_path / "out.csv"
        path.write_text(csv_text(rows), encoding="utf-8")
        assert read_metrics_csv(path) == rows

    def test_rejects_foreign_header(self):
        with pytest.raises(FormatError):
            read_metrics_csv(io.StringIO("a,b,c\n1,2,3\n"))

    @pytest.mark.parametrize("cells", [9, 11])
    def test_rejects_a_row_of_the_wrong_width(self, cells):
        text = ",".join(CSV_COLUMNS) + "\n" + ",".join(["0"] * cells) + "\n"
        with pytest.raises(FormatError, match="bad CSV row"):
            read_metrics_csv(io.StringIO(text))

    def test_rejects_a_non_integer_count(self):
        text = ",".join(CSV_COLUMNS) + "\nx,abc,1,1,consistent,1,1,1,0,0\n"
        with pytest.raises(FormatError, match="bad CSV row"):
            read_metrics_csv(io.StringIO(text))

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


class TestConfig:
    def test_parse(self):
        cfg = parse_bench_config(CONFIG)
        assert cfg["command"] == "dsolve"
        assert cfg["values"] == [2, 3]
        assert cfg["seeds"] == 2
        assert cfg["params"] == {"activities": 2, "externals": 3}
        assert cfg["timing"] is False

    def test_missing_family(self):
        with pytest.raises(FormatError):
            parse_bench_config("sweep = n\nvalues = 1\n")

    def test_solve_needs_stn_family(self):
        with pytest.raises(FormatError):
            parse_bench_config("family = random-mastn\ncommand = solve\nsweep = agents\nvalues = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(FormatError):
            parse_bench_config("family = random-stn\nfamily = grid-stn\nsweep = n\nvalues = 2\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("family = random-stn\ncommand = run\nsweep = n\nvalues = 2\n", "solve or dsolve"),
            ("family = random-stn\ncommand = dsolve\nsweep = n\nvalues = 2\n", "multi-agent family"),
            ("family = random-stn\nvalues = 2\n", "'sweep' key"),
            ("family = random-stn\nsweep = n\n", "'values' key"),
            ("family = random-stn\nsweep = n\nvalues = 2,x\n", "values must be an integer"),
            ("family = random-stn\nsweep = n\nvalues = 2\nseeds = 0\n", "at least 1"),
            ("family = random-stn\nsweep = n\nvalues = 2\ndensity = high\n", "density must be a number"),
        ],
    )
    def test_malformed_config_rejected(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_bench_config(text)

    def test_bad_timing(self):
        with pytest.raises(FormatError):
            parse_bench_config(
                "family = random-stn\nsweep = n\nvalues = 2\ntiming = maybe\n"
            )


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

    def test_determinism(self):
        cfg = parse_bench_config(CONFIG)
        assert csv_text(run_bench(cfg)) == csv_text(run_bench(cfg))
