import os
import subprocess
import sys
from dataclasses import replace

import pytest

from conftest import SAMPLES
from stnac import (
    LogEntry,
    MessageLog,
    MsgKind,
    SimConfig,
    StnacError,
    dump_log,
    parse_mastn,
    parse_stn,
    solve_distributed,
)
from stnac import cli
from stnac.cli import main
from stnac.sim import DUMP_CHUNK


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_two_var(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(SAMPLES / "two_var.stn"))
        assert code == 0
        assert out.splitlines() == ["x [0,8]", "y [2,10]"]

    def test_cycle_is_inconsistent(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(SAMPLES / "cycle3.stn"))
        assert code == 1
        assert out.strip() == "inconsistent"

    def test_cycle_on_stderr(self, capsys):
        # the solver's own certificate, in the line oracle prints; stdout
        # stays the bare verdict
        code, out, err = run_cli(capsys, "solve", str(SAMPLES / "cycle3.stn"))
        assert code == 1
        assert out == "inconsistent\n"
        assert err == "negative cycle (weight -3): x->z->y->x\n"

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, capsys, tmp_path, end):
        # the file is read with universal newlines; a comment still ends at
        # its line end, not at the U+2028 inside it
        text = "stn 2\ndomain 0 0 10\ndomain 1 0 10\n# a\u2028constraint 0 1 5 3\n"
        path = tmp_path / "net.stn"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert (code, out) == (0, "v0 [0,10]\nv1 [0,10]\n")

    def test_solution_modes(self, capsys):
        for mode, values in (("lower", ["x = 0", "y = 2"]), ("upper", ["x = 8", "y = 10"])):
            code, out, _ = run_cli(
                capsys, "solve", str(SAMPLES / "two_var.stn"), "--solution", mode, "--verify"
            )
            assert code == 0
            lines = out.splitlines()
            assert lines[2:4] == values
            assert lines[-1] == "verify: pass"

    def test_sampled_solution(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", str(SAMPLES / "two_var.stn"), "--solution", "sample:3", "--verify"
        )
        assert code == 0
        assert out.splitlines()[-1] == "verify: pass"

    @pytest.mark.parametrize("seed", ["3", "11"])
    def test_sample_seed_from_env(self, capsys, monkeypatch, seed):
        path = str(SAMPLES / "two_var.stn")
        _, explicit, _ = run_cli(capsys, "solve", path, "--solution", f"sample:{seed}")
        _, unset, _ = run_cli(capsys, "solve", path, "--solution", "sample:0")
        assert explicit != unset  # the seeds draw different samples
        monkeypatch.setenv("STNAC_SEED", seed)
        code, out, _ = run_cli(capsys, "solve", path, "--solution", "sample")
        assert code == 0
        assert out == explicit

    def test_sample_with_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("STNAC_SEED", "1.5")
        path = str(SAMPLES / "two_var.stn")
        code, _, err = run_cli(capsys, "solve", path, "--solution", "sample")
        assert code == 2
        assert "STNAC_SEED" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "no_such_file.stn")
        assert code == 2
        assert "error" in err

    def test_oversized_header(self, capsys, tmp_path):
        path = tmp_path / "huge.stn"
        path.write_text("stn 10000000000000000000\ndomain 0 0 5\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_over_cap_endpoint_in_an_inverted_pair(self, capsys, tmp_path):
        path = tmp_path / "big.stn"
        path.write_text("stn 2\ndomain 0 0 9\ndomain 1 0 9\nconstraint 0 1 99999999999999999 3\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "magnitude cap" in err

    def test_bad_solution_mode(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", str(SAMPLES / "two_var.stn"), "--solution", "median"
        )
        assert code == 2
        assert "--solution must be lower, upper, or sample[:<seed>], got 'median'" in err

    def test_verify_needs_a_solution(self, capsys):
        code, out, err = run_cli(capsys, "solve", str(SAMPLES / "two_var.stn"), "--verify")
        assert code == 2
        assert out == ""
        assert "--verify needs --solution" in err

    def test_bad_sample_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", str(SAMPLES / "two_var.stn"), "--solution", "sample:x"
        )
        assert code == 2
        assert "bad sample seed" in err


class TestOracle:
    def test_agrees_with_solve_on_corpus(self, capsys):
        for sample in sorted(SAMPLES.glob("*.stn")):
            code_s, out_s, _ = run_cli(capsys, "solve", str(sample))
            code_o, out_o, _ = run_cli(capsys, "oracle", str(sample))
            assert code_s == code_o
            assert out_s == out_o

    def test_witness_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "oracle", str(SAMPLES / "cycle3.stn"))
        assert code == 1
        assert out.strip() == "inconsistent"
        assert "negative cycle" in err


class TestDsolve:
    def test_ring4(self, capsys, tmp_path):
        log_path = tmp_path / "run.log"
        code, out, _ = run_cli(
            capsys, "dsolve", str(SAMPLES / "ring4.mastn"),
            "--audit-privacy", "--log", str(log_path),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "privacy: pass"
        assert lines[0].startswith("0.arrive ")
        text = log_path.read_text()
        assert "DomainSync" in text and "ArcConsistent" in text

    def test_inconsistent_split_cycle(self, capsys, tmp_path):
        mastn = tmp_path / "bad.mastn"
        mastn.write_text(
            "mastn 2\n"
            "agent 0\ndomain 0 0 9\n"
            "agent 1\ndomain 0 0 9\n"
            "external 0 0 1 0 3 4\n"
            "external 1 0 0 0 3 4\n"
        )
        code, out, _ = run_cli(capsys, "dsolve", str(mastn))
        assert code == 1
        assert out.strip() == "inconsistent"

    def test_log_deterministic(self, capsys, tmp_path):
        logs = []
        for name in ("a.log", "b.log"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "dsolve", str(SAMPLES / "interview.mastn"),
                "--sched-seed", "9", "--log", str(path),
            )
            assert code == 0
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_empty_problem_is_consistent(self, capsys, tmp_path):
        # the flattened network, stn 0, is consistent too
        mastn = tmp_path / "empty.mastn"
        mastn.write_text("mastn 0\n")
        code, out, err = run_cli(capsys, "dsolve", str(mastn), "--audit-privacy")
        assert (code, out, err) == (0, "privacy: pass\n", "")

    RING4_OUT = "".join(f"{i}.arrive [0,99]\n{i}.leave [1,100]\n" for i in range(4))

    @pytest.mark.parametrize(
        "gen, code, expected",
        [
            (None, 0, RING4_OUT + "privacy: pass\n"),
            (
                ["random-mastn", "--agents", "4", "--activities", "4", "--seed", "3"],
                1,
                "inconsistent\nprivacy: pass\n",
            ),
        ],
        ids=["ring4", "random-mastn"],
    )
    def test_audit_with_and_without_a_log(self, capsys, tmp_path, gen, code, expected):
        mastn = SAMPLES / "ring4.mastn"
        if gen is not None:
            mastn = tmp_path / "gen.mastn"
            assert run_cli(capsys, "gen", *gen, "-o", str(mastn))[0] == 0
        audit = ("dsolve", str(mastn), "--audit-privacy", "--sched-seed", "4")
        assert run_cli(capsys, *audit) == (code, expected, "")
        log_path = tmp_path / "run.log"
        assert run_cli(capsys, *audit, "--log", str(log_path)) == (code, expected, "")
        assert log_path.stat().st_size > 0

    def test_a_leak_is_reported_with_and_without_a_log(self, capsys, tmp_path, monkeypatch):
        # every domain sync of the run also names a private variable of its sender
        real = cli.solve_distributed

        def leaky(m, cfg, observe):
            def tamper(entry):
                msg = entry.message
                if msg.kind is MsgKind.DOMAIN_SYNC:
                    domains = tuple(sorted(msg.domains + ((0, 0, 1),)))
                    entry = LogEntry(entry.step, replace(msg, domains=domains))
                observe(entry)

            return real(m, cfg, tamper)

        monkeypatch.setattr(cli, "solve_distributed", leaky)
        outs = []
        for extra in ((), ("--log", str(tmp_path / "run.log"))):
            code, out, _ = run_cli(
                capsys, "dsolve", str(SAMPLES / "interview.mastn"), "--audit-privacy", *extra
            )
            assert code == 2
            outs.append(out)
        assert outs[0] == outs[1]
        verdict = outs[0].splitlines()[-1]
        assert verdict.startswith("privacy: FAIL (payload names a private variable at step ")

    @pytest.mark.parametrize("audit", [(), ("--audit-privacy",)], ids=["log", "log-audit"])
    @pytest.mark.parametrize("source", ["interview", "factory-8x80"])
    def test_log_file_is_the_kept_log_dumped(self, capsys, tmp_path, source, audit):
        # the factory run delivers several DUMP_CHUNKs, at latency 3
        if source == "interview":
            mastn, latency = SAMPLES / "interview.mastn", 0
        else:
            mastn, latency = tmp_path / "f.mastn", 3
            gen = ("gen", "factory-mastn", "--agents", "8", "--tasks", "80", "-o", str(mastn))
            assert run_cli(capsys, *gen)[0] == 0
        log_path = tmp_path / "run.log"
        code, _, _ = run_cli(
            capsys, "dsolve", str(mastn), "--sched-seed", "3", "--latency", str(latency),
            "--log", str(log_path), *audit,
        )
        assert code in (0, 1)
        cfg = SimConfig(scheduler_seed=3, latency=latency)
        kept = solve_distributed(parse_mastn(mastn.read_text()), cfg).log
        if source != "interview":
            assert len(kept) > 3 * DUMP_CHUNK
        assert log_path.read_text() == dump_log(kept)

    def test_a_run_that_raises_leaves_the_steps_it_delivered(self, capsys, tmp_path, monkeypatch):
        real = cli.solve_distributed

        def broken(m, cfg, observe):
            def stop_at_ten(entry):
                observe(entry)
                if entry.step == 10:
                    raise StnacError("stopped")

            return real(m, cfg, stop_at_ten)

        monkeypatch.setattr(cli, "solve_distributed", broken)
        mastn, log_path = SAMPLES / "interview.mastn", tmp_path / "run.log"
        args = ("dsolve", str(mastn), "--sched-seed", "0", "--log", str(log_path))
        assert run_cli(capsys, *args) == (2, "", "error: stopped\n")
        kept = real(parse_mastn(mastn.read_text()), SimConfig(scheduler_seed=0)).log
        assert log_path.read_text() == dump_log(MessageLog(kept.messages[:10]))

    def test_latency_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "dsolve", str(SAMPLES / "ring4.mastn"), "--latency", "4"
        )
        assert code == 0


class TestGen:
    def test_writes_parseable_stn(self, capsys, tmp_path):
        out_file = tmp_path / "g.stn"
        code, _, _ = run_cli(
            capsys, "gen", "random-stn", "--n", "12", "--density", "0.3",
            "--seed", "5", "-o", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("# genspec: family=random-stn seed=5")
        assert parse_stn(text).n == 12

    def test_writes_parseable_mastn(self, capsys, tmp_path):
        out_file = tmp_path / "g.mastn"
        code, _, _ = run_cli(
            capsys, "gen", "factory-mastn", "--agents", "2", "--tasks", "4",
            "--seed", "1", "-o", str(out_file),
        )
        assert code == 0
        assert parse_mastn(out_file.read_text()).p == 2

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "grid-stn", "--rows", "2", "--cols", "2")
        assert code == 0
        assert parse_stn(out).n == 4

    def test_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STNAC_SEED", "77")
        code, out, _ = run_cli(capsys, "gen", "grid-stn", "--rows", "2", "--cols", "2")
        assert code == 0
        assert "seed=77" in out.splitlines()[0]

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("STNAC_SEED", "abc")
        code, _, err = run_cli(capsys, "gen", "grid-stn", "--rows", "2", "--cols", "2")
        assert code == 2
        assert "STNAC_SEED" in err

    def test_flags_take_the_generator_types(self, capsys):
        assert cli.GEN_FLAGS == {
            "n": int, "density": float, "wmin": int, "wmax": int, "horizon": int,
            "consistent": bool, "rows": int, "cols": int, "m": int, "agents": int,
            "activities": int, "externals": int, "tasks": int,
        }
        code, out, _ = run_cli(capsys, "gen", "random-stn", "--n", "4", "--density", "1", "--consistent")
        assert code == 0
        assert out.startswith("# genspec: family=random-stn seed=0 consistent=True density=1.0 n=4\n")
        with pytest.raises(SystemExit) as exc:  # argparse refuses a float for an int flag
            main(["gen", "random-stn", "--n", "4", "--density", "1", "--wmax", "1.5"])
        assert exc.value.code == 2

    def test_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "gen", "scale-free-stn", "--n", "5", "--m", "9")
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("random-stn", "--n", str(10**19), "--density", "0.1"),
            ("grid-stn", "--rows", str(10**10), "--cols", str(10**10)),
        ],
    )
    def test_oversized_network(self, capsys, args):
        code, _, err = run_cli(capsys, "gen", *args)
        assert code == 2
        assert err.startswith("error:")


class TestBench:
    CONFIG = (
        "family = random-mastn\n"
        "sweep = agents\n"
        "values = 2,3\n"
        "seeds = 2\n"
        "activities = 2\n"
        "externals = 3\n"
    )

    def test_csv_to_file(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "bench", str(cfg), "-o", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("instance,n,e,agents,verdict")
        assert len(lines) == 5

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        outputs = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            assert run_cli(capsys, "bench", str(cfg), "-o", str(path))[0] == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_stdout_default(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("family = grid-stn\nsweep = rows\nvalues = 2\ncols = 2\n")
        code, out, _ = run_cli(capsys, "bench", str(cfg))
        assert code == 0
        assert out.splitlines()[1].startswith('"grid-stn[rows=2,seed=0]"')

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("nonsense\n")
        code, _, err = run_cli(capsys, "bench", str(cfg))
        assert code == 2


@pytest.mark.parametrize(
    "cmd, text",
    [
        ("solve", b"stn 1\ndomain 0 0 5\n"),
        ("oracle", b"stn 1\ndomain 0 0 5\n"),
        ("dsolve", b"mastn 1\nagent 0\nstn 1\ndomain 0 0 5\n"),
        ("bench", b"family = grid-stn\nsweep = rows\nvalues = 2\n"),
    ],
)
def test_non_utf8_input_is_a_format_error(capsys, tmp_path, cmd, text):
    # a stray byte that no UTF-8 text holds, in an otherwise valid file
    path = tmp_path / "input"
    path.write_bytes(text + b"# caf\xff\n")
    code, out, err = run_cli(capsys, cmd, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")


class TestClosedStdout:
    def test_reader_closing_early_is_not_an_error(self, tmp_path):
        # 3,000 rows (about 164 KB of CSV) outgrow the pipe buffer, so the
        # reader goes while bench is still writing
        cfg = tmp_path / "big.cfg"
        cfg.write_text("family = random-stn\nsweep = n\nvalues = 2\nseeds = 3000\ndensity = 1\n")
        src = str(SAMPLES.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "stnac.cli", "bench", str(cfg)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline().startswith(b"instance,n,e,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")
