"""The command-line interface."""

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.harness.experiment import checkpoint_meta, config_from_meta


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table3", "fig5", "fig6", "fig7",
                        "fig8", "run"):
            args = parser.parse_args(
                [command] + (["rr"] if command == "run" else [])
            )
            assert callable(args.fn)

    def test_checkpoint_flags_and_verbs_registered(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "rr", "--checkpoint-dir", "/tmp/ck",
             "--checkpoint-every", "10", "--checkpoint-retain", "5"]
        )
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.checkpoint_every == 10.0
        assert args.checkpoint_retain == 5
        resume = parser.parse_args(["resume", "/tmp/ck"])
        assert callable(resume.fn)
        deadletter = parser.parse_args(
            ["deadletter", "/tmp/ck", "--replay"]
        )
        assert callable(deadletter.fn) and deadletter.replay

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--duration", "120", "--seeds", "2", "fig5"]
        )
        assert args.duration == 120
        assert args.seeds == 2

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_size_flag_is_gone(self, capsys):
        """The firing loop has no quantum knob: the flag is rejected."""
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--train-size=64", "fig5"])
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not hasattr(parser.parse_args(["fig5"]), "train_size")
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        assert "train-size" not in capsys.readouterr().out

    def test_manifest_carries_no_train_size(self):
        """The loop bound is output-invariant: resume needs no record."""
        base = ExperimentConfig(
            SchedulerSpec("RR", quantum_us=10_000), train_size=64
        )
        meta = checkpoint_meta(base, 7)
        assert "train_size" not in meta
        rebuilt, seed = config_from_meta(meta)
        assert seed == 7 and rebuilt.train_size is None


class TestExecution:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PNCWF" in out and "Director" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "Basic Quantum (QBS)" in capsys.readouterr().out

    def test_fig5_short(self, capsys):
        assert main(["--duration", "90", "fig5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_run_single_scheduler_short(self, capsys):
        assert main(
            ["--duration", "60", "run", "rr", "--quantum", "20000"]
        ) == 0
        out = capsys.readouterr().out
        assert "RR-q20000" in out
        assert "summary:" in out

    def test_run_checkpoint_then_resume(self, tmp_path, capsys):
        assert main(
            ["--duration", "60", "--seeds", "1", "run", "rr",
             "--quantum", "10000", "--checkpoint-dir", str(tmp_path),
             "--checkpoint-every", "20"]
        ) == 0
        capsys.readouterr()
        assert main(["resume", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out

    def test_checkpoint_dir_requires_single_seed(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["--duration", "60", "--seeds", "2", "run", "rr",
                 "--checkpoint-dir", str(tmp_path)]
            )

    def test_deadletter_inspect(self, tmp_path, capsys):
        assert main(
            ["--duration", "60", "--seeds", "1", "run", "rr",
             "--quantum", "10000", "--checkpoint-dir", str(tmp_path),
             "--checkpoint-every", "20"]
        ) == 0
        capsys.readouterr()
        assert main(["deadletter", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dead letter" in out

    def test_dot_prints_linear_road_graph(self, capsys):
        assert main(["dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "linear-road"')
        assert "TollNotification" in out

    def test_checkpoint_every_without_a_dir_names_the_missing_flag(self):
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main(["--duration", "30", "run", "fifo",
                  "--checkpoint-every", "10"])

    @pytest.mark.parametrize(
        "argv, said",
        [
            (["--watermark-disorder", "3", "run", "fifo"], "--out-of-order"),
            (["--watermark-disorder", "3", "run", "fifo", "--shards", "2"],
             "--out-of-order"),
            (["--out-of-order", "track", "--lateness", "drop", "run", "rr"],
             "--out-of-order close"),
            (["run", "pncwf", "--shards", "2"], "--shards"),
            (["--fuse", "fig8"], "fusion requires the SCWF director"),
            (["--watermark-disorder", "3", "trace", "/dev/null"],
             "--out-of-order"),
        ],
    )
    def test_unassemblable_config_is_a_one_line_exit(self, argv, said):
        """No traceback: the exit message is the validation error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--duration", "30"] + argv)
        message = str(exit_info.value)
        assert said in message and "\n" not in message
