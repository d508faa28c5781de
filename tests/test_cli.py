"""Tests for the command-line interface."""

import dataclasses
import io
import json

import pytest

from repro.cli import RUN_FLAGS, _options_from_args, build_parser, main
from repro.core.run import RunOptions, parse_security_spec


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "matopiba"])
        assert args.pilot == "matopiba"
        assert args.seed == 0
        assert args.days is None

    def test_unknown_pilot_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "atlantis"])

    def test_security_parsing(self):
        config = parse_security_spec("auth,encryption")
        assert config.auth and config.encryption and not config.detection

    def test_security_empty(self):
        config = parse_security_spec("")
        assert not config.auth

    def test_security_unknown_flag(self):
        with pytest.raises(SystemExit, match="unknown security flag 'teleportation'"):
            main(["run", "matopiba", "--days", "0.1", "--security", "auth,teleportation"],
                 out=io.StringIO())


#: RunOptions fields that only the programmatic entrypoint sets: an
#: explicit config, a tracing config beyond --trace's default, factory
#: kwargs, chaos mode, and the request trace that ``serve`` builds from
#: its own --requests/--serve-duration inputs.
API_ONLY_FIELDS = {"config", "tracing", "pilot_kwargs", "chaos", "serve_trace"}


class TestFlagTable:
    """The flag table and RunOptions cannot drift apart."""

    def test_every_row_names_a_run_options_field(self):
        fields = {f.name for f in dataclasses.fields(RunOptions)}
        assert {row.field for row in RUN_FLAGS} <= fields

    def test_every_field_has_a_flag_or_is_api_only(self):
        fields = {f.name for f in dataclasses.fields(RunOptions)}
        flagged = {row.field for row in RUN_FLAGS}
        assert flagged | API_ONLY_FIELDS == fields
        assert not flagged & API_ONLY_FIELDS

    @pytest.mark.parametrize("argv", [["run"], ["compare", "matopiba"], ["serve"]])
    def test_flag_defaults_equal_run_options_defaults(self, argv):
        options = _options_from_args(build_parser().parse_args(argv))
        defaults = RunOptions()
        flagged = {row.field for row in RUN_FLAGS if argv[0] in row.commands}
        for field in flagged:
            assert getattr(options, field) == getattr(defaults, field), field


class TestCommands:
    def test_list_output(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for pilot in ("cbec", "intercrop", "guaspari", "matopiba"):
            assert pilot in text

    def test_run_truncated_season(self):
        out = io.StringIO()
        assert main(["run", "guaspari", "--days", "3", "--seed", "2"], out=out) == 0
        text = out.getvalue()
        assert "guaspari" in text
        assert "telemetry processed" in text

    def test_run_with_security_flags(self):
        out = io.StringIO()
        assert main(
            ["run", "guaspari", "--days", "2", "--security", "auth"], out=out
        ) == 0
        assert "guaspari" in out.getvalue()

    def test_run_prints_metrics_summary(self):
        out = io.StringIO()
        assert main(["run", "guaspari", "--days", "2", "--seed", "2"], out=out) == 0
        summary = [line for line in out.getvalue().splitlines()
                   if line.startswith("metrics:")]
        assert len(summary) == 1
        assert "events/s kernel" in summary[0]
        assert "messages published" in summary[0]
        assert "notifications delivered" in summary[0]

    def test_run_without_resilience_prints_no_resilience_line(self):
        out = io.StringIO()
        assert main(["run", "guaspari", "--days", "2", "--seed", "2"], out=out) == 0
        assert "resilience:" not in out.getvalue()

    def test_run_with_resilience_prints_summary_and_metrics(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "metrics.json"
        assert main(
            ["run", "guaspari", "--days", "2", "--seed", "2",
             "--resilience", "--metrics", str(path)],
            out=out,
        ) == 0
        summary = [line for line in out.getvalue().splitlines()
                   if line.startswith("resilience:")]
        assert len(summary) == 1
        assert "services healthy" in summary[0]
        assert "restarts" in summary[0]
        snapshot = json.loads(path.read_text())
        health = {name: value for name, value in snapshot["gauges"].items()
                  if name.startswith("resilience.health")}
        assert len(health) >= 5
        assert all(value == 1.0 for value in health.values())

    def test_run_writes_metrics_snapshot(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "metrics.json"
        assert main(
            ["run", "guaspari", "--days", "2", "--seed", "2",
             "--metrics", str(path)],
            out=out,
        ) == 0
        assert f"metrics snapshot written to {path}" in out.getvalue()
        snapshot = json.loads(path.read_text())
        assert snapshot["enabled"] is True
        # Non-zero activity from at least five instrumented subsystems.
        active = {
            name.split(".", 1)[0]
            for name, value in snapshot["counters"].items() if value > 0
        }
        active |= {
            name.split(".", 1)[0]
            for name, value in snapshot["gauges"].items() if value > 0
        }
        assert len(active & {"simkernel", "mqtt", "context", "fog",
                             "scheduler", "security", "iota"}) >= 5


class TestStoreFlags:
    """Store flags reach the store unchanged; bad values exit cleanly."""

    def test_defaults_come_from_run_options(self):
        options = _options_from_args(build_parser().parse_args(["run", "matopiba"]))
        defaults = RunOptions()
        assert options.store_flush_s == defaults.store_flush_s
        assert options.store_segment_bytes == defaults.store_segment_bytes

    def test_zero_values_are_not_replaced(self):
        args = build_parser().parse_args(
            ["run", "matopiba", "--store-flush", "0", "--store-segment-bytes", "0"])
        options = _options_from_args(args)
        assert options.store_flush_s == 0.0
        assert options.store_segment_bytes == 0

    @pytest.mark.parametrize("flag,value,message", [
        ("--store-flush", "0", "flush_interval_s must be positive, got 0"),
        ("--store-flush", "-1", "flush_interval_s must be positive, got -1"),
        ("--store-segment-bytes", "0", "max_segment_bytes must be positive, got 0"),
        ("--store-segment-bytes", "-5", "max_segment_bytes must be positive, got -5"),
    ])
    def test_non_positive_values_exit_with_the_store_message(
            self, tmp_path, flag, value, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "matopiba", "--days", "0.02", "--store", str(tmp_path / "wal"),
                  flag, value], out=io.StringIO())
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("mode", ["--checkpoint", "--restore"])
    def test_store_with_checkpoint_or_restore_exits_with_the_message(self, tmp_path, mode):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "matopiba", "--days", "0.1", mode, str(tmp_path / "x.ck"),
                  "--store", str(tmp_path / "wal")], out=io.StringIO())
        assert str(excinfo.value).startswith(
            "store_dir is not supported with chaos, checkpoint or restore")


class TestArtifactWriteFailures:
    @pytest.mark.parametrize("flag,message", [
        ("--metrics", "cannot write metrics snapshot to"),
        ("--trace", "cannot write trace to"),
    ])
    def test_unwritable_artifact_path_exits(self, tmp_path, flag, message):
        path = str(tmp_path / "missing-dir" / "out.json")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "guaspari", "--days", "0.1", flag, path], out=io.StringIO())
        assert str(excinfo.value).startswith(f"{message} {path!r}")

    def test_missing_checkpoint_exits(self, tmp_path):
        path = str(tmp_path / "missing.ck")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--restore", path], out=io.StringIO())
        assert str(excinfo.value).startswith(f"cannot read checkpoint {path!r}")
