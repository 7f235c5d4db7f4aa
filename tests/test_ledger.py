"""Run ledger: golden record schema, integrity, runner emission.

The contract: every runner invocation appends exactly one checksummed
JSONL record whose headline metrics derive from the *reduced* result (so
they are bit-identical at any ``--jobs N``); malformed lines are
quarantined instead of poisoning later reads; and the ledger never fails
a run (emission is best-effort).
"""

from __future__ import annotations

import json

from repro.core.config import MachineConfig
from repro.experiments.mapping import run_fig6
from repro.runner import ExperimentRunner, ResultCache
from repro.telemetry.ledger import (
    LEDGER_SCHEMA_VERSION,
    RECORD_FIELDS,
    LedgerRecord,
    RunLedger,
    headline_metrics_of,
    record_checksum,
)


def _record(**overrides) -> LedgerRecord:
    base = dict(
        experiment="fig6",
        timestamp=123.0,
        config_hash="abc",
        seed=7,
        jobs=2,
        headline={"empty_set_fraction": 0.35},
    )
    base.update(overrides)
    return LedgerRecord(**base)


class TestRecordSchema:
    """Golden schema: the on-disk dict carries exactly RECORD_FIELDS."""

    def test_to_dict_keys_match_golden_schema(self):
        payload = _record().to_dict()
        assert set(payload) == set(RECORD_FIELDS)
        assert payload["schema"] == LEDGER_SCHEMA_VERSION
        assert payload["kind"] == "run"

    def test_round_trips_through_dict(self):
        record = _record()
        assert LedgerRecord.from_dict(record.to_dict()) == record

    def test_from_dict_ignores_unknown_fields(self):
        payload = _record().to_dict()
        payload["future_field"] = 1
        assert LedgerRecord.from_dict(payload).experiment == "fig6"

    def test_checksum_is_canonical(self):
        payload = _record().to_dict()
        shuffled = dict(reversed(list(payload.items())))
        assert record_checksum(payload) == record_checksum(shuffled)


class TestHeadlineMetricsOf:
    def test_plain_object_yields_empty(self):
        assert headline_metrics_of(object()) == {}

    def test_non_finite_values_dropped(self):
        class R:
            def headline_metrics(self):
                return {"ok": 1.5, "nan": float("nan"), "inf": float("inf")}

        assert headline_metrics_of(R()) == {"ok": 1.5}

    def test_keys_sorted_for_stable_json(self):
        class R:
            def headline_metrics(self):
                return {"b": 2, "a": 1}

        assert list(headline_metrics_of(R())) == ["a", "b"]


class TestAppendScan:
    def test_append_then_records_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record())
        ledger.append(_record(experiment="table1", headline={"seq_error_rate": 0.1}))
        records = RunLedger(tmp_path).records()
        assert [r.experiment for r in records] == ["fig6", "table1"]
        assert records[0].headline == {"empty_set_fraction": 0.35}

    def test_experiment_filter_matches_dashed_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record(experiment="accuracy-train"))
        ledger.append(_record(experiment="accuracy-eval"))
        ledger.append(_record(experiment="fig6"))
        names = [r.experiment for r in ledger.records("accuracy")]
        assert names == ["accuracy-train", "accuracy-eval"]
        assert ledger.records("accurac") == []  # no partial-word matches

    def test_kind_filter(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record())
        ledger.append(_record(experiment="bench-hotpath", kind="bench"))
        assert [r.kind for r in ledger.records(kind="bench")] == ["bench"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "nowhere").records() == []

    def test_experiments_lists_distinct_names_in_order(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for name in ("fig6", "table1", "fig6"):
            ledger.append(_record(experiment=name))
        assert ledger.experiments() == ["fig6", "table1"]


class TestQuarantine:
    def test_garbage_line_quarantined_and_ledger_rewritten(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record())
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
        ledger.append(_record(experiment="table1"))

        fresh = RunLedger(tmp_path)
        records = fresh.records()
        assert [r.experiment for r in records] == ["fig6", "table1"]
        assert fresh.stats.quarantined == 1
        qpath = fresh.quarantine_root / "ledger.jsonl"
        assert qpath.read_text().strip() == "this is not json"
        # the ledger itself was rewritten clean: a second scan is quiet
        again = RunLedger(tmp_path)
        again.records()
        assert again.stats.quarantined == 0

    def test_tampered_checksum_quarantined(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record())
        line = json.loads(ledger.path.read_text())
        line["record"]["headline"]["empty_set_fraction"] = 0.0  # tamper
        ledger.path.write_text(json.dumps(line) + "\n")
        fresh = RunLedger(tmp_path)
        assert fresh.records() == []
        assert fresh.stats.quarantined == 1

    def test_wrong_schema_version_quarantined(self, tmp_path):
        ledger = RunLedger(tmp_path)
        payload = _record().to_dict()
        payload["schema"] = LEDGER_SCHEMA_VERSION + 1
        line = json.dumps(
            {"record": payload, "checksum": record_checksum(payload)}
        )
        ledger.root.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(line + "\n")
        assert RunLedger(tmp_path).records() == []

    def test_schema_one_record_still_readable(self, tmp_path):
        """Forward compat: pre-``context`` (schema 1) lines parse cleanly.

        Records written before the adaptive-recovery fields existed carry
        no ``context`` key; they must scan without quarantine and default
        to an empty context rather than crash ``repro report``.
        """
        ledger = RunLedger(tmp_path)
        payload = _record().to_dict()
        payload["schema"] = 1
        del payload["context"]
        line = json.dumps(
            {"record": payload, "checksum": record_checksum(payload)}
        )
        ledger.root.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(line + "\n")
        fresh = RunLedger(tmp_path)
        records = fresh.records()
        assert [r.experiment for r in records] == ["fig6"]
        assert records[0].context == {}
        assert fresh.stats.quarantined == 0


class _ToyResult:
    """Module-level so the result cache can pickle it."""

    def headline_metrics(self):
        return {"answer": 42.0}

    def __eq__(self, other):
        return isinstance(other, _ToyResult)


def _runner(tmp_path, jobs=1, **kwargs) -> ExperimentRunner:
    return ExperimentRunner(
        jobs=jobs,
        cache=ResultCache(str(tmp_path / "cache")),
        use_cache=True,
        ledger=RunLedger(tmp_path / "cache"),
        **kwargs,
    )


class TestRunnerEmission:
    def test_sharded_run_appends_one_record(self, tmp_path):
        runner = _runner(tmp_path)
        config = MachineConfig().scaled_down()
        result = run_fig6(instances=6, config=config, runner=runner)
        records = runner.ledger.records("fig6")
        assert len(records) == 1
        record = records[0]
        assert record.kind == "run"
        assert record.headline == headline_metrics_of(result)
        assert record.headline  # fig6 declares headline metrics
        assert record.config_hash == config.config_hash()
        assert not record.cache_hit and not record.partial

    def test_cache_hit_also_recorded(self, tmp_path):
        config = MachineConfig().scaled_down()
        runner = _runner(tmp_path)
        run_fig6(instances=6, config=config, runner=runner)
        warm = _runner(tmp_path)
        run_fig6(instances=6, config=config, runner=warm)
        records = warm.ledger.records("fig6")
        assert len(records) == 2
        assert [r.cache_hit for r in records] == [False, True]
        assert records[0].headline == records[1].headline

    def test_run_cached_emits_record(self, tmp_path):
        runner = _runner(tmp_path)
        runner.run_cached("toy", MachineConfig().scaled_down(), {}, _ToyResult)
        (record,) = runner.ledger.records("toy")
        assert record.headline == {"answer": 42.0}

    def test_ledger_failure_never_fails_the_run(self, tmp_path, capsys):
        runner = _runner(tmp_path)

        def boom(record):
            raise OSError("disk full")

        runner.ledger.append = boom
        result = run_fig6(
            instances=6, config=MachineConfig().scaled_down(), runner=runner
        )
        assert result.histogram  # run completed
        assert "[ledger] append failed" in capsys.readouterr().err

    def test_headline_bit_identical_across_job_counts(self, tmp_path):
        config = MachineConfig().scaled_down()
        headlines = []
        for jobs in (1, 2):
            runner = _runner(tmp_path / f"j{jobs}", jobs=jobs)
            run_fig6(instances=8, config=config, runner=runner)
            (record,) = runner.ledger.records("fig6")
            headlines.append(record.headline)
        assert headlines[0] == headlines[1]
        assert headlines[0]  # and they are non-empty


class TestBenchRecords:
    def test_bench_ledger_record_shape(self):
        from reference.bench import bench_ledger_record

        record = bench_ledger_record(
            {"sweep_speedup": 9.0, "rx_speedup": 3.0, "rounds": 5, "junk": "x"}
        )
        assert record.kind == "bench"
        assert record.experiment == "bench-hotpath"
        assert record.headline == {"sweep_speedup": 9.0, "rx_speedup": 3.0}
        assert record.trials == 5

    def test_bench_record_appends_and_scans(self, tmp_path):
        from reference.bench import bench_ledger_record

        ledger = RunLedger(tmp_path)
        ledger.append(bench_ledger_record({"sweep_speedup": 9.0}))
        (record,) = ledger.records(kind="bench")
        assert record.headline["sweep_speedup"] == 9.0
