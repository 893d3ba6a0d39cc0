"""Tests of the CLI entry point and the experiment result renderers."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.analysis.experiments import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    Table2Result,
    Table2Row,
    Table3Result,
    Table3Row,
    Table4Result,
    Table4Row,
)
from repro.faults.campaign import CoverageRange


def test_cli_lists_every_experiment():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table3", "table4", "fig1", "fig2",
    }


def test_cli_runs_fig1(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1a" in out and "Fig. 1b" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["table9"])


@pytest.mark.parametrize(
    "flags",
    (
        ["--workers", "0"],
        ["--max-retries", "-1"],
        ["--shard-timeout", "0"],
    ),
    ids=("workers", "max-retries", "shard-timeout"),
)
def test_faultsim_rejects_out_of_range_flags(flags, capsys):
    # A usage error (exit 2), not exit 1, which means "scenarios failed".
    with pytest.raises(SystemExit) as excinfo:
        main(["faultsim", "--small", *flags])
    assert excinfo.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_faultsim_has_no_shard_count_flag(capsys):
    # One scenario per shard: the shard count is not a knob.
    with pytest.raises(SystemExit) as excinfo:
        main(["faultsim", "--small", "--shards", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err


def test_faultsim_json_summary(tmp_path):
    path = tmp_path / "faultsim.json"
    argv = ["faultsim", "--small", "--workers", "1", "--modules", "FWD"]
    assert main([*argv, "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "workers", "num_shards", "scenarios", "modules", "elapsed_seconds",
        "failed", "coverage_ranges", "shards",
    }
    assert payload["num_shards"] == 18
    for shard in payload["shards"]:
        assert set(shard) == {"index", "label", "seconds"}
    assert len({shard["label"] for shard in payload["shards"]}) == 18
    assert payload["coverage_ranges"]
    assert all(entry["stable"] for entry in payload["coverage_ranges"])


def test_faultsim_lists_failed_scenarios(tmp_path, monkeypatch, capsys):
    """A scenario whose simulation raises is a failed scenario (exit 1),
    not a quarantined shard: the campaign records its error outcome."""
    import repro.core.determinism as determinism
    from repro.errors import SimulationError

    victim = determinism.default_scenarios()[0].label
    original = determinism.run_scenario

    def run_scenario(builders, scenario, *args, **kwargs):
        if scenario.label == victim:
            raise SimulationError("injected")
        return original(builders, scenario, *args, **kwargs)

    monkeypatch.setattr(determinism, "run_scenario", run_scenario)
    path = tmp_path / "faultsim.json"
    argv = ["faultsim", "--small", "--workers", "1", "--modules", "FWD"]
    assert main([*argv, "--json", str(path)]) == 1
    assert f"failed scenarios: {victim}" in capsys.readouterr().out
    assert json.loads(path.read_text())["failed"] == [victim]


def test_paper_reference_values_complete():
    assert set(PAPER_TABLE1) == {1, 2, 3}
    assert set(PAPER_TABLE2) == {"A", "B", "C"}
    assert len(PAPER_TABLE3) == 6
    assert set(PAPER_TABLE4) == {"TCM-based", "Cache-based"}


def _range(module, core, lo, hi):
    return CoverageRange(
        module=module, core_model=core, minimum_percent=lo, maximum_percent=hi
    )


def test_table2_render_marks_unstable_cached_runs():
    result = Table2Result(
        rows=[
            Table2Row(
                core="A",
                num_faults=100,
                no_cache=_range("FWD", "A", 60.0, 70.0),
                cached=_range("FWD", "A", 75.0, 79.0),
            )
        ]
    )
    text = result.render()
    assert "UNSTABLE" in text
    assert "60.00 - 70.00" in text


def test_table2_render_stable_cached():
    result = Table2Result(
        rows=[
            Table2Row(
                core="B",
                num_faults=100,
                no_cache=_range("FWD", "B", 60.0, 70.0),
                cached=_range("FWD", "B", 78.0, 78.0),
            )
        ]
    )
    assert "UNSTABLE" not in result.render()


def test_table3_render_shows_fail_ratio():
    result = Table3Result(
        rows=[
            Table3Row(
                core="A",
                module="ICU",
                num_faults=100,
                single_core_no_cache=46.0,
                multicore_cached=51.0,
                no_cache_multicore_pass=0,
                no_cache_multicore_fail=6,
            )
        ]
    )
    assert "6/6" in result.render()


def test_table4_render_microseconds():
    result = Table4Result(
        rows=[
            Table4Row("TCM-based", 2874, 18_000),
            Table4Row("Cache-based", 0, 18_000),
        ]
    )
    text = result.render()
    assert "100.00" in text  # 18,000 cycles at 180 MHz = 100 us


def test_coverage_range_properties():
    stable = _range("FWD", "A", 50.0, 50.0)
    moving = _range("FWD", "A", 50.0, 55.0)
    assert stable.stable and not moving.stable
    assert moving.spread == pytest.approx(5.0)
