"""Exit-code contract of the benchmark regression gate (``--check-floors``).

The CI floor gate re-reads ``BENCH_speed.json`` and must fail loudly on a
regression but never on noise: smoke rows are exempt (their tiny sizes make
ratios meaningless), engine-only rows carry no speedup to gate, and a floor
gates only its scenario's ``floor_n`` and up.  These tests drive
:func:`bench_speed.check_floors` against synthetic recordings so the gate's
behaviour is pinned without running any benchmark, and check the scenario
table itself: every floor compares against a reference the repo keeps.
"""

import json
import pathlib
import sys

import pytest

SCRIPTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS_DIR))

import bench_speed  # noqa: E402

#: The only implementations a floor may compare against.
KEPT_REFERENCES = {"engine=False", 'backend="python"', "processes=1"}


def _write(tmp_path, payload):
    path = tmp_path / "BENCH_speed.json"
    path.write_text(json.dumps(payload))
    return path


def _row(scenario, n, speedup=None, *, smoke=False, **extra):
    row = {"scenario": scenario, "n": n, "engine_seconds": 1.0, "smoke": smoke, **extra}
    if speedup is not None:
        row.update(
            reference=bench_speed.SCENARIO_BY_NAME[scenario].reference,
            reference_seconds=speedup,
            speedup=speedup,
        )
    return row


def _backend_payload(*, smoke=False, giant_speedup=9.0, dijkstra_speedup=9.0):
    return {
        "benchmark": "bench_speed",
        "rows": [
            _row("report-dijkstra", 1024, dijkstra_speedup, smoke=smoke),
            _row("report-bfs", 4096, giant_speedup, smoke=smoke),
            # An engine-only giant row (no reference arm timed): never gated.
            _row("report-bfs-large", 16384, smoke=smoke),
        ],
    }


def test_missing_file_fails(tmp_path, capsys):
    assert bench_speed.check_floors(tmp_path / "BENCH_speed.json") == 1
    assert "run the benchmarks first" in capsys.readouterr().err


def test_corrupt_json_exits_two_with_distinct_message(tmp_path, capsys):
    # A recording that exists but cannot be parsed is its own failure class
    # (exit 2): with atomic writes it signals disk corruption or a manual
    # edit, not an interrupted benchmark.
    path = tmp_path / "BENCH_speed.json"
    path.write_text("{not json")
    assert bench_speed.check_floors(path) == 2
    err = capsys.readouterr().err
    assert "CORRUPT RECORDING" in err and "atomic" in err


def test_recorder_refuses_to_overwrite_a_corrupt_recording(tmp_path, monkeypatch, capsys):
    # Rewriting a corrupt recording would erase every scenario it holds, so
    # the recorder stops before running anything, with the gate's exit code.
    monkeypatch.setattr(bench_speed, "OUTPUT_DIR", tmp_path)
    path = tmp_path / "BENCH_speed.json"
    path.write_text("{not json")
    assert bench_speed.main(["--smoke", "report"]) == 2
    assert path.read_text() == "{not json"
    assert "CORRUPT RECORDING" in capsys.readouterr().err


def test_passing_floors_exit_zero_and_name_checked_modes(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload())
    assert bench_speed.check_floors(path) == 0
    out = capsys.readouterr().out
    assert "floors ok" in out and "report-bfs" in out and "report-dijkstra" in out


def test_empty_payload_passes_with_no_checked_modes(tmp_path, capsys):
    path = _write(tmp_path, {"benchmark": "bench_speed"})
    assert bench_speed.check_floors(path) == 0
    assert "(none)" in capsys.readouterr().out


def test_giant_floor_violation_fails(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload(giant_speedup=1.4))
    assert bench_speed.check_floors(path) == 1
    err = capsys.readouterr().err
    assert "report-bfs" in err and "1.40x" in err


def test_dijkstra_floor_violation_fails(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload(dijkstra_speedup=2.0))
    assert bench_speed.check_floors(path) == 1
    assert "report-dijkstra" in capsys.readouterr().err


def test_smoke_recorded_mode_is_exempt(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload(smoke=True, giant_speedup=0.5))
    assert bench_speed.check_floors(path) == 0
    assert "(none)" in capsys.readouterr().out


def test_engine_only_rows_are_not_gated(tmp_path, capsys):
    # A floored scenario's row without a reference arm has nothing to gate.
    payload = {"rows": [_row("report-bfs", 4096)]}
    assert bench_speed.check_floors(_write(tmp_path, payload)) == 0
    assert "(none)" in capsys.readouterr().out


def test_gate_only_reads_the_largest_compared_giant_row(tmp_path):
    # A slow small-n row must not trip the gate: the floor certifies the
    # asymptotic win at the size the scenario names.
    payload = _backend_payload()
    payload["rows"].append(_row("report-bfs", 64, 0.9))
    assert bench_speed.check_floors(_write(tmp_path, payload)) == 0


def test_core_floor_gates_only_large_sizes(tmp_path, capsys):
    payload = {"rows": [_row("report", 8, 0.5), _row("report", 64, 2.0)]}
    assert bench_speed.check_floors(_write(tmp_path, payload)) == 1
    err = capsys.readouterr().err
    # Only the n=64 row violates: small sizes are below the gated range.
    assert err.count("FLOOR VIOLATION") == 1 and "n=64" in err


@pytest.mark.parametrize("speedup,expected", [(3.0, 0), (2.99, 1)])
def test_giant_floor_boundary(tmp_path, speedup, expected):
    path = _write(tmp_path, _backend_payload(giant_speedup=speedup))
    assert bench_speed.check_floors(path) == expected


@pytest.mark.parametrize("cpus,processes,expected", [(1, 2, 0), (2, 1, 0), (2, 2, 1)])
def test_scaling_floor_arms_only_with_parallelism(tmp_path, cpus, processes, expected):
    row = _row("sharded-search", 7, 0.8, cpus=cpus, processes=processes)
    assert bench_speed.check_floors(_write(tmp_path, {"rows": [row]})) == expected


def test_floors_compare_against_kept_references():
    names = [scenario.name for scenario in bench_speed.SCENARIOS]
    assert len(names) == len(set(names))
    assert set(bench_speed.REFERENCES) == KEPT_REFERENCES
    for scenario in bench_speed.SCENARIOS:
        assert scenario.reference is None or scenario.reference in KEPT_REFERENCES
        if scenario.floor is not None:
            assert scenario.reference in KEPT_REFERENCES, scenario.name
            # The floored size is one the scenario actually records.
            assert scenario.floor_n <= max(scenario.sizes), scenario.name
    assert set(bench_speed.README_TABLE) <= set(names)


def test_rerunning_a_scenario_keeps_the_others_and_drops_retired_ones():
    old = [_row("report", 32, 9.0), _row("sweep", 7, 6.0), {"scenario": "retired", "n": 1}]
    new = [_row("report", 8, 2.0, smoke=True)]
    merged = bench_speed.merge_rows(old, new)
    assert [(row["scenario"], row["n"]) for row in merged] == [("report", 8), ("sweep", 7)]
