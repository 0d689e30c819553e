"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They use shrunken copies of the workloads, so they take seconds.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: The named self-time metrics that, with ``unattributed_s``, partition the
#: timed phase of a traced iteration.
SELF_METRICS = {
    "sync": "sync.self_s",
    "plan": "plan.self_s",
    "np_traverse": "np_traverse.self_s",
    "list_traverse": "list_traverse.self_s",
    "repair": "repair.self_s",
    "score": "score.self_s",
    "best_response": "best_response.self_s",
    "fractional": "fractional.self_s",
    "service.batch": "service.batch_s",
    "service.update": "service.update_s",
    "wall": "unattributed_s",
}


def tiny(name):
    """A shrunken workload that keeps the real one's backends and layers."""
    if name == "report-weighted":
        report = workloads.Report()
        report.n = 128
        return report
    if name == "walk-uniform":
        walk = workloads.Walk()
        walk.n, walk.rounds = 16, 1
        return walk
    service = workloads.Service()
    service.games = (
        ("uniform", "integral", 256),
        ("weighted", "integral", 256),
        ("fractional", "fractional", 4),
    )
    service.waves = 4
    return service


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def env_line(text):
    return json.loads(text.strip().splitlines()[-2][len("env "):])


def test_self_time_arithmetic_on_a_nested_call_tree():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("leaf", leaf, work=lambda args, kwargs, result: result)

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = tracer.wrap("middle", middle)
    root = tracer.open("wall")  # t=0
    assert wrapped_middle() == 2  # middle 10..60, leaves 20..30 and 40..50
    tracer.close(tracer.open("other"))  # 70..80
    tracer.close(root)  # t=90
    split = tracer.self_times(root)
    assert {name: entry["calls"] for name, entry in split.items()} == {
        "wall": 1,
        "middle": 1,
        "leaf": 2,
        "other": 1,
    }
    assert split["leaf"]["self_s"] == pytest.approx(20e-9)
    assert split["middle"]["self_s"] == pytest.approx(30e-9)
    assert split["other"]["self_s"] == pytest.approx(10e-9)
    assert split["wall"]["self_s"] == pytest.approx(30e-9)
    assert sum(entry["self_s"] for entry in split.values()) == pytest.approx(90e-9)
    assert tracer.counts["leaf"] == 2


def test_spans_outside_the_root_are_not_counted():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    setup = tracer.open("setup")
    tracer.close(tracer.open("sync"))
    tracer.close(setup)
    root = tracer.open("wall")
    tracer.close(root)
    assert tracer.self_times(root) == {"wall": {"calls": 1, "self_s": pytest.approx(10e-9)}}


def test_patched_restores_every_binding():
    original = workloads._equilibrium.__dict__["best_response"]
    with pytest.raises(RuntimeError):
        with spans.tracing(spans.Tracer()):
            assert workloads._equilibrium.best_response is not original
            raise RuntimeError
    assert workloads._equilibrium.best_response is original
    for _, owner, attribute, _ in spans.layer_bindings():
        assert not getattr(owner.__dict__[attribute], "__name__", "") == "traced"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_and_unattributed_add_up_to_wall(name):
    workload = tiny(name)
    it = run.iteration(workload, workload.make_inputs(1), spans.Tracer())
    layers = it["layers"]
    assert set(layers["_split"]) <= set(SELF_METRICS)
    parts = sum(layers[metric] for metric in SELF_METRICS.values())
    assert parts == pytest.approx(layers["trace.wall_s"], rel=0, abs=1e-9)
    assert layers["unattributed_s"] >= 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    workload = tiny(name)
    inputs = workload.make_inputs(3)
    first, second = (run.iteration(workload, inputs, spans.Tracer()) for _ in range(2))
    counted = [metric for metric, unit in run.PER_LAYER if unit == "count"]
    assert [first["layers"][m] for m in counted] == [second["layers"][m] for m in counted]
    assert first["digest"] == second["digest"]
    run.check_layers(workload, first)
    run.check_engines(workload, first)


def test_layer_guard_refuses_a_report_on_the_list_kernels():
    workload = tiny("report-weighted")
    it = run.iteration(workload, workload.make_inputs(1), spans.Tracer())
    it["layers"]["_split"]["list_traverse"] = {"calls": 3, "self_s": 0.0}
    with pytest.raises(run.Refused, match="list_traverse ran 3 times"):
        run.check_layers(workload, it)
    it["cost_delta"]["giant_batch_traversals"] = 0
    with pytest.raises(run.Refused, match="never advanced giant_batch_traversals"):
        run.check_engines(workload, it)
    it["backends"] = ["python"]
    with pytest.raises(run.Refused, match="expects backend 'numpy'"):
        run.check_engines(workload, it)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.make_inputs(5) == workload.make_inputs(5)
    assert workload.make_inputs(5) != workload.make_inputs(6)


def test_metric_names_and_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "report-weighted", tiny("report-weighted"))
    monkeypatch.setattr(run, "PINS", tmp_path / "pins.jsonl")
    argv = ["--workload", "report-weighted", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(declared)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 128
    env = env_line(out)
    assert env["backends"] == ["numpy"] and env["child_processes"] == 0
    assert env["check"].startswith("unpinned seed: 32/32")


def test_a_wrong_pinned_digest_gives_error_rate_one(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "report-weighted", tiny("report-weighted"))
    pins = tmp_path / "pins.jsonl"
    wrong = {"workload": "report-weighted", "seed": 2, "digest": "0" * 64}
    pins.write_text(json.dumps(wrong) + "\n")
    monkeypatch.setattr(run, "PINS", pins)
    assert run.main(["--workload", "report-weighted", "--seed", "2", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert env_line(out)["error_rate"] == 1.0


def test_the_reference_digest_pins_the_fast_path(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "report-weighted", tiny("report-weighted"))
    assert run.main(["--workload", "report-weighted", "--seed", "4", "--pin"]) == 0
    pins = tmp_path / "pins.jsonl"
    pins.write_text(capsys.readouterr().out)
    monkeypatch.setattr(run, "PINS", pins)
    assert run.main(["--workload", "report-weighted", "--seed", "4", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    assert last_json(out)["correct"]
    assert env_line(out)["check"] == "pinned reference digest"


def test_tally_counts_every_operation_of_a_mismatched_iteration():
    iterations = [
        {"ops": 10, "errors": 0, "digest": "a"},
        {"ops": 10, "errors": 2, "digest": "a"},
        {"ops": 10, "errors": 0, "digest": "b"},
    ]
    assert run.tally(iterations, "a") == (30, 12)
    assert run.tally(iterations, None) == (30, 30)


def test_iterations_are_scaled_by_the_probes_around_them(monkeypatch):
    import calibrate

    readings = iter([0.02, 0.03])
    monkeypatch.setattr(calibrate, "probe", lambda: next(readings))
    walk, report = workloads.WORKLOADS["walk-uniform"], workloads.WORKLOADS["report-weighted"]
    assert walk.host_sensitivity == 1.0 and report.host_sensitivity == 0.5
    result, scale, after = run.between_probes(walk, 0.01, lambda: "done")
    assert (result, after) == ("done", 0.02)
    assert scale == pytest.approx(calibrate.REFERENCE_S / 0.015)
    _, scale, _ = run.between_probes(report, 0.01, lambda: None)
    assert scale == pytest.approx((calibrate.REFERENCE_S / 0.02) ** 0.5)


def test_end_to_end_scales_times_and_takes_read_quantiles_per_iteration():
    def it(scale, reads):
        samples = workloads.Samples(reads=reads, updates=[0.001])
        return {"scale": scale, "wall_s": 2.0, "ops": 10, "samples": samples}

    plain = [it(1.0, [0.001] * 20), it(2.0, [0.001] * 20), it(0.5, [0.004] * 20)]
    metrics, info = run.end_to_end(plain, [0.5, 0.25, 0.75])
    assert metrics["setup_s"] == 0.5
    assert metrics["wall_s"] == 2.0
    assert metrics["qps"] == pytest.approx(30 / 7.0)
    assert metrics["read_p50_ms"] == pytest.approx(2.0)
    assert info["measured_wall_s"] == 2.0 and info["scales"] == [1.0, 2.0, 0.5]


def test_the_probe_is_deterministic_work():
    import calibrate

    assert calibrate._bfs(0) == calibrate._bfs(0) > 0
    assert calibrate._relax() == calibrate._relax()
    assert calibrate.probe(passes=3) > 0


def test_tail_quantile_keeps_ten_samples_beyond_it():
    assert run.tail_q(10_000) == 0.9
    assert run.tail_q(10_000, 0.99) == 0.99
    assert run.tail_q(50) == pytest.approx(0.8)
    assert run.tail_q(5) == 0.5
    values = list(range(50))
    assert run.quantile(values, 0.5) == 25
    assert sum(v > run.quantile(values, run.tail_q(50)) for v in values) >= 9


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "walk-uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
