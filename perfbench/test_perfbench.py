"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import random
import re
from pathlib import Path

import pytest

import run
import stats
import worker
from spans import Tracer
from speed import Speed

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL_JOINT = {"scheme": "joint", "n": 256, "ell": 7, "alpha": 2 / 7, "N0": 2.0,
               "b": 0.5, "M": 3, "xi": 8, "master_seed": 5}
SMALL_ORTHO = {"scheme": "ortho", "n": 4096, "ell": 64, "alpha": 0.05, "N0": 2.0,
               "t": 0.5, "R_dot_nats": 0.125, "master_seed": 5}


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == worker.END_TO_END
    assert layers == worker.PER_LAYER
    for name in [*e2e, *layers, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.match(name), name
    assert list(run.WORKLOADS) == list(worker.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(worker.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    with Tracer() as tr:
        pass
    names = set(worker.layer_metrics(tr, 0, 0)) | {"harness.thread_speedup", "trace.overhead_share"}
    assert names == set(worker.PER_LAYER)


def _patched_attributes():
    with Tracer() as tr:
        worker.instrument(tr)
        saved = list(tr._saved)
        for module, attr, original in saved:
            assert getattr(module, attr) is not original
    return saved


def test_tracer_restores_every_patched_attribute():
    saved = _patched_attributes()
    assert len(saved) > 20
    for module, attr, original in saved:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_tracer_restores_after_an_error():
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            worker.instrument(tr)
            saved = list(tr._saved)
            raise RuntimeError("boom")
    for module, attr, original in saved:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


@pytest.mark.parametrize("raw", [SMALL_JOINT, SMALL_ORTHO], ids=["joint", "ortho"])
def test_tracing_does_not_change_trial_outputs(raw):
    cfg = worker.harness.config_from_dict(raw)
    _, plain, errors = worker.timed_trials(cfg, count=30)
    with Tracer() as tr:
        worker.instrument(tr)
        _, traced, traced_errors = worker.timed_trials(cfg, count=30)
    assert not errors and not traced_errors
    assert worker.csv_bytes(plain) == worker.csv_bytes(traced)
    assert tr.summary()["harness.run_trial"]["calls"] == 30


def test_tracing_does_not_change_partitions():
    cell = (6, 2, 3)
    plain = worker.partition_op(cell)
    with Tracer() as tr:
        worker.instrument(tr)
        traced = worker.partition_op(cell)
    assert plain[1:] == traced[1:] and plain[1]
    layers = worker.layer_metrics(tr, 0, 1)
    assert layers["partition.members"] == worker.partition.type_class_size(*cell)
    assert layers["partition.verify_s"] > 0


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
                ["c", 2.0, 3.0, 1, 0, None], ["b", 5.0, 6.0, 0, 0, None]]
    s = tr.summary()
    assert s["a"]["self"] == pytest.approx(6.0)
    assert s["b"]["self"] == pytest.approx(3.0)
    assert s["b"]["calls"] == 2


@pytest.mark.parametrize("n", [20, 21, 57, 199, 200, 1000, 1009, 5000])
def test_tail_keeps_ten_samples_beyond(n):
    rng = random.Random(n)
    xs = [rng.expovariate(1.0) for _ in range(n)]
    pct, value, beyond = stats.tail({0: xs}, {0: 1})
    assert beyond >= stats.MIN_BEYOND
    assert beyond == sum(x > value for x in xs)
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    for p in higher:
        assert stats.quantile({0: xs}, {0: 1}, p)[1] < stats.MIN_BEYOND


def test_tail_respects_the_pinned_percentile_and_strata():
    rng = random.Random(1)
    samples = {"light": [rng.uniform(1, 2) for _ in range(900)],
               "heavy": [rng.uniform(50, 60) for _ in range(100)]}
    # the heavy stratum is 5% of the reference mix, though 10% of this run
    pct, value, beyond = stats.tail(samples, {"light": 95, "heavy": 5}, max_pct=90.0)
    assert pct == 90.0 and value < 2
    pct, value, beyond = stats.tail(samples, {"light": 95, "heavy": 5}, max_pct=99.0)
    assert pct == 99.0 and 50 <= value <= 60 and beyond >= stats.MIN_BEYOND


def test_stratified_mean_uses_reference_weights():
    mean, missing = stats.stratified_mean({"a": [1.0, 1.0, 1.0], "b": [10.0]}, {"a": 1, "b": 1, "c": 2})
    # c has no samples and takes the pooled mean 13/4
    assert mean == pytest.approx((1.0 + 10.0 + 2 * 13 / 4) / 4)
    assert missing == ["c"]


def test_speed_factor_uses_the_samples_nearest_the_operation():
    speed = Speed(ref_s=2.0)
    speed.times = [float(i) for i in range(40)]
    speed.kernel = [1.0] * 20 + [4.0] * 20
    assert speed.factor(2.0, 1.0) == pytest.approx(2.0)
    assert speed.factor(36.0, 1.0) == pytest.approx(0.5)
    assert speed.median_factor() == pytest.approx(2.0 / 2.5)
