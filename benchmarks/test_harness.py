"""Tests of the benchmark's own helpers.

Run from the repository root with
``python3 -m pytest benchmarks/test_harness.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize(
    "n, want",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (150, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, want):
    assert harness.tail_percentile(n) == want
    if want is not None:
        beyond = n - int(np.ceil(n * want / 100))
        assert beyond >= harness.TAIL_MIN_BEYOND


def _spans(*rows):
    # rows of (start, end, parent); roots point at themselves
    out = []
    for i, (start, end, parent) in enumerate(rows):
        root = i if parent < 0 else out[parent][tracing.ROOT]
        out.append(["s", start, end, parent, root, None, None])
    return out


def test_self_time_subtracts_children():
    spans = _spans((0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 8.0, 0), (5.0, 6.0, 2))
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = _spans((0.0, 10.0, -1), (-1.0, 2.0, 0), (1.0, 4.0, 0), (9.0, 12.0, 0))
    assert tracing.self_times(spans) == pytest.approx([5.0, 3.0, 3.0, 3.0])


def test_self_times_of_a_tree_sum_to_the_root():
    spans = _spans((0.0, 7.0, -1), (0.5, 6.0, 0), (1.0, 2.0, 1), (2.5, 5.5, 1), (3.0, 4.0, 3))
    assert sum(tracing.self_times(spans)) == pytest.approx(7.0)


def test_tally_counts_each_failed_step_once():
    tally = harness.Tally()
    tally.attempt(10)
    tally.fail([(0, 0, 3)], "loss")
    tally.fail([(0, 0, 3), (0, 0, 4)], "sigma")
    assert tally.failed == 2
    assert tally.failed_frac == pytest.approx(0.2)
    assert tally.reasons == ["loss", "sigma"]


def test_tally_run_wide_failure_fails_every_step():
    tally = harness.Tally()
    tally.attempt(30)
    tally.fail_all("inputs differ")
    assert tally.failed == 30 and tally.failed_frac == 1.0


def test_raising_step_fails_the_rest_of_the_episode(monkeypatch):
    workload = WORKLOADS["desk_twoterm"]
    inst = harness.set_up(workload, 3, 0, harness.NULL_TRACER)
    real = harness.optim.train_step
    calls = []

    def flaky(model, batch, state, config):
        calls.append(1)
        if len(calls) == 4:
            raise FloatingPointError("boom")
        return real(model, batch, state, config)

    monkeypatch.setattr(harness.optim, "train_step", flaky)
    tally = harness.Tally()
    with pytest.raises(harness.EpisodeAborted):
        harness.run_episode(workload, inst, tally, (0, 0), harness.NULL_TRACER)
    assert tally.attempted == workload.steps
    assert tally.failed == workload.steps - 3
    assert "raised FloatingPointError" in tally.reasons[0]


def test_relative_error_handles_a_zero_reference():
    assert harness.relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert harness.relative_error(np.ones(3), np.zeros(3)) > 0.0
    assert harness.relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0 + 1e-9])) < 1e-9
    # a NaN result must fail the `err <= rtol` comparison
    assert not harness.relative_error(np.full(2, np.nan), np.ones(2)) <= harness.DENSE_CHECK_RTOL


def test_time_to_target_uses_trailing_window():
    losses = [10.0, 8.0, 6.0, 4.0, 2.0]
    times = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert harness.time_to_target(losses, times, 2, 5.0) == 4.0
    assert np.isnan(harness.time_to_target(losses, times, 2, 1.0))


@pytest.mark.parametrize("name", ["desk_twoterm", "curves_steps"])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    workload = WORKLOADS[name]
    fp = lambda seed, j: harness.inputs_fingerprint(  # noqa: E731
        harness.set_up(workload, seed, j, harness.NULL_TRACER)
    )
    assert fp(5, 0) == fp(5, 0)
    for a, b in zip(fp(5, 0), fp(6, 0)):
        assert a != b
    for a, b in zip(fp(5, 0), fp(5, 1)):
        assert a != b


def test_benchmark_json_lists_the_gated_workloads():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    gated = [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.gated]
    assert spec["workloads"] == gated
