"""Tests for the layered benchmark's own logic.

They check the parts whose mistakes would make the numbers lie: input
generators that drift with anything but the seed, a tier mix that does
not match the workload's intent, the tail statistic, the wrappers, and
the manifest agreeing with what the code reports.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import metrics  # noqa: E402
import plans  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_streams_are_pure_functions_of_the_seed(workload):
    first = plans.take(workload, 7, 120)
    assert plans.take(workload, 7, 120) == first
    assert plans.take(workload, 8, 120) != first


def test_fills_are_pure_functions_of_the_seed():
    assert plans.warm_fill(3) == plans.warm_fill(3)
    assert plans.cli_fill(3) == plans.cli_fill(3)
    assert any(plans.warm_fill(s) != plans.warm_fill(0) for s in range(1, 6))


def test_cold_requests_are_all_first_sightings():
    ops = plans.take("quote-cold", 5, 40 * len(plans.cold_cells()))
    keys = [json.dumps(op, sort_keys=True) for op in ops]
    assert len(set(keys)) == len(keys)
    assert not any("coalition" in op for op in ops)


def test_warm_graph_requests_only_ask_filled_rows():
    fill = {(row["graph"], row["shock"]) for row in plans.warm_fill(9)}
    for op in plans.take("quote-warm", 9, 400):
        if "graph" in op:
            assert (op["graph"], op["shock"]) in fill


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_cycles_hold_fixed_shares(workload):
    """Every cycle holds the same kinds of work whatever the seed."""
    cycle = plans.cycle_length(workload)

    def kinds(op):
        if workload == "campaign":
            return (op["limit"] - plans.CAMPAIGN_MIN_LIMIT) // plans.CAMPAIGN_STEP
        return (op.get("family"), op.get("graph"), op.get("stage"), op.get("coalition"))

    shapes = set()
    for seed in (1, 2):
        ops = plans.take(workload, seed, 3 * cycle)
        for start in range(0, len(ops), cycle):
            shapes.add(tuple(sorted(map(str, map(kinds, ops[start:start + cycle])))))
    assert len(shapes) == 1


def test_warm_complete_share():
    ops = plans.take("quote-warm", 3, plans.cycle_length("quote-warm"))
    complete = sum(op.get("graph", "").startswith("complete:") for op in ops)
    assert complete / len(ops) == plans.warm_complete_share() == 0.25


# ----------------------------------------------------------------------
# realized tier mix
# ----------------------------------------------------------------------
def test_quote_warm_never_reaches_tier_three(tmp_path):
    workload = worker.QuoteWarm(1, tmp_path)
    workload.setup()
    outcomes = [workload.execute(op) for op in plans.take("quote-warm", 1, 80)]
    assert {o.tier for o in outcomes} == {1, 2}
    assert worker.check_all(workload, outcomes) == []


def test_quote_cold_answers_only_at_tier_three(tmp_path):
    workload = worker.QuoteCold(1, tmp_path)
    workload.setup()
    ops = [op for op in plans.take("quote-cold", 1, 40) if "family" in op][:8]
    outcomes = [workload.execute(op) for op in ops]
    assert {o.tier for o in outcomes} == {3}
    assert worker.check_all(workload, outcomes) == []


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = metrics.tail(reversed(values))
    assert value == 90
    assert percentile == 90.0
    assert sum(v > value for v in values) == metrics.TAIL_BEYOND


def test_tail_of_the_smallest_sample_that_has_one():
    value, percentile = metrics.tail([5.0] + [9.0] * 10)
    assert value == 5.0
    assert percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        metrics.tail([1.0] * metrics.TAIL_BEYOND)


def test_tail_stops_at_the_cap():
    values = list(range(1, 10001))
    value, percentile = metrics.tail(values)
    assert percentile == metrics.TAIL_CAP == 99.0
    assert value == 9900
    assert sum(v > value for v in values) == 100


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def test_wrappers_fire_where_names_are_looked_up_and_are_removed():
    import repro.quote.engine
    import repro.quote.schedule

    original = repro.quote.schedule.deposit_schedule
    with layers.Instrumentation() as recorder:
        assert repro.quote.engine.deposit_schedule is not original
        repro.quote.engine.deposit_schedule("two-party", 5)
    assert recorder.calls["deposit_schedule"] == 1
    assert recorder.calls["escrow_premium_amounts"] == 1
    assert repro.quote.engine.deposit_schedule is original
    assert repro.quote.schedule.deposit_schedule is original


def test_self_time_excludes_nested_wrapped_calls():
    recorder = layers.Recorder()

    def inner():
        return sum(range(20000))

    wrapped_inner = recorder.wrap(inner, "inner")
    outer = recorder.wrap(lambda: wrapped_inner() + wrapped_inner(), "outer")
    outer()
    assert recorder.calls == {"inner": 2, "outer": 1}
    total = recorder.self_s["outer"] + recorder.self_s["inner"]
    assert total == pytest.approx(recorder.inclusive_s["outer"])


def test_every_target_resolves_and_names_known_workloads():
    for layer, module, qualname, workloads in layers.TARGETS:
        layers._resolve(module, qualname)
        assert set(workloads) <= set(plans.WORKLOADS), qualname
        assert layer in layers.SELF_TIMES or layer in ("chain", "matrix")


def test_import_attribution_aggregates_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1500 |       1500 |     numpy.core",
        "import time:       500 |       2000 |   numpy",
        "import time:       250 |        250 |     repro.campaign.cache",
        "import time:       750 |       1000 |   repro.campaign",
        "import time:       100 |        100 | repro",
        "other noise",
    ])
    found = worker.import_attribution(stderr)
    assert found == {"numpy": 2.0, "repro.campaign": 1.0, "repro": 0.1}


# ----------------------------------------------------------------------
# the manifest agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_declarations():
    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()


def test_reported_metrics_are_exactly_the_declared_ones():
    e2e = {name: 1.0 for name in ("op_p50_ms", "op_tail_ms", "work_per_s")}
    result = {"end_to_end": e2e, "setup_s": 1.0, "peak_rss_mb": 1.0}
    declared_e2e = [name for name, *_ in metrics.END_TO_END]
    assert list(run.result_metrics(result, 0)) == declared_e2e

    declared_layers = [name for name, _ in metrics.PER_LAYER]
    traced = {"per_layer": {name: 0.0 for name in declared_layers}}
    assert list(run.result_metrics(traced, 1)) == declared_layers

    produced = set(layers.layer_metrics(layers.Recorder(), 1))
    produced |= set(worker.tier_metrics(worker.Pass()))
    produced |= set(worker.cli_layer_metrics([]))
    assert produced <= set(declared_layers)
    for predicted in (worker.PREDICTED_ZERO, worker.PREDICTED_NONZERO):
        assert set(itertools.chain.from_iterable(predicted.values())) <= set(
            declared_layers
        )
