"""Metric declarations, summary statistics, and the BENCHMARK.json manifest.

The declarations below are the single source of truth for what the
benchmark reports: ``run.py --write-manifest`` renders them into
``BENCHMARK.json``, and the tests check that the file and the code agree.

End-to-end metrics are reported by every workload.  One *operation* is
one ``QuoteEngine.quote`` call (quote-warm, quote-cold), one
``Experiment(campaign_spec(limit=L)).run()`` (campaign), or one
``python -m repro.cli quote`` process from exec to exit (cli).  One
*unit of work* is a quote, a scenario, or a CLI invocation respectively.
"""

from __future__ import annotations

import json
import math
import statistics

#: name, why — the workloads in run order.
WORKLOADS = (
    (
        "quote-warm",
        "QuoteEngine hot path on a cache set-up filled: tier-1 closed forms and "
        "tier-2 row reads with premium re-sizing; never reaches the simulator",
    ),
    (
        "quote-cold",
        "distinct first-sighting quotes, all tier 3: experiment facade, kernel "
        "calibration on the simulator, bisection, and cache writes",
    ),
    (
        "campaign",
        "serial campaign spec to digest over seeded block-stratified selections: "
        "simulator, premium sizing, chain, contracts, crypto; no cache or kernels",
    ),
    (
        "cli",
        "one python -m repro.cli quote process per request against a warm "
        "--cache: pays interpreter start and imports on every operation",
    ),
)

#: name, unit, better, bound (share of the parent's median).
END_TO_END = (
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: the per-workload names of the generic end-to-end metrics.
ALIASES = {
    "quote-warm": {
        "op_p50_ms": "quote_p50_ms",
        "op_tail_ms": "quote_tail_ms",
        "work_per_s": "quotes_per_s",
    },
    "quote-cold": {
        "op_p50_ms": "quote_p50_ms",
        "op_tail_ms": "quote_tail_ms",
        "work_per_s": "quotes_per_s",
    },
    "campaign": {
        "op_p50_ms": "run_p50_ms",
        "op_tail_ms": "run_tail_ms",
        "work_per_s": "scenarios_per_s",
    },
    "cli": {
        "op_p50_ms": "cli_p50_ms",
        "op_tail_ms": "cli_tail_ms",
        "work_per_s": "cli_per_s",
    },
}

#: name, unit — every per-layer metric of a traced run.  ``ms/op`` is
#: milliseconds per workload operation; counts are totals over the
#: traced pass, whose length is ``trace.ops``.
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.import.numpy_ms", "ms"),
    ("cli.import.repro.campaign_ms", "ms"),
    ("cli.import.repro.quote_ms", "ms"),
    ("cli.import.repro.checker_ms", "ms"),
    ("cli.body_ms", "ms"),
    ("quote.tier1.n", "count"),
    ("quote.tier2.n", "count"),
    ("quote.tier3.n", "count"),
    ("quote.tier1.p50_ms", "ms"),
    ("quote.tier2.p50_ms", "ms"),
    ("quote.tier3.p50_ms", "ms"),
    ("quote.engine.self_ms", "ms/op"),
    ("schedule.calls", "count"),
    ("schedule.self_ms", "ms/op"),
    ("premiums.calls", "count"),
    ("premiums.self_ms", "ms/op"),
    ("graph.builds", "count"),
    ("graph.self_ms", "ms/op"),
    ("cache.hit", "count"),
    ("cache.miss", "count"),
    ("cache.store", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.read.self_ms", "ms/op"),
    ("cache.write.self_ms", "ms/op"),
    ("experiment.runs", "count"),
    ("experiment.self_ms", "ms/op"),
    ("matrix.build_ms", "ms/op"),
    ("kernel.calibrations", "count"),
    ("kernel.cell_hits", "count"),
    ("kernel.replays", "count"),
    ("kernel.scenarios", "count"),
    ("kernel.calibrations_per_quote", "count/quote"),
    ("kernel.calibrate_ms", "ms/op"),
    ("kernel.replay.self_ms", "ms/op"),
    ("refine.probes", "count"),
    ("refine.probes_per_quote", "count/quote"),
    ("refine.self_ms", "ms/op"),
    ("runner.self_ms", "ms/op"),
    ("scenario.runs", "count"),
    ("scenario.self_ms", "ms/op"),
    ("sim.runs", "count"),
    ("sim.self_ms", "ms/op"),
    ("chain.txs", "count"),
    ("chain.execute_ms", "ms/op"),
    ("chain.advance.self_ms", "ms/op"),
    ("ledger.transfers", "count"),
    ("crypto.calls", "count"),
    ("crypto.self_ms", "ms/op"),
    ("parties.self_ms", "ms/op"),
    ("setup.import_ms", "ms"),
    ("setup.warm_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.overhead_frac", "ratio"),
)

#: how many samples must lie beyond the reported tail.
TAIL_BEYOND = 10

#: the highest percentile a tail may report.  Past p99, quote-warm's
#: ~27k samples per run would report the shared host's scheduling stalls
#: (tens of ms against a 0.4 ms median, a few per second, not caused by
#: the program) and no two runs would agree.
TAIL_CAP = 99.0

#: a run keeps going past its deadline until it has this many samples, so
#: the tail statistic always exists.
MIN_OPS = TAIL_BEYOND + 1

#: the benchmark's command and run length, as BENCHMARK.json states them.
COMMAND = ("python3", "layerbench/run.py")
PATHS = ("layerbench",)
RUN_SECONDS = 20


#: per-layer metrics where a larger number is the better one: cache and
#: template reuse, cheap tiers, and operations completed.
HIGHER_IS_BETTER = frozenset({
    "quote.tier1.n",
    "quote.tier2.n",
    "cache.hit",
    "cache.hit_ratio",
    "kernel.cell_hits",
    "trace.ops",
})


def _better(name: str) -> str:
    return "higher" if name in HIGHER_IS_BETTER else "lower"


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile, up to ``TAIL_CAP``, with at least
    ``TAIL_BEYOND`` samples beyond it, as ``(value, percentile)``.

    With ``n`` samples that is the sample with ten larger ones — sorted
    index ``n - 11``, the ``100 * (n - 10) / n`` percentile — or, once
    that passes the cap, the sample at the capped percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}"
        )
    index = min(n - TAIL_BEYOND - 1, math.ceil(n * TAIL_CAP / 100.0) - 1)
    return float(ordered[index]), 100.0 * (index + 1) / n


def manifest() -> dict:
    """The BENCHMARK.json document these declarations describe."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)}
            for name, unit in PER_LAYER
        ],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
