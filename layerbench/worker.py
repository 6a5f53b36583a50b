"""One workload process: set up, run the closed loop, check, report.

``run.py`` starts this script once per set-up sample.  The process sets
up (imports, engine and cache construction, cache warm-up), prints
``READY`` on its protocol stream, and — unless ``--setup-only`` — runs
the workload for ``--seconds``, checks every output, and prints one
``RESULT <json>`` line.  Library output goes to stderr so the protocol
stream stays clean.

With ``--trace 1`` the run makes three passes over the same operations:
the closed loop, an untraced replay (the baseline of
``trace.overhead_frac``), and a traced replay with a ``repro.obs`` tracer
and the :mod:`layers` wrappers installed.  The traced replay's digests
must equal the first pass's.
"""

from __future__ import annotations

import time

WORKER_START = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import metrics  # noqa: E402
import plans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: share of ``--seconds`` the first pass of a traced run gets; the two
#: replays of the same operations take about as long again each.
PASS_SHARE = 0.3

#: quote-cold re-asks every n-th request at tier 2 and compares digests.
COLD_REQUOTE_EVERY = 4

#: the warm-up quotes' shock: outside every timed stream's shock grid.
WARMUP_SHOCK = 0.005

#: scenarios in the campaign workload's set-up run.
CAMPAIGN_WARMUP_LIMIT = 64

#: failure messages kept in the result (the count is always exact).
MAX_FAILURE_MESSAGES = 5


@dataclass
class Outcome:
    """One operation: its input, outside latency, and output."""

    op: dict
    latency_s: float
    units: int = 1
    digest: str = ""
    tier: int = 0
    output: object = None
    failure: str | None = None
    extra: dict = field(default_factory=dict)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: ``setup``, then ``execute`` one operation at a time
    and ``check`` each outcome.  ``attach`` switches the workload to a
    fresh replay pass (traced when given a tracer)."""

    name = ""
    #: whether the program runs in this process (and so can be wrapped).
    in_process = True

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.import_s = 0.0
        self.warm_s = 0.0

    def extras(self) -> dict:
        """Facts about the run's inputs printed beside the metrics."""
        return {}


class QuoteWorkload(Workload):
    """Shared by quote-warm and quote-cold: one in-process QuoteEngine."""

    # Each workload imports only what it drives, inside set-up, binding
    # the names module-wide: import cost is part of set-up time.
    def _imports(self) -> None:
        global QuoteEngine, QuoteError, QuoteRequest, ResultCache
        from repro.campaign.cache import ResultCache
        from repro.quote import QuoteEngine, QuoteError, QuoteRequest

        # tier 3 imports the experiment facade and the kernels lazily;
        # importing them here keeps import cost out of the timed loop.
        import repro.campaign.ablation.kernels  # noqa: F401
        import repro.campaign.experiment  # noqa: F401

    def setup(self) -> None:
        self._imports()
        self.import_s = time.perf_counter() - WORKER_START
        start = time.perf_counter()
        self._warm()
        self.warm_s = time.perf_counter() - start

    def _engine(self, cache_dir: Path, tracer=None):
        return QuoteEngine(cache=ResultCache(cache_dir), tracer=tracer)

    def execute(self, op: dict) -> Outcome:
        request = QuoteRequest(**op)
        start = time.perf_counter()
        try:
            quote = self.engine.quote(request)
        except QuoteError as err:
            return Outcome(op, time.perf_counter() - start, failure=f"QuoteError: {err}")
        latency = time.perf_counter() - start
        return Outcome(op, latency, digest=quote.digest(), tier=quote.tier, output=quote)


def _row_key(op: dict) -> tuple:
    return (op["graph"], op["shock"])


class QuoteWarm(QuoteWorkload):
    name = "quote-warm"

    def _imports(self) -> None:
        super()._imports()
        global closed_form_pi_star, closed_form_coalition_pi_star, canon_float
        from repro.campaign.ablation.grid import (
            closed_form_coalition_pi_star,
            closed_form_pi_star,
        )
        from repro.campaign.canon import canon_float

    def _warm(self) -> None:
        self.cache_dir = self.tmp / "warm-cache"
        self.engine = self._engine(self.cache_dir)
        self.fill_digests = {}
        for row in plans.warm_fill(self.seed):
            quote = self.engine.quote(QuoteRequest(**row), tiers=(3,))
            self.fill_digests[_row_key(row)] = quote.digest()
        # one answer from each timed tier, so first-call costs land here
        self.engine.quote(QuoteRequest(**plans.TIER1_CELLS[0], shock=WARMUP_SHOCK))
        self.engine.quote(QuoteRequest(**plans.warm_fill(self.seed)[0]), tiers=(2,))

    def attach(self, tracer, label: str) -> None:
        # A fresh cache object on the warmed directory: the tracer sees
        # only the traced pass's reads.
        self.engine = self._engine(self.cache_dir, tracer)

    def check(self, outcome: Outcome) -> str | None:
        quote, op = outcome.output, outcome.op
        if outcome.tier == 2:
            expected = self.fill_digests.get(_row_key(op)) if "graph" in op else None
            if outcome.digest != expected:
                return f"tier-2 digest {outcome.digest[:12]} differs from its tier-3 fill"
            return None
        if outcome.tier != 1:
            return f"quote-warm answered at tier {outcome.tier}: {op}"
        if op.get("stage") == "pre-stake":
            expected = None
        elif op.get("coalition"):
            expected = closed_form_coalition_pi_star(op["family"], op["coalition"], op["shock"])
        else:
            expected = closed_form_pi_star(op["family"], op["shock"])
        if expected is not None:
            expected = canon_float(expected)
        if quote.pi_star != expected:
            return f"tier-1 pi* {quote.pi_star} != closed form {expected}: {op}"
        return None

    def extras(self) -> dict:
        return {"complete_share": plans.warm_complete_share()}


class QuoteCold(QuoteWorkload):
    name = "quote-cold"

    def _imports(self) -> None:
        super()._imports()
        global load_row, row_descriptor
        from repro.campaign.ablation.rowstore import load_row, row_descriptor

    def _warm(self) -> None:
        # one tier-3 quote outside the timed stream's shock grid, on a
        # cache of its own, so first-call costs land in set-up
        self._engine(self.tmp / "cold-warmup").quote(
            QuoteRequest(graph=plans.GRAPH_CELLS[0], shock=WARMUP_SHOCK)
        )
        self.cache_dir = self.tmp / "cold-cache"
        self.engine = self._engine(self.cache_dir)
        self.checked = 0

    def attach(self, tracer, label: str) -> None:
        # Every replayed request must again be a first sighting.
        self.cache_dir = self.tmp / f"cold-cache-{label}"
        self.engine = self._engine(self.cache_dir, tracer)
        self.checked = 0

    def check(self, outcome: Outcome) -> str | None:
        quote = outcome.output
        if outcome.tier != 3:
            return f"quote-cold answered at tier {outcome.tier}: {outcome.op}"
        request = QuoteRequest(**outcome.op)
        descriptor = row_descriptor(
            request.cell_family, request.coalition, request.stage,
            request.shock, request.tol, request.seed,
        )
        row = load_row(self.engine.cache, descriptor)
        if row is None or not (row.converged or row.pi_hi is None):
            return f"tier-3 row not stored as a final answer: {descriptor}"
        self.checked += 1
        if self.checked % COLD_REQUOTE_EVERY == 0:
            again = self.engine.quote(request, tiers=(2,))
            if again.digest() != quote.digest():
                return f"tier-2 re-quote digest differs: {descriptor}"
        return None


class Campaign(Workload):
    name = "campaign"
    tracer = None

    def setup(self) -> None:
        global Experiment, campaign_spec
        from repro.campaign.experiment import Experiment, campaign_spec

        self.import_s = time.perf_counter() - WORKER_START
        start = time.perf_counter()
        # a stratified warm-up run touching every family, so first-call
        # costs (matrix factories, lazy imports) land in set-up
        Experiment(campaign_spec(limit=CAMPAIGN_WARMUP_LIMIT, seed=self.seed)).run()
        self.warm_s = time.perf_counter() - start

    def attach(self, tracer, label: str) -> None:
        self.tracer = tracer

    def execute(self, op: dict) -> Outcome:
        spec = campaign_spec(limit=op["limit"], seed=op["seed"])
        start = time.perf_counter()
        result = Experiment(spec, tracer=self.tracer).run()
        latency = time.perf_counter() - start
        report = result.campaign
        return Outcome(
            op, latency, units=report.scenarios, digest=report.digest, output=result
        )

    def check(self, outcome: Outcome) -> str | None:
        result = outcome.output
        if not result.ok:
            return f"campaign selection {outcome.op} reported violations"
        if outcome.units != outcome.op["limit"]:
            return f"campaign selection {outcome.op} ran {outcome.units} scenarios"
        return None


_TIER_LINE = re.compile(r"^tier: (\d+)$", re.M)
_DIGEST_LINE = re.compile(r"^quote digest: ([0-9a-f]{64})$", re.M)
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")
#: marks the timing line cli_harness.py prints (the same constant there).
HARNESS_TAG = "layerbench-harness "

#: importtime packages the cli pass attributes separately.
IMPORT_PACKAGES = ("numpy", "repro.campaign", "repro.quote", "repro.checker")


def cli_args(op: dict) -> list[str]:
    """The ``repro.cli quote`` flags asking one request."""
    args = []
    for key in ("family", "graph", "coalition", "stage"):
        if op.get(key):
            args += [f"--{key}", op[key]]
    return args + ["--shock", repr(op["shock"])]


def import_attribution(stderr: str) -> dict[str, float]:
    """Self milliseconds per top-level package from ``-X importtime``.

    ``repro.*`` modules aggregate to their ``repro.<package>`` and
    everything else to its top-level name.
    """
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        name = match.group(4)
        parts = name.split(".")
        package = ".".join(parts[:2]) if parts[0] == "repro" else parts[0]
        totals[package] = totals.get(package, 0.0) + int(match.group(1)) / 1000.0
    return totals


class Cli(Workload):
    name = "cli"
    in_process = False
    traced = False

    def setup(self) -> None:
        global QuoteEngine, QuoteRequest, ResultCache
        from repro.campaign.cache import ResultCache
        from repro.quote import QuoteEngine, QuoteRequest

        self.import_s = time.perf_counter() - WORKER_START
        start = time.perf_counter()
        self.cache_dir = self.tmp / "cli-cache"
        self.engine = QuoteEngine(cache=ResultCache(self.cache_dir))
        for row in plans.cli_fill(self.seed):
            self.engine.quote(QuoteRequest(**row), tiers=(3,))
        self.expected: dict[str, str] = {}
        self.warm_s = time.perf_counter() - start

    def attach(self, tracer, label: str) -> None:
        self.traced = tracer is not None

    def _expect(self, op: dict) -> str:
        key = json.dumps(op, sort_keys=True)
        if key not in self.expected:
            quote = self.engine.quote(QuoteRequest(**op), tiers=(1, 2))
            self.expected[key] = quote.digest()
        return self.expected[key]

    def execute(self, op: dict) -> Outcome:
        expected = self._expect(op)
        args = ["quote", *cli_args(op), "--cache", str(self.cache_dir), "--expect", expected]
        if self.traced:
            command = [sys.executable, "-X", "importtime", str(HERE / "cli_harness.py"), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        latency = time.perf_counter() - start
        outcome = Outcome(op, latency, output=expected)
        tier = _TIER_LINE.search(proc.stdout)
        digest = _DIGEST_LINE.search(proc.stdout)
        outcome.tier = int(tier.group(1)) if tier else 0
        outcome.digest = digest.group(1) if digest else ""
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            outcome.failure = f"cli exit {proc.returncode}: {tail}"
        if self.traced:
            outcome.extra = self._harness(proc.stderr)
        return outcome

    def _harness(self, stderr: str) -> dict:
        timing = {}
        for line in stderr.splitlines():
            if line.startswith(HARNESS_TAG):
                timing = json.loads(line[len(HARNESS_TAG):])
        return {"imports": import_attribution(stderr), **timing}

    def check(self, outcome: Outcome) -> str | None:
        if outcome.digest != outcome.output:
            return f"cli digest {outcome.digest[:12]} != in-process {outcome.output[:12]}"
        if outcome.tier not in (1, 2):
            return f"cli answered at tier {outcome.tier}: {outcome.op}"
        return None


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (QuoteWarm, QuoteCold, Campaign, Cli)
}


# ----------------------------------------------------------------------
# the loop and the summaries
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one pass over a workload keeps: flat numeric arrays, so the
    heap neither grows nor slows the collector as a run gets longer.
    Operations, digests and outcomes are kept only for a traced run's
    replays and comparisons."""

    latencies: array = field(default_factory=lambda: array("d"))
    units: array = field(default_factory=lambda: array("q"))
    tiers: array = field(default_factory=lambda: array("b"))
    failures: list[str] = field(default_factory=list)
    ops: list[dict] | None = None
    digests: list[str] | None = None
    outcomes: list[Outcome] | None = None

    def __len__(self) -> int:
        return len(self.latencies)

    def record(self, outcome: Outcome) -> None:
        self.latencies.append(outcome.latency_s)
        self.units.append(outcome.units)
        self.tiers.append(outcome.tier)
        if self.ops is not None:
            self.ops.append(outcome.op)
        if self.digests is not None:
            self.digests.append(outcome.digest)
        if self.outcomes is not None:
            self.outcomes.append(outcome)

    def tier_latencies(self, tier: int) -> list[float]:
        return [lat for lat, t in zip(self.latencies, self.tiers) if t == tier]


def closed_loop(
    workload,
    ops,
    seconds: float = math.inf,
    record_ops: bool = False,
    keep_outputs: bool = False,
) -> Pass:
    """One client: the next request goes out after the previous reply.

    Runs through ``ops`` for ``seconds`` and then to the end of the
    current cycle, so every run holds whole cycles; a replay passes a
    finite list and no deadline.  Each output is checked right after its
    operation, outside the timed call, and then dropped — unless
    ``keep_outputs``, for a pass that is checked later.
    """
    run = Pass(
        ops=[] if record_ops else None,
        digests=[] if record_ops or keep_outputs else None,
        outcomes=[] if keep_outputs else None,
    )
    cycle = plans.cycle_length(workload.name)
    deadline = time.perf_counter() + seconds
    for op in ops:
        outcome = workload.execute(op)
        if not keep_outputs:
            run.failures += check_all(workload, [outcome])
            outcome.output = None
        run.record(outcome)
        if (
            time.perf_counter() >= deadline
            and len(run) >= metrics.MIN_OPS
            and len(run) % cycle == 0
        ):
            break
    return run


def check_all(workload, outcomes: list[Outcome]) -> list[str]:
    failures = []
    for outcome in outcomes:
        message = outcome.failure or workload.check(outcome)
        if message:
            failures.append(message)
    return failures


def end_to_end(run: Pass, cycle: int) -> dict:
    """The end-to-end metrics of one pass.  ``work_per_s`` is the median
    over the run's whole cycles of each cycle's units over its summed
    latency, so a burst of host stalls moves one cycle, not the figure."""
    tail_s, tail_pct = metrics.tail(run.latencies)
    rates = [
        sum(run.units[i:i + cycle]) / sum(run.latencies[i:i + cycle])
        for i in range(0, len(run), cycle)
    ]
    return {
        "op_p50_ms": _ms(metrics.median(run.latencies)),
        "op_tail_ms": _ms(tail_s),
        "tail_percentile": tail_pct,
        "work_per_s": metrics.median(rates),
        "samples": len(run),
        "cycles": len(rates),
        "units": sum(run.units),
    }


def tier_metrics(run: Pass) -> dict[str, float]:
    found = {}
    for tier in (1, 2, 3):
        latencies = run.tier_latencies(tier)
        found[f"quote.tier{tier}.n"] = len(latencies)
        found[f"quote.tier{tier}.p50_ms"] = _ms(metrics.median(latencies)) if latencies else 0.0
    return found


def cli_layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    def med(values):
        return metrics.median(values) if values else 0.0

    found = {
        "cli.import_ms": med([o.extra.get("import_ms", 0.0) for o in outcomes]),
        "cli.body_ms": med([o.extra.get("body_ms", 0.0) for o in outcomes]),
    }
    for package in IMPORT_PACKAGES:
        found[f"cli.import.{package}_ms"] = med(
            [o.extra.get("imports", {}).get(package, 0.0) for o in outcomes]
        )
    return found


#: per workload: per-layer metrics the design says that workload moves,
#: so a traced run must see them non-zero there.  ``kernel.cell_hits`` is
#: left out: each tier-3 quote gets a fresh kernel engine, so a hit needs
#: a bisection probe to land on an integer premium that quote already
#: calibrated, and a short run may see none.
_SIMULATOR = (
    "sim.runs", "sim.self_ms", "chain.txs", "chain.execute_ms",
    "chain.advance.self_ms", "ledger.transfers", "crypto.calls",
    "crypto.self_ms", "parties.self_ms",
)
_SIZING = (
    "premiums.calls", "premiums.self_ms", "graph.builds", "graph.self_ms",
)
_SETUP = ("setup.import_ms", "trace.ops")
PREDICTED_NONZERO = {
    "quote-warm": _SIZING + _SETUP + (
        "quote.tier1.n", "quote.tier2.n", "quote.tier1.p50_ms",
        "quote.tier2.p50_ms", "quote.engine.self_ms", "schedule.calls",
        "schedule.self_ms", "cache.hit", "cache.hit_ratio",
        "cache.read.self_ms", "setup.warm_ms",
    ),
    "quote-cold": _SIMULATOR + _SETUP + (
        "quote.tier3.n", "quote.tier3.p50_ms", "quote.engine.self_ms",
        "cache.miss", "cache.store", "cache.read.self_ms",
        "cache.write.self_ms", "experiment.runs", "experiment.self_ms",
        "matrix.build_ms", "kernel.calibrations", "kernel.replays", "kernel.scenarios", "kernel.calibrations_per_quote",
        "kernel.calibrate_ms", "kernel.replay.self_ms", "refine.probes",
        "refine.probes_per_quote", "refine.self_ms", "runner.self_ms",
    ),
    "campaign": _SIMULATOR + _SIZING + _SETUP + (
        "experiment.runs", "experiment.self_ms", "matrix.build_ms",
        "runner.self_ms", "scenario.runs", "scenario.self_ms", "setup.warm_ms",
    ),
    "cli": _SETUP + (
        "cli.import_ms", "cli.import.numpy_ms", "cli.import.repro.campaign_ms",
        "cli.import.repro.quote_ms", "cli.import.repro.checker_ms",
        "cli.body_ms", "quote.tier1.n", "quote.tier2.n",
        "quote.tier1.p50_ms", "quote.tier2.p50_ms", "setup.warm_ms",
    ),
}

#: per workload: per-layer metrics the design says must be zero there.
PREDICTED_ZERO = {
    "quote-warm": ("sim.runs", "kernel.calibrations", "quote.tier3.n"),
    "quote-cold": ("quote.tier1.n", "quote.tier2.n"),
    "campaign": ("cache.hit", "cache.miss", "cache.store", "cache.read.self_ms", "cache.write.self_ms"),
    "cli": ("quote.tier3.n",),
}


def traced_run(workload, ops, seconds: float) -> tuple[dict, list[str], int]:
    """Three passes over one operation list: the closed loop, an untraced
    replay (the overhead baseline, with the process as warm as the traced
    one), and the traced replay.  Returns per-layer metrics, failures,
    and the number of operations attempted."""
    from repro.obs import Tracer

    first = closed_loop(workload, ops, seconds * PASS_SHARE, record_ops=True)
    workload.attach(None, "baseline")
    baseline = closed_loop(workload, first.ops)
    tracer = Tracer()
    workload.attach(tracer, "traced")
    if workload.in_process:
        with layers.Instrumentation() as recorder:
            traced = closed_loop(workload, first.ops, keep_outputs=True)
    else:
        traced = closed_loop(workload, first.ops, keep_outputs=True)
    counters = tracer.metrics.snapshot()
    failures = first.failures + baseline.failures + check_all(workload, traced.outcomes)
    for op, before, after in zip(first.ops, first.digests, traced.digests):
        if before != after:
            failures.append(f"traced digest differs from untraced: {op}")

    found = {name: 0.0 for name, _ in metrics.PER_LAYER}
    ops_count = len(traced)
    if workload.in_process:
        found.update(layers.layer_metrics(recorder, ops_count))
        for gap in layers.coverage_gaps(recorder, workload.name):
            failures.append(f"wrapper {gap} never fired on {workload.name}")
    else:
        found.update(cli_layer_metrics(traced.outcomes))
    found.update(tier_metrics(first))
    for tier in (1, 2, 3):
        found[f"quote.tier{tier}.n"] = (
            counters.counter(f"quote.tier{tier}")
            if workload.in_process
            else traced.tiers.count(tier)
        )
    hit = counters.counter("cache.hit")
    miss = sum(
        value for name, value in counters.counters if name.startswith("cache.miss")
    )
    found["cache.hit"] = hit
    found["cache.miss"] = miss
    found["cache.store"] = counters.counter("cache.store")
    found["cache.hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
    for name in ("calibrations", "cell_hits", "replays", "scenarios"):
        found[f"kernel.{name}"] = counters.counter(f"kernel.{name}")
    tier3 = found["quote.tier3.n"]
    if tier3:
        found["kernel.calibrations_per_quote"] = found["kernel.calibrations"] / tier3
        found["refine.probes_per_quote"] = found["refine.probes"] / tier3
    found["setup.import_ms"] = _ms(workload.import_s)
    found["setup.warm_ms"] = _ms(workload.warm_s)
    found["trace.ops"] = ops_count
    base = sum(baseline.latencies)
    found["trace.overhead_frac"] = (sum(traced.latencies) - base) / base
    for name in PREDICTED_ZERO[workload.name]:
        if found[name]:
            failures.append(f"predicted bypass broken on {workload.name}: {name} = {found[name]}")
    for name in PREDICTED_NONZERO[workload.name]:
        if not found[name]:
            failures.append(f"layer not exercised on {workload.name}: {name} = 0")
    return found, failures, 3 * len(first)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr
    workload = WORKLOAD_CLASSES[args.workload](args.seed, Path(args.tmp))
    workload.setup()
    # Nothing set-up allocated is garbage: keep the collector from
    # rescanning it during the timed loop.
    gc.collect()
    gc.freeze()
    print("READY", file=protocol, flush=True)
    if args.setup_only:
        return 0

    ops = plans.STREAMS[args.workload](args.seed)
    result = {"extras": workload.extras()}
    if args.trace:
        per_layer, failures, attempted = traced_run(workload, ops, args.seconds)
        result["per_layer"] = per_layer
    else:
        run = closed_loop(workload, ops, args.seconds)
        failures, attempted = run.failures, len(run)
        result["end_to_end"] = end_to_end(run, plans.cycle_length(args.workload))
        result["tiers"] = {str(tier): run.tiers.count(tier) for tier in (1, 2, 3)}
    result.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:MAX_FAILURE_MESSAGES],
        peak_rss_mb=peak_rss_mb(workload),
        setup_import_ms=_ms(workload.import_s),
        setup_warm_ms=_ms(workload.warm_s),
    )
    print("RESULT " + json.dumps(result, sort_keys=True), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
