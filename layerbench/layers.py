"""Per-layer attribution: timing wrappers around each ``repro`` layer.

A traced pass installs one wrapper per :data:`TARGETS` entry, runs the
workload, and removes them.  Each wrapper counts its calls and measures
its inclusive time; its *self* time is that duration minus the part
spent in nested wrapped calls, so a layer's self time is the work done
in its own code (and in any unwrapped helper it calls).

Module-level functions are patched wherever they are looked up: every
loaded ``repro`` module attribute bound to the original function object
is rebound to the wrapper, so a name imported with ``from ... import``
(``repro.quote.engine`` imports ``deposit_schedule`` that way) still
fires.  Methods are patched on their class.  Hot leaf methods such as
``SwapGraph.out_neighbors`` are deliberately not wrapped; their cost
lands in the self time of the coarse entry point above them, and the
traced run reports the wrappers' total cost as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: every wrapper: (layer, module, qualified name, workloads it must fire
#: on).  The workloads column is the coverage contract the traced run
#: checks: a wrapper that never fires there measures nothing.
TARGETS = (
    ("quote.engine", "repro.quote.engine", "QuoteEngine.quote", ("quote-warm", "quote-cold")),
    ("schedule", "repro.quote.schedule", "deposit_schedule", ("quote-warm", "quote-cold")),
    ("premiums", "repro.core.premiums", "escrow_premium_amounts", ("quote-warm", "campaign")),
    ("premiums", "repro.core.premiums", "redemption_premium_flow", ("quote-warm", "campaign")),
    ("premiums", "repro.core.premiums", "redemption_premium_amount", ("quote-warm", "campaign")),
    ("premiums", "repro.core.premiums", "path_member_sets", ("campaign",)),
    ("premiums", "repro.core.premiums", "worst_case_redemption_amount", ("campaign",)),
    ("premiums", "repro.core.premiums", "leader_redemption_total", ("campaign",)),
    ("premiums", "repro.core.premiums", "pruned_redemption_premium_amount", ("campaign",)),
    ("premiums", "repro.core.premiums", "required_redemption_keys", ("campaign",)),
    ("graph", "repro.graph.digraph", "SwapGraph.__post_init__", ("quote-warm", "campaign")),
    ("graph", "repro.graph.digraph", "SwapGraph.build", ("quote-warm", "campaign")),
    ("graph", "repro.graph.digraph", "ring_graph", ("quote-warm", "campaign")),
    ("graph", "repro.graph.digraph", "complete_graph", ("quote-warm", "campaign")),
    ("graph", "repro.graph.digraph", "SwapGraph.follower_depths", ("campaign",)),
    ("graph", "repro.graph.feedback", "is_feedback_vertex_set", ("campaign",)),
    ("cache.read", "repro.campaign.cache", "ResultCache.get_entry", ("quote-warm", "quote-cold")),
    ("cache.read", "repro.campaign.cache", "ResultCache.get", ("quote-cold",)),
    ("cache.write", "repro.campaign.cache", "ResultCache.put_entry", ("quote-cold",)),
    ("cache.write", "repro.campaign.cache", "ResultCache.put", ("quote-cold",)),
    ("experiment", "repro.campaign.experiment", "Experiment.run", ("quote-cold", "campaign")),
    ("matrix", "repro.campaign.pool", "MatrixSpec.build", ("quote-cold", "campaign")),
    ("kernel", "repro.campaign.ablation.kernels", "KernelEngine.run", ("quote-cold",)),
    ("refine", "repro.campaign.ablation.refine", "refine_frontier", ("quote-cold",)),
    ("refine", "repro.campaign.ablation.refine", "refine_row", ("quote-cold",)),
    ("refine", "repro.campaign.ablation.refine", "_CellProber.probe", ("quote-cold",)),
    ("runner", "repro.campaign.runner", "CampaignRunner.run", ("quote-cold", "campaign")),
    ("scenario", "repro.campaign.scenario", "run_scenario", ("campaign",)),
    ("scenario", "repro.campaign.scenario", "condense_run", ("campaign",)),
    ("sim", "repro.sim.runner", "SyncRunner.run", ("quote-cold", "campaign")),
    ("chain", "repro.chain.blockchain", "Blockchain.execute", ("quote-cold", "campaign")),
    ("chain", "repro.chain.blockchain", "Blockchain.advance", ("quote-cold", "campaign")),
    ("chain", "repro.chain.blockchain", "Blockchain.deploy", ("quote-cold", "campaign")),
    ("chain", "repro.chain.ledger", "Ledger.transfer", ("quote-cold", "campaign")),
    ("chain", "repro.chain.ledger", "Ledger.mint", ("quote-cold", "campaign")),
    ("crypto", "repro.crypto.signatures", "sign", ("quote-cold", "campaign")),
    ("crypto", "repro.crypto.signatures", "verify", ("quote-cold", "campaign")),
    ("crypto", "repro.crypto.hashing", "sha256_hex", ("quote-cold", "campaign")),
    ("crypto", "repro.crypto.hashkeys", "HashKey.originate", ("campaign",)),
    ("crypto", "repro.crypto.hashkeys", "HashKey.extend", ("campaign",)),
    ("crypto", "repro.crypto.hashkeys", "HashKey.verify", ("campaign",)),
    ("parties", "repro.parties.base", "Actor.tx", ("quote-cold", "campaign")),
    ("parties", "repro.parties.strategies", "Deviant.on_round", ("campaign",)),
    ("parties", "repro.parties.rational", "Opportunist.on_round", ("quote-cold",)),
    ("parties", "repro.parties.rational", "held_premium_stake", ("quote-cold",)),
)

#: (count metric, the wrapper whose calls it counts).
CALL_COUNTS = (
    ("schedule.calls", "deposit_schedule"),
    ("graph.builds", "SwapGraph.__post_init__"),
    ("experiment.runs", "Experiment.run"),
    ("refine.probes", "_CellProber.probe"),
    ("scenario.runs", "run_scenario"),
    ("sim.runs", "SyncRunner.run"),
    ("chain.txs", "Blockchain.execute"),
    ("ledger.transfers", "Ledger.transfer"),
)

#: layer -> the self-time metric it reports.
SELF_TIMES = {
    "quote.engine": "quote.engine.self_ms",
    "schedule": "schedule.self_ms",
    "premiums": "premiums.self_ms",
    "graph": "graph.self_ms",
    "cache.read": "cache.read.self_ms",
    "cache.write": "cache.write.self_ms",
    "experiment": "experiment.self_ms",
    "kernel": "kernel.replay.self_ms",
    "refine": "refine.self_ms",
    "runner": "runner.self_ms",
    "scenario": "scenario.self_ms",
    "sim": "sim.self_ms",
    "crypto": "crypto.self_ms",
    "parties": "parties.self_ms",
}

#: (metric, outer wrapper, inner wrapper): inner inclusive time spent
#: while the outer is on the stack — the simulator runs a kernel
#: calibration makes.
NESTED_TIMES = (("kernel.calibrate_ms", "KernelEngine.run", "SyncRunner.run"),)


class Recorder:
    """Call counts, self and inclusive seconds per wrapper."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.nested_s: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        #: child seconds accumulated by each open wrapper frame.
        self.stack: list[float] = []
        self._nested = {inner: (metric, outer) for metric, outer, inner in NESTED_TIMES}

    def wrap(self, fn, key: str):
        stack = self.stack
        active = self.active
        nested = self._nested.get(key)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[key] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                active[key] -= 1
                child = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += duration - child
                self.inclusive_s[key] += duration
                if stack:
                    stack[-1] += duration
                if nested is not None and active[nested[1]]:
                    self.nested_s[nested[0]] += duration

        return wrapper


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, raw object) for one target."""
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        owner = getattr(module, class_name)
        return owner, attr, owner.__dict__[attr]
    return module, qualname, getattr(module, qualname)


class Instrumentation:
    """Installs every wrapper on enter; restores the originals on exit."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._patches: list[_Patch] = []

    def __enter__(self) -> Recorder:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for _, module_name, qualname, _ in TARGETS:
            owner, attr, raw = _resolve(module_name, qualname)
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.recorder.wrap(raw.__func__, qualname))
                else:
                    wrapped = self.recorder.wrap(raw, qualname)
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self.recorder.wrap(raw, qualname)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, name, raw, wrapped)
        return self.recorder

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append(_Patch(owner, attr, original))
        setattr(owner, attr, wrapped)

    def __exit__(self, *exc_info) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        self._patches = []


def coverage_gaps(recorder: Recorder, workload: str) -> list[str]:
    """Wrappers that should have fired on ``workload`` but never did."""
    return [
        qualname
        for _, _, qualname, workloads in TARGETS
        if workload in workloads and recorder.calls.get(qualname, 0) == 0
    ]


def layer_metrics(recorder: Recorder, ops: int) -> dict[str, float]:
    """Per-layer counts and per-operation milliseconds from one pass."""
    per_op = 1000.0 / ops
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    for layer, _, qualname, _ in TARGETS:
        layer_self[layer] += recorder.self_s.get(qualname, 0.0)
        layer_calls[layer] += recorder.calls.get(qualname, 0)
    metrics: dict[str, float] = {}
    for layer, metric in SELF_TIMES.items():
        metrics[metric] = layer_self[layer] * per_op
    for metric, qualname in CALL_COUNTS:
        metrics[metric] = recorder.calls.get(qualname, 0)
    metrics["premiums.calls"] = layer_calls["premiums"]
    metrics["crypto.calls"] = layer_calls["crypto"]
    metrics["matrix.build_ms"] = recorder.inclusive_s.get("MatrixSpec.build", 0.0) * per_op
    metrics["chain.execute_ms"] = (
        recorder.inclusive_s.get("Blockchain.execute", 0.0) * per_op
    )
    metrics["chain.advance.self_ms"] = (
        recorder.self_s.get("Blockchain.advance", 0.0) * per_op
    )
    for metric, _, _ in NESTED_TIMES:
        metrics[metric] = recorder.nested_s.get(metric, 0.0) * per_op
    return metrics
