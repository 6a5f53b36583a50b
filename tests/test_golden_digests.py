"""Golden digests: the committed artifacts the family registry must keep.

Two small, fast pins on the digest invariant:

- the ``BENCH_ablation.json`` refined-frontier record — spec, lattice run
  and refined digests of the four-premium staked grid with coalitions,
- the batch digest of a 15-request quote basket on a fresh engine: the
  four named families at ``staked`` and ``pre-stake``, both named
  coalitions, four graph shapes (``ring:3`` normalizes to the closed-form
  multi-party cell) and one ``round:K`` stage.

Any refactor of cell construction, closed forms, premium bases or deposit
schedules that moves one of these digests changed behaviour.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.campaign import (
    CampaignRunner,
    ablation_matrix,
    reduce_frontier,
    refine_frontier,
    refine_spec,
)
from repro.quote import QuoteEngine, QuoteRequest, batch_digest, quote_batch

BENCH_ABLATION = Path(__file__).resolve().parent.parent / "BENCH_ablation.json"

GRID = dict(
    premium_fractions=(0.0, 0.01, 0.03, 0.08),
    shock_fractions=(0.045,),
    stages=("staked",),
    coalitions=True,
)

BASKET_DIGEST = (
    "62aa4cce04e4350a75de2a2a36df87f13a7b9ea577e3a9e9734c13635f12c1da"
)


def test_refined_frontier_digests_match_bench_ablation():
    committed = json.loads(BENCH_ABLATION.read_text())
    assert refine_spec(**GRID).digest() == committed["spec_digest"]
    report = CampaignRunner(ablation_matrix(**GRID)).run()
    assert report.run_digest == committed["run_digest"]
    refined = refine_frontier(reduce_frontier(report))
    assert refined.digest == committed["refined_digest"]


def _basket() -> list[QuoteRequest]:
    families = ("two-party", "multi-party", "broker", "auction")
    return [
        *(
            QuoteRequest(family=family, stage=stage)
            for family in families
            for stage in ("staked", "pre-stake")
        ),
        QuoteRequest(family="multi-party", coalition="P1+P2"),
        QuoteRequest(family="broker", coalition="seller+buyer"),
        *(
            QuoteRequest(graph=graph)
            for graph in ("ring:3", "ring:4", "complete:4", "figure3")
        ),
        QuoteRequest(family="two-party", stage="round:3"),
    ]


def test_quote_basket_batch_digest():
    quotes = quote_batch(QuoteEngine(), _basket())
    assert [quote.tier for quote in quotes] == [1] * 11 + [3] * 4
    assert batch_digest(quotes) == BASKET_DIGEST
