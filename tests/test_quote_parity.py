"""Tier parity: every rung of the quote ladder agrees on the answer.

The §5.2 closed forms (tier 1), the cached refined rows (tier 2), and
the narrow measurement fallback (tier 3) are three routes to one number;
these tests pin that they agree within the request tolerance for every
named family and both named coalitions — and that the broker's
seller+buyer pair reads un-hedgeable on every route.  Graph-shaped deals
have no exact closed form, so tier 3 is checked against the same
formula's stake-slope estimate instead.
"""

import pytest

from repro.campaign.ablation.grid import (
    ABLATION_COALITIONS,
    ABLATION_FAMILIES,
    closed_form_pi_star,
)
from repro.campaign.cache import ResultCache
from repro.quote import QuoteEngine, QuoteRequest

PARITY_CELLS = [(family, "") for family in ABLATION_FAMILIES] + [
    (family, coalition)
    for family, coalitions in sorted(ABLATION_COALITIONS.items())
    for coalition in coalitions
]


@pytest.fixture(scope="module")
def warm_engine(tmp_path_factory):
    """One engine + cache shared by the whole module: tier-3 runs warm
    tier 2, exactly the service's production shape."""
    root = tmp_path_factory.mktemp("quote-cache")
    return QuoteEngine(cache=ResultCache(root))


@pytest.mark.parametrize("family,coalition", PARITY_CELLS)
def test_tiers_agree_within_tolerance(warm_engine, family, coalition):
    request = QuoteRequest(family=family, coalition=coalition)
    tier1 = warm_engine.quote(request, tiers=(1,))
    tier3 = warm_engine.quote(request, tiers=(3,))
    tier2 = warm_engine.quote(request, tiers=(2,))
    assert (tier1.tier, tier2.tier, tier3.tier) == (1, 2, 3)
    if tier1.pi_star is None:
        assert tier2.pi_star is None and tier3.pi_star is None
    else:
        assert tier3.pi_star is not None
        assert abs(tier1.pi_star - tier3.pi_star) <= request.tol
        # tiers 2 and 3 read the same stored row: byte-identical quotes
        assert tier2.digest() == tier3.digest()
        assert tier2.provenance == tier3.provenance


def test_broker_seller_buyer_unhedgeable_on_every_tier(warm_engine):
    """The paper's sore spot: the seller+buyer pair always finds a
    stake-free round, so no premium deters the joint walk — and all
    three tiers must say so."""
    request = QuoteRequest(family="broker", coalition="seller+buyer")
    for tiers in ((1,), (3,), (2,)):
        quote = warm_engine.quote(request, tiers=tiers)
        assert not quote.hedgeable
        assert quote.premium is None
        assert quote.schedule == ()


def test_graph_measurement_tracks_analytic_hint(warm_engine):
    """ring:4 has no exact closed form; the measured tier-3 answer must sit
    within tolerance of the stake-slope estimate."""
    request = QuoteRequest(graph="ring:4")
    hint = closed_form_pi_star("ring:4", request.shock)
    measured = warm_engine.quote(request, tiers=(3,))
    assert measured.pi_star is not None
    assert abs(measured.pi_star - hint) <= request.tol
    warm = warm_engine.quote(request, tiers=(2,))
    assert warm.digest() == measured.digest()


def test_figure3_is_structurally_unhedgeable(warm_engine):
    """figure3's pivot B pays on two arcs and receives on one: under
    uniform notionals completing costs B more than any stake it could
    forfeit, so the measured verdict is un-hedgeable at every premium —
    the service surfaces a structurally losing deal rather than pricing
    it."""
    quote = warm_engine.quote(QuoteRequest(graph="figure3"), tiers=(3,))
    assert not quote.hedgeable
    assert quote.premium is None


def test_ring3_graph_rides_the_closed_form(warm_engine):
    """graph=ring:3 *is* the multi-party cell, so it answers at tier 1
    with the named family's closed form."""
    as_graph = warm_engine.quote(QuoteRequest(graph="ring:3"), tiers=(1,))
    as_family = warm_engine.quote(QuoteRequest(family="multi-party"), tiers=(1,))
    assert as_graph.tier == 1
    assert as_graph.family == "multi-party"
    # identical answers (the request digests differ — two spellings of
    # one question — but everything priced is the same)
    assert as_graph.pi_star == as_family.pi_star
    assert as_graph.premium == as_family.premium
    assert as_graph.schedule == as_family.schedule
    assert as_graph.provenance == as_family.provenance


def test_coalition_quote_prices_the_joint_walk(warm_engine):
    """ring-adjacent P1+P2: the external stake equals the single pivot's
    4p, so the coalition quote coincides with the pivot quote (collusion
    buys no discount) — on the closed-form and measured routes alike."""
    pivot = QuoteRequest(family="multi-party")
    pair = QuoteRequest(family="multi-party", coalition="P1+P2")
    assert (
        warm_engine.quote(pair, tiers=(1,)).pi_star
        == warm_engine.quote(pivot, tiers=(1,)).pi_star
    )
    assert (
        warm_engine.quote(pair, tiers=(3,)).pi_star
        == warm_engine.quote(pivot, tiers=(3,)).pi_star
    )
