"""Per-arc deposit schedules: Equations 1–2 rendered as ledger entries.

Given the deal shape and an integer premium, this module prices every
deposit the hedged protocol requires: flat per-arc tables (escrow
premiums by Equation 2, the broker's trading premiums, the auctioneer's
per-bid premium) and redemption premiums (Equation 1, backward along
leader-to-beneficiary paths, with the broker's contract-sharing pruning
where the deal defines it).  The output is a flat, sorted tuple of
:class:`~repro.quote.quote.ScheduleEntry` — the part of a quote a
counterparty actually signs.

The deal shape comes from the family's registry entry
(:meth:`~repro.campaign.ablation.registry.Family.deal_shape`):
``two-party`` is the 2-ring and ``multi-party`` the 3-ring with ``P0``
leading, graph-shaped deals are their own digraph, ``broker`` adds the
trading table and prunes per hosting contract (§8.1), and ``auction`` is
the degenerate case of one flat table (§9.2).
"""

from __future__ import annotations

from repro.campaign.ablation.registry import resolve_family
from repro.core.premiums import redemption_premium_flow

from repro.quote.quote import ScheduleEntry
from repro.quote.request import QuoteError


def deposit_schedule(family: str, premium: int) -> tuple[ScheduleEntry, ...]:
    """The full deposit schedule for one deal at one integer premium.

    ``family`` is a resolved cell family — a named §5.2 family or a graph
    family string.  A zero premium prices the unhedged protocol: the
    schedule is empty (there is nothing to deposit and nothing deterring).
    """
    if premium < 0:
        raise QuoteError(f"premium must be non-negative, got {premium}")
    if premium == 0:
        return ()
    try:
        entry = resolve_family(family)
    except ValueError:
        raise QuoteError(f"no deposit schedule for family {family!r}") from None
    shape = entry.deal_shape(premium)
    entries = [
        ScheduleEntry(
            kind=kind, depositor=arc[0], arc=arc, round=0, amount=amount
        )
        for kind, table in shape.tables
        for arc, amount in sorted(table.items())
        if amount != 0
    ]
    if shape.graph is not None:
        flow = redemption_premium_flow(
            shape.graph, shape.leaders, premium, shape.contract_of
        )
        entries += [
            ScheduleEntry(
                kind="redemption",
                depositor=deposit.depositor,
                arc=deposit.arc,
                round=deposit.round,
                amount=deposit.amount,
                path=deposit.path,
            )
            for deposit in sorted(flow, key=lambda d: (d.round, d.leader, d.arc))
            if deposit.amount != 0
        ]
    return tuple(entries)
