"""repro.quote — a premium-quoting service for cross-chain deals.

The question-shaped front door to the reproduction: ask "what premium
schedule makes this deal sore-loser-proof under these assumptions?" and
get back a :class:`~repro.quote.quote.Quote` — the deterring π*, the
smallest integer premium clearing it, and the full per-arc deposit
schedule Equations 1–2 imply — priced through a three-tier ladder
(closed forms, cached refined rows, narrow measurement fallback) behind
one :class:`~repro.quote.engine.QuoteEngine`.  Requests and quotes are
frozen, JSON-serializable, and digest-covered, with the same
traced-equals-untraced byte-identity discipline as every other artifact
in the tree.
"""

from repro.quote.batch import batch_cells, batch_digest, quote_batch
from repro.quote.engine import ALL_TIERS, QuoteEngine
from repro.quote.quote import (
    Quote,
    ScheduleEntry,
    quote_for,
    schedule_entry_from_payload,
    schedule_entry_payload,
)
from repro.quote.request import DEFAULT_SHOCK, QuoteError, QuoteRequest
from repro.quote.schedule import deposit_schedule

__all__ = [
    "ALL_TIERS",
    "DEFAULT_SHOCK",
    "Quote",
    "QuoteEngine",
    "QuoteError",
    "QuoteRequest",
    "ScheduleEntry",
    "batch_cells",
    "batch_digest",
    "deposit_schedule",
    "quote_batch",
    "quote_for",
    "schedule_entry_from_payload",
    "schedule_entry_payload",
]
