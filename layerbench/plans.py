"""Workload inputs as pure functions of the seed.

Every generator here returns plain data (request keyword dicts, slice
descriptions) and imports nothing from ``repro``: the program under test
receives only what these functions produce, and the tests can check that
one seed always yields one input stream without running the program.

Each workload's stream is infinite and made of fixed-share *cycles*: the
seed chooses which shocks, scenarios and orderings appear, never how much
of each kind of work a cycle holds.  That keeps a run's latency mix the
same from seed to seed, so medians compare across seeds and commits.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("quote-warm", "quote-cold", "campaign", "cli")

#: graph-shaped deals the quote workloads price (tiers 2 and 3).
GRAPH_CELLS = (
    "ring:4",
    "ring:5",
    "ring:6",
    "complete:4",
    "complete:5",
    "complete:6",
    "figure3",
)

#: named §5.2 families at the stages tier 1 answers in closed form, plus
#: both named coalitions.
TIER1_CELLS = tuple(
    {"family": family, "stage": stage}
    for family in ("two-party", "multi-party", "broker", "auction")
    for stage in ("staked", "pre-stake")
) + (
    {"family": "multi-party", "coalition": "P1+P2"},
    {"family": "broker", "coalition": "seller+buyer"},
)

#: shocks tier-1 requests draw from (no cache involved, any shock works).
TIER1_SHOCKS = tuple(round(0.02 + 0.001 * i, 4) for i in range(71))

#: shocks the warm cache is filled at; a seed picks three.
WARM_SHOCKS = tuple(round(0.02 + 0.0025 * i, 4) for i in range(25))

#: one quote-warm cycle: every tier-1 cell once, then graph rows — two
#: each of figure3, ring:4, complete:5 and complete:6, four each of
#: ring:6 and complete:4, and six of ring:5.  The counts put the cycle's
#: median latency in the middle of the ring:5 rows, so it does not sit on
#: the edge between two cells.  ``complete:N`` rows are the
#: premium-sizing-heavy ones; their share is reported beside the results.
WARM_CYCLE = (
    ("figure3", 2),
    ("ring:4", 2),
    ("ring:5", 6),
    ("ring:6", 4),
    ("complete:4", 4),
    ("complete:5", 2),
    ("complete:6", 2),
)

#: round:K stages per named family, within each protocol's horizon.
COLD_ROUNDS = {"two-party": 3, "multi-party": 8, "broker": 7, "auction": 2}

#: visits per quote-cold cycle of each named family's round cells (graph
#: cells get one).  The weights put the cycle's median latency among the
#: tightly clustered multi-party rounds rather than between two cells.
COLD_VISITS = {"two-party": 2, "multi-party": 2, "broker": 1, "auction": 2}

#: the shock grid quote-cold draws first sightings from: each cell walks
#: its own seeded permutation, so no request repeats within a run.
COLD_SHOCKS = tuple(round(0.01 + 0.0001 * i, 4) for i in range(900))

#: campaign operations per cycle; operation j of a cycle runs a
#: block-stratified selection of ``CAMPAIGN_MIN_LIMIT + CAMPAIGN_STEP * j``
#: plus a seeded ``0..CAMPAIGN_STEP - 1`` scenarios, so every cycle holds
#: about the same work.  An odd cycle puts the median in the middle size.
CAMPAIGN_CYCLE = 5
CAMPAIGN_STEP = 4
CAMPAIGN_MIN_LIMIT = 56

#: graph rows the cli workload warms and asks at tier 2.
CLI_GRAPHS = ("ring:4", "ring:5", "complete:4", "figure3")

#: tier-1 requests the cli workload asks: one per named family, both
#: coalitions among them.
CLI_TIER1 = (
    {"family": "two-party", "stage": "staked"},
    {"family": "multi-party", "coalition": "P1+P2"},
    {"family": "broker", "coalition": "seller+buyer"},
    {"family": "auction", "stage": "pre-stake"},
)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding is stable across interpreter runs and platforms.
    return random.Random(f"{workload}:{seed}")


def _tier1_request(rng: random.Random, cell: dict | None = None) -> dict:
    cell = rng.choice(TIER1_CELLS) if cell is None else cell
    return {**cell, "shock": rng.choice(TIER1_SHOCKS)}


def cold_cells() -> tuple[dict, ...]:
    """One quote-cold cycle's cells: graph deals at ``staked`` and named
    families at each in-horizon ``round:K`` stage, with repeats."""
    graphs = tuple({"graph": graph} for graph in GRAPH_CELLS)
    rounds = tuple(
        {"family": family, "stage": f"round:{k}"}
        for family, count in COLD_ROUNDS.items()
        for k in range(1, count + 1)
        for _ in range(COLD_VISITS[family])
    )
    return graphs + rounds


# ----------------------------------------------------------------------
# quote-warm
# ----------------------------------------------------------------------
def warm_fill(seed: int) -> tuple[dict, ...]:
    """The graph rows set-up measures at tier 3 to fill the cache."""
    shocks = sorted(_rng("quote-warm/fill", seed).sample(WARM_SHOCKS, 3))
    return tuple(
        {"graph": graph, "shock": shock}
        for graph in GRAPH_CELLS
        for shock in shocks
    )


def warm_stream(seed: int):
    """Infinite quote-warm requests: every tier-1 closed form once per
    cycle, mixed with repeats of the filled graph rows in fixed shares.
    Each graph kind rotates through its filled shocks."""
    fill = warm_fill(seed)
    rng = _rng("quote-warm", seed)
    turns = {kind: 0 for kind, _ in WARM_CYCLE}
    while True:
        cycle = [_tier1_request(rng, cell) for cell in TIER1_CELLS]
        for kind, count in WARM_CYCLE:
            rows = [row for row in fill if row["graph"] == kind]
            for _ in range(count):
                cycle.append(dict(rows[turns[kind] % len(rows)]))
                turns[kind] += 1
        rng.shuffle(cycle)
        yield from cycle


def warm_complete_share() -> float:
    """The share of ``complete:N`` rows in a quote-warm cycle."""
    complete = sum(
        count for kind, count in WARM_CYCLE if kind.startswith("complete:")
    )
    return complete / cycle_length("quote-warm")


# ----------------------------------------------------------------------
# quote-cold
# ----------------------------------------------------------------------
def cold_stream(seed: int):
    """Infinite distinct first sightings: every cycle visits the cold
    cells in seeded order, each visit taking the next shock of that
    cell's own seeded permutation of :data:`COLD_SHOCKS`."""
    rng = _rng("quote-cold", seed)
    cells = cold_cells()
    keys = sorted({tuple(sorted(cell.items())) for cell in cells})
    orders = {key: iter(rng.sample(COLD_SHOCKS, len(COLD_SHOCKS))) for key in keys}
    while True:
        cycle = list(cells)
        rng.shuffle(cycle)
        for cell in cycle:
            shock = next(orders[tuple(sorted(cell.items()))], None)
            if shock is None:
                raise RuntimeError("quote-cold exhausted its shock grid")
            yield {**cell, "shock": shock}


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def campaign_stream(seed: int):
    """Infinite campaign operations: block-stratified selections whose
    seeded sizes choose the scenarios (the matrix seed only changes the
    digest).  Every block contributes to every selection."""
    rng = _rng("campaign", seed)
    while True:
        cycle = [
            CAMPAIGN_MIN_LIMIT + CAMPAIGN_STEP * j + rng.randrange(CAMPAIGN_STEP)
            for j in range(CAMPAIGN_CYCLE)
        ]
        rng.shuffle(cycle)
        for limit in cycle:
            yield {"limit": limit, "seed": seed}


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------
def cli_fill(seed: int) -> tuple[dict, ...]:
    """The graph rows set-up warms in the cli cache: one shock per graph."""
    rng = _rng("cli/fill", seed)
    return tuple(
        {"graph": graph, "shock": rng.choice(WARM_SHOCKS)} for graph in CLI_GRAPHS
    )


def cli_stream(seed: int):
    """Infinite CLI requests: each cycle asks every :data:`CLI_TIER1`
    request at a seeded shock and every warmed graph row, shuffled."""
    fill = cli_fill(seed)
    rng = _rng("cli", seed)
    while True:
        cycle = [_tier1_request(rng, cell) for cell in CLI_TIER1]
        cycle += [dict(row) for row in fill]
        rng.shuffle(cycle)
        yield from cycle


STREAMS = {
    "quote-warm": warm_stream,
    "quote-cold": cold_stream,
    "campaign": campaign_stream,
    "cli": cli_stream,
}


def cycle_length(workload: str) -> int:
    """Operations per cycle: a run always ends on a whole cycle, so every
    run holds the same mix."""
    return {
        "quote-warm": len(TIER1_CELLS) + sum(count for _, count in WARM_CYCLE),
        "quote-cold": len(cold_cells()),
        "campaign": CAMPAIGN_CYCLE,
        "cli": len(CLI_TIER1) + len(CLI_GRAPHS),
    }[workload]


def take(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` inputs of a workload's stream."""
    return list(itertools.islice(STREAMS[workload](seed), count))
