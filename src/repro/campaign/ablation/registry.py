"""The family registry: everything the repo knows about one priced deal.

The paper prices every hedged deal with one rule.  At the ``staked``
stage the pivot walks exactly when the shocked value drop exceeds the
premium it has staked, and that stake is linear in the integer premium
``p`` (§5.2 families; §7.1 Equations 1–2).  So every deterrence threshold
is the same closed form,

    π* = notional · s / (slope · base),

where ``slope`` is the staked premium per unit ``p``, ``base`` the
notional a fraction π is quantized against, and ``notional`` the value
the shock applies to.  A :class:`Family` entry owns those three numbers
plus everything else that differs between deals:

- its pivot cell builder (:class:`FamilyCell`), and its named coalitions,
  which one generic overlay (:func:`coalition_cell`) builds from the
  pivot cell,
- its stake slope per pivot set (``None`` = un-hedgeable),
- the deal shape (:class:`DealShape`) a deposit schedule prices, and its
  stage schedule and horizon (carried by the cell).

:data:`FAMILIES` holds the four named families; :func:`resolve_family`
also resolves graph names (``ring:N``, ``complete:N``, ``figure3``) to a
:class:`GraphFamily`.  ``multi-party`` is the ``ring:3`` graph entry under
its own name and its historical ``ring3/`` schedule prefix.  Protocol and
checker imports stay function-local so importing the registry stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: the principal notional every family's π is sized against.
PRINCIPAL = 100

#: graph-shaped family kinds beyond the named §5.2 four: ``ring:N`` /
#: ``complete:N`` (plus the literal ``figure3``) name a multi-party swap
#: over that digraph, hedged by the generic §7.1 Equations 1–2 schedule.
GRAPH_FAMILY_KINDS = ("ring", "complete")


@dataclass
class FamilyCell:
    """One family's fully-wired cell context at one integer premium.

    Everything a ``(family, coalition, premium)`` point of the grid needs
    — builder, contract directory, pivot set, price-path ingredients,
    stage schedule, properties, metrics parties, the utility model, and
    the symbolic per-round gain terms — in one object shared by the matrix
    adders (which expand it into comply/rational blocks per shock × stage)
    and the vectorized kernel engine (which calibrates payoff templates
    from it).  Building both from the same context is what makes the two
    engines agree cell-by-cell: same closures, same float op order, same
    block descriptors.
    """

    family: str
    coalition: str  #: "" for the family's single pivot
    premium: int  #: the effective integer premium π bought after rounding
    pivots: tuple[str, ...]  #: parties the rational arm wraps
    metrics_parties: tuple[str, ...]  #: utility-metric party set, in order
    builder: object
    contracts: tuple[tuple[str, str], ...]
    base_values: tuple[tuple[str, float], ...]  #: TokenPrices ``base``
    shocked: str  #: the token symbol the shock applies to
    named: dict  #: named stage → shock height
    horizon: int
    properties: tuple
    completed: object  #: instance -> bool, the cell's completion predicate
    schedule_prefix: str  #: e.g. "" / "ring3/" / "ring3/P1+P2/"
    model_factory: object  #: prices -> UtilityModel (the rational arm)
    gain_terms: object  #: view -> list of per-member (sign, amount, asset) folds
    #: how the folds combine into the model's completion gain:
    #: "single" (one fold, as-is), "sum" (0 + fold_1 + ...), or "diff"
    #: (fold_1 − fold_2, single-term folds — the auction's two legs).
    gain_shape: str


def _builder(build, label: str):
    """Stamp ``build`` with the qualname the structural matrix digest
    hashes for its blocks: the label each family's committed digests were
    recorded under."""
    build.__qualname__ = f"{label}.<locals>.<lambda>"
    return build


def _pivot_cell(family: str, pivot: str, contracts, **fields) -> FamilyCell:
    """A single-pivot cell whose rational arm is the generic swap model."""
    from repro.parties.rational import completion_gain_terms, swap_party_model

    def model_factory(prices):
        return swap_party_model(pivot, prices, contracts)

    def gain_terms(view):
        return [list(completion_gain_terms(pivot, view, contracts))]

    return FamilyCell(
        family=family,
        coalition="",
        pivots=(pivot,),
        metrics_parties=(pivot,),
        contracts=contracts,
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="single",
        **fields,
    )


def coalition_cell(
    pivot: FamilyCell,
    coalition: str,
    members: tuple[str, ...],
    builder_label: str = "",
) -> FamilyCell:
    """The joint-pivot cell for ``members``, overlaid on the pivot cell.

    Same deal, stages and properties; the members share one
    :func:`~repro.parties.rational.coalition_model`, so they walk in the
    same round exactly when the joint utility says collusion pays.  Their
    blocks are scheduled under ``<pivot prefix><coalition>/``, built under
    ``builder_label`` when it differs from the pivot's.
    """
    from repro.parties.rational import coalition_model, completion_gain_terms

    contracts = pivot.contracts
    member_set = frozenset(members)

    def model_factory(prices):
        return coalition_model(members, prices, contracts)

    def gain_terms(view):
        # Mirrors coalition_model's joint gain: one fold per member in
        # sorted order, each with the member set's internal-flow rule.
        return [
            list(
                completion_gain_terms(p, view, contracts, coalition=member_set)
            )
            for p in sorted(member_set)
        ]

    builder = pivot.builder
    if builder_label:
        builder = _builder(lambda build=builder: build(), builder_label)
    return replace(
        pivot,
        builder=builder,
        coalition=coalition,
        pivots=members,
        metrics_parties=members,
        schedule_prefix=f"{pivot.schedule_prefix}{coalition}/",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="sum",
    )


@dataclass(frozen=True)
class DealShape:
    """What a deposit schedule prices at one premium: flat per-arc
    ``(kind, {arc: amount})`` tables in schedule order, then — when the
    deal has a digraph — the Equation-1 redemption flow over
    ``(graph, leaders)``, pruned per hosting contract by ``contract_of``."""

    tables: tuple[tuple[str, dict], ...]
    graph: object = None
    leaders: tuple[str, ...] = ()
    contract_of: dict | None = None


def _graph_shape(graph, leaders, premium: int) -> DealShape:
    from repro.core.premiums import escrow_premium_amounts

    return DealShape(
        tables=(("escrow", escrow_premium_amounts(graph, leaders, premium)),),
        graph=graph,
        leaders=leaders,
    )


class Family:
    """One registry entry.  Subclasses supply :meth:`pivot_cell`,
    :meth:`_slope` and :meth:`deal_shape`; the rest is generic."""

    name: str
    #: the graph name this entry is the canonical cell for ("" = none).
    graph_name: str = ""
    #: block builder labels (see :func:`_builder`); the coalition one
    #: defaults to the pivot's.
    builder_label: str
    coalition_builder_label: str = ""
    #: named joint pivots: coalition name -> members, in metric order.
    coalitions: dict[str, tuple[str, ...]] = {}
    #: True when :meth:`pi_star` is the paper's exact threshold, so the
    #: quote engine may answer from it; graph entries only estimate.
    exact: bool = True
    premium_base: int = PRINCIPAL
    shocked_notional: float = float(PRINCIPAL)

    def pivot_cell(self, premium: int) -> FamilyCell:
        raise NotImplementedError

    def _slope(self, members: tuple[str, ...]) -> int | None:
        """Staked premium per unit ``p`` facing outsiders of the pivot set
        (``()`` = the single pivot); ``None`` when no premium deters."""
        raise NotImplementedError

    def deal_shape(self, premium: int) -> DealShape:
        raise NotImplementedError

    def members(self, coalition: str) -> tuple[str, ...]:
        try:
            return self.coalitions[coalition]
        except KeyError:
            raise ValueError(
                f"unknown coalition {coalition!r} for family {self.name!r}; "
                f"known: {sorted(self.coalitions)}"
            ) from None

    def cell(self, coalition: str, premium: int) -> FamilyCell:
        """The cell context for the pivot (``coalition=""``) or a named
        coalition at one effective integer premium."""
        if not coalition:
            return self.pivot_cell(premium)
        members = self.members(coalition)
        return coalition_cell(
            self.pivot_cell(premium),
            coalition,
            members,
            self.coalition_builder_label,
        )

    def slope(self, coalition: str = "") -> int | None:
        return self._slope(self.members(coalition) if coalition else ())

    def pi_star(self, shock: float, coalition: str = "") -> float | None:
        """``notional · s / (slope · base)``, or ``None`` if un-hedgeable.

        The un-quantized π at which the staked premium equals the shocked
        value drop.  Exact for the named families; for other graphs an
        estimate, since stage timing can shift the measured boundary.
        """
        slope = self.slope(coalition)
        if not slope:
            return None
        return self.shocked_notional * shock / (slope * self.premium_base)


class TwoParty(Family):
    """§5.2 swap: rational Bob, shock on Alice's (incoming) token."""

    name = "two-party"
    builder_label = "_two_party_cell"

    def pivot_cell(self, premium: int) -> FamilyCell:
        from repro.checker import properties as props
        from repro.core.hedged_two_party import (
            HedgedTwoPartySpec,
            HedgedTwoPartySwap,
        )

        spec = HedgedTwoPartySpec(premium_a=2, premium_b=premium)
        builder = _builder(
            lambda spec=spec: HedgedTwoPartySwap(spec).build(),
            self.builder_label,
        )
        probe = builder()
        contracts = tuple(probe.contracts.values())

        def completed(instance) -> bool:
            return (
                instance.contract("apricot_escrow").principal_state == "redeemed"
                and instance.contract("banana_escrow").principal_state
                == "redeemed"
            )

        return _pivot_cell(
            self.name,
            spec.bob,
            contracts,
            premium=premium,
            builder=builder,
            base_values=(),
            shocked=spec.token_a,
            # Bob's premium lands at height 2; Alice escrows at height 3
            # and Bob's own escrow would land at height 4.
            named={"pre-stake": 1, "staked": 3},
            horizon=probe.horizon,
            properties=(props.no_stuck_escrow, props.two_party_hedged),
            completed=completed,
            schedule_prefix="",
        )

    def _slope(self, members):
        # Bob forfeits exactly his own premium p_b.
        return 1

    def deal_shape(self, premium: int) -> DealShape:
        from repro.graph.digraph import ring_graph

        # the 2-ring with P0 leading
        return _graph_shape(ring_graph(2), ("P0",), premium)


class GraphFamily(Family):
    """A multi-party swap over a digraph, hedged by Equations 1–2 (§7.1).

    The pivot is the first follower in sorted order, and the shock lands
    on its incoming asset from its first sorted in-neighbor.  The graph is
    rebuilt from its name on every use.
    """

    exact = False
    builder_label = "_graph_cell"

    def __init__(self, graph_name: str) -> None:
        self.graph_name = graph_name

    @property
    def name(self) -> str:
        return self.graph_name

    @property
    def prefix(self) -> str:
        return f"{self.name}/"

    def _parsed(self):
        """``(graph, leaders, pivot, shocked in-neighbor)``."""
        graph, leaders = parse_graph_family(self.graph_name)
        pivot = min(p for p in graph.parties if p not in leaders)
        return graph, leaders, pivot, min(graph.in_neighbors(pivot))

    def pivot_cell(self, premium: int) -> FamilyCell:
        from repro.checker import properties as props
        from repro.core.hedged_multi_party import HedgedMultiPartySwap

        graph, leaders, pivot, neighbor = self._parsed()
        builder = _builder(
            lambda p=premium, g=graph, l=leaders: HedgedMultiPartySwap(
                graph=g, premium=p, leaders=l
            ).build(),
            self.builder_label,
        )
        probe = builder()
        schedule = probe.meta["schedule"]
        arc_labels = tuple(sorted(probe.contracts))

        def completed(instance) -> bool:
            return all(
                instance.contract(label).principal_state == "redeemed"
                for label in arc_labels
            )

        return _pivot_cell(
            self.name,
            pivot,
            tuple(probe.contracts.values()),
            premium=premium,
            builder=builder,
            base_values=(),
            shocked=f"{neighbor.lower()}-token",
            # By phase 3 the pivot's escrow premium and its redemption
            # premiums are held; its principal is not yet escrowed
            # (followers escrow one round after the leaders).
            named={"pre-stake": 0, "staked": schedule.p3_start},
            horizon=schedule.horizon,
            properties=(props.no_stuck_escrow, props.multi_party_lemmas),
            completed=completed,
            schedule_prefix=self.prefix,
        )

    def _slope(self, members):
        # Both recurrences are linear in p with zero intercept, so p = 1
        # yields the slope: escrow premiums on arcs leaving the pivot set,
        # plus redemption deposits the set makes on arcs facing outsiders.
        # Deposits between members forfeit inside the set and deter nothing.
        from repro.core.premiums import (
            escrow_premium_amounts,
            redemption_premium_flow,
        )

        graph, leaders, pivot, _ = self._parsed()
        inside = set(members or (pivot,))
        slope = sum(
            amount
            for (src, dst), amount in escrow_premium_amounts(
                graph, leaders, 1
            ).items()
            if src in inside and dst not in inside
        )
        for deposit in redemption_premium_flow(graph, leaders, 1):
            if deposit.depositor in inside and not inside.issuperset(deposit.arc):
                slope += deposit.amount
        return slope

    @property
    def shocked_notional(self) -> float:
        """What the shocked in-neighbor owes the pivot."""
        graph, _, pivot, neighbor = self._parsed()
        return float(
            sum(
                graph.specs[arc].amount
                for arc in graph.in_arcs(pivot)
                if arc[0] == neighbor
            )
        )

    def deal_shape(self, premium: int) -> DealShape:
        return _graph_shape(*parse_graph_family(self.graph_name), premium)


class MultiParty(GraphFamily):
    """§7.1 ring:3 swap: rational P1, shock on the leader's token.

    The adjacent pair P1+P2 forfeits its shared arc's deposits to each
    other, so only the premiums facing P0 deter its joint walk.
    """

    name = "multi-party"
    prefix = "ring3/"
    coalitions = {"P1+P2": ("P1", "P2")}
    exact = True
    builder_label = "_multi_party_probe"

    def __init__(self) -> None:
        super().__init__("ring:3")


class Broker(Family):
    """§8.2 deal: rational seller Bob, shock on the coin he is paid in."""

    name = "broker"
    builder_label = "_broker_cell"
    coalition_builder_label = "_broker_coalition_cell"
    #: BrokerSpec's seller and buyer squeezing the broker.
    coalitions = {"seller+buyer": ("Bob", "Carol")}

    def pivot_cell(self, premium: int) -> FamilyCell:
        from repro.checker import properties as props
        from repro.core.hedged_broker import HedgedBrokerDeal
        from repro.protocols.base_broker import BrokerSpec

        spec = BrokerSpec()
        builder = _builder(
            lambda p=premium: HedgedBrokerDeal(premium=p).build(),
            self.builder_label,
        )
        probe = builder()
        deadlines = probe.meta["deadlines"]

        def completed(instance) -> bool:
            return (
                instance.contract("ticket").escrow_state == "redeemed"
                and instance.contract("coin").escrow_state == "redeemed"
            )

        return _pivot_cell(
            self.name,
            spec.seller,
            tuple(probe.contracts.values()),
            premium=premium,
            builder=builder,
            base_values=(
                # A ticket trades for seller_price coins: its fair value.
                (spec.ticket_token, float(spec.seller_price) / spec.tickets),
                (spec.coin_token, 1.0),
            ),
            shocked=spec.coin_token,
            # Activation height: all E/T/R premiums held, asset escrows
            # still one round out.
            named={"pre-stake": 0, "staked": deadlines.activation},
            horizon=deadlines.horizon,
            properties=(props.no_stuck_escrow, props.broker_bounds),
            completed=completed,
            schedule_prefix="",
        )

    def _slope(self, members):
        if members:
            # Deal redemption needs every party's hashkey, and the E/T/R
            # deposits all resolve *before* the payout round — so the
            # seller and buyer can always wait for the stake-free tail and
            # then withhold their keys together.  Walking then forfeits
            # nothing while completing still costs them the broker's
            # markup: no finite premium deters the joint walk.
            return None
        from repro.core.hedged_broker import broker_premium_tables
        from repro.core.premiums import pruned_redemption_premium_amount
        from repro.protocols.base_broker import BrokerSpec

        spec = BrokerSpec()
        tables = broker_premium_tables(spec, 1)
        # The binding deviation is *escrow, then withhold the key*: Bob can
        # still wreck the trade after escrowing, when his escrow premium
        # E(B,A) has already refunded and only his redemption premium
        # deposits (as redeemer of (A,B)) are forfeit.
        keys = tables["required_keys"][(spec.broker, spec.seller)]
        graph, contract_of = spec.graph(), tables["contract_of"]
        slope = 0
        for leader in keys:
            # every (seller → leader) path is unique in the deal digraph
            (path,) = graph.simple_paths(spec.seller, leader)
            slope += pruned_redemption_premium_amount(
                graph, path, spec.broker, 1, contract_of
            )
        return slope

    def deal_shape(self, premium: int) -> DealShape:
        from repro.core.hedged_broker import broker_premium_tables
        from repro.protocols.base_broker import BrokerSpec

        spec = BrokerSpec()
        tables = broker_premium_tables(spec, premium)
        return DealShape(
            tables=(
                ("trading", tables["trading"]),
                ("escrow", tables["escrow"]),
            ),
            graph=spec.graph(),
            leaders=(spec.broker, spec.seller, spec.buyer),
            contract_of=tables["contract_of"],
        )


class Auction(Family):
    """§9 auction: rational auctioneer, shock on the bid coin.

    Her walk-forfeit is p per bid placed, so π prices n·p against the
    best bid, with π quantized against ``best_bid // n``.
    """

    name = "auction"
    builder_label = "_auction_cell"

    @property
    def premium_base(self) -> int:
        from repro.core.hedged_auction import AuctionSpec

        spec = AuctionSpec()
        return max(spec.bids.values()) // len(spec.bidders)

    @property
    def shocked_notional(self) -> float:
        from repro.core.hedged_auction import AuctionSpec

        return float(max(AuctionSpec().bids.values()))

    def pivot_cell(self, premium: int) -> FamilyCell:
        from repro.checker import properties as props
        from repro.core.hedged_auction import AuctionSpec, HedgedAuction
        from repro.parties.rational import auction_model

        spec = AuctionSpec(premium=premium)
        best_bid = max(spec.bids.values(), default=0)
        builder = _builder(
            lambda spec=spec: HedgedAuction(spec=spec).build(),
            self.builder_label,
        )
        probe = builder()
        contracts = tuple(probe.contracts.values())

        def completed(instance) -> bool:
            return instance.contract("coin").outcome == "completed"

        def model_factory(prices):
            return auction_model(spec, prices, contracts)

        def gain_terms(view):
            # The model's two legs — best_bid · price(coin) − tickets ·
            # price(ticket) — as one single-term fold per leg ("diff").
            coin = view.chain(spec.coin_chain).asset(spec.coin_token)
            ticket = view.chain(spec.ticket_chain).asset(spec.ticket_token)
            return [[(1, best_bid, coin)], [(1, spec.tickets, ticket)]]

        return FamilyCell(
            family=self.name,
            coalition="",
            premium=premium,
            pivots=(spec.auctioneer,),
            metrics_parties=(spec.auctioneer,),
            builder=builder,
            contracts=contracts,
            base_values=(
                # Tickets are worth what the best bidder will pay for them.
                (spec.ticket_token, float(best_bid) / spec.tickets),
                (spec.coin_token, 1.0),
            ),
            shocked=spec.coin_token,
            # Bids land at height 2; the declaration round is round 2.
            named={"pre-stake": 0, "staked": 2},
            horizon=probe.horizon,
            properties=(props.no_stuck_escrow, props.auction_lemmas),
            completed=completed,
            schedule_prefix="",
            model_factory=model_factory,
            gain_terms=gain_terms,
            gain_shape="diff",
        )

    def _slope(self, members):
        from repro.core.hedged_auction import AuctionSpec

        return len(AuctionSpec().bidders)

    def deal_shape(self, premium: int) -> DealShape:
        from repro.core.hedged_auction import AuctionSpec

        # §9.2: the auctioneer posts the flat premium on every bid contract.
        spec = AuctionSpec()
        return DealShape(
            tables=(
                (
                    "escrow",
                    {(spec.auctioneer, bidder): premium for bidder in spec.bidders},
                ),
            )
        )


#: the named families, in grid order.
FAMILIES: dict[str, Family] = {
    entry.name: entry
    for entry in (TwoParty(), MultiParty(), Broker(), Auction())
}

#: graph names that *are* a named family's cell (``ring:3`` → multi-party).
NAMED_GRAPHS = {
    entry.graph_name: name for name, entry in FAMILIES.items() if entry.graph_name
}


def is_graph_family(family: str) -> bool:
    """True iff ``family`` names a graph-shaped multi-party cell."""
    if family == "figure3":
        return True
    kind, sep, count = family.partition(":")
    return (
        bool(sep)
        and kind in GRAPH_FAMILY_KINDS
        and count.isascii()
        and count.isdigit()
        and int(count) >= 2
    )


def parse_graph_family(family: str):
    """``(graph, leaders)`` for a graph-shaped family name, else ``None``.

    ``ring:N`` pins the canonical single leader ``P0`` (any one vertex
    breaks the only cycle); ``figure3`` pins the paper's leader ``A``;
    ``complete:N`` needs a genuine feedback vertex set, so it takes the
    deterministic :func:`~repro.graph.feedback.minimum_feedback_vertex_set`.
    The leaders are part of the family's identity: the same graph under a
    different leader set prices differently, and a name must mean one cell.
    """
    if not is_graph_family(family):
        return None
    from repro.graph.digraph import complete_graph, figure3_graph, ring_graph

    if family == "figure3":
        return figure3_graph(), ("A",)
    kind, _, count = family.partition(":")
    if kind == "ring":
        return ring_graph(int(count)), ("P0",)
    from repro.graph.feedback import minimum_feedback_vertex_set

    graph = complete_graph(int(count))
    return graph, minimum_feedback_vertex_set(graph)


def resolve_family(family: str) -> Family:
    """The registry entry for a named family or a graph name."""
    entry = FAMILIES.get(family)
    if entry is not None:
        return entry
    if is_graph_family(family):
        return GraphFamily(family)
    raise ValueError(
        f"unknown ablation family {family!r}; known: {sorted(FAMILIES)} "
        "or a graph-shaped family (ring:N, complete:N, figure3)"
    )
