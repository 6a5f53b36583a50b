"""The rational-adversary ablation grid.

:func:`ablation_matrix` crosses protocol families with utility-driven
actors (`repro.parties.rational`) over premium fractions × price-shock
sizes × shock stages, producing an ordinary
:class:`repro.campaign.matrix.ScenarioMatrix` that runs through every
existing backend (serial, one-shot process pool, persistent
:class:`~repro.campaign.pool.WorkerPool`).

Each grid cell ``(family, π, s, stage)`` becomes one matrix block holding
two scenarios for the family's *pivot* party (the one whose incoming asset
takes the shock):

- the **comply** arm — an identity transform; the protocol completes and
  the pivot's realized utility under the shocked price path is the cost of
  honoring the deal,
- the **rational** arm — the pivot wrapped in a
  :class:`~repro.parties.rational.UtilityModel`; it walks away exactly
  when quitting beats finishing given its live premium stake.

Both arms carry a metrics hook recording ``completed`` and the pivot's
``utility`` (final balance deltas valued at the post-shock prices), which
is what :func:`repro.campaign.ablation.frontier.reduce_frontier` pairs
into deviation-profitability cells.

Premium sizing maps the grid fraction π onto each family's integer premium
knob against the pivot's principal value (e.g. two-party:
``p_b = round(π · amount_b)``); :func:`deterrence_stake` exposes the
resulting closed-form walk-forfeit at the staked stage, and
:func:`closed_form_pi_star` the continuous §5.2-style threshold the
refinement engine's bisected π* must bracket.

**Shock stages.**  A stage pins the shock height to protocol structure:

- the named stages ``pre-stake`` (before the pivot deposited anything —
  walking is free, no premium can deter it) and ``staked`` (premiums held,
  principal not yet locked — the window the paper's premiums are sized
  for) survive as aliases into each family's schedule,
- ``round:K`` pins the shock to height ``K`` directly, and the pseudo
  stage ``all`` expands to one ``round:K`` arm per protocol round of each
  family — the *dense stage sweep* that charts how the deterrent decays
  round by round.  Nothing is hard-coded per family: the binding deviation
  (e.g. the broker's escrow-then-withhold-the-key walk) emerges from the
  per-round utility rule, not from a named stage.

**Coalitions.**  With ``coalitions=True`` the grid adds *joint* pivot
blocks for the named two-party coalitions in :data:`ABLATION_COALITIONS`
(adjacent ring members walking together; seller + buyer squeezing the
broker).  Both members share one
:func:`~repro.parties.rational.coalition_model`, so they walk in the same
round exactly when the joint utility says collusion pays; the blocks carry
a ``coalition`` axis and expand only the compliant and the joint-rational
profile (``min_adversaries == max_adversaries == 2``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.canon import canon_float, fmt_fraction
from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.pool import MatrixSpec, register_matrix_factory
from repro.campaign.ablation.registry import (
    FAMILIES,
    PRINCIPAL,
    Family,
    FamilyCell,
    resolve_family,
)

ABLATION_FAMILIES = tuple(FAMILIES)

#: premium fractions π swept by the default grid (0 = unhedged baseline).
DEFAULT_PREMIUM_FRACTIONS = (0.0, 0.01, 0.02, 0.03, 0.05, 0.08)

#: relative price drops s; chosen off the grid's stake values so the
#: walk/complete decision is never a floating-point tie.
DEFAULT_SHOCK_FRACTIONS = (0.005, 0.015, 0.025, 0.045, 0.065, 0.105)

DEFAULT_STAGES = ("pre-stake", "staked")

#: the pseudo-stage expanding to one ``round:K`` arm per protocol round.
STAGE_ALL = "all"

#: the named two-party coalitions swept when ``coalitions=True``.
ABLATION_COALITIONS = {
    name: tuple(entry.coalitions)
    for name, entry in FAMILIES.items()
    if entry.coalitions
}


def scaled_premium(fraction: float, base: int = PRINCIPAL) -> int:
    """The integer premium a fraction π buys on a ``base`` principal."""
    return int(round(fraction * base))


def valid_stage(stage: str) -> bool:
    """True iff ``stage`` is a named stage, ``round:K``, or ``all``."""
    if stage in DEFAULT_STAGES or stage == STAGE_ALL:
        return True
    if stage.startswith("round:"):
        suffix = stage.split(":", 1)[1]
        return suffix.isascii() and suffix.isdigit()
    return False


def stage_heights(
    stages: tuple[str, ...], named: dict[str, int], horizon: int
) -> list[tuple[str, int]]:
    """Resolve stage labels into ``(stage, shock height)`` arms.

    ``named`` maps a family's named stages to their schedule heights;
    ``all`` expands to every protocol round ``round:0 .. round:horizon-1``;
    ``round:K`` passes through.  Duplicate labels collapse, order is
    preserved.
    """
    out: list[tuple[str, int]] = []
    seen: set[str] = set()
    for stage in stages:
        if stage == STAGE_ALL:
            expanded = [(f"round:{h}", h) for h in range(horizon)]
        elif stage.startswith("round:"):
            expanded = [(stage, int(stage.split(":", 1)[1]))]
        else:
            expanded = [(stage, named[stage])]
        for label, height in expanded:
            if label not in seen:
                seen.add(label)
                out.append((label, height))
    return out


def _comply(actor):
    return actor


def _make_strategies(party: str, transform):
    """The two arms of one cell, as checker-style named strategies."""
    from repro.checker.strategies import NamedStrategy

    return {
        party: (
            NamedStrategy(label="comply", transform=_comply),
            NamedStrategy(label="rational", transform=transform),
        )
    }


def _make_coalition_strategies(transforms: dict[str, object]):
    """One joint-rational strategy per member; the comply arm is the
    block's all-compliant profile (``min_adversaries=2`` suppresses the
    spurious single-member profiles)."""
    from repro.checker.strategies import NamedStrategy

    return {
        party: (NamedStrategy(label="rational", transform=transform),)
        for party, transform in transforms.items()
    }


def _make_metrics(parties, prices, completed):
    """The cell's digest-covered metrics: completion flag + pivot utility.

    ``parties`` may be one pivot or a coalition tuple; the utility metric
    is the (joint) realized value of the pivot set at post-shock prices.
    """
    if isinstance(parties, str):
        parties = (parties,)

    def metrics(instance, result):
        return (
            ("completed", 1.0 if completed(instance) else 0.0),
            (
                "utility",
                sum(
                    result.payoffs.realized_utility(p, prices, instance.horizon)
                    for p in parties
                ),
            ),
        )

    return metrics


def _axes(
    pi: float,
    premium: int,
    shock: float,
    stage: str,
    height: int,
    coalition: str = "",
):
    """Cell coordinates; ``premium`` is the *effective* integer premium the
    fraction π bought after rounding, recorded so a quantized grid (e.g.
    π = 0.025 on a 100 principal → premium 2) can never misstate what
    actually hedged the run.  Coalition cells carry their pivot-set name as
    an extra axis so the frontier reducer prices them separately."""
    axes = [
        ("pi", fmt_fraction(pi)),
        ("premium", str(premium)),
        ("shock", fmt_fraction(shock)),
        ("stage", stage),
        ("shock_height", str(height)),
    ]
    if coalition:
        axes.append(("coalition", coalition))
    return tuple(axes)


def _add_cell_blocks(matrix, cell: FamilyCell, pi, shock_fractions, stages) -> None:
    """Expand one cell context into its comply/rational blocks."""
    from repro.parties.rational import TokenPrices, rational_party

    for shock in shock_fractions:
        for stage, height in stage_heights(stages, cell.named, cell.horizon):
            prices = TokenPrices(
                base=cell.base_values,
                shocked=cell.shocked,
                fraction=shock,
                at_height=height,
            )

            def transform(actor, cell=cell, prices=prices):
                return rational_party(actor, cell.model_factory(prices))

            if cell.coalition:
                strategies = _make_coalition_strategies(
                    {member: transform for member in cell.pivots}
                )
                expansion = dict(
                    max_adversaries=2, min_adversaries=2, include_compliant=True
                )
            else:
                strategies = _make_strategies(cell.pivots[0], transform)
                expansion = dict(max_adversaries=1, include_compliant=False)
            matrix.add_block(
                family=cell.family,
                schedule=(
                    f"{cell.schedule_prefix}pi{fmt_fraction(pi)}"
                    f"/s{fmt_fraction(shock)}@{stage}"
                ),
                builder=cell.builder,
                properties=cell.properties,
                strategies=strategies,
                extra_axes=_axes(
                    pi, cell.premium, shock, stage, height, cell.coalition
                ),
                metrics=_make_metrics(cell.metrics_parties, prices, cell.completed),
                **expansion,
            )


def _add_family_blocks(
    matrix, entry: Family, coalition: str, premium_fractions, shock_fractions, stages
) -> None:
    """Expand one (family, coalition) pair of cell contexts over π."""
    for pi in premium_fractions:
        cell = entry.cell(coalition, scaled_premium(pi, entry.premium_base))
        _add_cell_blocks(matrix, cell, pi, shock_fractions, stages)


# ----------------------------------------------------------------------
# closed-form thresholds (for the deterrence-theorem tests)
# ----------------------------------------------------------------------
def deterrence_stake(family: str, pi: float) -> float:
    """The pivot's walk-forfeit at the ``staked`` stage, in value units.

    The rational pivot walks iff the shocked value drop exceeds this stake
    (``PRINCIPAL · s > stake`` for the swap families, ``best_bid · s`` for
    the auction), so ``stake / principal_value`` is the closed-form
    deterrence threshold the measured frontier must reproduce.
    """
    return coalition_deterrence_stake(family, "", pi)


def coalition_deterrence_stake(family: str, coalition: str, pi: float) -> float | None:
    """The pivot set's *outsider-facing* walk-forfeit at the staked stage
    (``coalition=""`` is the single pivot).

    Internal deposits (member-to-member forfeits) are excluded — they
    move value inside the coalition, so they deter nothing.  Returns
    ``None`` when no finite stake deters the joint walk at any premium
    (the broker coalition).
    """
    entry = resolve_family(family)
    slope = entry.slope(coalition)
    if slope is None:
        return None
    return float(slope * scaled_premium(pi, entry.premium_base))


def shocked_notional(family: str) -> float:
    """The value the staked-stage shock applies to (denominator of s*)."""
    return resolve_family(family).shocked_notional


def premium_base(family: str) -> int:
    """The base notional a family's π is quantized against: the integer
    premium a fraction buys is ``round(π · premium_base)``."""
    return resolve_family(family).premium_base


def closed_form_pi_star(family: str, shock: float) -> float | None:
    """The continuous §5.2-style deterrence threshold for a staked shock.

    The un-quantized π at which the pivot's stake (linear in the integer
    premium: two-party ``p_b``, ring ``4p``, broker ``3p``, auction
    ``n·p``) equals the shocked value drop.  The *measured* (bisected) π*
    differs from this by at most half a premium unit of quantization,
    ``0.5 / premium_base`` — well inside the refinement engine's default
    tolerance of 1/64.  For graph families beyond the named four it is
    an estimate of the same inequality.
    """
    return resolve_family(family).pi_star(shock)


def closed_form_coalition_pi_star(
    family: str, coalition: str, shock: float
) -> float | None:
    """The continuous collusive deterrence threshold, or ``None``.

    Same formula over the coalition's outsider-facing stake
    (:func:`coalition_deterrence_stake`).  For the ring-adjacent
    ``P1+P2`` pair the external stake (``3p`` escrow toward P0 plus ``p``
    redemption) equals the single pivot's ``4p``, so collusion never pays
    a discount.  ``None`` means the walk is un-hedgeable rent: the
    broker's ``seller+buyer`` pair always finds a stake-free round from
    which withholding keys strands the markup.
    """
    return resolve_family(family).pi_star(shock, coalition)


# ----------------------------------------------------------------------
# the grid and its registered factories
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationGrid:
    """A declarative (families × π × s × stage) grid specification."""

    families: tuple[str, ...] = ABLATION_FAMILIES
    premium_fractions: tuple[float, ...] = DEFAULT_PREMIUM_FRACTIONS
    shock_fractions: tuple[float, ...] = DEFAULT_SHOCK_FRACTIONS
    stages: tuple[str, ...] = DEFAULT_STAGES
    coalitions: bool = False
    seed: int = 0

    def cells(self) -> int:
        """Single-pivot cell count (exact for named stages; the ``all``
        pseudo-stage and coalition blocks add more — build the matrix and
        count its blocks for those)."""
        return (
            len(self.families)
            * len(self.premium_fractions)
            * len(self.shock_fractions)
            * len(self.stages)
        )

    def matrix(self) -> ScenarioMatrix:
        return ablation_matrix(
            families=self.families,
            premium_fractions=self.premium_fractions,
            shock_fractions=self.shock_fractions,
            stages=self.stages,
            coalitions=self.coalitions,
            seed=self.seed,
        )


def _validate_grid(families, stages) -> None:
    unknown = set()
    for family in families:
        try:
            resolve_family(family)
        except ValueError:
            unknown.add(family)
    if unknown:
        raise ValueError(
            f"unknown ablation families {sorted(unknown)}; "
            f"known: {sorted(FAMILIES)} or graph-shaped "
            "(ring:N, complete:N, figure3)"
        )
    bad_stages = [stage for stage in stages if not valid_stage(stage)]
    if bad_stages:
        raise ValueError(
            f"unknown shock stages {sorted(bad_stages)}; "
            f"known: {list(DEFAULT_STAGES)}, 'round:K', or 'all'"
        )


def ablation_matrix_spec(
    families: tuple[str, ...] | None = None,
    premium_fractions: tuple[float, ...] | None = None,
    shock_fractions: tuple[float, ...] | None = None,
    stages: tuple[str, ...] | None = None,
    coalitions: bool = False,
    seed: int = 0,
) -> MatrixSpec:
    """The (validated, normalized) rebuild recipe of :func:`ablation_matrix`
    — computable without expanding a single block, which is what lets
    experiment specs be emitted cheaply.  :func:`ablation_matrix` builds
    from this same recipe, so ``ablation_matrix(...).spec`` and
    ``ablation_matrix_spec(...)`` are always equal.
    """
    families = tuple(families) if families is not None else ABLATION_FAMILIES
    premium_fractions = (
        tuple(canon_float(p) for p in premium_fractions)
        if premium_fractions is not None
        else DEFAULT_PREMIUM_FRACTIONS
    )
    shock_fractions = (
        tuple(canon_float(s) for s in shock_fractions)
        if shock_fractions is not None
        else DEFAULT_SHOCK_FRACTIONS
    )
    stages = tuple(stages) if stages is not None else DEFAULT_STAGES
    _validate_grid(families, stages)
    return MatrixSpec(
        factory="ablation",
        kwargs=(
            ("coalitions", coalitions),
            ("families", families),
            ("premium_fractions", premium_fractions),
            ("seed", seed),
            ("shock_fractions", shock_fractions),
            ("stages", stages),
        ),
    )


@register_matrix_factory("ablation")
def ablation_matrix(
    families: tuple[str, ...] | None = None,
    premium_fractions: tuple[float, ...] | None = None,
    shock_fractions: tuple[float, ...] | None = None,
    stages: tuple[str, ...] | None = None,
    coalitions: bool = False,
    seed: int = 0,
) -> ScenarioMatrix:
    """Build the rational-adversary ablation matrix for the given grid.

    Registered as the ``ablation`` worker-pool factory: the returned
    matrix carries a :class:`~repro.campaign.pool.MatrixSpec` rebuild
    recipe made only of the primitive grid parameters, so persistent pools
    rebuild it worker-side and verify the structural digest before running
    anything.
    """
    spec = ablation_matrix_spec(
        families=families,
        premium_fractions=premium_fractions,
        shock_fractions=shock_fractions,
        stages=stages,
        coalitions=coalitions,
        seed=seed,
    )
    kwargs = dict(spec.kwargs)
    families = kwargs["families"]
    premium_fractions = kwargs["premium_fractions"]
    shock_fractions = kwargs["shock_fractions"]
    stages = kwargs["stages"]
    matrix = ScenarioMatrix(seed=seed)
    for family in families:
        entry = resolve_family(family)
        for coalition in ("", *entry.coalitions) if coalitions else ("",):
            _add_family_blocks(
                matrix, entry, coalition, premium_fractions, shock_fractions, stages
            )
    matrix.spec = spec
    return matrix


@register_matrix_factory("ablation_cell")
def ablation_cell(
    family: str,
    pi: float,
    shock: float,
    stage: str,
    coalition: str = "",
    seed: int = 0,
) -> ScenarioMatrix:
    """One ``(family, π, shock, stage)`` cell as a standalone matrix.

    The refinement engine's probe unit: a two-scenario (comply/rational)
    matrix at an arbitrary — typically bisected — premium fraction,
    registered as its own pool factory so probes dispatch through a
    persistent :class:`~repro.campaign.pool.WorkerPool` with the same
    worker-side digest audit as full grids.  ``coalition`` selects a named
    joint-pivot cell instead of the family's single pivot.
    """
    entry = resolve_family(family)
    if not valid_stage(stage) or stage == STAGE_ALL:
        raise ValueError(
            f"ablation_cell needs one concrete stage, got {stage!r} "
            f"(known: {list(DEFAULT_STAGES)} or 'round:K')"
        )
    pi = canon_float(pi)
    shock = canon_float(shock)
    matrix = ScenarioMatrix(seed=seed)
    _add_family_blocks(matrix, entry, coalition, (pi,), (shock,), (stage,))
    matrix.spec = MatrixSpec(
        factory="ablation_cell",
        kwargs=(
            ("coalition", coalition),
            ("family", family),
            ("pi", pi),
            ("seed", seed),
            ("shock", shock),
            ("stage", stage),
        ),
    )
    return matrix
