"""Hypothesis property tests on the core data structures and invariants."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.experiment import ExperimentError, ExperimentSpec
from repro.chain.assets import Asset
from repro.chain.ledger import Ledger
from repro.core.hedged_two_party import HedgedTwoPartySpec, HedgedTwoPartySwap
from repro.core.outcomes import compliant_payoff_acceptable, extract_two_party_outcome
from repro.core.premiums import (
    escrow_premium_amounts,
    leader_redemption_total,
    redemption_premium_amount,
)
from repro.crypto.hashing import Secret
from repro.crypto.hashkeys import SignedPath
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.graph.digraph import SwapGraph
from repro.graph.feedback import is_feedback_vertex_set, minimum_feedback_vertex_set
from repro.parties.strategies import Deviant
from repro.protocols.instance import execute
from repro.quote.request import QuoteError, QuoteRequest

# ----------------------------------------------------------------------
# ledger conservation under arbitrary operation sequences
# ----------------------------------------------------------------------
ACCOUNTS = ["alice", "bob", "carol", "dave"]
ASSET = Asset("chain", "token")

ops = st.lists(
    st.tuples(
        st.sampled_from(["transfer", "begin", "commit", "rollback"]),
        st.sampled_from(ACCOUNTS),
        st.sampled_from(ACCOUNTS),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=40,
)


@given(ops)
def test_ledger_conserves_supply_under_any_ops(op_list):
    ledger = Ledger("chain")
    for account in ACCOUNTS:
        ledger.mint(ASSET, account, 100)
    depth = 0
    for op, src, dst, amount in op_list:
        try:
            if op == "transfer":
                ledger.transfer(ASSET, src, dst, amount)
            elif op == "begin":
                ledger.begin()
                depth += 1
            elif op == "commit" and depth:
                ledger.commit()
                depth -= 1
            elif op == "rollback" and depth:
                ledger.rollback()
                depth -= 1
        except Exception:
            pass  # insufficient funds etc. — balance must still be conserved
    assert ledger.total_supply(ASSET) == 400
    assert all(
        ledger.balance(ASSET, account) >= 0 for account in ACCOUNTS
    )


# ----------------------------------------------------------------------
# random strongly-connected digraphs: Equations 1 and 2 invariants
# ----------------------------------------------------------------------
@st.composite
def strongly_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    parties = [f"P{i}" for i in range(n)]
    # start from a ring (guarantees strong connectivity), add random arcs
    arcs = {(parties[i], parties[(i + 1) % n]) for i in range(n)}
    extra = draw(
        st.sets(
            st.tuples(st.sampled_from(parties), st.sampled_from(parties)).filter(
                lambda a: a[0] != a[1]
            ),
            max_size=n * 2,
        )
    )
    arcs |= extra
    return SwapGraph.build(parties, sorted(arcs))


@given(strongly_connected_graphs(), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_eq1_amounts_at_least_p_and_scale(graph, p):
    leaders = minimum_feedback_vertex_set(graph)
    for leader in leaders:
        for u in graph.in_neighbors(leader):
            amount = redemption_premium_amount(graph, (leader,), u, p)
            assert amount >= p
            assert amount % p == 0
            assert amount == p * redemption_premium_amount(graph, (leader,), u, 1)


@given(strongly_connected_graphs())
@settings(max_examples=60, deadline=None)
def test_eq2_follower_premiums_cover_outgoing(graph):
    """E(u,v) for follower v equals the sum of v's outgoing premiums —
    the passthrough invariant behind Lemma 3."""
    leaders = minimum_feedback_vertex_set(graph)
    premiums = escrow_premium_amounts(graph, leaders, 1)
    leader_set = set(leaders)
    for (u, v), amount in premiums.items():
        if v in leader_set:
            assert amount == leader_redemption_total(graph, v, 1)
        else:
            outgoing = sum(premiums[arc] for arc in graph.out_arcs(v))
            assert amount == outgoing


@given(strongly_connected_graphs())
@settings(max_examples=40, deadline=None)
def test_minimum_fvs_is_valid_and_minimal(graph):
    fvs = minimum_feedback_vertex_set(graph)
    assert is_feedback_vertex_set(graph, fvs)
    if fvs:
        # no strict subset of the found FVS works (minimality witness)
        for drop in fvs:
            smaller = tuple(x for x in fvs if x != drop)
            assert not is_feedback_vertex_set(graph, smaller)


# ----------------------------------------------------------------------
# signed path chains survive arbitrary extension orders
# ----------------------------------------------------------------------
@given(st.lists(st.sampled_from(["B", "C", "D", "E"]), unique=True, max_size=4))
@settings(max_examples=40)
def test_signed_path_chain_verifies_for_any_extension_order(extenders):
    registry = KeyRegistry()
    keys = {}
    for name in ["A", "B", "C", "D", "E"]:
        keys[name] = KeyPair.from_seed(f"k-{name}", owner=name)
        registry.register(keys[name])
    public_of = {name: kp.public for name, kp in keys.items()}
    chain = SignedPath.create("payload", keys["A"], "A")
    for name in extenders:
        chain = chain.extend(keys[name], name)
    assert chain.verify(registry, public_of)
    assert chain.length == 1 + len(extenders)
    assert chain.path[-1] == "A"


# ----------------------------------------------------------------------
# hedged two-party swap: Definition 1 under random deviation profiles
# ----------------------------------------------------------------------
deviation_profiles = st.fixed_dictionaries(
    {},
    optional={
        "Alice": st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sets(
                st.sampled_from(["deposit_premium", "escrow_principal", "redeem"]),
                max_size=2,
            ),
        ),
        "Bob": st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sets(
                st.sampled_from(["deposit_premium", "escrow_principal", "redeem"]),
                max_size=2,
            ),
        ),
    },
)


@given(deviation_profiles)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_two_party_definition1_under_random_deviations(profile):
    from repro.parties.strategies import SkipRule

    spec = HedgedTwoPartySpec()
    instance = HedgedTwoPartySwap(spec).build()
    deviations = {}
    for name, (halt, skips) in profile.items():
        rules = tuple(SkipRule(method=m) for m in skips)
        deviations[name] = (
            lambda actor, h=halt, r=rules: Deviant(actor, halt_round=h, skip_rules=r)
        )
    result = execute(instance, deviations)
    outcome = extract_two_party_outcome(instance, result)
    for party in ("Alice", "Bob"):
        if party not in profile:
            assert compliant_payoff_acceptable(outcome, party, spec)
    # liveness/no-stuck-escrow holds in every scenario
    for chain in instance.world.chains.values():
        for (asset, account), balance in chain.ledger.snapshot().items():
            assert not (account in chain.contracts and balance != 0)


# ----------------------------------------------------------------------
# secrets and hashlocks
# ----------------------------------------------------------------------
@given(st.binary(min_size=1, max_size=64))
def test_hashlock_roundtrip_any_preimage(preimage):
    secret = Secret(preimage)
    assert secret.hashlock.matches(preimage)
    assert not secret.hashlock.matches(preimage + b"\x00")


# ----------------------------------------------------------------------
# boundary admission: QuoteRequest / ExperimentSpec from_json
# ----------------------------------------------------------------------
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)


def _fields(valid: dict, required=()) -> st.SearchStrategy:
    """Objects over the known keys with plausible values, then at most one
    edit: a known key set to arbitrary JSON, or one stray key added."""
    plausible = st.fixed_dictionaries(
        {key: st.sampled_from(valid[key]) for key in required},
        optional={
            key: st.sampled_from(v)
            for key, v in valid.items()
            if key not in required
        },
    )
    known_edit = st.tuples(st.sampled_from(sorted(valid)), JSON_VALUES)
    stray_edit = st.tuples(
        st.text(max_size=6).filter(lambda key: key not in valid), JSON_VALUES
    )
    edit = st.one_of(st.none(), known_edit, known_edit, stray_edit)
    return st.builds(
        lambda obj, kv: {**obj, **dict([kv] if kv else [])}, plausible, edit
    )


QUOTE_KEYS = {
    "family": ["two-party", "broker", "multi-party"],
    "graph": ["ring:3", "complete:4", "figure3"],
    "coalition": [""],
    "shock": [0.045, 0.2],
    "stage": ["staked", "pre-stake", "round:2"],
    "tol": [0.01],
    "seed": [0, 3],
    "digest": ["0" * 64],
}
# A request names a family or a graph: build each shape on its own.
QUOTE_FIELDS = st.one_of(
    _fields({k: v for k, v in QUOTE_KEYS.items() if k != other}, (shape,))
    for shape, other in (("family", "graph"), ("graph", "family"))
)

SPEC_FIELDS = _fields({
    "kind": ["campaign", "ablate", "ablate-refine"],
    "matrix": [
        {"factory": "default"},
        {"factory": "ablation", "args": [], "kwargs": {"seed": 1}},
    ],
    "backend": ["serial", "process"],
    "workers": [None, 2],
    "limit": [None, 5],
    "shard": [None, [1, 2]],
    "tol": [None, 0.01],
    "engine": ["simulator", "kernel"],
    "expect": [{}, {"campaign": "0" * 64}],
    "digest": ["0" * 64],
}, required=("kind", "matrix"))


def _admits_or_refuses(load, error, obj) -> None:
    try:
        admitted = load(json.dumps(obj))
    except error:
        return
    assert load(admitted.to_json()).digest() == admitted.digest()


@settings(max_examples=100, deadline=None)
@given(QUOTE_FIELDS)
def test_quote_request_admission_never_escapes(obj):
    _admits_or_refuses(QuoteRequest.from_json, QuoteError, obj)


@settings(max_examples=100, deadline=None)
@given(SPEC_FIELDS)
def test_experiment_spec_admission_never_escapes(obj):
    _admits_or_refuses(ExperimentSpec.from_json, ExperimentError, obj)
