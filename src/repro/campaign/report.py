"""The common Report protocol: one serialization contract for every engine.

PRs 1–4 grew three parallel report types — :class:`~repro.campaign.runner.
CampaignReport`, :class:`~repro.campaign.ablation.frontier.FrontierReport`,
and :class:`~repro.campaign.ablation.refine.RefinedFrontierReport` — each
with its own JSON transport and its own merge entry point.  This module is
the spine that makes them one family:

- every report class registers under a short ``kind`` string
  (:func:`register_report`), which it stamps into its JSON payload,
- :func:`report_from_json` dispatches deserialization on that ``kind``,
- :func:`merge_reports_any` is the kind-aware merge behind the CLI's
  single ``merge`` subcommand: homogeneous inputs dispatch to the class's
  own ``merge``; a reduced artifact (frontier, refined frontier) says
  explicitly that its *underlying campaign shards* are what merge.

Like the matrix-factory registry in :mod:`repro.campaign.pool`, the
standard report modules are imported lazily on first lookup, so this
module stays import-cycle-free while ``kind`` strings remain resolvable
from anywhere (CLI, tests, cross-host tooling).

Digest rules are unchanged by the protocol: each kind keeps computing its
digest exactly as before (the ``kind`` field rides in the JSON envelope
only), so every report digest produced since PR 1 is reproduced
byte-identically.
"""

from __future__ import annotations

import importlib
import json
from typing import Iterable, Protocol, Type, runtime_checkable


@runtime_checkable
class Report(Protocol):
    """What every campaign-engine report exposes.

    ``kind`` names the report type (the registry key), ``digest`` is the
    reproducibility digest provenance claims should cite, ``to_json`` /
    ``from_json`` round-trip the report with tamper detection, and
    ``merge`` recombines shard reports of the same kind (reduced
    artifacts raise with guidance instead).
    """

    kind: str

    @property
    def digest(self) -> str: ...  # pragma: no cover - protocol

    def to_json(self) -> str: ...  # pragma: no cover - protocol

    @classmethod
    def from_json(cls, text: str) -> "Report": ...  # pragma: no cover

    @classmethod
    def merge(cls, reports: "Iterable[Report]") -> "Report": ...  # pragma: no cover


_REPORT_KINDS: dict[str, Type] = {}

#: modules whose import registers the shipped report kinds; imported
#: lazily because each imports this module back for `register_report`.
_STANDARD_REPORT_MODULES = (
    "repro.campaign.runner",
    "repro.campaign.ablation.frontier",
    "repro.campaign.ablation.refine",
)


def register_report(kind: str):
    """Class decorator: register a report type under ``kind``.

    Stamps ``cls.kind`` so instances can label their own JSON envelope::

        @register_report("campaign")
        @dataclass
        class CampaignReport: ...
    """

    def decorate(cls):
        cls.kind = kind
        _REPORT_KINDS[kind] = cls
        return cls

    return decorate


def registered_report_kinds() -> tuple[str, ...]:
    """The currently registered kinds (sorted), for audits and errors."""
    for module in _STANDARD_REPORT_MODULES:
        importlib.import_module(module)
    return tuple(sorted(_REPORT_KINDS))


def report_class(kind: str) -> Type:
    """Resolve a kind to its report class, importing standard modules."""
    if kind not in _REPORT_KINDS:
        for module in _STANDARD_REPORT_MODULES:
            importlib.import_module(module)
    if kind not in _REPORT_KINDS:
        raise KeyError(
            f"unknown report kind {kind!r}; "
            f"registered: {list(registered_report_kinds())}"
        )
    return _REPORT_KINDS[kind]


def report_from_json(text: str) -> Report:
    """Deserialize any registered report, dispatching on its ``kind``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"not a JSON report: {err}")
    if not isinstance(data, dict):
        raise ValueError(f"not a JSON report object: got {type(data).__name__}")
    kind = data.get("kind")
    if not kind:
        raise ValueError(
            "not a recognizable report: no 'kind' field (registered: "
            f"{list(registered_report_kinds())})"
        )
    try:
        cls = report_class(kind)
    except KeyError as err:
        raise ValueError(str(err))
    try:
        return cls.from_json(text)
    except (KeyError, TypeError) as err:
        # e.g. a payload whose stamped kind does not match its shape
        raise ValueError(f"malformed {kind!r} report payload: {err!r}")


def check_kind(cls, data: dict) -> None:
    """Shared ``from_json`` guard: a stamped kind must match the class.

    Files written before the protocol carry no ``kind`` — those pass (the
    shape already matched the deserializer the caller chose).
    """
    stamped = data.get("kind")
    if stamped is not None and stamped != cls.kind:
        raise ValueError(
            f"report kind mismatch: payload says {stamped!r} but "
            f"{cls.__name__} deserializes {cls.kind!r} — use "
            "repro.campaign.report.report_from_json for kind dispatch"
        )


def merge_reports_any(reports: Iterable[Report]) -> Report:
    """Kind-aware merge: dispatch homogeneous reports to their own merge.

    The engine behind the CLI's one ``merge`` subcommand: campaign shards
    (from either matrix shape) recombine via the class merge; mixed kinds,
    or reduced artifacts whose class merge raises, fail with guidance.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge: empty report list")
    kinds = {type(report).kind for report in reports}
    if len(kinds) > 1:
        raise ValueError(
            f"cannot merge mixed report kinds {sorted(kinds)}: merge each "
            "kind separately"
        )
    return type(reports[0]).merge(reports)
