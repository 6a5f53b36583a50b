"""Reduce an ablation campaign into a deviation-profitability frontier.

:func:`reduce_frontier` consumes the :class:`~repro.campaign.runner.CampaignReport`
an ablation matrix produced — on any backend, merged from any shards — and
pairs each grid cell's two arms into a :class:`FrontierCell`:

- ``walked``: did the rational pivot (or pivot coalition) abandon the
  protocol?
- ``deviation_gain``: rational-arm utility minus comply-arm utility, both
  measured on live runs at post-shock prices — deviating *paid* iff this
  is positive,
- ``victim_net``: the best premium compensation any non-pivot party
  collected in the rational arm (zero when the walk was victimless); for
  coalition cells every member counts as a pivot, so compensation flowing
  *inside* the coalition can never masquerade as victim relief.

Cells aggregate into :class:`FrontierRow` per ``(family, stage, shock)``
and — when the grid swept coalitions — into :class:`CoalitionFrontierRow`
per ``(family, coalition, stage, shock)``: ``pi_star`` is the smallest
swept premium fraction at which the (joint) pivot completes — the measured
deterrence frontier.  ``None`` means no swept premium deters that shock
(always the case at the ``pre-stake`` stage, where walking forfeits
nothing).

Digest rules: the frontier digest hashes a preamble naming the underlying
run digest and coverage, then every row and cell in canonical order —
coalition rows included.  The run digest already folds in the matrix
identity and the effective selection, so a frontier from a partial run can
never collide with one from full coverage, and serial/process/sharded-then-
merged runs of the same grid yield byte-identical frontier digests.  All
float fields pass through :func:`repro.campaign.canon.canon_float`, so a
bisected premium deserialized on another host hashes identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from hashlib import sha256
from typing import Iterable

from repro.campaign.canon import canon_float, canon_opt, fmt_fraction
from repro.campaign.report import check_kind, register_report
from repro.campaign.runner import CampaignReport


@dataclass(frozen=True)
class FrontierCell:
    """One measured grid cell: a (family, stage, shock, π) pair of arms."""

    family: str
    stage: str
    shock: float
    pi: float
    walked: bool
    rational_utility: float
    comply_utility: float
    victim_net: int
    #: the joint-pivot name for coalition cells ("" = single pivot).
    coalition: str = ""

    @property
    def deviation_gain(self) -> float:
        return self.rational_utility - self.comply_utility

    @property
    def deviation_profitable(self) -> bool:
        return self.deviation_gain > 0

    def describe(self) -> str:
        return "|".join(
            (
                self.family,
                self.coalition,
                self.stage,
                repr(canon_float(self.shock)),
                repr(canon_float(self.pi)),
                "walked" if self.walked else "completed",
                repr(canon_float(self.rational_utility)),
                repr(canon_float(self.comply_utility)),
                str(self.victim_net),
            )
        )


@dataclass(frozen=True)
class FrontierRow:
    """The frontier along π for one (family, stage, shock) line."""

    family: str
    stage: str
    shock: float
    #: smallest swept π at which the rational pivot completes; None if the
    #: shock stays profitable to walk from at every swept premium.
    pi_star: float | None
    cells: tuple[FrontierCell, ...]

    @property
    def deterred(self) -> bool:
        return self.pi_star is not None


@dataclass(frozen=True)
class CoalitionFrontierRow:
    """The frontier along π for one *joint* pivot set.

    Same reduction as :class:`FrontierRow`, keyed additionally by the
    coalition name; its ``pi_star`` prices the collusive walk — at least
    the single-pivot threshold, since member-to-member forfeits deter
    nothing.
    """

    family: str
    coalition: str
    stage: str
    shock: float
    pi_star: float | None
    cells: tuple[FrontierCell, ...]

    @property
    def deterred(self) -> bool:
        return self.pi_star is not None


@register_report("frontier")
@dataclass(frozen=True)
class FrontierReport:
    """The reduced frontier plus its reproducibility digest.

    A registered :class:`~repro.campaign.report.Report` of kind
    ``"frontier"``.  It is a *reduced* artifact: ``merge`` raises with
    guidance, because the mergeable unit is the underlying campaign shard
    report (merge those, then :func:`reduce_frontier` the result).
    """

    matrix_digest: str
    run_digest: str
    complete: bool
    scenarios: int
    total_scenarios: int
    rows: tuple[FrontierRow, ...]
    coalition_rows: tuple[CoalitionFrontierRow, ...] = ()
    digest: str = ""

    @property
    def cells(self) -> tuple[FrontierCell, ...]:
        return tuple(cell for row in self.rows for cell in row.cells)

    @property
    def coalition_cells(self) -> tuple[FrontierCell, ...]:
        return tuple(cell for row in self.coalition_rows for cell in row.cells)

    def families(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.family, None)
        for row in self.coalition_rows:
            seen.setdefault(row.family, None)
        return tuple(seen)

    def row(self, family: str, stage: str, shock: float) -> FrontierRow:
        for candidate in self.rows:
            if (candidate.family, candidate.stage, candidate.shock) == (
                family,
                stage,
                shock,
            ):
                return candidate
        raise KeyError(f"no frontier row ({family}, {stage}, {shock})")

    def coalition_row(
        self, family: str, coalition: str, stage: str, shock: float
    ) -> CoalitionFrontierRow:
        for candidate in self.coalition_rows:
            key = (candidate.family, candidate.coalition, candidate.stage,
                   candidate.shock)
            if key == (family, coalition, stage, shock):
                return candidate
        raise KeyError(
            f"no coalition frontier row ({family}, {coalition}, {stage}, {shock})"
        )

    def stages(self, family: str) -> tuple[str, ...]:
        """The stage labels swept for one family (coalition rows included),
        in row order."""
        seen: dict[str, None] = {}
        for row in (*self.rows, *self.coalition_rows):
            if row.family == family:
                seen.setdefault(row.stage, None)
        return tuple(seen)

    def summary(self) -> str:
        deterred = sum(1 for row in self.rows if row.deterred)
        coverage = (
            "full coverage"
            if self.complete
            else f"PARTIAL coverage {self.scenarios}/{self.total_scenarios}"
        )
        coalition = (
            f", {len(self.coalition_rows)} coalition lines"
            if self.coalition_rows
            else ""
        )
        return (
            f"frontier: {len(self.rows)} (family × stage × shock) lines over "
            f"{len(self.cells)} cells, {deterred} deterred{coalition} "
            f"({coverage})"
        )

    def table(self) -> str:
        """A printable frontier table (one line per row)."""
        lines = [
            f"{'family':<12} {'pivot':<14} {'stage':<10} {'shock':>7}  {'pi*':>6}  "
            f"{'walk premiums':<24} profitable-deviation span"
        ]

        def render(row, pivot: str) -> str:
            walked = [cell.pi for cell in row.cells if cell.walked]
            profitable = [
                cell.pi for cell in row.cells if cell.deviation_profitable
            ]
            # fmt_fraction, not %g: the printed axes must read exactly
            # like the digest-covered scenario labels ('g' is lossy past
            # six significant digits, so two distinct deeply-bisected
            # premiums could print identically while differing in the
            # digest — ungreppable).
            return (
                f"{row.family:<12} {pivot:<14} {row.stage:<10} "
                f"{fmt_fraction(row.shock):>7}  "
                f"{'-' if row.pi_star is None else fmt_fraction(row.pi_star):>6}  "
                f"{','.join(fmt_fraction(p) for p in walked) or '-':<24} "
                f"{','.join(fmt_fraction(p) for p in profitable) or '-'}"
            )

        for row in self.rows:
            lines.append(render(row, "pivot"))
        for row in self.coalition_rows:
            lines.append(render(row, row.coalition))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, reports: "Iterable[FrontierReport]") -> "FrontierReport":
        raise ValueError(
            "frontier reports are reduced artifacts and do not merge: merge "
            "the underlying campaign shard reports (written by `ablate "
            "--shard I/N --out`) and reduce the merged report instead"
        )

    def to_json(self) -> str:
        def cell_payload(cell: FrontierCell) -> dict:
            return {
                "pi": canon_float(cell.pi),
                "walked": cell.walked,
                "rational_utility": canon_float(cell.rational_utility),
                "comply_utility": canon_float(cell.comply_utility),
                "victim_net": cell.victim_net,
            }

        def row_payload(row) -> dict:
            payload = {
                "family": row.family,
                "stage": row.stage,
                "shock": canon_float(row.shock),
                "pi_star": None if row.pi_star is None else canon_float(row.pi_star),
                "cells": [cell_payload(cell) for cell in row.cells],
            }
            if isinstance(row, CoalitionFrontierRow):
                payload["coalition"] = row.coalition
            return payload

        return json.dumps(
            {
                "kind": self.kind,
                "matrix_digest": self.matrix_digest,
                "run_digest": self.run_digest,
                "complete": self.complete,
                "scenarios": self.scenarios,
                "total_scenarios": self.total_scenarios,
                "rows": [row_payload(row) for row in self.rows],
                "coalition_rows": [
                    row_payload(row) for row in self.coalition_rows
                ],
                "digest": self.digest,
            },
            indent=None,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FrontierReport":
        data = json.loads(text)
        check_kind(cls, data)

        def cells_of(row: dict, coalition: str) -> tuple[FrontierCell, ...]:
            return tuple(
                FrontierCell(
                    family=row["family"],
                    stage=row["stage"],
                    shock=canon_float(row["shock"]),
                    pi=canon_float(cell["pi"]),
                    walked=bool(cell["walked"]),
                    rational_utility=canon_float(cell["rational_utility"]),
                    comply_utility=canon_float(cell["comply_utility"]),
                    victim_net=int(cell["victim_net"]),
                    coalition=coalition,
                )
                for cell in row["cells"]
            )

        def pi_star_of(row: dict) -> float | None:
            return None if row["pi_star"] is None else canon_float(row["pi_star"])

        rows = tuple(
            FrontierRow(
                family=row["family"],
                stage=row["stage"],
                shock=canon_float(row["shock"]),
                pi_star=pi_star_of(row),
                cells=cells_of(row, ""),
            )
            for row in data["rows"]
        )
        coalition_rows = tuple(
            CoalitionFrontierRow(
                family=row["family"],
                coalition=row["coalition"],
                stage=row["stage"],
                shock=canon_float(row["shock"]),
                pi_star=pi_star_of(row),
                cells=cells_of(row, row["coalition"]),
            )
            for row in data.get("coalition_rows", [])
        )
        report = cls(
            matrix_digest=data["matrix_digest"],
            run_digest=data["run_digest"],
            complete=bool(data["complete"]),
            scenarios=int(data["scenarios"]),
            total_scenarios=int(data["total_scenarios"]),
            rows=rows,
            coalition_rows=coalition_rows,
        )
        report = _with_digest(report)
        if report.digest != data["digest"]:
            raise ValueError(
                "frontier digest mismatch after deserialization: "
                f"{report.digest[:16]} != {data['digest'][:16]}"
            )
        return report


def _with_digest(report: FrontierReport) -> FrontierReport:
    """Stamp the canonical digest: every header field and every row/cell.

    The preamble binds the matrix identity, the run digest, and the
    coverage claim; each row line binds its ``pi_star``.  Tampering with
    any headline value in a serialized frontier therefore fails
    :meth:`FrontierReport.from_json`'s recomputation.
    """
    digest = sha256(
        f"frontier|matrix={report.matrix_digest}|run={report.run_digest}"
        f"|complete={report.complete}"
        f"|coverage={report.scenarios}/{report.total_scenarios}".encode()
    )
    for row in report.rows:
        digest.update(b"\n")
        digest.update(
            f"row|{row.family}|{row.stage}|{canon_float(row.shock)!r}"
            f"|pi_star={canon_opt(row.pi_star)!r}".encode()
        )
        for cell in row.cells:
            digest.update(b"\n")
            digest.update(cell.describe().encode())
    for row in report.coalition_rows:
        digest.update(b"\n")
        digest.update(
            f"coalition-row|{row.family}|{row.coalition}|{row.stage}"
            f"|{canon_float(row.shock)!r}"
            f"|pi_star={canon_opt(row.pi_star)!r}".encode()
        )
        for cell in row.cells:
            digest.update(b"\n")
            digest.update(cell.describe().encode())
    return replace(report, digest=digest.hexdigest())


def reduce_frontier(report: CampaignReport) -> FrontierReport:
    """Pair arms and reduce a campaign report into the frontier.

    Requires an ablation-shaped report: every result carries ``pi``,
    ``shock``, and ``stage`` axes and a ``comply``/``rational`` strategy
    coordinate (coalition cells use the all-``compliant`` profile as their
    comply arm).  A cell missing one arm (e.g. a lone shard) raises —
    merge the shards first (:func:`repro.campaign.runner.merge_reports`).
    """
    arms: dict[tuple[str, str, str, float, float], dict[str, object]] = {}
    for result in report.results:
        axes = dict(result.axes)
        if "pi" not in axes or "shock" not in axes or "stage" not in axes:
            raise ValueError(
                f"not an ablation result: {result.label!r} lacks pi/shock/stage "
                "axes — reduce_frontier needs a report from ablation_matrix"
            )
        key = (
            axes["family"],
            axes.get("coalition", ""),
            axes["stage"],
            canon_float(axes["shock"]),
            canon_float(axes["pi"]),
        )
        arms.setdefault(key, {})[axes["strategy"]] = result
    cells = []
    for key in sorted(arms):
        pair = arms[key]
        # A coalition cell's comply arm is the all-compliant profile.
        comply = pair.get("comply", pair.get("compliant"))
        rational = pair.get("rational")
        missing = [
            arm
            for arm, result in (("comply", comply), ("rational", rational))
            if result is None
        ]
        if missing:
            raise ValueError(
                f"cell {key} is missing its {missing} arm(s): merge "
                "all shards before reducing the frontier"
            )
        family, coalition, stage, shock, pi = key
        r_metrics = dict(rational.metrics)
        c_metrics = dict(comply.metrics)
        # Every pivot (all coalition members) is excluded from victimhood.
        pivots = set(dict(rational.axes)["adversaries"].split(","))
        cells.append(
            FrontierCell(
                family=family,
                stage=stage,
                shock=shock,
                pi=pi,
                walked=r_metrics["completed"] == 0.0,
                rational_utility=canon_float(r_metrics["utility"]),
                comply_utility=canon_float(c_metrics["utility"]),
                victim_net=max(
                    (
                        net
                        for party, net in rational.premium_net
                        if party not in pivots
                    ),
                    default=0,
                ),
                coalition=coalition,
            )
        )

    def reduce_lines(line_cells, row_factory):
        by_line: dict[tuple, list[FrontierCell]] = {}
        for cell in line_cells:
            by_line.setdefault(
                (cell.family, cell.coalition, cell.stage, cell.shock), []
            ).append(cell)
        rows = []
        for line_key in sorted(by_line):
            line = sorted(by_line[line_key], key=lambda cell: cell.pi)
            deterring = [cell.pi for cell in line if not cell.walked]
            rows.append(
                row_factory(
                    line_key, min(deterring) if deterring else None, tuple(line)
                )
            )
        return tuple(rows)

    rows = reduce_lines(
        (cell for cell in cells if not cell.coalition),
        lambda key, pi_star, line: FrontierRow(
            family=key[0], stage=key[2], shock=key[3], pi_star=pi_star, cells=line
        ),
    )
    coalition_rows = reduce_lines(
        (cell for cell in cells if cell.coalition),
        lambda key, pi_star, line: CoalitionFrontierRow(
            family=key[0],
            coalition=key[1],
            stage=key[2],
            shock=key[3],
            pi_star=pi_star,
            cells=line,
        ),
    )
    return _with_digest(
        FrontierReport(
            matrix_digest=report.matrix_digest,
            run_digest=report.run_digest,
            complete=report.complete,
            scenarios=report.scenarios,
            total_scenarios=report.total_scenarios,
            rows=rows,
            coalition_rows=coalition_rows,
        )
    )
