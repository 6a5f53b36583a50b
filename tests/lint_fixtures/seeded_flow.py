"""Seeded FLOW001/002/003 violations (never executed; see README.md).

Each flow here is *clean per file*: the source hazard lives in
``flow_helpers.py`` under an innocent name, and this module's sinks
contain no hazardous construct of their own — ``tests/test_lint_flow.py``
asserts the per-file rule families stay silent on both files while the
interprocedural pass flags all three flows with full call chains.
"""

import hashlib
from dataclasses import dataclass

from flow_helpers import dedup_entries, jittered_stamp, pct_text


def digest_batch(payload: str) -> str:
    # FLOW001: perf_counter, two calls away, reaches this hash.
    acc = hashlib.sha256()
    acc.update(payload.encode())
    acc.update(repr(jittered_stamp()).encode())
    return acc.hexdigest()


@dataclass
class MemberReport:
    members: list

    def digest(self) -> str:
        acc = hashlib.sha256()
        for member in self.members:
            acc.update(member.encode())
        return acc.hexdigest()


def build_member_report(raw) -> MemberReport:
    # FLOW002: unsorted set order flows through dedup_entries into the
    # digest-covered field MemberReport.members.
    return MemberReport(members=dedup_entries(raw))


def shock_axis_labels(values) -> list:
    # FLOW003: lossy float text from pct_text reaches these axis labels.
    return [pct_text(value) for value in values]
