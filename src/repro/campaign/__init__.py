"""Batched adversarial scenario campaigns.

The campaign engine is the scale substrate the ROADMAP asks for: it turns
the paper's "a hedged compliant party is compensated at *every* deviation
point" claim into something executable at thousands-of-scenarios scale.

- :mod:`repro.campaign.scenario` — one scenario = one full deterministic
  simulation (builder + adversary profile + properties) condensed into a
  picklable :class:`ScenarioResult` with a stable content digest,
- :mod:`repro.campaign.matrix` — :class:`ScenarioMatrix` expands axes
  (protocol family × premium/timeout schedule × adversary subset × named
  strategy × deviation round) into scenario specs in a deterministic order,
- :mod:`repro.campaign.runner` — :class:`CampaignRunner` executes a matrix
  (or one ``shard=(i, n)`` slice of it) through a pluggable serial,
  kernel or process backend and aggregates per-axis violation counts,
  payoff distributions, throughput, and a reproducible run digest whose
  preamble records the effective selection; :func:`merge_reports`
  recombines shard reports into the byte-identical unsharded digest,
- :mod:`repro.campaign.pool` — :class:`WorkerPool`, the one fork pool
  behind every process run (one-shot, or persistent and shared across
  runs, fed by picklable :class:`MatrixSpec` rebuild recipes),
- :mod:`repro.campaign.families` — the registry of protocol families
  (two-party, multi-party, broker, auction, sealed-auction, bootstrap)
  with their default adversary spaces and premium/timeout/graph schedules;
  :func:`default_matrix` builds the standard all-families campaign,
- :mod:`repro.campaign.ablation` — the rational-adversary ablation engine:
  :func:`ablation_matrix` crosses families with utility-driven pivots
  (single and coalition) over premium fractions × price shocks × shock
  stages (named, per-round, or the dense ``all`` sweep),
  :func:`reduce_frontier` reduces the resulting report into the
  deviation-profitability frontier (the measured π-threshold of §5.2), and
  :func:`refine_frontier` bisects between lattice points — via
  :func:`ablation_cell` probe matrices — for a continuous π* that
  brackets the closed forms.

``repro.checker.ModelChecker`` is a thin client of this package: profile
enumeration, execution, and property evaluation all live here.
"""

from repro.campaign.matrix import ScenarioMatrix, enumerate_profiles
from repro.campaign.pool import MatrixSpec, WorkerPool, register_matrix_factory
from repro.campaign.cache import ResultCache, code_version, shared_cache
from repro.campaign.report import (
    Report,
    merge_reports_any,
    register_report,
    registered_report_kinds,
    report_from_json,
)
from repro.campaign.runner import (
    CampaignReport,
    CampaignRunner,
    ScenarioViolation,
    merge_reports,
)
from repro.campaign.scenario import Scenario, ScenarioResult, run_scenario
from repro.campaign.families import (
    FAMILY_NAMES,
    default_matrix,
    default_matrix_spec,
)
from repro.campaign.ablation import (
    AblationGrid,
    FrontierReport,
    KernelEngine,
    KernelUnsupported,
    RefinedFrontierReport,
    ablation_cell,
    ablation_matrix,
    reduce_frontier,
    refine_frontier,
)
from repro.campaign.experiment import (
    EXPERIMENT_KINDS,
    Experiment,
    ExperimentError,
    ExperimentResult,
    ExperimentSpec,
    ablate_spec,
    campaign_spec,
    refine_spec,
)

__all__ = [
    "AblationGrid",
    "CampaignReport",
    "CampaignRunner",
    "EXPERIMENT_KINDS",
    "Experiment",
    "ExperimentError",
    "ExperimentResult",
    "ExperimentSpec",
    "FAMILY_NAMES",
    "FrontierReport",
    "KernelEngine",
    "KernelUnsupported",
    "MatrixSpec",
    "RefinedFrontierReport",
    "Report",
    "ResultCache",
    "Scenario",
    "ScenarioMatrix",
    "ScenarioResult",
    "ScenarioViolation",
    "WorkerPool",
    "ablate_spec",
    "ablation_cell",
    "ablation_matrix",
    "campaign_spec",
    "code_version",
    "default_matrix",
    "default_matrix_spec",
    "enumerate_profiles",
    "merge_reports",
    "merge_reports_any",
    "reduce_frontier",
    "refine_frontier",
    "refine_spec",
    "register_matrix_factory",
    "register_report",
    "registered_report_kinds",
    "report_from_json",
    "run_scenario",
    "shared_cache",
]
