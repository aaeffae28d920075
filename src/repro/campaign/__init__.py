"""Design-space exploration campaigns.

The paper's point is that PSD-based analytical evaluation makes
large-scale word-length exploration affordable; this subpackage is the
layer that actually runs such explorations at scale.  The data flow is

::

    registry  ->  jobs  ->  cache  ->  runner  ->  report
    (named        (scenario x    (content-     (process-pool  (Ed / noise /
     scenario      method x       addressed     batched        runtime tables,
     generators)   word-length    JSON store)   execution,     CSV / JSON)
                   grid)                        JSONL stream)

* :mod:`~repro.campaign.registry` — parameterized scenario generators
  registered by name; each builds a signal-flow graph plus a stimulus
  specification, with a stable parameter signature.
* :mod:`~repro.campaign.jobs` — a campaign specification (scenarios x
  methods x word-length grid) expanded into content-addressed jobs.
* :mod:`~repro.campaign.cache` — the content-addressed disk cache that
  makes re-runs and overlapping campaigns incremental.
* :mod:`~repro.campaign.runner` — supervised, cache-aware execution,
  inline or on a :class:`~concurrent.futures.ProcessPoolExecutor` of at
  most one process per missed scenario, streaming results to JSONL so
  interrupted campaigns resume from the cache; failing payloads are
  retried, bisected and quarantined instead of aborting the run.
* :mod:`~repro.campaign.faults` — the supervision knobs
  (:class:`~repro.campaign.faults.RetryPolicy`) and the seeded chaos
  harness (:class:`~repro.campaign.faults.FaultInjector`) that proves
  the fault handling deterministically.
* :mod:`~repro.campaign.report` — aggregation into per-scenario /
  per-method accuracy and runtime tables, CSV / JSON export.

Exposed on the command line as ``python -m repro.cli campaign``.
"""

from repro.campaign.cache import CacheStats, ResultCache
from repro.campaign.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
)
from repro.campaign.jobs import (
    STATUS_FAILED,
    STATUS_OK,
    CampaignSpec,
    Job,
    PreparedScenario,
    ScenarioSpec,
    StimulusSpec,
    base_record,
    expand_campaign,
    failure_record,
    job_key,
)
from repro.campaign.registry import (
    ScenarioFamily,
    ScenarioInstance,
    build_scenario,
    get_family,
    register_scenario,
    scenario_names,
    scenario_signature,
)
from repro.campaign.report import CampaignReport
from repro.campaign.runner import CampaignResult, run_campaign

__all__ = [
    "ScenarioFamily",
    "ScenarioInstance",
    "register_scenario",
    "build_scenario",
    "get_family",
    "scenario_names",
    "scenario_signature",
    "StimulusSpec",
    "ScenarioSpec",
    "CampaignSpec",
    "Job",
    "PreparedScenario",
    "expand_campaign",
    "job_key",
    "base_record",
    "failure_record",
    "STATUS_OK",
    "STATUS_FAILED",
    "ResultCache",
    "CacheStats",
    "RetryPolicy",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "CampaignReport",
    "CampaignResult",
    "run_campaign",
]
