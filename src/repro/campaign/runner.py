"""Cache-aware, batched, parallel and fault-tolerant campaign execution.

Execution strategy:

* every job is first looked up in the content-addressed cache
  (:mod:`repro.campaign.cache`); hits never reach a worker;
* the remaining jobs are grouped *per scenario* and shipped as one
  payload each — a worker deserializes the scenario graph once, compiles
  one :class:`~repro.sfg.plan.CompiledPlan`, and runs every same-method
  job of the scenario through the configuration-batched evaluation paths
  (``evaluate_*_batch`` / ``SimulationEvaluator.evaluate_batch``), so a
  word-length grid costs one batched walk instead of one walk per grid
  point — and because all of a scenario's jobs share that one plan, they
  also share its :class:`~repro.analysis._engine.NoiseMemo`: the batched
  walks compute each grid point's rows only inside its own cone (a point
  at the scenario's live widths is copied from the memo), and the
  per-assignment ``psd_tracked`` loop pays one dirty-cone delta per grid
  point (the intra-graph counterpart of the cross-run content cache);
* with ``workers > 1`` the per-scenario payloads run on a
  :class:`~concurrent.futures.ProcessPoolExecutor` (payloads are plain
  JSON-compatible dicts, so they pickle under any start method).  The
  pool opens with one process per payload at most, so a warm pass or a
  single missed scenario runs inline and starts no process; the command
  line's default width is the usable cores;
* every completed record is written to the cache *and* appended to a
  JSONL stream immediately, so a killed campaign loses at most the jobs
  in flight — re-running the same spec resumes from the cache.

Fault tolerance (see :mod:`repro.campaign.faults` and ARCHITECTURE.md
§ Fault tolerance): the driver loop is a supervisor.  Each payload gets
a bounded number of attempts with deterministic backoff and an optional
wall-clock timeout; a payload that keeps failing is **bisected** so one
poisoned grid point no longer discards its batch-mates' results, and the
isolated offender is quarantined as a structured ``status="failed"``
record — streamed and reported, but never cached (no negative caching).
A broken process pool is rebuilt and its unfinished payloads
re-dispatched, degrading to inline execution after repeated deaths; a
hung payload's pool is abandoned the same way.  ``KeyboardInterrupt``
leaves the flushed JSONL tail behind and logs partial accounting.

Accounting runs on a per-campaign :class:`~repro.obs.MetricsRegistry`
(``campaign.cache.hits`` / ``campaign.cache.misses`` /
``campaign.jobs.skipped`` plus the fault counters ``campaign.retries``,
``campaign.payload.bisections``, ``campaign.jobs.failed`` and
``campaign.pool.rebuilds``); :class:`CampaignResult` is a view over
those counters, a one-line summary is logged at the finish line, and —
when a process-wide observability session is enabled — the registry is
published into it and every job (cached or computed, driver or pool
worker) leaves a ``campaign.job`` trace span keyed by its content hash.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.evaluator import PSD_METHODS, estimate_noise_batch
from repro.analysis.simulation_method import SimulationEvaluator
from repro.campaign.cache import ResultCache
from repro.campaign.faults import FaultInjector, RetryPolicy
from repro.campaign.jobs import (
    STATUS_FAILED,
    CampaignSpec,
    PreparedScenario,
    StimulusSpec,
    base_record,
    expand_campaign,
    failure_record,
)
from repro.obs import record_span, span
from repro.sfg.plan import compile_plan
from repro.sfg.serialization import graph_from_dict

logger = logging.getLogger("repro.campaign.runner")


@dataclass
class CampaignResult:
    """Outcome of one campaign run.

    ``records`` holds one dict per grid point (cached, computed and
    quarantined alike), in a deterministic order (scenario order, then
    method, then wordlength).  Grid points from overlapping scenario
    entries that collapse to the same job key are computed once; such
    duplicates are counted as cache hits (served from the first
    computation).  Quarantined jobs appear as ``status="failed"``
    records and are counted in ``failed`` — they are never cached, so a
    re-run retries them.  ``workers`` is the process-pool width that
    ran: 1 when the payloads ran inline.
    """

    records: list = field(default_factory=list)
    cache_hits: int = 0
    computed: int = 0
    skipped_unsupported: int = 0
    failed: int = 0
    retries: int = 0
    bisections: int = 0
    pool_rebuilds: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0

    @property
    def total_jobs(self) -> int:
        """Grid points the campaign expanded to (hits + computed +
        failed)."""
        return self.cache_hits + self.computed + self.failed

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from the cache (0.0 when no jobs)."""
        return self.cache_hits / self.total_jobs if self.total_jobs else 0.0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _scenario_payload(scenario: PreparedScenario, jobs: list) -> dict:
    """JSON-compatible work order for one scenario (picklable under any
    multiprocessing start method).  Each job dict carries its dispatch
    ``attempt`` counter so worker-side chaos injection can distinguish a
    first dispatch from a retry."""
    return {
        "scenario": scenario.spec.name,
        "signature": scenario.signature,
        "params": dict(jobs[0].params),
        "graph": scenario.graph_dict,
        "stimulus": scenario.stimulus.canonical(),
        "seed": jobs[0].seed,
        "jobs": [{"key": job.key, "method": job.method,
                  "wordlength": job.wordlength,
                  "assignment": dict(job.assignment),
                  "n_psd": job.n_psd, "attempt": 0} for job in jobs],
    }


def execute_scenario_payload(payload: dict) -> list[dict]:
    """Run every job of one scenario payload; returns result records.

    This is the function a pool worker executes.  The scenario graph is
    rebuilt from its serialized form and compiled once; jobs are grouped
    by method and each analytical group runs as a single
    configuration-batched walk.  The Monte-Carlo group shares one
    stimulus realization and the batched reference-run sharing of
    :meth:`SimulationEvaluator.evaluate_batch`.
    """
    with span("campaign.payload", scenario=payload["scenario"],
              jobs=len(payload["jobs"])):
        return _execute_payload(payload)


def _execute_payload(payload: dict) -> list[dict]:
    chaos = payload.get("chaos")
    if chaos is not None:
        # Armed chaos harness: fire any fault planned for this payload's
        # jobs before the (expensive) computation starts.  A fired fault
        # costs the whole payload — exactly the blast radius a real
        # mid-payload failure has — and the supervisor's retry/bisection
        # machinery is what contains it.
        injector = FaultInjector.from_config(chaos)
        for job in payload["jobs"]:
            injector.fire(job["key"], job.get("attempt", 0))
    graph = graph_from_dict(payload["graph"])
    plan = compile_plan(graph)
    stimulus_spec = StimulusSpec.from_dict(payload["stimulus"])
    records: list[dict] = []

    by_method: dict[str, list[dict]] = {}
    for job in payload["jobs"]:
        by_method.setdefault(job["method"], []).append(job)

    for method, jobs in by_method.items():
        assignments = [job["assignment"] for job in jobs]
        start_ts = time.time()
        start = time.perf_counter()
        if method == "simulation":
            stimulus = stimulus_spec.realize(plan.input_names,
                                             payload["seed"])
            evaluator = SimulationEvaluator(plan)
            measurements = evaluator.evaluate_batch(
                assignments, stimulus,
                discard_transient=stimulus_spec.discard_transient)
            powers = [m.error_power for m in measurements]
            means = [m.error_mean for m in measurements]
            variances = [m.error_variance for m in measurements]
        else:
            powers, means, variances = estimate_noise_batch(
                plan, method, jobs[0]["n_psd"], assignments)
        elapsed = time.perf_counter() - start
        record_span("campaign.method", start_ts, elapsed,
                    scenario=payload["scenario"], method=method,
                    jobs=len(jobs))

        share = elapsed / len(jobs)
        for index, job in enumerate(jobs):
            # One trace span per job: the batched computation's wall time
            # is attributed evenly across the grid points it served, and
            # the content key lets driver- and worker-side spans of the
            # same job line up in the merged trace.
            record_span("campaign.job", start_ts + index * share, share,
                        depth_offset=1, key=job["key"], method=method,
                        scenario=payload["scenario"], cached=False)
            record = base_record(payload, job)
            record.update(
                power=float(np.asarray(powers)[index]),
                mean=float(np.asarray(means)[index]),
                variance=float(np.asarray(variances)[index]),
                elapsed_seconds=elapsed / len(jobs),
                batched_with=len(jobs))
            if method in PSD_METHODS:
                record["n_psd"] = job["n_psd"]
            if method == "simulation":
                record["num_samples"] = stimulus_spec.num_samples
            records.append(record)
    return records


def execute_scenario_payload_observed(payload: dict,
                                      trace: bool = True) -> dict:
    """Pool entry point when the driver has observability enabled.

    A pool worker is a fresh process with no observability session, so
    one is opened around the payload and its measurements are shipped
    home with the records: ``{"records", "spans", "metrics"}``.  Span
    timestamps are epoch-based (``time.time()``), so worker spans merge
    onto the driver's clock without translation.
    """
    with obs.observe(trace=trace) as session:
        records = execute_scenario_payload(payload)
    return {
        "records": records,
        "spans": session.trace.snapshot() if session.trace else [],
        "metrics": session.metrics.snapshot(),
    }


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class _JsonlWriter:
    """Append-mode JSONL stream, flushed per record (crash-safe tail)."""

    def __init__(self, path: str | Path | None):
        self._stream = None
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = path.open("a")

    def __enter__(self) -> "_JsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def write(self, record: dict) -> None:
        if self._stream is not None:
            self._stream.write(json.dumps(record) + "\n")
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


@dataclass
class _WorkItem:
    """One dispatchable unit: a scenario's (sub)set of uncached jobs.

    ``attempt`` counts failed dispatches of this payload; each job dict
    carries its own ``attempt`` counter (monotonic across bisection)
    that gates transient chaos faults and is reported on quarantine.
    ``deadline`` is the ``time.monotonic()`` instant after which an
    in-flight payload is declared hung.
    """

    base: dict
    jobs: list
    attempt: int = 0
    deadline: float | None = None


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down, terminating its worker processes first.

    A plain ``shutdown(wait=False)`` leaves a hung worker running, and
    the exit handler of :mod:`concurrent.futures` then joins it: the
    interpreter would not exit before the hang ends.
    """
    terminate = getattr(pool, "terminate_workers", None)  # Python 3.14+
    if terminate is not None:
        terminate()
        return
    for process in list((pool._processes or {}).values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


class _Supervisor:
    """The fault-tolerant driver loop: dispatch, retry, bisect, quarantine.

    State machine per payload::

        dispatched --ok--------------------------> absorbed
            |  failure / timeout
            v
        attempt += 1 --< max_attempts--> backoff, re-dispatch   (retry)
            |  attempts exhausted
            v
        jobs > 1 --> split in half, re-dispatch both halves     (bisect)
        jobs == 1 -> structured status="failed" record          (quarantine)

    Pool-level failures are handled around that machine: a broken pool
    is rebuilt and every in-flight payload re-dispatched (advanced one
    attempt — the crashed payload cannot be told apart from its pool
    mates — but never straight into quarantine: a pool death is not
    evidence against any one payload), degrading to inline execution
    after ``MAX_POOL_DEATHS``; a hung payload's pool is abandoned (a
    running worker cannot be cancelled) and only the expired payloads
    are charged an attempt.
    """

    #: Pool deaths tolerated before degrading to inline execution.
    MAX_POOL_DEATHS = 3

    def __init__(self, *, policy: RetryPolicy,
                 injector: FaultInjector | None, workers: int,
                 observed: bool, trace_on: bool, registry,
                 absorb, quarantine):
        self.policy = policy
        self.injector = injector
        self.workers = workers
        self.width = 1
        self.observed = observed
        self.trace_on = trace_on
        self.absorb = absorb
        self.quarantine = quarantine
        self.retries = registry.counter("campaign.retries")
        self.bisections = registry.counter("campaign.payload.bisections")
        self.failed = registry.counter("campaign.jobs.failed")
        self.rebuilds = registry.counter("campaign.pool.rebuilds")
        self.queue: deque = deque()
        self.active: dict = {}
        self.pool = None
        self.pool_deaths = 0
        self.degraded = False

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, payloads: list[dict]) -> None:
        # One process per payload at most: a warm pass or a single miss
        # runs inline and starts no process.
        self.width = max(1, min(self.workers, len(payloads)))
        if (self.width > 1 and self.injector is not None
                and "hang" in self.injector.kinds
                and self.policy.payload_timeout is None):
            # Inline, a hang fault is raised as an exception instead.
            logger.warning(
                "chaos includes hang faults but no payload_timeout is set; "
                "a hung payload blocks for the full hang_seconds (%.3g s)",
                self.injector.hang_seconds)
        for payload in payloads:
            base = {key: value for key, value in payload.items()
                    if key != "jobs"}
            self.queue.append(_WorkItem(base=base, jobs=payload["jobs"]))
        if self.width > 1:
            self._run_pool()
        # Inline covers the single-payload / single-worker case and the
        # remainder after the pool path degraded.
        self._run_inline()

    def _payload(self, item: _WorkItem, inline: bool) -> dict:
        payload = dict(item.base)
        payload["jobs"] = item.jobs
        if self.injector is not None:
            # Inline execution converts crash/hang faults to exceptions:
            # os._exit here would kill the driver itself.
            payload["chaos"] = self.injector.config(inline=inline)
        return payload

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------
    def _run_pool(self) -> None:
        try:
            while (self.queue or self.active) and not self.degraded:
                if self.pool is None:
                    self.pool = ProcessPoolExecutor(max_workers=self.width)
                self._submit_ready()
                if not self.active:
                    continue
                done, _ = wait(set(self.active), timeout=self._tick(),
                               return_when=FIRST_COMPLETED)
                if done:
                    self._collect(done)
                else:
                    self._expire_hung()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
                self.pool = None

    def _submit_ready(self) -> None:
        # At most ``width`` payloads in flight: the per-payload timeout
        # clock starts at submission, so queueing more than the pool can
        # start would charge wait time against the deadline.
        while self.queue and len(self.active) < self.width:
            item = self.queue.popleft()
            payload = self._payload(item, inline=False)
            try:
                if self.observed:
                    future = self.pool.submit(
                        execute_scenario_payload_observed, payload,
                        self.trace_on)
                else:
                    future = self.pool.submit(execute_scenario_payload,
                                              payload)
            except BrokenProcessPool:
                self.queue.appendleft(item)
                self._pool_died()
                return
            if self.policy.payload_timeout is not None:
                item.deadline = (time.monotonic()
                                 + self.policy.payload_timeout)
            self.active[future] = item

    def _tick(self) -> float | None:
        deadlines = [item.deadline for item in self.active.values()
                     if item.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _collect(self, done) -> None:
        for future in done:
            item = self.active.pop(future, None)
            if item is None:
                continue  # cleared by a pool rebuild earlier this batch
            try:
                result = future.result()
            except BrokenProcessPool:
                self.active[future] = item
                self._pool_died()
                return
            except Exception as error:
                self._dispatch_failed(item, error)
            else:
                if self.observed:
                    obs.ingest_spans(result["spans"])
                    obs.publish_metrics(result["metrics"])
                    result = result["records"]
                item.deadline = None
                self.absorb(result)

    def _pool_died(self) -> None:
        self.pool_deaths += 1
        for item in self.active.values():
            # The crashed payload cannot be told apart from its pool
            # mates, so every in-flight payload advances one attempt —
            # enough to skip a transient crash fault on re-dispatch —
            # but capped below quarantine: a pool death is not evidence
            # against any one payload.
            item.attempt = min(item.attempt + 1,
                               self.policy.max_attempts - 1)
            for job in item.jobs:
                job["attempt"] = job.get("attempt", 0) + 1
            item.deadline = None
            self.queue.append(item)
        self.active.clear()
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = None
        if self.pool_deaths >= self.MAX_POOL_DEATHS:
            self.degraded = True
            logger.warning(
                "campaign worker pool died %d times; degrading to inline "
                "execution for the remaining %d payload(s)",
                self.pool_deaths, len(self.queue))
        else:
            self.rebuilds.inc()
            logger.warning(
                "campaign worker pool died (%d so far); rebuilding and "
                "re-dispatching %d payload(s)",
                self.pool_deaths, len(self.queue))

    def _expire_hung(self) -> None:
        now = time.monotonic()
        expired, healthy = [], []
        for item in self.active.values():
            if item.deadline is not None and item.deadline <= now:
                expired.append(item)
            else:
                healthy.append(item)
        if not expired:
            return  # spurious wakeup
        # A hung worker cannot be cancelled, only abandoned: the whole
        # pool is torn down and a fresh pool takes over.  Healthy
        # in-flight payloads lost with the pool are re-queued uncharged.
        self.active.clear()
        _terminate_pool(self.pool)
        self.pool = None
        self.rebuilds.inc()
        logger.warning(
            "abandoning pool: %d payload(s) exceeded the %.3g s timeout "
            "(%d healthy in-flight payload(s) re-queued)",
            len(expired), self.policy.payload_timeout, len(healthy))
        for item in healthy:
            item.deadline = None
            self.queue.append(item)
        for item in expired:
            item.deadline = None
            self._dispatch_failed(item, TimeoutError(
                f"payload exceeded the {self.policy.payload_timeout:g} s "
                "timeout"))

    # ------------------------------------------------------------------
    # Inline path
    # ------------------------------------------------------------------
    def _run_inline(self) -> None:
        while self.queue:
            item = self.queue.popleft()
            payload = self._payload(item, inline=True)
            try:
                records = execute_scenario_payload(payload)
            except Exception as error:
                self._dispatch_failed(item, error)
            else:
                self.absorb(records)

    # ------------------------------------------------------------------
    # Failure escalation (shared by both paths)
    # ------------------------------------------------------------------
    def _dispatch_failed(self, item: _WorkItem, error: BaseException) -> None:
        item.attempt += 1
        for job in item.jobs:
            job["attempt"] = job.get("attempt", 0) + 1
        if item.attempt < self.policy.max_attempts:
            self.retries.inc()
            if self.trace_on:
                record_span("campaign.retry", time.time(), 0.0,
                            scenario=item.base["scenario"],
                            jobs=len(item.jobs), attempt=item.attempt,
                            error=type(error).__name__)
            logger.info(
                "retrying payload %s (%d job(s), attempt %d/%d): %s",
                item.base["scenario"], len(item.jobs), item.attempt + 1,
                self.policy.max_attempts, error)
            delay = self.policy.delay(item.jobs[0]["key"], item.attempt)
            if delay > 0.0:
                time.sleep(delay)
            self.queue.append(item)
        elif len(item.jobs) > 1:
            # Retries exhausted: isolate the offender by bisection so
            # one poisoned grid point stops discarding its batch-mates'
            # results.  The halves get one attempt each — the payload
            # already proved persistently failing, so further retries
            # would only delay isolation.
            self.bisections.inc()
            if self.trace_on:
                record_span("campaign.bisect", time.time(), 0.0,
                            scenario=item.base["scenario"],
                            jobs=len(item.jobs),
                            error=type(error).__name__)
            logger.info(
                "bisecting persistently failing payload %s (%d jobs): %s",
                item.base["scenario"], len(item.jobs), error)
            middle = len(item.jobs) // 2
            for half in (item.jobs[:middle], item.jobs[middle:]):
                self.queue.append(_WorkItem(
                    base=item.base, jobs=half,
                    attempt=max(0, self.policy.max_attempts - 1)))
        else:
            job = item.jobs[0]
            self.failed.inc()
            logger.warning(
                "quarantining job %s (%s/%s, W=%s) after %d attempt(s): %s",
                job["key"][:12], item.base["scenario"], job["method"],
                job["wordlength"], job["attempt"], error)
            self.quarantine(item.base, job, error)


def run_campaign(spec: CampaignSpec,
                 cache: ResultCache | None = None,
                 cache_dir: str | Path | None = None,
                 output_path: str | Path | None = None,
                 workers: int = 1,
                 retry_policy: RetryPolicy | None = None,
                 fault_injector: FaultInjector | None = None
                 ) -> CampaignResult:
    """Run a campaign: expand, serve from cache, execute the rest.

    Parameters
    ----------
    spec:
        The campaign description (scenarios x methods x wordlengths).
    cache:
        An existing :class:`ResultCache`; mutually exclusive with
        ``cache_dir``.
    cache_dir:
        Directory of the content-addressed result cache; ``None`` (and no
        ``cache``) disables caching.
    output_path:
        When given, every record (cached, computed or failed) is
        appended to this JSONL file as soon as it is known.
    workers:
        Largest process-pool width for the per-scenario payloads.  The
        pool opens with at most one process per payload that misses the
        cache, and a width of 1 runs inline in this process (identical
        results); ``CampaignResult.workers`` is the width that ran.
    retry_policy:
        Supervision parameters (attempts, backoff, payload timeout);
        ``None`` uses :class:`RetryPolicy` defaults seeded from the
        campaign seed.  A fault-free run never retries, so the default
        policy leaves the fault-free path bit-identical.
    fault_injector:
        An **armed** chaos harness (:class:`FaultInjector`); ``None``
        (the default) injects nothing.

    Returns
    -------
    CampaignResult
        All records plus hit / compute / failure accounting.
    """
    if cache is not None and cache_dir is not None:
        raise ValueError("pass either cache or cache_dir, not both")
    if cache is None:
        cache = ResultCache(cache_dir)
    policy = retry_policy if retry_policy is not None \
        else RetryPolicy(seed=spec.seed)
    started = time.perf_counter()
    # Per-campaign accounting registry: always live (exact counts whether
    # or not observability is enabled), published into the process-wide
    # session — and summarised in the finish-line log — at the end.
    registry = obs.MetricsRegistry()
    hit_counter = registry.counter("campaign.cache.hits")
    miss_counter = registry.counter("campaign.cache.misses")
    skip_counter = registry.counter("campaign.jobs.skipped")
    failed_counter = registry.counter("campaign.jobs.failed")
    retry_counter = registry.counter("campaign.retries")
    trace_on = obs.tracing()
    prepared, _jobs, skipped = expand_campaign(spec)
    skip_counter.inc(skipped)
    try:
        with _JsonlWriter(output_path) as writer, \
                span("campaign.run", scenarios=len(prepared)) as run_span:
            records_by_key: dict[str, dict] = {}
            pending: list[tuple[PreparedScenario, list]] = []
            scheduled: set[str] = set()
            for scenario in prepared:
                misses = []
                for job in scenario.jobs:
                    if job.key in scheduled:
                        # Identical grid point from an overlapping scenario
                        # entry: served from the first computation.
                        hit_counter.inc()
                        if trace_on:
                            record_span("campaign.job", time.time(), 0.0,
                                        key=job.key, scenario=job.scenario,
                                        method=job.method, cached=True,
                                        dedup=True)
                        continue
                    lookup_ts = time.time()
                    lookup_t0 = time.perf_counter()
                    cached = cache.get(job.key)
                    if cached is not None:
                        cached = {**cached, "cached": True}
                        records_by_key[job.key] = cached
                        writer.write(cached)
                        hit_counter.inc()
                        if trace_on:
                            record_span(
                                "campaign.job", lookup_ts,
                                time.perf_counter() - lookup_t0,
                                key=job.key, scenario=job.scenario,
                                method=job.method, cached=True)
                    else:
                        scheduled.add(job.key)
                        misses.append(job)
                if misses:
                    pending.append((scenario, misses))

            def absorb(records: list[dict]) -> None:
                for record in records:
                    record = {**record, "cached": False}
                    cache.put(record["key"], record)
                    if fault_injector is not None:
                        fault_injector.corrupt_record(cache, record["key"])
                    records_by_key[record["key"]] = record
                    writer.write(record)
                    miss_counter.inc()

            def quarantine(payload_base: dict, job: dict,
                           error: BaseException) -> None:
                # Quarantined jobs are streamed and reported but never
                # cached: no negative caching, a re-run retries them.
                record = failure_record(payload_base, job, error,
                                        attempts=job.get("attempt", 0))
                records_by_key[record["key"]] = record
                writer.write(record)
                if trace_on:
                    record_span("campaign.job", time.time(), 0.0,
                                key=record["key"],
                                scenario=record["scenario"],
                                method=record["method"], cached=False,
                                status=STATUS_FAILED)

            payloads = [_scenario_payload(scenario, jobs)
                        for scenario, jobs in pending]
            supervisor = _Supervisor(
                policy=policy, injector=fault_injector, workers=workers,
                observed=obs.enabled(), trace_on=trace_on,
                registry=registry, absorb=absorb, quarantine=quarantine)
            supervisor.run(payloads)
            run_span.set(workers=supervisor.width)
    except KeyboardInterrupt:
        # The JSONL tail is already flushed per record (and the writer
        # closed by its context manager); leave an accounting trail so
        # the partial run is diagnosable before the resume.
        logger.warning(
            "campaign interrupted: partial accounting — %d cached, "
            "%d computed, %d failed, %d retries; JSONL tail flushed to %s",
            hit_counter.value, miss_counter.value, failed_counter.value,
            retry_counter.value, output_path or "<no stream>")
        raise

    # Deterministic record order (expansion order), whatever the
    # completion order of the pool was.  A grid point served by another
    # entry's identical job (same content, e.g. factor=2 vs factor=2.0)
    # is relabeled with its own scenario identity and marked cached —
    # it was served from the first computation, matching how it is
    # counted in ``cache_hits`` — so reports and the runner accounting
    # always agree.
    ordered = []
    first_occurrence: set[str] = set()
    for scenario in prepared:
        for job in scenario.jobs:
            record = records_by_key[job.key]
            if job.key in first_occurrence:
                record = {**record, "cached": True}
            else:
                first_occurrence.add(job.key)
            if record["signature"] != job.signature:
                record = {**record, "scenario": job.scenario,
                          "signature": job.signature,
                          "params": dict(job.params)}
            ordered.append(record)
    elapsed = time.perf_counter() - started
    registry.gauge("campaign.elapsed_seconds").set(elapsed)
    result = CampaignResult(
        records=ordered,
        cache_hits=hit_counter.value,
        computed=miss_counter.value,
        skipped_unsupported=skip_counter.value,
        failed=failed_counter.value,
        retries=retry_counter.value,
        bisections=registry.counter("campaign.payload.bisections").value,
        pool_rebuilds=registry.counter("campaign.pool.rebuilds").value,
        workers=supervisor.width,
        elapsed_seconds=elapsed)
    obs.publish_metrics(registry.snapshot())
    logger.info(
        "campaign finished: %d jobs — %d cached (%.1f%% warm), %d computed, "
        "%d failed, %d skipped unsupported, %.3f s wall",
        result.total_jobs, result.cache_hits, 100.0 * result.hit_rate,
        result.computed, result.failed, result.skipped_unsupported, elapsed)
    if result.retries or result.bisections or result.pool_rebuilds:
        logger.info(
            "campaign faults: %d retries, %d bisections, %d pool rebuilds",
            result.retries, result.bisections, result.pool_rebuilds)
    return result
