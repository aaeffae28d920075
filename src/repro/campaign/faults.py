"""Fault-tolerance primitives for campaign execution.

Two concerns live here, deliberately side by side:

* :class:`RetryPolicy` — how the campaign supervisor reacts to a failing
  payload: how many attempts each dispatch gets, how long to back off
  between them (exponential, with *deterministic* jitter seeded from the
  campaign seed and the payload's content key, so two identical runs
  retry on identical schedules), and how long a payload may run before
  it is declared hung.
* :class:`FaultInjector` — a seeded chaos harness that, **only when
  explicitly armed** (constructed and passed to
  :func:`~repro.campaign.runner.run_campaign`), injects the failures a
  real deployment will see: payload exceptions, worker hard-crashes
  (``os._exit``), hangs, and corrupt cache-record writes.  Every
  decision is a pure function of ``(seed, job key)``, so a chaos run is
  reproducible from one seed and the driver can reconstruct the exact
  *ledger* of planned faults (:meth:`FaultInjector.ledger`) to reconcile
  against the runner's failure/retry accounting.

Fault semantics:

* ``exception`` faults may be *transient* (fire only the first time a
  job is dispatched — a retry recovers) or *permanent* (fire on every
  dispatch — the supervisor isolates the job by bisection and
  quarantines it as a ``status="failed"`` record).
* ``crash`` / ``hang`` faults are always transient: they model a worker
  dying or stalling, not a poisoned input, and firing them more than
  once per job would make a chaos campaign's wall time unbounded.
* ``corrupt`` faults never fail a job: they garble the job's cache
  record *after* it is written, exercising the cache's self-healing
  read path on the next run.
* Inline execution (a pool width of 1 — one worker or a single missed
  scenario — or the supervisor's degraded mode) converts ``crash`` and
  ``hang`` to plain exceptions — ``os._exit`` in the driver process
  would kill the campaign itself, and an inline hang has no supervising
  timeout to cut it short.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass

#: Exit code a chaos-crashed worker dies with (recognizable in process
#: tables; anything nonzero breaks the pool the same way).
CRASH_EXIT_CODE = 97

#: Every fault kind the injector knows how to produce.
FAULT_KINDS = ("exception", "crash", "hang", "corrupt")


def _unit_interval(*parts: object) -> float:
    """Deterministic hash of ``parts`` mapped into ``[0, 1)``."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class InjectedFault(RuntimeError):
    """A chaos fault raised inside a payload (picklable across pools)."""

    def __init__(self, key: str, kind: str = "exception",
                 permanent: bool = False):
        self.key = key
        self.kind = kind
        self.permanent = permanent
        super().__init__(
            f"injected {'permanent' if permanent else 'transient'} "
            f"{kind} fault on job {key[:12]}")

    def __reduce__(self):
        # The custom __init__ signature needs an explicit recipe so the
        # exception survives the pickle trip out of a pool worker.
        return (InjectedFault, (self.key, self.kind, self.permanent))


@dataclass(frozen=True)
class FaultPlan:
    """What the injector has decided for one job key."""

    kind: str
    permanent: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision parameters of one campaign run.

    Attributes
    ----------
    max_attempts:
        Dispatches a payload gets before the supervisor escalates
        (bisection for multi-job payloads, quarantine for single jobs).
        ``1`` disables retries without disabling escalation.
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff before re-dispatch ``n``:
        ``base * factor**(n-1)``, capped at ``backoff_max`` seconds.
        A non-positive base disables the sleep entirely.
    jitter:
        Fractional jitter spread on top of the backoff, drawn
        deterministically from ``(seed, payload key, attempt)`` — two
        identical runs back off on identical schedules.
    payload_timeout:
        Wall-clock seconds (positive and finite) a pool payload may run
        before it is declared hung and its pool abandoned; ``None``
        disables the watchdog.
        Inline execution has no enforcement point and ignores it.
    seed:
        Seed of the deterministic jitter stream.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    payload_timeout: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        # A NaN deadline never expires and makes the supervisor poll
        # without waiting; an infinite one overflows the wait.
        if self.payload_timeout is not None and not (
                0.0 < self.payload_timeout < math.inf):
            raise ValueError(
                "payload_timeout must be positive and finite (or None), got "
                f"{self.payload_timeout}")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff (seconds) before re-dispatch number ``attempt``."""
        if self.backoff_base <= 0.0:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        spread = self.jitter * _unit_interval(self.seed, key, attempt)
        return min(base * (1.0 + spread), self.backoff_max)


@dataclass(frozen=True)
class FaultInjector:
    """Seeded, content-keyed chaos injection (armed by construction).

    ``plan_for`` is a pure function of ``(seed, key)``: a job either
    carries a fault in every run of this seed or in none, whatever the
    worker count, dispatch order or retry history — which is what makes
    the ledger reconcilable and a chaos campaign reproducible.
    """

    seed: int = 0
    rate: float = 0.2
    kinds: tuple = FAULT_KINDS
    permanent_rate: float = 0.25
    hang_seconds: float = 60.0
    inline: bool = False

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        unknown = sorted(set(self.kinds) - set(FAULT_KINDS))
        if unknown or not self.kinds:
            raise ValueError(f"unknown fault kind(s) {unknown}; expected a "
                             f"non-empty subset of {FAULT_KINDS}")

    # ------------------------------------------------------------------
    # Arming syntax / cross-process transport
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultInjector":
        """Parse the CLI arming syntax ``SEED@RATE[@KIND,KIND,...]``."""
        parts = text.split("@")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad chaos spec {text!r}; expected SEED@RATE or "
                "SEED@RATE@KIND,KIND (e.g. 7@0.25@exception,crash)")
        try:
            seed, rate = int(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"bad chaos spec {text!r}; SEED must be an "
                             "integer and RATE a float") from None
        kinds = tuple(part for part in parts[2].split(",") if part) \
            if len(parts) == 3 else FAULT_KINDS
        return cls(seed=seed, rate=rate, kinds=kinds)

    def config(self, inline: bool = False) -> dict:
        """JSON-compatible form shipped to pool workers in the payload."""
        return {"seed": self.seed, "rate": self.rate,
                "kinds": list(self.kinds),
                "permanent_rate": self.permanent_rate,
                "hang_seconds": self.hang_seconds, "inline": bool(inline)}

    @classmethod
    def from_config(cls, data: dict) -> "FaultInjector":
        """Rebuild a worker-side injector from :meth:`config` output."""
        return cls(seed=int(data["seed"]), rate=float(data["rate"]),
                   kinds=tuple(data["kinds"]),
                   permanent_rate=float(data["permanent_rate"]),
                   hang_seconds=float(data["hang_seconds"]),
                   inline=bool(data.get("inline", False)))

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def plan_for(self, key: str) -> FaultPlan | None:
        """The fault planned for ``key`` under this seed, if any."""
        if _unit_interval(self.seed, "gate", key) >= self.rate:
            return None
        index = int(_unit_interval(self.seed, "kind", key) * len(self.kinds))
        kind = self.kinds[min(index, len(self.kinds) - 1)]
        permanent = (kind == "exception"
                     and _unit_interval(self.seed, "permanent", key)
                     < self.permanent_rate)
        return FaultPlan(kind, permanent)

    def ledger(self, keys) -> dict:
        """Planned faults for ``keys`` — the reconciliation ground truth."""
        plans = {}
        for key in keys:
            plan = self.plan_for(key)
            if plan is not None:
                plans[key] = plan
        return plans

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, key: str, attempt: int) -> None:
        """Inject the fault planned for ``key``, if one is due now.

        Transient faults fire only on a job's first dispatch
        (``attempt == 0``); permanent faults fire on every dispatch.
        ``corrupt`` faults are driven by the cache writer, not here.
        """
        plan = self.plan_for(key)
        if plan is None or plan.kind == "corrupt":
            return
        if not plan.permanent and attempt > 0:
            return
        if plan.kind == "exception" or self.inline:
            raise InjectedFault(key, plan.kind, plan.permanent)
        if plan.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if plan.kind == "hang":
            time.sleep(self.hang_seconds)

    def corrupt_record(self, cache, key: str) -> bool:
        """Garble ``key``'s freshly written cache record, if planned.

        Models a write that never lands intact (torn sector, disk-full
        truncation): the in-memory record the run already absorbed stays
        good; only the *next* run sees the damage — and the cache's
        defensive read path heals it into a recomputed miss.
        """
        plan = self.plan_for(key)
        if plan is None or plan.kind != "corrupt" or not cache.enabled:
            return False
        path = cache.path_for(key)
        if not path.exists():
            return False
        path.write_text('{"key": "%s", "truncated' % key)
        return True
