"""Seeded, deterministic fault injection (the fault plane).

The paper's premise is that upstream vulnerability data is messy and
unreliable; this module makes the *reproduction's own* failure handling
testable by injecting faults at named sites threaded through the web,
artifact and serving layers.  A :class:`FaultPlan` is parsed
from a compact grammar::

    web.fetch:error=0.2;store.write:torn=1;serve.worker:kill=1

Each clause is ``site:kind=rate`` with an optional ``@cap`` suffix:

- ``rate < 1`` — *probability mode*: each consultation of the site
  fires with that probability, drawn from a per-``site:kind`` RNG
  seeded by the plan seed (so a given plan + seed replays the same
  fault sequence);
- ``rate >= 1`` — *count mode*: the site fires exactly ``int(rate)``
  times in this process, then never again (``serve.worker:kill=1``
  kills exactly one serve worker);
- ``@cap`` (probability mode only, default 2) bounds *consecutive*
  fires per token — a URL, a store root — so a retry loop with a
  budget above the cap always drains.  Fault tolerance can then be
  asserted as an equivalence: the faulted run must converge to the
  fault-free run's bytes, not merely survive.

Sites consult the process-global active plan through :func:`should` /
:func:`raise_if`; with no plan installed both are a ``None`` check, so
production paths pay nothing.  The active plan resolves once per
process from the ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` environment
variables, which worker processes inherit — a plan installed via the
environment covers every layer of a multi-process run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import re
import threading
from collections import Counter

__all__ = [
    "FaultError",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "active",
    "clear",
    "install",
    "reset",
    "raise_if",
    "should",
]

#: environment variables the plan resolves from.
ENV_PLAN = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

#: default bound on consecutive probability-mode fires per token.
DEFAULT_CAP = 2

_CLAUSE_RE = re.compile(
    r"^(?P<site>[a-z][a-z0-9_.]*):(?P<kind>[a-z][a-z0-9_]*)"
    r"=(?P<rate>\d+(?:\.\d+)?)(?:@(?P<cap>\d+))?$"
)


class FaultError(RuntimeError):
    """Base class for everything the fault plane raises."""


class FaultInjected(FaultError):
    """An injected fault firing at a site (``site:kind``)."""

    def __init__(self, site: str, kind: str) -> None:
        super().__init__(f"injected fault {site}:{kind}")
        self.site = site
        self.kind = kind


def _spec_seed(seed: int, site: str, kind: str) -> int:
    """A stable integer seed per (plan seed, site, kind).

    ``hash(str)`` is randomized per process, so the per-spec RNG seeds
    go through blake2b instead — identical across processes and runs.
    """
    digest = hashlib.blake2b(
        f"{seed}:{site}:{kind}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclasses.dataclass
class FaultSpec:
    """One ``site:kind=rate[@cap]`` clause, with its firing state."""

    site: str
    kind: str
    rate: float
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"fault rate must be >= 0, got {self.rate}")
        if self.cap < 1:
            raise ValueError(f"fault cap must be >= 1, got {self.cap}")
        #: count mode fires exactly int(rate) times; None = probability.
        self.budget: int | None = int(self.rate) if self.rate >= 1 else None
        self.fired = 0
        self._rng: random.Random | None = None
        self._consecutive: dict[str, int] = {}

    def clause(self) -> str:
        """The clause text this spec round-trips to."""
        rate = f"{int(self.rate)}" if self.rate >= 1 else f"{self.rate:g}"
        suffix = "" if self.cap == DEFAULT_CAP else f"@{self.cap}"
        return f"{self.site}:{self.kind}={rate}{suffix}"

    def draw(self, seed: int, token: str) -> bool:
        """One consultation: does the fault fire?  (Not thread-safe —
        the owning plan serialises calls.)"""
        if self.budget is not None:  # count mode
            if self.fired < self.budget:
                self.fired += 1
                return True
            return False
        if self._rng is None:
            self._rng = random.Random(_spec_seed(seed, self.site, self.kind))
        fires = self._rng.random() < self.rate
        streak = self._consecutive.get(token, 0)
        if fires and streak >= self.cap:
            fires = False  # bounded adversary: retries must drain
        self._consecutive[token] = streak + 1 if fires else 0
        if fires:
            self.fired += 1
        return fires


class FaultPlan:
    """A parsed set of fault specs plus per-site firing bookkeeping."""

    def __init__(self, specs: list[FaultSpec], seed: int = 0) -> None:
        self.seed = int(seed)
        self.specs: dict[tuple[str, str], FaultSpec] = {}
        for spec in specs:
            key = (spec.site, spec.kind)
            if key in self.specs:
                raise ValueError(f"duplicate fault clause {spec.site}:{spec.kind}")
            self.specs[key] = spec
        self._lock = threading.Lock()
        self.counters: Counter[str] = Counter()

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``site:kind=rate[@cap];...`` into a plan."""
        specs = []
        for raw in text.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            match = _CLAUSE_RE.match(clause)
            if match is None:
                raise ValueError(
                    f"bad fault clause {clause!r}; expected site:kind=rate[@cap] "
                    "(e.g. web.fetch:error=0.2 or serve.worker:kill=1)"
                )
            cap = match.group("cap")
            specs.append(
                FaultSpec(
                    site=match.group("site"),
                    kind=match.group("kind"),
                    rate=float(match.group("rate")),
                    cap=int(cap) if cap is not None else DEFAULT_CAP,
                )
            )
        if not specs:
            raise ValueError("fault plan is empty")
        return cls(specs, seed=seed)

    def to_spec(self) -> str:
        """The plan's grammar text (parse/format round-trips)."""
        return ";".join(spec.clause() for spec in self.specs.values())

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"FaultPlan({self.to_spec()!r}, seed={self.seed})"

    def should(self, site: str, kind: str, token: str = "") -> bool:
        """Consult one site: True when the fault fires this time.

        ``token`` scopes the consecutive-fire cap (a URL, a store
        root); call sites in retry loops pass the retried identity so
        the bounded-adversary guarantee applies per item.
        """
        spec = self.specs.get((site, kind))
        if spec is None:
            return False
        with self._lock:
            fired = spec.draw(self.seed, token)
            if fired:
                self.counters[f"{site}:{kind}"] += 1
        return fired

    def fired(self, site: str, kind: str) -> int:
        """How many times ``site:kind`` has fired in this process."""
        spec = self.specs.get((site, kind))
        return spec.fired if spec is not None else 0


# -- the process-global active plan ------------------------------------------

_UNRESOLVED = object()  # sentinel: environment not consulted yet
_active: "FaultPlan | None | object" = _UNRESOLVED
_active_lock = threading.Lock()


def active() -> FaultPlan | None:
    """The process's active fault plan (None when no faults).

    Resolved lazily, once, from ``REPRO_FAULTS`` — worker processes
    inherit the environment, so one exported plan covers injection
    sites in every layer of a multi-process run.
    """
    global _active
    if _active is _UNRESOLVED:
        with _active_lock:
            if _active is _UNRESOLVED:
                spec = os.environ.get(ENV_PLAN)
                seed = int(os.environ.get(ENV_SEED, "0") or "0")
                _active = FaultPlan.parse(spec, seed=seed) if spec else None
    return _active  # type: ignore[return-value]


def install(plan: FaultPlan | None, *, export_env: bool = False) -> FaultPlan | None:
    """Install ``plan`` as this process's active plan (None disables).

    ``export_env=True`` also writes ``REPRO_FAULTS``/``REPRO_FAULTS_SEED``
    so freshly spawned worker processes resolve the same plan.
    """
    global _active
    with _active_lock:
        _active = plan
    if export_env:
        if plan is None:
            os.environ.pop(ENV_PLAN, None)
            os.environ.pop(ENV_SEED, None)
        else:
            os.environ[ENV_PLAN] = plan.to_spec()
            os.environ[ENV_SEED] = str(plan.seed)
    return plan


def clear() -> None:
    """Disable fault injection in this process (env untouched)."""
    install(None)


def reset() -> None:
    """Forget the active plan so the next :func:`active` re-reads the
    environment (test/harness hook)."""
    global _active
    with _active_lock:
        _active = _UNRESOLVED


def should(site: str, kind: str, token: str = "") -> bool:
    """``active().should(...)`` with the no-plan fast path inlined."""
    plan = active()
    return plan is not None and plan.should(site, kind, token)


def raise_if(site: str, kind: str, token: str = "") -> None:
    """Raise :class:`FaultInjected` when ``site:kind`` fires."""
    if should(site, kind, token):
        raise FaultInjected(site, kind)
