"""Per-tenant isolation: one EngineSession and one dataset namespace each.

Every request names a tenant (defaulting to ``"public"``); the service
resolves it to a **tenant-private** :class:`~repro.engine.session
.EngineSession`, so the analysis / core / plan / partition caches of one
tenant can never serve another's queries — cache isolation *is* the
session boundary, exactly as the engine designed it (constructing a
session is complete cache isolation).  Sessions are cheap; the pool is
LRU-bounded so a long tail of one-request tenants cannot grow session
state without limit (an evicted tenant transparently gets a fresh, cold
session on its next request).

Datasets are namespaced the same way: ``(tenant, name) -> Database``.
Tenants share nothing — not even dataset names.
"""

from __future__ import annotations

import threading

from repro.engine.analysis import LRUCache
from repro.engine.session import EngineSession

DEFAULT_TENANT = "public"


class UnknownDataset(KeyError):
    def __init__(self, tenant: str, name: str, known: list) -> None:
        super().__init__(
            f"tenant {tenant!r} has no dataset {name!r}; registered: {known}"
        )
        self.tenant = tenant
        self.name = name


class TenantSessions:
    """An LRU-bounded pool of per-tenant engine sessions."""

    def __init__(self, max_tenants: int = 64) -> None:
        self._sessions = LRUCache(max_tenants)
        # The compound get-or-create must be atomic: two concurrent first
        # requests for one tenant must not each install a session (the
        # loser's caches would silently vanish).  LRUCache's own lock only
        # covers single operations.
        self._lock = threading.Lock()
        self.created = 0

    def get(self, tenant: str) -> EngineSession:
        with self._lock:
            session = self._sessions.get(tenant)
            if session is None:
                session = EngineSession()
                self._sessions.put(tenant, session)
                self.created += 1
            return session

    def tenants(self) -> list:
        return [tenant for tenant, _ in self._sessions.snapshot()]

    def stats(self) -> dict:
        return {
            tenant: session.stats()
            for tenant, session in self._sessions.snapshot()
        }

    def info(self) -> dict:
        info = self._sessions.info()
        info["created"] = self.created
        return info


class DatasetRegistry:
    """Named, tenant-scoped databases the service answers queries over."""

    def __init__(self) -> None:
        self._datasets: dict = {}
        self._lock = threading.Lock()

    def register(self, tenant: str, name: str, database) -> None:
        with self._lock:
            self._datasets.setdefault(tenant, {})[name] = database

    def get(self, tenant: str, name: str):
        with self._lock:
            tenant_sets = self._datasets.get(tenant, {})
            try:
                return tenant_sets[name]
            except KeyError:
                raise UnknownDataset(tenant, name, sorted(tenant_sets)) from None

    def names(self, tenant: str) -> list:
        with self._lock:
            return sorted(self._datasets.get(tenant, {}))

    def by_tenant(self) -> dict:
        with self._lock:
            return {tenant: sorted(sets) for tenant, sets in self._datasets.items()}
