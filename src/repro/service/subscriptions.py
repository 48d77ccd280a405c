"""Standing queries over the service's append path.

A **subscription** registers a conjunctive query against a registered
dataset and holds a tenant-private
:class:`~repro.engine.incremental.IncrementalView` open across requests.
Appends arrive through ``POST /facts``; each ``GET /subscriptions/{id}``
poll refreshes the view (semi-naive delta evaluation — cost scales with
the appended rows, not the dataset) and returns the answer tuples derived
since the previous poll, so a client can follow a growing dataset without
ever re-reading the full answer set.

Subscriptions are tenant-scoped exactly like datasets: an id only resolves
together with the tenant that created it, and a wrong tenant gets the same
:class:`UnknownSubscription` as a missing id — existence is never leaked
across tenants.  Delivery is per-subscription (one cursor): two clients
that each want every delta should register two subscriptions.
"""

from __future__ import annotations

import threading
import time


class UnknownSubscription(KeyError):
    def __init__(self, tenant: str, subscription_id: str) -> None:
        super().__init__(
            f"tenant {tenant!r} has no subscription {subscription_id!r}"
        )
        self.tenant = tenant
        self.subscription_id = subscription_id


class Subscription:
    """One standing query: an incremental view plus a delivery cursor."""

    def __init__(self, subscription_id, tenant, dataset, query, view) -> None:
        self.id = subscription_id
        self.tenant = tenant
        self.dataset = dataset
        self.query = query
        self.view = view
        self.polls = 0
        #: How many of the view's answers the client has been handed.  The
        #: view's answer log is append-only, so the next poll's delta is
        #: exactly the log entries past this cursor: each answer is
        #: delivered once, in the order refreshes found it.
        self._cursor = 0
        self._lock = threading.Lock()

    def poll(self) -> dict:
        """Refresh the view and return the undelivered answers.

        The record mirrors ``EvalResult.timings["incremental"]`` plus the
        delta itself: ``delta`` (the list of newly derived answer tuples),
        ``total`` (the full maintained answer count), ``mode``,
        ``delta_rows`` (stored rows folded in by this refresh), and
        ``refresh_seconds``.
        """
        with self._lock:
            result = self.view.refresh()
            record = result.timings["incremental"]
            delta = result.rows.since(self._cursor)
            self._cursor = len(result.rows)
            self.polls += 1
            return {
                "id": self.id,
                "dataset": self.dataset,
                "delta": delta,
                "total": len(result.rows),
                "mode": record["mode"],
                "delta_rows": record["delta_rows"],
                "refresh_seconds": record["refresh_seconds"],
            }

    def info(self) -> dict:
        return {
            "dataset": self.dataset,
            "polls": self.polls,
            "answers": len(self.view.rows),
            "refreshes": self.view.refreshes,
            "refresh_modes": dict(self.view.refresh_modes),
        }


class SubscriptionRegistry:
    """Tenant-scoped standing queries, ``(tenant, id) -> Subscription``."""

    def __init__(self, max_subscriptions: int = 1024) -> None:
        self.max_subscriptions = max_subscriptions
        self._subscriptions: dict = {}
        self._lock = threading.Lock()
        self._counter = 0
        self.created = 0

    def register(self, tenant, dataset, query, make_view) -> Subscription:
        """Register a standing query whose view ``make_view()`` builds.  A
        full registry raises ``OverflowError`` before the view exists, so a
        refused subscription leaves nothing behind."""
        with self._lock:
            if len(self._subscriptions) >= self.max_subscriptions:
                raise OverflowError(
                    f"subscription limit of {self.max_subscriptions} reached"
                )
            self._counter += 1
            # The timestamp keeps ids from colliding across registry
            # restarts behind one front door; within a registry the counter
            # alone is unique.
            subscription_id = f"sub-{int(time.time())}-{self._counter}"
            subscription = Subscription(
                subscription_id, tenant, dataset, query, make_view()
            )
            self._subscriptions[subscription_id] = subscription
            self.created += 1
            return subscription

    def get(self, tenant: str, subscription_id: str) -> Subscription:
        with self._lock:
            subscription = self._subscriptions.get(subscription_id)
        if subscription is None or subscription.tenant != tenant:
            raise UnknownSubscription(tenant, subscription_id)
        return subscription

    def remove(self, tenant: str, subscription_id: str) -> Subscription:
        with self._lock:
            subscription = self._subscriptions.get(subscription_id)
            if subscription is None or subscription.tenant != tenant:
                raise UnknownSubscription(tenant, subscription_id)
            return self._subscriptions.pop(subscription_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def stats(self) -> dict:
        with self._lock:
            subscriptions = list(self._subscriptions.values())
        by_tenant: dict = {}
        for subscription in subscriptions:
            by_tenant.setdefault(subscription.tenant, {})[
                subscription.id
            ] = subscription.info()
        return {
            "active": len(subscriptions),
            "created": self.created,
            "by_tenant": by_tenant,
        }
