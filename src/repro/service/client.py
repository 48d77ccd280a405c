"""A small synchronous client for the query service (stdlib ``http.client``).

Used by the service tests, the load benchmark, and the example — and a
reasonable template for real callers.  One :class:`ServiceClient` holds one
keep-alive connection, so N concurrent clients means N instances on N
threads (``http.client`` connections are not thread-safe).
"""

from __future__ import annotations

import http.client
import json

from repro.service.codec import database_to_json, query_to_json

#: The requests a dropped connection may send again: reads, whose repeat
#: returns the same answer.  A poll advances its subscription's cursor, a
#: subscribe registers a subscription and ``POST /facts`` appends rows, so
#: a lost response to one of those raises instead of repeating it.
_SAFE_TO_REPEAT = frozenset(
    {
        ("POST", "/answer"),
        ("POST", "/count"),
        ("POST", "/is_satisfiable"),
        ("POST", "/batch"),
        ("GET", "/healthz"),
        ("GET", "/stats"),
    }
)


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, payload: dict, headers: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.headers = {name.lower(): value for name, value in headers.items()}

    @property
    def retry_after_seconds(self) -> float | None:
        raw = self.headers.get("retry-after")
        return float(raw) if raw is not None else None


class ServiceClient:
    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    # -- transport -------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> dict:
        """One round trip; raises :class:`ServiceError` on non-2xx.

        After a transport error (a dropped keep-alive connection, a
        timeout) a read is sent once more on a fresh connection; any other
        request raises the error."""
        body = None
        headers = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connect()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            if (method, path) not in _SAFE_TO_REPEAT:
                raise
            connection = self._connect()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        data = json.loads(raw.decode("utf-8")) if raw else {}
        if response.status >= 300:
            raise ServiceError(
                response.status, data, dict(response.getheaders())
            )
        return data

    # -- payload assembly ------------------------------------------------
    @staticmethod
    def _payload(query=None, database=None, dataset=None, tenant=None, **options):
        payload = dict(options)
        if query is not None:
            payload["query"] = query_to_json(query)
        if database is not None:
            payload["database"] = database_to_json(database)
        if dataset is not None:
            payload["dataset"] = dataset
        if tenant is not None:
            payload["tenant"] = tenant
        return payload

    # -- API -------------------------------------------------------------
    def answer(self, query, database=None, dataset=None, tenant=None, **options):
        return self.request(
            "POST", "/answer",
            self._payload(query, database, dataset, tenant, **options),
        )

    def count(self, query, database=None, dataset=None, tenant=None, **options):
        return self.request(
            "POST", "/count",
            self._payload(query, database, dataset, tenant, **options),
        )

    def is_satisfiable(self, query, database=None, dataset=None, tenant=None,
                       **options):
        return self.request(
            "POST", "/is_satisfiable",
            self._payload(query, database, dataset, tenant, **options),
        )

    def batch(self, queries, database=None, dataset=None, tenant=None,
              task: str = "answer", **options):
        payload = self._payload(None, database, dataset, tenant, **options)
        payload["task"] = task
        payload["queries"] = [query_to_json(q) for q in queries]
        return self.request("POST", "/batch", payload)

    # -- write path & standing queries -----------------------------------
    def add_facts(self, dataset: str, facts: dict, tenant=None):
        """Append ``{"R": [[...], ...]}`` rows to a registered dataset."""
        payload = self._payload(None, None, dataset, tenant)
        payload["facts"] = {
            name: [list(row) for row in rows] for name, rows in facts.items()
        }
        return self.request("POST", "/facts", payload)

    def subscribe(self, query, dataset: str, tenant=None):
        """Register a standing query; the response's ``delta`` is the
        initial answer set, and its ``subscription`` id keys later polls."""
        return self.request(
            "POST", "/subscriptions", self._payload(query, None, dataset, tenant)
        )

    def poll(self, subscription_id: str, tenant=None):
        """The answers derived since the previous poll of a subscription."""
        return self.request(
            "GET",
            f"/subscriptions/{subscription_id}",
            headers={"X-Tenant": tenant} if tenant is not None else None,
        )

    def unsubscribe(self, subscription_id: str, tenant=None):
        return self.request(
            "DELETE",
            f"/subscriptions/{subscription_id}",
            headers={"X-Tenant": tenant} if tenant is not None else None,
        )

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")
