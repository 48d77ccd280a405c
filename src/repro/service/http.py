"""A minimal asyncio HTTP/1.1 layer — no third-party dependencies.

The service deliberately speaks just enough HTTP for a JSON API: request
line + headers + ``Content-Length`` bodies in, ``application/json``
responses out, keep-alive by default.  There is no chunked encoding, no
TLS, no multipart — a reverse proxy in front owns those concerns in any
real deployment; here the point is a dependency-free front door the test
suite and the load harness can drive with :mod:`http.client`.

:class:`Router` maps ``(method, path)`` to async handlers
(``Request -> Response``) and produces the 404/405 responses itself, so
the connection loop in :mod:`repro.service.app` only ever sees a
:class:`Response` to serialize.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import urlsplit

#: Hard cap on one header line / request line (a parser, not a proxy).
_MAX_LINE_BYTES = 16 * 1024
_MAX_HEADER_COUNT = 100


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


#: Python's decoder also accepts ``NaN``, ``Infinity`` and ``-Infinity``,
#: which are not JSON; request bodies refuse them.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A protocol-level failure the connection loop turns into a response
    (and then closes the connection — framing may be lost)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    method: str
    path: str
    headers: dict
    body: bytes
    #: Path parameters bound by a template route (``/subscriptions/{id}``
    #: matched against ``/subscriptions/7`` puts ``{"id": "7"}`` here).
    params: dict = field(default_factory=dict)

    def json(self):
        if not self.body:
            return None
        try:
            return _DECODER.decode(
                self.body.decode(json.detect_encoding(self.body), "surrogatepass")
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


@dataclass
class Response:
    status: int = 200
    payload: object = None
    headers: dict = field(default_factory=dict)

    @classmethod
    def error(
        cls, status: int, message: str, headers: dict | None = None, **extra
    ) -> "Response":
        body = {"error": message}
        body.update(extra)
        return cls(status, body, headers or {})

    def encode(self, keep_alive: bool) -> bytes:
        body = b""
        if self.payload is not None:
            body = json.dumps(self.payload, default=repr).encode("utf-8")
        lines = [
            f"HTTP/1.1 {self.status} {REASONS.get(self.status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line off the stream.  A line past :data:`_MAX_LINE_BYTES` is a
    400, and so is one past the reader's own limit (64 KiB by default),
    where ``readline`` raises ``ValueError``."""
    try:
        line = await reader.readline()
    except ValueError:
        raise HttpError(400, f"{what} too long") from None
    if len(line) > _MAX_LINE_BYTES:
        raise HttpError(400, f"{what} too long")
    return line


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Request | None:
    """Parse one request off the stream; ``None`` on clean EOF between
    requests (the client closed a keep-alive connection)."""
    try:
        line = await _read_line(reader, "request line")
    except ConnectionError:
        return None
    if not line:
        return None
    try:
        method, target, version = line.decode("ascii").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version}")
    headers: dict = {}
    while True:
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= _MAX_HEADER_COUNT:
            raise HttpError(400, "too many headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "undecodable header") from None
        headers[name.strip().lower()] = value.strip()
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_header!r}") from None
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > max_body_bytes:
        raise HttpError(413, f"body of {length} bytes exceeds {max_body_bytes}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
    return Request(method.upper(), urlsplit(target).path, headers, body)


class Router:
    """``(method, path) -> async handler``; emits its own 404/405.

    Paths may contain ``{name}`` template segments (``/subscriptions/{id}``);
    a template segment matches exactly one non-empty path segment and the
    matched values land in ``request.params``.  Exact routes always win over
    template routes.
    """

    def __init__(self) -> None:
        self._routes: dict = {}
        #: ``(method, segment tuple)`` -> handler, where template segments
        #: are the parameter name marked by a leading ``{``.
        self._templates: dict = {}

    def add(self, method: str, path: str, handler) -> None:
        if "{" in path:
            segments = tuple(
                segment for segment in path.split("/") if segment != ""
            )
            self._templates[(method.upper(), segments)] = handler
        else:
            self._routes[(method.upper(), path)] = handler

    @staticmethod
    def _match(template: tuple, segments: tuple) -> dict | None:
        if len(template) != len(segments):
            return None
        params: dict = {}
        for pattern, actual in zip(template, segments):
            if pattern.startswith("{") and pattern.endswith("}"):
                params[pattern[1:-1]] = actual
            elif pattern != actual:
                return None
        return params

    async def dispatch(self, request: Request) -> Response:
        handler = self._routes.get((request.method, request.path))
        if handler is not None:
            return await handler(request)
        segments = tuple(s for s in request.path.split("/") if s != "")
        allowed = set()
        for (method, template), candidate in self._templates.items():
            params = self._match(template, segments)
            if params is None:
                continue
            if method == request.method:
                request.params = params
                return await candidate(request)
            allowed.add(method)
        allowed.update(
            method for method, path in self._routes if path == request.path
        )
        if allowed:
            return Response.error(
                405,
                f"{request.method} not allowed on {request.path}",
                allowed=sorted(allowed),
            )
        return Response.error(404, f"no route for {request.path}")
