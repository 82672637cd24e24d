"""Stdlib-only asyncio HTTP/1.1 frontend over :class:`DiagnosisService`.

The service core is transport-agnostic; this module is the wire.  One
:class:`HttpFrontend` owns an ``asyncio.start_server`` listener on the same
event loop as the service it fronts, speaking just enough HTTP/1.1 for
production serving — persistent connections, ``Content-Length`` framing,
JSON bodies — with three endpoints:

* ``POST /diagnose`` — a single request object, or ``{"requests": [...]}``
  for a batch.  Bodies are validated with positional error messages (the
  JSONL path's discipline: say *where*, not just *what*); a single request
  shed by admission control answers ``429 Too Many Requests`` with a
  ``Retry-After`` hint, and a batch reports shedding per item so one full
  queue never fails its body mates.
* ``GET /stats`` — the service's ``stats()`` snapshot plus the frontend's
  own connection/request/shed counters.
* ``GET /metrics`` — the same telemetry in Prometheus text exposition
  format (see :mod:`repro.service.prometheus`), with per-tenant labels.
* ``GET /dashboard`` — a stdlib-rendered auto-refreshing HTML view of
  ``/stats`` (see :mod:`repro.service.dashboard`).
* ``GET /healthz`` — liveness: tiny, allocation-free, always serveable.

Multi-tenancy rides the existing surfaces: a request body's ``tenant``
field names the tenant, and the ``X-Tenant`` header sets the default for
every request on that message that names none (body wins over header).

Shutdown is graceful: the listener closes first, requests already on a
connection finish and flush, then idle keep-alive connections are dropped.

:class:`HttpClient` is the matching minimal client (keep-alive, JSON) used
by the load generator's ``--http`` transport and the differential suite, so
the *real* wire path — parse, frame, serialise — is what gets verified
bit-identical against the direct pipeline.  :class:`BackgroundHttpServer`
runs a service + frontend on a dedicated thread/event loop for synchronous
callers (the benchmark, tests).
"""

from __future__ import annotations

import asyncio
import json
import threading
from urllib.parse import urlparse

from .dashboard import render_dashboard
from .requests import DEFAULT_TENANT, DiagnosisRequest, DiagnosisResponse, validate_tenant
from .service import DiagnosisService, RejectedError

__all__ = [
    "HttpError",
    "HttpFrontend",
    "HttpClient",
    "BackgroundHttpServer",
    "parse_http_target",
]

#: Framing bounds: a diagnosis request is a few hundred bytes; an explicit
#: Q_14 syndrome is ~1.3 MB hex.  16 MB accommodates large explicit batches
#: while keeping a misbehaving peer from ballooning the process.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Retry-After hint on 429 responses (seconds; coarse — HTTP has no ms).
RETRY_AFTER_SECONDS = 1

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A request that must be answered with an HTTP error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def parse_http_target(target: str) -> tuple[str, int]:
    """``(host, port)`` from ``http://host:port``, ``host:port`` or ``:port``."""
    if "//" not in target:
        target = f"http://{target}"
    parsed = urlparse(target)
    if parsed.scheme != "http":
        raise ValueError(f"only http:// targets are supported, got {target!r}")
    if parsed.port is None:
        raise ValueError(f"target {target!r} needs an explicit port")
    return parsed.hostname or "127.0.0.1", parsed.port


def _connection_requests_close(header_value: str | None) -> bool:
    """Whether a ``Connection`` header asks to close after this message.

    HTTP header values are case-insensitive token lists (RFC 9110 §7.6.1):
    ``Close``, ``close, TE`` and friends all mean close.  Comparing the raw
    string against ``"close"`` — the old behaviour — silently kept such
    connections alive, leaving well-formed peers hanging on a socket they
    asked to be torn down.
    """
    if not header_value:
        return False
    return "close" in (
        token.strip().lower() for token in header_value.split(",")
    )


def _parse_body_requests(
    body: bytes, *, default_tenant: str = DEFAULT_TENANT
) -> tuple[list[DiagnosisRequest], bool]:
    """Parse a ``POST /diagnose`` body into requests (and whether batched).

    Error messages carry the position of the offending construct —
    ``body:line:column`` for JSON syntax, ``requests[i]`` for a bad batch
    entry — mirroring the JSONL file path's ``file:line`` discipline.
    ``default_tenant`` (the connection's ``X-Tenant`` header) applies to
    every entry that names no tenant of its own.
    """
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise HttpError(
            400, f"body:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        )
    if isinstance(payload, dict) and "requests" in payload:
        unknown = set(payload) - {"requests"}
        if unknown:
            raise HttpError(
                400,
                f"batch body takes only 'requests', got extra fields "
                f"{sorted(unknown)}",
            )
        entries = payload["requests"]
        if not isinstance(entries, list) or not entries:
            raise HttpError(400, "'requests' must be a non-empty array")
        requests = []
        for position, entry in enumerate(entries):
            try:
                requests.append(
                    DiagnosisRequest.from_dict(entry, default_tenant=default_tenant)
                )
            except (ValueError, TypeError) as exc:
                raise HttpError(400, f"requests[{position}]: {exc}")
        return requests, True
    try:
        return [DiagnosisRequest.from_dict(payload, default_tenant=default_tenant)], False
    except (ValueError, TypeError) as exc:
        raise HttpError(400, str(exc))


class HttpFrontend:
    """The HTTP/1.1 listener serving one :class:`DiagnosisService`.

    The frontend does not own the service (several transports may share it);
    it owns the listener, the connections, and its own counters.  ``port=0``
    binds an ephemeral port, readable from :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        service: DiagnosisService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closing = False
        self.connections_total = 0
        self.http_requests = 0
        self.shed = 0
        self.client_errors = 0

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        self._requested_port = self._server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        return self._requested_port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        """Graceful drain: stop listening, finish in-flight requests, drop idle.

        New connections are refused immediately; requests already being
        served run to completion and flush their responses; keep-alive
        connections sitting idle between requests are then cancelled.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def __aenter__(self) -> "HttpFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def stats(self) -> dict:
        return {
            "address": self.address,
            "connections_total": self.connections_total,
            "connections_open": len(self._connections),
            "requests": self.http_requests,
            "shed": self.shed,
            "client_errors": self.client_errors,
        }

    # ------------------------------------------------------------ connections
    def _on_connection(self, reader, writer) -> None:
        task = asyncio.create_task(self._serve_connection(reader, writer))
        self.connections_total += 1
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # peer closed between requests: normal keep-alive end
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer, 413, {"error": "headers too large"}, close=True
                    )
                    return
                if len(head) > MAX_HEADER_BYTES:
                    await self._respond(
                        writer, 413, {"error": "headers too large"}, close=True
                    )
                    return
                keep_alive = await self._serve_one(reader, writer, head)
                if not keep_alive or self._closing:
                    return
        except asyncio.CancelledError:
            pass  # close() dropping an idle connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # peer vanished first; the connection is gone either way

    async def _serve_one(self, reader, writer, head: bytes) -> bool:
        """Parse and answer one request; returns whether to keep the connection."""
        self._inflight += 1
        self._idle.clear()
        try:
            try:
                method, path, headers = _parse_head(head)
            except HttpError as exc:
                await self._respond(
                    writer, exc.status, {"error": exc.message}, close=True
                )
                return False
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length > MAX_BODY_BYTES:
                await self._respond(
                    writer, 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                    close=True,
                )
                return False
            if length:
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    return False
            keep_alive = not _connection_requests_close(headers.get("connection"))
            self.http_requests += 1
            try:
                status, payload, content_type = await self._route(
                    method, path, body, headers
                )
            except HttpError as exc:
                if exc.status == 429:
                    self.shed += 1
                else:
                    self.client_errors += 1
                await self._respond(
                    writer, exc.status, {"error": exc.message},
                    close=not keep_alive,
                    retry_after=RETRY_AFTER_SECONDS if exc.status == 429 else None,
                )
                return keep_alive
            except Exception as exc:  # unexpected: surface, don't hang the peer
                await self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"}, close=True,
                )
                return False
            await self._respond(
                writer, status, payload, close=not keep_alive,
                content_type=content_type,
            )
            return keep_alive
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    # ----------------------------------------------------------------- routes
    async def _route(
        self, method: str, path: str, body: bytes, headers: dict[str, str]
    ) -> tuple[int, dict | str, str | None]:
        """Dispatch one request; ``(status, payload, content type)``.

        A ``dict`` payload is serialised as JSON (content type ``None`` means
        the JSON default); a ``str`` payload ships verbatim under the given
        content type (the Prometheus and dashboard routes).
        """
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, f"{path} only supports GET")
            return 200, {"ok": not self._closing, "pending": self.service._pending_total}, None
        if path == "/stats":
            if method != "GET":
                raise HttpError(405, f"{path} only supports GET")
            stats = self.service.stats()
            stats["http"] = self.stats()
            return 200, stats, None
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, f"{path} only supports GET")
            text = self.service.prometheus_text(http_stats=self.stats())
            return 200, text, "text/plain; version=0.0.4; charset=utf-8"
        if path == "/dashboard":
            if method != "GET":
                raise HttpError(405, f"{path} only supports GET")
            stats = self.service.stats()
            stats["http"] = self.stats()
            return 200, render_dashboard(stats), "text/html; charset=utf-8"
        if path == "/diagnose":
            if method != "POST":
                raise HttpError(405, f"{path} only supports POST")
            tenant_header = headers.get("x-tenant")
            if tenant_header is not None:
                try:
                    tenant_header = validate_tenant(tenant_header)
                except ValueError as exc:
                    raise HttpError(400, f"X-Tenant header: {exc}")
            status, payload = await self._diagnose(
                body, default_tenant=tenant_header or DEFAULT_TENANT
            )
            return status, payload, None
        raise HttpError(404, f"unknown path {path!r}; "
                             f"try /diagnose, /stats, /metrics, /dashboard "
                             f"or /healthz")

    async def _diagnose(
        self, body: bytes, *, default_tenant: str = DEFAULT_TENANT
    ) -> tuple[int, dict]:
        requests, batched = _parse_body_requests(body, default_tenant=default_tenant)
        if not batched:
            try:
                response = await self.service.submit(requests[0])
            except RejectedError as exc:
                raise HttpError(429, str(exc))
            except (ValueError, TypeError) as exc:
                # Validation the parser cannot see — an unknown family, or a
                # param name the network constructor rejects (TypeError) —
                # surfaces at submit time; still the client's fault, not a 500.
                raise HttpError(400, str(exc))
            return 200, response.to_wire()
        outcomes = await asyncio.gather(
            *(self.service.submit(request) for request in requests),
            return_exceptions=True,
        )
        entries: list[dict] = []
        for position, outcome in enumerate(outcomes):
            if isinstance(outcome, DiagnosisResponse):
                entries.append(outcome.to_wire())
            elif isinstance(outcome, RejectedError):
                # Per-item shedding: a full queue never fails batch mates.
                self.shed += 1
                entries.append({"rejected": True, "error": str(outcome)})
            elif isinstance(outcome, (ValueError, TypeError)):
                self.client_errors += 1
                entries.append(
                    {"rejected": False,
                     "error": f"requests[{position}]: {outcome}"}
                )
            else:
                raise outcome  # BaseException/bugs: let the 500 handler see it
        return 200, {"responses": entries}

    # ------------------------------------------------------------- low level
    async def _respond(
        self,
        writer,
        status: int,
        payload: dict | str,
        *,
        close: bool = False,
        retry_after: int | None = None,
        content_type: str | None = None,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode()
        else:
            body = json.dumps(payload).encode()
            content_type = None
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type or 'application/json'}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if retry_after is not None:
            headers.append(f"Retry-After: {retry_after}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer gone mid-response; nothing left to flush


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """``(method, path, lowercase-header dict)`` from a raw request head."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise HttpError(400, "undecodable request head")
    request_line, _, rest = text.partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in rest.split("\r\n"):
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    content_length = headers.get("content-length")
    # isdigit() alone admits non-ASCII digits such as "\xb2", which int()
    # then rejects.
    if content_length is not None and not (
        content_length.isascii() and content_length.isdigit()
    ):
        raise HttpError(400, f"malformed Content-Length {content_length!r}")
    return method, path.split("?", 1)[0], headers


class HttpClient:
    """Minimal keep-alive HTTP/1.1 client (the loadgen's wire transport).

    One client maps to one persistent connection — exactly the shape of a
    closed-loop load client — reconnecting transparently if the server
    dropped the connection between requests.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # server hung up first; closed is what we wanted
            self._reader = self._writer = None

    async def __aenter__(self) -> "HttpClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict | str]:
        """One round trip; returns ``(status, parsed JSON body or raw text)``.

        ``headers`` adds extra request headers (e.g. ``{"X-Tenant": ...}``).
        """
        if self._writer is None:
            await self.connect()
        body = b"" if payload is None else json.dumps(payload).encode()
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"\r\n"
        ).encode()
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            return await self._read_response()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            # Server dropped the keep-alive connection (e.g. it restarted or
            # shed us mid-close): reconnect once and retry the round trip.
            await self.close()
            await self.connect()
            self._writer.write(head + body)
            await self._writer.drain()
            return await self._read_response()

    async def _read_response(self) -> tuple[int, dict | str]:
        head = await self._reader.readuntil(b"\r\n\r\n")
        text = head.decode("latin-1")
        status_line, _, rest = text.partition("\r\n")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        for line in rest.split("\r\n"):
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await self._reader.readexactly(length) if length else b"{}"
        if _connection_requests_close(headers.get("connection")):
            await self.close()
        content_type = headers.get("content-type", "application/json")
        if content_type.split(";")[0].strip().lower() == "application/json":
            return status, json.loads(body)
        return status, body.decode()

    # ------------------------------------------------------------ conveniences
    async def diagnose(
        self, request: DiagnosisRequest
    ) -> tuple[int, DiagnosisResponse | dict]:
        """POST one request; 200 parses into a :class:`DiagnosisResponse`."""
        status, payload = await self.request("POST", "/diagnose", request.to_wire())
        if status == 200:
            return status, DiagnosisResponse.from_wire(payload)
        return status, payload

    async def stats(self) -> dict:
        status, payload = await self.request("GET", "/stats")
        if status != 200:
            raise HttpError(status, f"stats endpoint answered {status}: {payload}")
        return payload

    async def healthz(self) -> dict:
        status, payload = await self.request("GET", "/healthz")
        if status != 200:
            raise HttpError(status, f"healthz answered {status}: {payload}")
        return payload

    async def metrics_text(self) -> str:
        """Scrape ``GET /metrics``; returns the raw exposition text."""
        status, payload = await self.request("GET", "/metrics")
        if status != 200:
            raise HttpError(status, f"metrics answered {status}: {payload}")
        return payload


class BackgroundHttpServer:
    """A service + HTTP frontend on a dedicated thread (sync callers).

    The benchmark and tests drive HTTP clients from synchronous code via
    ``asyncio.run``; the server then needs its *own* event loop on its own
    thread.  The context manager builds the service inside that loop (via
    ``service_factory``), starts the frontend, and on exit drains both
    gracefully.  ``self.port`` is valid once ``__enter__`` returns.
    """

    def __init__(self, service_factory=None, *, host: str = "127.0.0.1",
                 port: int = 0, **service_kwargs) -> None:
        if service_factory is not None and service_kwargs:
            raise ValueError("pass a factory or service kwargs, not both")
        self._factory = service_factory or (
            lambda: DiagnosisService(**service_kwargs)
        )
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self.final_stats: dict | None = None

    def __enter__(self) -> "BackgroundHttpServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            service = self._factory()
            frontend = HttpFrontend(service, host=self.host, port=self.port)
            await frontend.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = frontend.port
        self._ready.set()
        await self._stop.wait()
        await frontend.close()
        await service.close()
        stats = service.stats()
        stats["http"] = frontend.stats()
        self.final_stats = stats
        if service.store is not None:
            # The factory built the store on this thread (SQLite connections
            # are thread-affine), so it is closed here too.
            service.store.close()
