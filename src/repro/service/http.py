"""A minimal asyncio HTTP/1.1 server core.

The repo carries no third-party dependencies, so the daemon speaks
HTTP/1.1 directly over :func:`asyncio.start_server`: request line,
headers, a ``Content-Length`` body, one response, close.  That subset
is everything a JSON API needs — no chunked uploads, no keep-alive, no
TLS (run the daemon behind a reverse proxy for those) — and keeping it
~200 lines means the transport can be tested exhaustively.

The handler contract is a single ``async handler(Request) -> Response``
callable; routing lives with the application
(:class:`~repro.service.daemon.ScanService`), not here.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from .._jsonwriter import dumps
from .._record import field, record
from ..obs import get_logger

log = get_logger("service.http")

#: Bound on the request line + headers block, generous for any client.
MAX_HEADER_BYTES = 32 << 10

REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed or over-limit request; carries the status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@record
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    #: Header names are lower-cased; last occurrence wins.
    headers: dict[str, str]
    body: bytes

    @property
    def segments(self) -> tuple[str, ...]:
        """The path split on ``/``, empty segments dropped —
        ``/v1/scans/abc`` → ``('v1', 'scans', 'abc')``."""
        return tuple(part for part in self.path.split("/") if part)

    def json(self) -> dict:
        """The body decoded as a JSON object; :class:`ProtocolError`
        (400) when it is not one."""
        try:
            decoded = json.loads(self.body)
        except ValueError as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}")
        if not isinstance(decoded, dict):
            raise ProtocolError(400, "JSON body must be an object")
        return decoded


@record
class Response:
    """One HTTP response; the server adds Content-Length and closes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


def json_response(payload, status: int = 200, **headers: str) -> Response:
    """A JSON response; the document ends in a newline so curl output
    composes."""
    body = dumps(payload).encode("utf-8") + b"\n"
    return Response(status, body, "application/json", dict(headers))


def error_response(status: int, message: str, **headers: str) -> Response:
    return json_response({"error": message}, status, **headers)


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF before
    any bytes, :class:`ProtocolError` on garbage or over-limit input."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection opened and closed without a request
        raise ProtocolError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise ProtocolError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "request head too large")

    request_line, _, header_block = head.partition(b"\r\n")
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {parts[:3]}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    for line in header_block.decode("latin-1").split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError(400, "malformed Content-Length")
    if length < 0:
        raise ProtocolError(400, "malformed Content-Length")
    if length > max_body_bytes:
        raise ProtocolError(413, f"body exceeds {max_body_bytes} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "truncated request body")

    split = urlsplit(target)
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


async def write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    reason = REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}"]
    headers = {
        "Content-Type": response.content_type,
        "Content-Length": str(len(response.body)),
        "Connection": "close",
        **response.headers,
    }
    head.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n")
    writer.write(response.body)
    await writer.drain()


Handler = Callable[[Request], Awaitable[Response]]


class HttpServer:
    """One listening socket dispatching requests to a single handler."""

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 16 << 20,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.Server] = None

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` is the bound port
        afterwards (``port=0`` asks the OS for a free one)."""
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port,
            limit=MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader, self.max_body_bytes)
            except ProtocolError as exc:
                await write_response(
                    writer, error_response(exc.status, str(exc))
                )
                return
            if request is None:
                return
            try:
                response = await self.handler(request)
            except ProtocolError as exc:
                response = error_response(exc.status, str(exc))
            except Exception:
                log.exception(
                    "handler crashed on %s %s", request.method, request.path
                )
                response = error_response(500, "internal server error")
            await write_response(writer, response)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # client went away; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
