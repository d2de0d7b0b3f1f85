"""Open-loop HTTP/1.1 load over a few keep-alive connections.

Requests are due on a fixed schedule whatever the server does (an open
loop: independent users).  A generator task releases each request at its
due time into a queue; each connection takes the next queued request
once its previous reply has arrived.  Latency is measured from the due
time, so a stall is charged to every request that queued behind it, and
the generator's own lateness is reported separately.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from urllib.parse import unquote

#: A request that has no reply after this long counts as timed out.
REQUEST_TIMEOUT_S = 2.0

#: A step stops sending once this much work (in seconds at its rate) is
#: queued: it has failed already, and a longer queue only wastes time.
MAX_BACKLOG_S = 0.25


@dataclass(frozen=True)
class Request:
    """One scheduled request and what a correct reply looks like."""

    kind: str
    target: str
    etag: str | None
    expected_sha256: str


@dataclass
class Reply:
    status: int = 0
    etag: str | None = None
    body: bytes = b""


@dataclass
class StepResult:
    """Everything one fixed-rate step observed."""

    rate: float
    latencies_ms: list[float] = field(default_factory=list)
    by_kind_ms: dict[str, list[float]] = field(default_factory=dict)
    lag_ms: list[float] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    statuses: dict[int, int] = field(default_factory=dict)
    #: Seconds from the step's start to each request's completion (the
    #: in-process driver only).
    finished_s: list[float] = field(default_factory=list)
    wrong: int = 0
    timeouts: int = 0
    refused: int = 0
    aborted: bool = False
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def missed(self) -> int:
        """Requests that failed, were refused, timed out or were wrong."""
        bad_status = sum(
            count for status, count in self.statuses.items() if status not in (200, 304)
        )
        return bad_status + self.wrong + self.timeouts + self.refused

    def backlog_growing(self) -> bool:
        """True when requests queue up faster than they drain.

        Compares the mean number of outstanding requests over the last
        third of the schedule with the first third; a rise of more than
        one request (or 1 % of the rate) marks the step as overloaded.
        """
        third = len(self.backlog) // 3
        if third == 0:
            return False
        first = sum(self.backlog[:third]) / third
        last = sum(self.backlog[-third:]) / third
        return last - first > max(1.0, 0.01 * self.rate)


async def _send(reader, writer, request: Request) -> Reply:
    lines = [f"GET {request.target} HTTP/1.1", "Host: perfbench"]
    if request.etag is not None:
        lines.append(f"If-None-Match: {request.etag}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    reply = Reply(status=int(status_line.split(" ", 2)[1]))
    length = 0
    for line in header_lines:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value.strip())
        elif name == "etag":
            reply.etag = value.strip()
    if length:
        reply.body = await reader.readexactly(length)
    return reply


class Connection:
    """One keep-alive connection that reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._streams = None

    async def request(self, request: Request) -> Reply:
        if self._streams is None:
            self._streams = await asyncio.open_connection(self._host, self._port)
        reader, writer = self._streams
        try:
            return await asyncio.wait_for(
                _send(reader, writer, request), timeout=REQUEST_TIMEOUT_S
            )
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        if self._streams is not None:
            _reader, writer = self._streams
            self._streams = None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def check_reply(request: Request, reply: Reply, sha256) -> bool:
    """A revalidation must get 304; any other request the exact body."""
    if request.etag is not None:
        return reply.status == 304
    return reply.status == 200 and sha256(reply.body) == request.expected_sha256


async def run_step(
    connections: list[Connection],
    requests: list[Request],
    rate: float,
    sha256,
) -> StepResult:
    """Send ``requests`` at ``rate`` per second over ``connections``."""
    loop = asyncio.get_running_loop()
    result = StepResult(rate=rate)
    queue: asyncio.Queue = asyncio.Queue()
    completed = 0
    start = loop.time() + 0.01
    due = [start + index / rate for index in range(len(requests))]
    latencies = [0.0] * len(requests)

    sent = len(requests)
    backlog_cap = max(8, int(rate * MAX_BACKLOG_S))

    async def generator() -> None:
        nonlocal sent
        for index, due_at in enumerate(due):
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outstanding = index - completed
            if outstanding > backlog_cap:
                result.aborted = True
                sent = index
                break
            result.lag_ms.append((loop.time() - due_at) * 1000.0)
            result.backlog.append(outstanding)
            queue.put_nowait(index)
        for _ in connections:
            queue.put_nowait(None)

    async def worker(connection: Connection) -> None:
        nonlocal completed
        while True:
            index = await queue.get()
            if index is None:
                return
            request = requests[index]
            try:
                reply = await connection.request(request)
            except asyncio.TimeoutError:
                result.timeouts += 1
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                result.refused += 1
            else:
                result.statuses[reply.status] = result.statuses.get(reply.status, 0) + 1
                if reply.status in (200, 304) and not check_reply(request, reply, sha256):
                    result.wrong += 1
            latencies[index] = (loop.time() - due[index]) * 1000.0
            completed += 1

    tasks = [asyncio.create_task(generator())]
    tasks.extend(asyncio.create_task(worker(c)) for c in connections)
    await asyncio.gather(*tasks)
    result.wall_s = loop.time() - start
    result.latencies_ms = latencies[:sent]
    for request, latency in zip(requests[:sent], result.latencies_ms):
        kind = "revalidate" if request.etag is not None else request.kind
        result.by_kind_ms.setdefault(kind, []).append(latency)
    return result


async def run_asgi(app, requests: list[Request], sha256) -> StepResult:
    """Call an ASGI app directly with each request in turn (no sockets).

    The same routing, executor dispatch, ETag handling and rendering as
    behind ``repro serve``, without the HTTP bridge and a second
    process; latencies are the app's own handling times.
    """
    loop = asyncio.get_running_loop()
    result = StepResult(rate=0.0)

    async def receive():
        return {"type": "http.request", "body": b"", "more_body": False}

    start = loop.time()
    for request in requests:
        path, _, query = request.target.partition("?")
        headers = []
        if request.etag is not None:
            headers.append((b"if-none-match", request.etag.encode("latin-1")))
        scope = {
            "type": "http",
            "asgi": {"version": "3.0"},
            "http_version": "1.1",
            "method": "GET",
            "scheme": "http",
            "path": unquote(path),
            "raw_path": path.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "headers": headers,
        }
        reply = Reply()

        async def send(message, reply=reply):
            if message["type"] == "http.response.start":
                reply.status = message["status"]
            elif message["type"] == "http.response.body":
                reply.body += message.get("body", b"")

        sent = loop.time()
        await app(scope, receive, send)
        latency = (loop.time() - sent) * 1000.0
        result.latencies_ms.append(latency)
        kind = "revalidate" if request.etag is not None else request.kind
        result.by_kind_ms.setdefault(kind, []).append(latency)
        result.statuses[reply.status] = result.statuses.get(reply.status, 0) + 1
        if reply.status in (200, 304) and not check_reply(request, reply, sha256):
            result.wrong += 1
        result.finished_s.append(loop.time() - start)
    result.wall_s = loop.time() - start
    result.rate = len(requests) / result.wall_s
    return result
