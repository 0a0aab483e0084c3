"""JSON-line TCP front-end for the campaign service, plus a client.

The wire protocol is one JSON object per line, request/response::

    -> {"op": "submit", "model": "models/lv", "t_span": [0, 10], ...}
    <- {"ok": true, "job_id": 0, "state": "queued"}

    -> {"op": "wait", "job_id": 0, "timeout": 30}
    <- {"ok": true, "job": {"job_id": 0, "state": "completed", ...}}

Operations: ``submit``, ``status``, ``wait``, ``cancel``, ``stats``,
``shutdown``. Admission rejections and service errors come back as
``{"ok": false, "error": "...", "kind": "QueueFull"}`` — the error
*type name* crosses the wire so clients can distinguish the typed
rejections without sharing exception classes.

The same port also answers plain HTTP ``GET /metrics`` with the
Prometheus text exposition (connections are sniffed on their first
line), so one listener serves both the job protocol and the scrape
endpoint — point a Prometheus scraper or ``repro top`` at the server
address and nothing else needs to be running.

Models are referenced **by path** and loaded (and cached) server-side:
result arrays never cross this protocol — clients get states and
summaries, results land in the job's checkpoint journal when one was
requested.

:func:`serve` is what ``repro serve`` runs; :class:`Client` is a small
blocking socket wrapper for scripts and ``repro submit``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from pathlib import Path

from ..core.simulate import ENGINES
from ..errors import ReproError, ServiceError
from ..telemetry.live import MetricsHub
from ..telemetry.prometheus import render_prometheus
from ..telemetry.tracer import Tracer
from .config import ServiceConfig
from .core import CampaignService
from .jobs import JobRequest

#: Longest request line the server reads (asyncio's default stream
#: limit); longer lines are answered with a ``BadRequest``.
MAX_LINE_BYTES = 2 ** 16


def _load_model(path: Path):
    from ..io import read_model, read_sbml
    if path.is_dir():
        return read_model(path)
    if path.suffix.lower() in (".xml", ".sbml"):
        return read_sbml(path)
    raise ServiceError(
        f"{path} is neither a model folder nor an SBML file")


class _ServerState:
    """One running server: the service, the model cache and the open
    connections."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service
        self.models: dict[str, object] = {}
        self.shutdown = asyncio.Event()
        #: Live connection handlers and their writers.
        self.connections: dict[asyncio.Task, object] = {}

    async def close_connections(self) -> None:
        """End every open connection on EOF: close its writer, then
        wait for its handler, so none is cancelled mid-read."""
        for writer in self.connections.values():
            writer.close()
        await asyncio.gather(*self.connections, return_exceptions=True)

    def model(self, path_text: str):
        model = self.models.get(path_text)
        if model is None:
            model = self.models[path_text] = _load_model(Path(path_text))
        return model

    def render_metrics(self) -> str:
        """The full Prometheus exposition: service registry, merged
        engine registries, and the live hub's window aggregates."""
        service = self.service
        hub_snapshot = None
        if service.hub is not None:
            hub_snapshot = service.hub.snapshot()
        return render_prometheus(
            [service.metrics, service.engine_metrics], hub_snapshot)


def _request_from_payload(state: _ServerState, payload: dict) -> JobRequest:
    # Reject an unknown engine, or a chunking or worker pool the
    # campaign cannot run, before any model is loaded from disk.
    engine = payload.get("engine")
    if engine is not None and engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of "
                         f"{ENGINES}")
    if payload.get("chunk_size") is not None \
            and int(payload["chunk_size"]) < 1:
        raise ValueError(
            f"chunk_size must be >= 1, got {payload['chunk_size']}")
    max_workers = os.cpu_count() or 1
    if payload.get("workers") is not None \
            and not 0 <= int(payload["workers"]) <= max_workers:
        raise ValueError(f"workers must be in 0..{max_workers}, got "
                         f"{payload['workers']}")
    model = state.model(str(payload["model"]))
    t_span = payload.get("t_span", [0.0, 1.0])
    request = JobRequest(model=model,
                         t_span=(float(t_span[0]), float(t_span[1])))
    if payload.get("t_eval") is not None:
        request.t_eval = [float(t) for t in payload["t_eval"]]
    if payload.get("parameters") is not None:
        request.parameters = payload["parameters"]
    for key in ("engine", "tenant"):
        if payload.get(key) is not None:
            setattr(request, key, str(payload[key]))
    for key in ("chunk_size", "workers", "priority"):
        if payload.get(key) is not None:
            setattr(request, key, int(payload[key]))
    if payload.get("deadline_seconds") is not None:
        request.deadline_seconds = float(payload["deadline_seconds"])
    if payload.get("checkpoint_path") is not None:
        request.checkpoint_path = str(payload["checkpoint_path"])
    return request


async def _handle_request(state: _ServerState, payload: dict) -> dict:
    service = state.service
    op = payload.get("op")
    if op == "submit":
        # Building the request may load (and cache) a model from disk:
        # keep that IO off the event loop.
        request = await asyncio.to_thread(_request_from_payload,
                                          state, payload)
        job = service.submit(request)
        return {"ok": True, "job_id": job.job_id, "state": job.state}
    if op == "status":
        job = service.get(int(payload["job_id"]))
        return {"ok": True, "job": job.to_dict()}
    if op == "wait":
        job = await service.wait(int(payload["job_id"]),
                                 timeout=payload.get("timeout"))
        return {"ok": True, "job": job.to_dict()}
    if op == "cancel":
        job = service.cancel(int(payload["job_id"]))
        return {"ok": True, "job_id": job.job_id, "state": job.state}
    if op == "stats":
        return {"ok": True, "stats": service.snapshot()}
    if op == "shutdown":
        state.shutdown.set()
        return {"ok": True}
    raise ServiceError(f"unknown operation {op!r}")


async def _handle_http(state: _ServerState, first_line: bytes,
                       reader, writer) -> None:
    """Minimal HTTP/1.0 responder for the scrape endpoint.

    Only ``GET/HEAD /metrics`` exists; everything else is 404. The
    request headers are drained (to the blank line) and the response
    closes the connection — scrapers reconnect per scrape.
    """
    parts = first_line.decode("latin-1").split()
    path = parts[1].split("?", 1)[0] if len(parts) >= 2 else "/"
    while True:
        header = await reader.readline()
        if not header or header in (b"\r\n", b"\n"):
            break
    if path == "/metrics":
        # Rendering walks every histogram bucket: off the event loop.
        body = await asyncio.to_thread(state.render_metrics)
        status = "200 OK"
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = f"not found: {path}\n"
        status = "404 Not Found"
        content_type = "text/plain; charset=utf-8"
    payload = body.encode("utf-8")
    head = (f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")
    writer.write(head if parts and parts[0] == "HEAD"
                 else head + payload)
    await writer.drain()


def _bad_request(reason: str) -> dict:
    return {"ok": False, "error": f"bad request: {reason}",
            "kind": "BadRequest"}


async def _reply(writer, response: dict) -> None:
    writer.write(json.dumps(response, sort_keys=True).encode() + b"\n")
    await writer.drain()


async def _read_line(reader) -> bytes | None:
    """The next request line (``b""`` at end of stream), or ``None``
    for a line longer than :data:`MAX_LINE_BYTES`, which is discarded
    through its newline so the connection stays in step."""
    oversize = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            return b"" if oversize else error.partial
        except asyncio.LimitOverrunError as error:
            # The scanned bytes stay buffered: drop them, look again.
            await reader.readexactly(error.consumed)
            oversize = True
            continue
        return None if oversize else line


async def _handle_connection(state: _ServerState, reader, writer) -> None:
    handler = asyncio.current_task()
    state.connections[handler] = writer
    try:
        first = True
        while True:
            line = await _read_line(reader)
            if line is None:
                await _reply(writer, _bad_request(
                    f"request line longer than {MAX_LINE_BYTES} bytes"))
                continue
            if not line:
                return
            if first and (line.startswith(b"GET ")
                          or line.startswith(b"HEAD ")):
                await _handle_http(state, line, reader, writer)
                return
            first = False
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise TypeError("a request is one JSON object, got "
                                    f"{type(payload).__name__}")
                response = await _handle_request(state, payload)
            except ReproError as error:
                # Typed rejections (QueueFull, QuotaExceeded, ...) and
                # service misuse travel back as data, not as a dropped
                # connection.
                response = {"ok": False, "error": str(error),
                            "kind": type(error).__name__}
            except (KeyError, TypeError, ValueError,
                    json.JSONDecodeError) as error:
                response = _bad_request(str(error))
            await _reply(writer, response)
            if state.shutdown.is_set():
                return
    except (ConnectionError, asyncio.IncompleteReadError):
        return
    finally:
        del state.connections[handler]
        writer.close()


async def serve_async(host: str = "127.0.0.1", port: int = 8753,
                      config: ServiceConfig | None = None,
                      telemetry=None, ready=None, hub=None,
                      fault_plan=None) -> None:
    """Run the service behind a TCP server until ``shutdown`` arrives.

    ``ready`` (optional callable) receives the bound ``(host, port)``
    once the socket is listening — tests use it to learn an ephemeral
    port. A :class:`~repro.telemetry.live.MetricsHub` always backs
    ``/metrics``; pass ``hub`` to share or configure it and
    ``fault_plan`` for scheduler-level fault injection (demos and
    chaos drills).
    """
    hub = MetricsHub() if hub is None else hub
    if telemetry is None:
        # The hub observes span closes, so the server always runs a
        # real tracer — sinkless and non-accumulating (keep_spans off)
        # when the operator asked for no trace file: live /metrics
        # works out of the box and memory stays bounded.
        telemetry = Tracer(sink=None, keep_spans=False)
    service = CampaignService(config=config, telemetry=telemetry,
                              hub=hub, fault_plan=fault_plan)
    await service.start()
    state = _ServerState(service)
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(state, r, w), host, port,
        limit=MAX_LINE_BYTES)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    async with server:
        await state.shutdown.wait()
        await state.close_connections()
    await service.stop()


def serve(host: str = "127.0.0.1", port: int = 8753,
          config: ServiceConfig | None = None, telemetry=None,
          ready=None) -> None:
    """Blocking entry point of ``repro serve``."""
    asyncio.run(serve_async(host, port, config=config,
                            telemetry=telemetry, ready=ready))


def scrape_metrics(host: str = "127.0.0.1", port: int = 8753,
                   timeout: float = 10.0) -> str:
    """Fetch the server's ``/metrics`` exposition over plain HTTP.

    One request per connection (the server closes after responding),
    stdlib sockets only — this is what ``repro top`` polls.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"GET /metrics HTTP/1.0\r\n"
                     b"Host: " + host.encode("latin-1") + b"\r\n\r\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    head, separator, body = response.partition(b"\r\n\r\n")
    if not separator:
        raise ServiceError("malformed HTTP response from /metrics")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    if " 200 " not in f"{status_line} ":
        raise ServiceError(f"/metrics scrape failed: {status_line}")
    return body.decode("utf-8")


class Client:
    """Blocking JSON-line client for one server connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8753,
                 timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def call(self, payload: dict) -> dict:
        """One request/response round-trip; raises
        :class:`~repro.errors.ServiceError` on an error response."""
        self._file.write(json.dumps(payload, sort_keys=True).encode()
                         + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServiceError(
                f"{response.get('kind', 'ServiceError')}: "
                f"{response.get('error', 'unknown error')}")
        return response

    def submit(self, model_path: str, t_span=(0.0, 1.0),
               **options) -> int:
        payload = {"op": "submit", "model": str(model_path),
                   "t_span": list(t_span)}
        payload.update(options)
        return int(self.call(payload)["job_id"])

    def status(self, job_id: int) -> dict:
        return self.call({"op": "status", "job_id": job_id})["job"]

    def wait(self, job_id: int, timeout: float | None = None) -> dict:
        return self.call({"op": "wait", "job_id": job_id,
                          "timeout": timeout})["job"]

    def cancel(self, job_id: int) -> dict:
        return self.call({"op": "cancel", "job_id": job_id})

    def stats(self) -> dict:
        return self.call({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        self.call({"op": "shutdown"})
