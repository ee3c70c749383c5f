"""Asyncio front-end of the shot-sweep service.

One TCP connection speaks newline-delimited JSON (see
:mod:`repro.service.protocol`).  Requests on a connection are handled
in order; a streaming submit occupies the connection until its
terminal event, which matches the blocking client in
:mod:`repro.service.client`.

Operations
==========

``{"op": "submit", "job": {...}, "stream": bool}``
    Validate and enqueue a sweep.  Replies ``accepted`` (with
    ``job_id``, the dedup ``key`` and ``deduped`` flag), then — with
    ``stream`` — forwards every ``partial`` histogram update, and
    finally the terminal ``result`` or ``error`` event.  A full queue
    replies ``rejected`` instead (backpressure; nothing is buffered).
``{"op": "stats"}``
    Queue depth, job counters, shots/s and per-worker trace-cache
    counters — the ``/stats`` endpoint.
``{"op": "cancel", "job_id": "..."}``
    Best-effort cancellation of a queued or running job.
``{"op": "ping"}``
    Liveness probe; replies ``pong`` with the protocol version.
"""

from __future__ import annotations

import asyncio
import threading

from repro.service.jobs import JobManager, QueueFull
from repro.service.protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION,
                                    JobSpec, ProtocolError,
                                    decode_line, encode_message)


async def _send(writer: asyncio.StreamWriter, event: dict) -> None:
    writer.write(encode_message(event))
    await writer.drain()


async def _handle_submit(manager: JobManager, message: dict,
                         writer: asyncio.StreamWriter) -> None:
    try:
        spec = JobSpec.from_dict(message.get("job"))
    except ProtocolError as exc:
        await _send(writer, {"event": "error", "error": exc.code,
                             "message": str(exc)})
        return
    try:
        job, deduped = manager.submit(spec)
    except QueueFull as exc:
        await _send(writer, {"event": "rejected", "error": "queue_full",
                             "message": str(exc)})
        return
    # Subscribe in the same loop step as submit: no await separates
    # them, so no event can slip past before the queue exists.
    subscription = manager.subscribe(job, bool(message.get("stream")))
    await _send(writer, {"event": "accepted", "job_id": job.id,
                         "key": job.key, "deduped": deduped,
                         "shots": spec.shots})
    while True:
        event = await subscription.get()
        await _send(writer, event)
        if event.get("event") in ("result", "error"):
            return


async def handle_connection(manager: JobManager,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await _send(writer, {
                    "event": "error", "error": "line_too_long",
                    "message": f"request exceeds {MAX_LINE_BYTES} bytes"})
                return
            if not line:
                return
            if not line.strip():
                continue
            try:
                message = decode_line(line)
            except ProtocolError as exc:
                await _send(writer, {"event": "error", "error": exc.code,
                                     "message": str(exc)})
                continue
            op = message.get("op")
            if op == "submit":
                await _handle_submit(manager, message, writer)
            elif op == "stats":
                await _send(writer, {"event": "stats",
                                     "version": PROTOCOL_VERSION,
                                     **manager.stats()})
            elif op == "cancel":
                cancelled = manager.cancel(str(message.get("job_id")))
                await _send(writer, {"event": "cancelled"
                                     if cancelled else "not_found",
                                     "job_id": message.get("job_id")})
            elif op == "ping":
                await _send(writer, {"event": "pong",
                                     "version": PROTOCOL_VERSION})
            else:
                await _send(writer, {
                    "event": "error", "error": "bad_op",
                    "message": f"unknown op {op!r}"})
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve(host: str = "127.0.0.1", port: int = 7781,
                n_workers: int = 2, queue_size: int = 16,
                max_retries: int = 2,
                engine_lru_capacity: int | None = None,
                ready: "asyncio.Event | None" = None,
                stop: "asyncio.Event | None" = None,
                bound_port: list | None = None) -> None:
    """Run the service until ``stop`` is set (or forever).

    ``ready``/``bound_port`` exist for embedders: ``ready`` is set once
    the socket listens, with the actual port (``port=0`` binds an
    ephemeral one) appended to ``bound_port``.

    ``engine_lru_capacity`` bounds each worker process's cache of
    compiled shot engines (default 8).
    """
    manager = JobManager(n_workers=n_workers, queue_size=queue_size,
                         max_retries=max_retries,
                         engine_lru_capacity=engine_lru_capacity)
    await manager.start()
    connections: set[asyncio.Task] = set()

    async def tracked(reader, writer) -> None:
        task = asyncio.current_task()
        connections.add(task)
        try:
            await handle_connection(manager, reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            connections.discard(task)

    server = await asyncio.start_server(tracked, host, port,
                                        limit=MAX_LINE_BYTES)
    try:
        actual_port = server.sockets[0].getsockname()[1]
        if bound_port is not None:
            bound_port.append(actual_port)
        if ready is not None:
            ready.set()
        if stop is None:
            await asyncio.Event().wait()  # serve forever
        else:
            await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        for task in list(connections):
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        await manager.stop()


class ServiceHandle:
    """A service running on a daemon thread — for tests and benchmarks.

    ::

        handle = ServiceHandle.start(n_workers=4)
        client = ServiceClient("127.0.0.1", handle.port)
        ...
        handle.close()
    """

    def __init__(self, thread: threading.Thread, loop: asyncio.AbstractEventLoop,
                 stop: asyncio.Event, port: int) -> None:
        self._thread = thread
        self._loop = loop
        self._stop = stop
        self.host = "127.0.0.1"
        self.port = port

    @classmethod
    def start(cls, n_workers: int = 2, queue_size: int = 16,
              max_retries: int = 2,
              engine_lru_capacity: int | None = None,
              timeout: float = 30.0) -> "ServiceHandle":
        started = threading.Event()
        box: dict = {}

        def main() -> None:
            async def runner() -> None:
                box["loop"] = asyncio.get_event_loop()
                box["stop"] = asyncio.Event()
                ready = asyncio.Event()
                ports: list[int] = []
                task = asyncio.ensure_future(serve(
                    port=0, n_workers=n_workers, queue_size=queue_size,
                    max_retries=max_retries,
                    engine_lru_capacity=engine_lru_capacity,
                    ready=ready, stop=box["stop"],
                    bound_port=ports))
                await ready.wait()
                box["port"] = ports[0]
                started.set()
                await task

            asyncio.run(runner())

        thread = threading.Thread(target=main, daemon=True,
                                  name="repro-service")
        thread.start()
        if not started.wait(timeout):
            raise RuntimeError("service failed to start in time")
        return cls(thread, box["loop"], box["stop"], box["port"])

    def close(self, timeout: float = 30.0) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
