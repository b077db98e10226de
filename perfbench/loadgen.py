"""The benchmark's HTTP client for the results service (standard library only).

``open_loop`` sends requests on a fixed schedule, whatever the service's
state, over at most ``connections`` concurrent connections.  A request waiting
for a free connection is part of its latency: each latency is timed from the
moment the request was *due*, so a stall is charged to every request queued
behind it.  ``late`` is how far behind schedule the generator itself issued
the request.

``burst`` posts every body at once, then polls each job until it finishes.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: A request that takes longer than this counts as a timeout.
REQUEST_TIMEOUT_S = 10.0


@dataclass
class Reply:
    """One request's outcome; ``status`` 0 means no reply (timeout, refused)."""

    status: int
    body: bytes
    latency_s: float = 0.0
    late_s: float = 0.0


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _exchange(port: int, raw: bytes) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        response = await reader.read()  # the service closes every connection
    finally:
        writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    return int(status_line[1]) if len(status_line) > 1 else 0, body


async def _send(port: int, raw: bytes) -> Tuple[int, bytes]:
    try:
        return await asyncio.wait_for(_exchange(port, raw), REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError, ValueError):
        return 0, b""


def call(port: int, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
    """One blocking request (health checks)."""
    return asyncio.run(_send(port, request_bytes(method, path, body)))


def open_loop(
    port: int, requests: Sequence[bytes], rate_per_s: float, connections: int
) -> List[Reply]:
    """Send ``requests[i]`` at ``start + i / rate_per_s``; one reply each."""
    return asyncio.run(_open_loop(port, requests, rate_per_s, connections))


async def _open_loop(
    port: int, requests: Sequence[bytes], rate_per_s: float, connections: int
) -> List[Reply]:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(connections)
    replies: List[Optional[Reply]] = [None] * len(requests)

    async def one(index: int, due: float) -> None:
        issued = loop.time()
        async with slots:
            status, body = await _send(port, requests[index])
        replies[index] = Reply(status, body, loop.time() - due, issued - due)

    start = loop.time() + 0.05
    in_flight = set()
    for index in range(len(requests)):
        due = start + index / rate_per_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.create_task(one(index, due))
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)
    while in_flight:
        await asyncio.wait(set(in_flight))
    return [reply for reply in replies if reply is not None]


def burst(
    port: int, bodies: Sequence[bytes], poll_s: float, deadline_s: float
) -> Tuple[float, Dict[str, dict], int]:
    """POST every body at once and poll ``/jobs/<id>`` until all finish.

    Returns (seconds from the first POST to the last job seen finished, the
    final job payload per job id, number of requests that failed).
    """
    return asyncio.run(_burst(port, bodies, poll_s, deadline_s))


async def _burst(
    port: int, bodies: Sequence[bytes], poll_s: float, deadline_s: float
) -> Tuple[float, Dict[str, dict], int]:
    loop = asyncio.get_running_loop()
    start = loop.time()
    posted = await asyncio.gather(
        *(_send(port, request_bytes("POST", "/runs", body)) for body in bodies)
    )
    failed = 0
    jobs: List[str] = []
    for status, body in posted:
        if status in (200, 202):
            jobs.append(json.loads(body)["cache_key"])
        else:
            failed += 1
    # The service runs its queue in order, so poll the jobs one by one.
    finished: Dict[str, dict] = {}
    for job_id in jobs:
        while loop.time() - start < deadline_s:
            status, body = await _send(port, request_bytes("GET", f"/jobs/{job_id}"))
            payload = json.loads(body) if status == 200 else {}
            if payload.get("status") in ("done", "failed"):
                finished[job_id] = payload
                break
            await asyncio.sleep(poll_s)
        else:
            failed += 1
    return loop.time() - start, finished, failed
