"""Minimal asyncio HTTP/1.1 client for the intake daemon.

The test suite, the load benchmark, and the CI smoke script all need to
talk to ``repro serve`` without a third-party HTTP library; this is the
client-side counterpart of :mod:`repro.daemon.protocol` — keep-alive
connections, ``Content-Length`` framing, JSON bodies.  It is *not* a
general HTTP client (no redirects, no chunking, no TLS) and is not part
of the daemon's own runtime path.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Response:
    """One parsed HTTP response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")


class DaemonClient:
    """One keep-alive connection to a running daemon.

    Reconnects transparently when the server closed the connection
    (shed responses and protocol errors are ``Connection: close``).
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = self._writer = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None) -> Response:
        if self._writer is None or self._writer.is_closing():
            await self._connect()
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}",
                f"Content-Length: {len(body)}"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                           + body)
        await self._writer.drain()
        response = await self._read_response()
        if response.headers.get("connection", "").lower() == "close":
            await self.close()
        return response

    async def _read_response(self) -> Response:
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        return Response(status=status, headers=headers, body=body)

    # -- convenience ----------------------------------------------------
    async def submit(self, artifact_text: str,
                     priority: Optional[int] = None) -> Response:
        """POST one rendered crash artifact to ``/submit``."""
        headers: Dict[str, str] = {}
        if priority is not None:
            headers["X-Priority"] = str(priority)
        return await self.request("POST", "/submit",
                                  artifact_text.encode("utf-8"), headers)

    async def wait_for_job(self, job_id: str, timeout_s: float = 30.0,
                           poll_s: float = 0.02) -> dict:
        """Poll ``GET /job/<id>`` until the job is terminal."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            response = await self.request("GET", f"/job/{job_id}")
            payload = response.json()
            if payload.get("status") not in ("pending", "running"):
                return payload
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(f"job {job_id!r} still "
                                   f"{payload.get('status')!r} after "
                                   f"{timeout_s}s")
            await asyncio.sleep(poll_s)
