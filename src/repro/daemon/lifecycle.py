"""Daemon configuration and process lifecycle.

:class:`DaemonConfig` is the one knob surface — the CLI (``repro
serve``), the api facade (:func:`repro.api.serve`) and the tests all
build one of these.  :func:`run_daemon` is the blocking entrypoint:
it boots a :class:`~repro.daemon.server.TriageDaemon`, installs
``SIGTERM``/``SIGINT`` handlers for a graceful stop (stop accepting,
finish the in-flight batch, flush the journal), and returns the exit
code.  A hard kill is also safe — that is what the queue journal is
for (:mod:`repro.daemon.queue`).

``--port 0`` binds an ephemeral port; ``port_file`` publishes the
actually-bound ``host:port`` for whoever started the daemon (the CI
smoke step and the crash-recovery test wait on that file).
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.service.queue import RetryPolicy
from repro.daemon.queue import DEFAULT_MAX_DEPTH
from repro.daemon.server import TriageDaemon
from repro.daemon import protocol


@dataclass
class DaemonConfig:
    """Everything ``repro serve`` can be told."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Data directory; the queue journal and the cold result store live
    #: in ``queue/`` and ``store/`` under it.
    data_dir: str = "daemon-data"
    jobs: int = 1              #: worker processes for the drain pool
    #: Search policy per diagnosis (``"static"`` / ``"adaptive"``); with
    #: ``"adaptive"`` the daemon boots its experience index from the
    #: cold store and ships a snapshot in every job payload.
    policy: str = "static"
    timeout_s: float = 300.0   #: per-job diagnosis timeout
    max_depth: Optional[int] = DEFAULT_MAX_DEPTH
    poll_interval_s: float = 0.05
    shutdown_grace_s: float = 30.0
    max_body_bytes: int = protocol.MAX_BODY_BYTES
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Accept-but-don't-drain mode (tests park work in the journal).
    paused: bool = False
    #: Worker entry: ``None`` (the real pipeline), a callable, or a
    #: ``"module:function"`` spec (see :mod:`repro.daemon.worker`).
    diagnoser: Union[None, str, Callable[[dict], dict]] = None
    #: Where to publish the actually-bound ``host:port``.
    port_file: Optional[str] = None
    #: An externally-owned observe tracer (``None``: the daemon makes
    #: its own, sink-less, for counter aggregation).
    tracer: Optional[object] = None

    @property
    def queue_dir(self) -> str:
        return os.path.join(self.data_dir, "queue")

    @property
    def store_dir(self) -> str:
        return os.path.join(self.data_dir, "store")


async def start_daemon(config: DaemonConfig) -> TriageDaemon:
    """Boot a daemon (listener + drain loop) and return it — the
    in-process entry tests and benchmarks drive directly."""
    daemon = TriageDaemon(config)
    await daemon.start()
    if config.port_file:
        tmp = config.port_file + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{config.host}:{daemon.port}\n")
        os.replace(tmp, config.port_file)
    return daemon


async def run_async(config: DaemonConfig) -> int:
    daemon = await start_daemon(config)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, daemon.request_shutdown)
        except NotImplementedError:  # pragma: no cover — non-POSIX
            pass
    print(f"repro serve: listening on {config.host}:{daemon.port} "
          f"(data in {config.data_dir!r}, "
          f"{len(daemon.queue.recovered)} job(s) recovered"
          f"{', paused' if config.paused else ''})",
          file=sys.stderr, flush=True)
    await daemon.shutdown_event.wait()
    await daemon.stop()
    print("repro serve: drained and stopped cleanly",
          file=sys.stderr, flush=True)
    return 0


def run_daemon(config: DaemonConfig) -> int:
    """The blocking entrypoint behind ``repro serve``."""
    try:
        return asyncio.run(run_async(config))
    except KeyboardInterrupt:  # pragma: no cover — ^C before handlers
        return 0
