"""Compilation-as-a-service layer: store, service, server, client.

The serving stack, bottom to top:

* :mod:`repro.serve.store` — two-tier artifact store (in-memory LRU
  over an atomic-write disk tier) with hit/miss/eviction accounting;
* :mod:`repro.serve.service` — :class:`CompileService`: cache-first
  compile dispatch onto a worker process pool, single-flight per
  artifact key (the in-process API);
* :mod:`repro.serve.protocol` — length-prefixed JSON framing shared by
  the server and clients;
* :mod:`repro.serve.server` — asyncio TCP front-end
  (:class:`CompileServer`), plus :class:`ServerThread` for in-process
  hosting and :func:`run_server` for the ``repro serve`` CLI;
* :mod:`repro.serve.client` — blocking :class:`CompileClient`.

Serving speed is measured by the ``serve-mixed`` workload of
``perfbench/run.py``, not by this package.
"""

from repro.serve.client import CompileClient, ServerClosedError
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_PAYLOAD_BYTES,
    FrameError,
    encode_frame,
    error_response,
    recv_frame,
    send_frame,
)
from repro.serve.server import CompileServer, ServerThread, run_server
from repro.serve.service import (
    CompileService,
    RequestError,
    compile_job,
    normalize_request,
)
from repro.serve.store import (
    ArtifactStore,
    DiskTier,
    MemoryLRU,
    StoreHit,
    StoreStats,
)

__all__ = [
    "ArtifactStore",
    "CompileClient",
    "CompileServer",
    "CompileService",
    "DiskTier",
    "ERROR_CODES",
    "FrameError",
    "MAX_PAYLOAD_BYTES",
    "MemoryLRU",
    "RequestError",
    "ServerClosedError",
    "ServerThread",
    "StoreHit",
    "StoreStats",
    "compile_job",
    "encode_frame",
    "error_response",
    "normalize_request",
    "recv_frame",
    "run_server",
    "send_frame",
]
