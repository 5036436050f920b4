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

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "CompileClient": ".client",
    "ServerClosedError": ".client",
    "ERROR_CODES": ".protocol",
    "MAX_PAYLOAD_BYTES": ".protocol",
    "FrameError": ".protocol",
    "encode_frame": ".protocol",
    "error_response": ".protocol",
    "recv_frame": ".protocol",
    "send_frame": ".protocol",
    "CompileServer": ".server",
    "ServerThread": ".server",
    "run_server": ".server",
    "CompileService": ".service",
    "RequestError": ".service",
    "compile_job": ".service",
    "normalize_request": ".service",
    "ArtifactStore": ".store",
    "DiskTier": ".store",
    "MemoryLRU": ".store",
    "StoreHit": ".store",
    "StoreStats": ".store",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
