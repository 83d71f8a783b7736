"""Pluggable execution backends for the sweep harness.

``run_sweep`` (and everything above it: figures, campaigns, the
benchmarks) selects *how* pending tasks execute by backend name —
``--backend`` on the CLI, ``REPRO_BACKEND`` in the environment, or a
:class:`~.base.Backend` instance through the library API:

- ``serial``  — in-process, in order; the debuggable reference.
- ``process`` — one ``multiprocessing`` dispatch per task (the
  historical ``workers=N`` pool).

Multi-host runs are not a backend: ``repro orchestrate`` fans shard
manifests out to worker processes (:mod:`.worker`), each of which
runs its slice through one of these backends.

Both backends produce byte-identical artifacts for the same grid (the
equivalence suite in ``tests/harness/test_backends.py`` enforces it),
so backend choice never invalidates a store.
"""

from __future__ import annotations

import copy
import os
from typing import Optional, Union

from .base import Backend, ProgressCb
from .process import ProcessBackend
from .serial import SerialBackend

#: the env var naming the default backend for this process tree
BACKEND_ENV = "REPRO_BACKEND"

#: registry: ``--backend`` / ``REPRO_BACKEND`` name -> implementation
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}

#: what ``resolve_backend(None)`` falls back to, by worker count
_DEFAULTS = {False: SerialBackend.name, True: ProcessBackend.name}


def backend_names() -> list:
    """Registered backend names, stable order for CLI choices."""
    return sorted(BACKENDS)


def make_backend(name: str, *, workers: int = 1,
                 mp_context: Optional[str] = None) -> Backend:
    """Instantiate a backend by registry name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; one of {backend_names()}"
        ) from None
    if cls is SerialBackend:
        return cls()
    return cls(workers=workers, mp_context=mp_context)


def resolve_backend(spec: Union[Backend, str, None] = None, *,
                    workers: int = 1,
                    mp_context: Optional[str] = None) -> Backend:
    """The backend a caller asked for, however they asked.

    ``spec`` may be a ready :class:`Backend`, a registry name, or
    ``None`` — which consults ``$REPRO_BACKEND`` and finally defaults
    to ``serial`` (``workers <= 1``) or ``process`` (``workers > 1``),
    preserving the harness's historical behaviour when nobody opts in.

    A ready instance is returned as-is — except that a caller-required
    ``mp_context`` (the threaded campaign runner forces ``"spawn"``
    for fork safety) is applied to a pool-owning instance that never
    chose one, via a shallow copy so the caller's object stays
    untouched.
    """
    if isinstance(spec, Backend):
        if mp_context is not None and \
                getattr(spec, "mp_context", mp_context) is None:
            spec = copy.copy(spec)
            spec.mp_context = mp_context
        return spec
    name = spec or os.environ.get(BACKEND_ENV) or _DEFAULTS[workers > 1]
    return make_backend(name, workers=workers, mp_context=mp_context)


__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "Backend",
    "ProcessBackend",
    "ProgressCb",
    "SerialBackend",
    "backend_names",
    "make_backend",
    "resolve_backend",
]
