"""Typed errors of the always-on game service.

Every error a client can observe through a :class:`~repro.service.Response`
is one of the classes below (or a :class:`~repro.core.errors.BBCError`
subclass raised by the engine layer and relayed by name, e.g.
:class:`~repro.core.errors.BestResponseUnavailable` on the minimal
dependency leg or :class:`~repro.reliability.InjectedFault` under an armed
fault plan).  The service's availability contract mirrors the engine's
failure semantics: a query either returns a payload **bit-identical** to its
fault-free run or a *documented typed error* — never a wrong answer, never a
bare traceback, and never a dead worker loop.  ``docs/service.md`` lists the
full client-observable set; the drill tests in ``tests/test_service.py``
enforce it under seeded fault plans.
"""

from __future__ import annotations

from ..core.errors import BBCError


class ServiceError(BBCError):
    """Base class for every error raised by :mod:`repro.service`."""


class UnknownGameError(ServiceError):
    """A query or eviction named a game the catalog does not hold."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no game named {name!r} in the catalog")
        self.name = name


class DuplicateGameError(ServiceError):
    """A registration reused a name the catalog already holds.

    Names are the client-facing identity of a live engine; silently
    replacing one would invalidate every version a client has pinned.
    Evict the old entry first, or register under a fresh name.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"a game named {name!r} is already registered")
        self.name = name


class StaleVersionError(ServiceError):
    """A read pinned ``version=`` but the game has moved past it.

    The catalog keeps exactly one live version per game (the engine's row
    caches are what make the service fast, and they track the head), so a
    pinned read can only be answered while the head still matches.  Clients
    that see this error re-issue the query unpinned and adopt the version
    stamped on the response.
    """

    def __init__(self, name: str, requested: int, current: int) -> None:
        super().__init__(
            f"game {name!r} is at version {current}, not the pinned "
            f"version {requested}"
        )
        self.name = name
        self.requested = requested
        self.current = current


class InvalidQueryError(ServiceError):
    """A query was malformed: unknown kind, missing node, bad strategy shape."""


class ServiceClosedError(ServiceError):
    """A query was submitted after :meth:`~repro.service.GameService.close`."""


class QueryFailedError(ServiceError):
    """A query handler failed with a non-BBC exception.

    The original exception's type and message are preserved in the error
    text; the worker loop survives and the next query is unaffected.  This
    is the terminal catch-all of the typed-error contract — anything routine
    (stale version, unavailable solver, injected fault) surfaces as its own
    class above instead.
    """

    def __init__(self, kind: str, cause: BaseException) -> None:
        super().__init__(
            f"{kind!r} query failed: {type(cause).__name__}: {cause}"
        )
        self.kind = kind
        self.cause_type = type(cause).__name__


__all__ = [
    "DuplicateGameError",
    "InvalidQueryError",
    "QueryFailedError",
    "ServiceClosedError",
    "ServiceError",
    "StaleVersionError",
    "UnknownGameError",
]
