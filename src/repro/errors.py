"""Exception hierarchy for the Retina reproduction.

All library errors derive from :class:`RetinaError` so applications can
catch framework failures with a single ``except`` clause while still
distinguishing categories (filter compilation, packet parsing, hardware
rule validation, runtime configuration).
"""

from __future__ import annotations


class RetinaError(Exception):
    """Base class for all errors raised by this library."""


class FilterError(RetinaError):
    """Base class for filter-language failures."""


class FilterSyntaxError(FilterError):
    """The filter string could not be tokenized or parsed.

    Carries the offending position so tools can point at the error.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class FilterSemanticsError(FilterError):
    """The filter parsed but refers to unknown protocols/fields or uses
    an operator unsupported for the field's type."""


class PacketParseError(RetinaError):
    """A packet's bytes could not be parsed as the requested header.

    Mirrors Retina's ``Packet::parse_to`` returning ``Err``: filters treat
    this as a non-match rather than a fatal condition.
    """


class ConfigError(RetinaError):
    """Invalid runtime configuration (core counts, timeouts, ring sizes)."""


class ProtocolError(RetinaError):
    """An application-layer parser encountered malformed protocol data."""


class SubscriptionError(RetinaError):
    """The subscription (filter + data type + callback) is inconsistent,
    e.g. a session-level filter attached to a packet-only fast path that
    cannot supply connection state."""


class TenancyError(ConfigError):
    """A multi-tenant subscription set is invalid: duplicate or
    malformed tenant names, an unparseable subscriptions file, a
    reconfiguration event referring to an unknown tenant, or a live
    ``subscribe``/``unsubscribe`` that conflicts with the current
    filter-table epoch."""


class CallbackError(RetinaError):
    """A subscription callback raised.

    Under the default ``callback_error_policy="raise"`` the original
    exception is wrapped in this type (and chained via ``__cause__``) at
    the delivery boundary, so applications can distinguish "my callback
    is buggy" from framework failures. Under ``"isolate"`` the error is
    counted against the subscription's error budget instead of raising.
    """


class ResourceExhaustedError(RetinaError):
    """A resource ceiling was hit and the configured degradation policy
    could not relieve the pressure.

    Raised by the ``evict`` memory policy when evicting every idle
    connection still leaves a core above its memory share — i.e. the
    live working set itself exceeds the configured limit.
    """


class FaultInjectionError(RetinaError):
    """A fault plan is malformed (unknown kind, bad parameters)."""
