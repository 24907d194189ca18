"""Primitive request / response packets exchanged over the mailbox.

Only management requests and responses ever cross the CS/EMS boundary —
enclave private data never does (paper Section III-C). Each request is
bound to its response by a unique ``request_id`` assigned by EMCall, and a
requester can only collect the response carrying its own id.

Packets are plain slotted records: EMCall builds one or more per call,
and a frozen dataclass costs several times as much to build. Nothing
mutates a packet once it is sent.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Hashable
from typing import Any

from repro.common.types import Primitive, Privilege


class ResponseStatus(enum.Enum):
    """Outcome of a primitive as reported by the EMS."""

    OK = "ok"
    SANITY_FAILED = "sanity_failed"
    STATE_ERROR = "state_error"
    OWNERSHIP_ERROR = "ownership_error"
    NOT_AUTHORIZED = "not_authorized"
    OUT_OF_MEMORY = "out_of_memory"
    ATTESTATION_FAILED = "attestation_failed"
    ERROR = "error"
    #: The EMS runtime failed before touching any state (e.g. a handler
    #: crash); the request is safe to retry with the same idempotency key.
    TRANSIENT = "transient"


@dataclasses.dataclass(slots=True)
class PrimitiveRequest:
    """One enclave primitive request packet.

    ``enclave_id`` is stamped by EMCall from the *current* hardware enclave
    identity — never taken from the caller's arguments — which is what
    defeats request forgery (paper Section III-B, mechanism ②).
    """

    request_id: int
    primitive: Primitive
    enclave_id: int | None
    privilege: Privilege
    args: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Stamped by EMCall on every request so a timed-out-and-retried
    #: request — a *new* request id for the *same* logical operation — is
    #: deduplicated EMS-side instead of re-applied.
    idempotency_key: Hashable | None = None

    def arg(self, name: str, default: Any = None) -> Any:
        """Convenience accessor for an argument field."""
        return self.args.get(name, default)


@dataclasses.dataclass(slots=True)
class PrimitiveResponse:
    """One primitive response packet, bound to its request by id."""

    request_id: int
    status: ResponseStatus
    result: dict[str, Any] = dataclasses.field(default_factory=dict)
    service_cycles: int = 0

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK


@dataclasses.dataclass(slots=True)
class BatchRequest:
    """N independent primitive requests in one mailbox transaction.

    The batch crosses the fabric as a single envelope: one doorbell, one
    IRQ, one transfer per direction — the amortization HyperEnclave-style
    designs use to keep management-heavy workloads off the scalar
    round-trip path. The ``batch_id`` plays the mailbox role of a
    ``request_id`` (slot claim, response binding, duplicate suppression);
    each element keeps its *own* request id and idempotency key so a
    retried batch replays only the elements the EMS has not applied.
    """

    batch_id: int
    requests: tuple[PrimitiveRequest, ...]

    def __post_init__(self) -> None:
        self.requests = tuple(self.requests)
        if not self.requests:
            raise ValueError("a BatchRequest must carry at least one request")

    @property
    def request_id(self) -> int:
        """Mailbox-facing id: the batch is one transaction."""
        return self.batch_id

    def __len__(self) -> int:
        return len(self.requests)


@dataclasses.dataclass(slots=True)
class BatchResponse:
    """Per-element responses for one batch, bound by ``batch_id``.

    Every element is answered — a failing primitive yields its own error
    status without poisoning its siblings. ``service_cycles`` is the
    EMS-side sum over the elements (the work really done serially on the
    EMS cores); EMCall amortizes the transport around it.
    """

    batch_id: int
    responses: tuple[PrimitiveResponse, ...]
    service_cycles: int = 0

    def __post_init__(self) -> None:
        self.responses = tuple(self.responses)
        if not self.responses:
            raise ValueError("a BatchResponse must carry at least one "
                             "response")

    @property
    def request_id(self) -> int:
        """Mailbox-facing id mirroring :attr:`BatchRequest.request_id`."""
        return self.batch_id

    @property
    def ok(self) -> bool:
        """True only when every element succeeded."""
        return all(r.ok for r in self.responses)

    def __len__(self) -> int:
        return len(self.responses)
