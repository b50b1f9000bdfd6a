"""A link direction that consults a :class:`FaultPlan` on every message.

``LossyDirection`` is a drop-in :class:`repro.net.link.Direction`: it keeps
the exact serialization/latency model and byte accounting of the base
class and layers fault semantics on top:

* **loss** — the message occupies its wire time (the frame is dropped
  downstream of the sender) but never arrives: the arrival time is
  ``math.inf``;
* **flap** — during a scheduled link-down window nothing transmits at
  all: the arrival is ``math.inf`` and no bytes are accounted;
* **duplication** — a second copy occupies the wire; if the original is
  also lost, the duplicate delivers (loss and duplication are drawn
  independently, like frame loss on a retransmitting NIC);
* **delay** — the arrival is pushed back by the configured extra delay.

An infinite arrival time is how "this message will never arrive" flows
through the simulation: the deputy ignores requests that never arrive and
the migrant's retransmission timer eventually fires on replies that never
arrive.
"""

from __future__ import annotations

import math

from ..config import NetworkSpec
from ..errors import FaultInjectionError
from ..net.link import Direction
from ..net.network import Network
from .log import FaultEventKind
from .plan import FaultPlan


class LossyDirection(Direction):
    """One direction of a duplex link subject to a fault plan."""

    __slots__ = (
        "plan",
        "dropped_messages",
        "flap_dropped_messages",
        "duplicated_messages",
        "delayed_messages",
    )

    def __init__(self, spec: NetworkSpec, name: str, plan: FaultPlan) -> None:
        super().__init__(spec, name=name)
        self.plan = plan
        self.dropped_messages = 0
        self.flap_dropped_messages = 0
        self.duplicated_messages = 0
        self.delayed_messages = 0

    def _log(self, now: float, kind: FaultEventKind, detail: str = "") -> None:
        if self.plan.log is not None:
            self.plan.log.record(now, kind, channel=self.name, detail=detail)

    def transfer(self, payload_bytes: int, now: float) -> float:
        if self.plan.link_down(now):
            self.flap_dropped_messages += 1
            self._log(now, FaultEventKind.FLAP_DROP)
            return math.inf
        decision = self.plan.draw(self.name, now)
        arrival = super().transfer(payload_bytes, now)
        if decision.duplicate:
            # The duplicate occupies the wire too; it trails the original.
            dup_arrival = super().transfer(payload_bytes, now)
            self.duplicated_messages += 1
            self._log(now, FaultEventKind.DUPLICATE)
        if decision.drop:
            self.dropped_messages += 1
            self._log(now, FaultEventKind.DROP)
            # If a duplicate was made, it survives the original's loss.
            arrival = dup_arrival if decision.duplicate else math.inf
        if decision.extra_delay > 0.0 and not math.isinf(arrival):
            arrival += decision.extra_delay
            self.delayed_messages += 1
            self._log(now, FaultEventKind.DELAY, detail=f"{decision.extra_delay:g}s")
        return arrival


def install_lossy_link(network: Network, a: str, b: str, plan: FaultPlan) -> None:
    """Replace both directions of the ``a``<->``b`` link with lossy ones.

    Must run before the link carries any traffic (the wrapper starts with
    fresh channel state); a shape already applied to the link carries over.
    """
    link = network.link_between(a, b)
    for src, dst in ((a, b), (b, a)):
        old = link.direction(src, dst)
        if old.total_messages:
            raise FaultInjectionError(
                f"cannot inject faults into {old.name}: it already carried traffic"
            )
        link.replace_direction(src, dst, LossyDirection(link.spec, old.name, plan))
