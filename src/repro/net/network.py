"""Network registry: nodes, links, and DES-integrated message delivery."""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..config import NetworkSpec
from ..errors import NetworkError
from ..sim import Simulator
from .link import Direction, Link
from .message import Message


class Network:
    """A set of named nodes connected by point-to-point links.

    The experiments of the paper only need the origin<->destination pair
    (plus a file server for the FFA baseline), but the registry supports an
    arbitrary topology for the cluster/scheduler layer.

    Given ``nodes`` and a default ``spec``, the registry is a lazy full
    mesh: the link between two of those nodes is created (through
    :meth:`connect`, the one place a link is made) the first time it is
    looked up, with ``spec`` or its ``link_specs`` override.  An override
    keyed in ``nodes`` order wins over the reversed key.  The link in turn
    builds each direction on its first lookup, and a direction allocates
    its transfer log on its first message.  A link or direction that has
    carried nothing is in the same state as a new one, so when it is
    created cannot change a result, and a fleet pays only for the pairs
    that talk, and only in the directions they talk in.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[str] = (),
        spec: NetworkSpec | None = None,
        link_specs: Mapping[tuple[str, str], NetworkSpec] | None = None,
    ) -> None:
        self.sim = sim
        self._nodes: set[str] = set(nodes)
        self._links: dict[tuple[str, str], Link] = {}
        #: Lazy-mesh members -> position in ``nodes`` (override precedence).
        self._mesh = {name: i for i, name in enumerate(nodes)} if spec is not None else {}
        self._spec = spec
        self._link_specs = dict(link_specs or {})

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        self._nodes.add(name)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def connect(self, a: str, b: str, spec: NetworkSpec) -> Link:
        """Create a duplex link between ``a`` and ``b``."""
        self._nodes.add(a)
        self._nodes.add(b)
        key = (a, b) if a < b else (b, a)
        if key in self._links:
            raise NetworkError(f"nodes {a!r} and {b!r} are already linked")
        link = Link(a, b, spec)
        self._links[key] = link
        return link

    def link_between(self, a: str, b: str) -> Link:
        """The ``a``<->``b`` link; between mesh nodes, made on first use."""
        key = (a, b) if a < b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            pass
        mesh = self._mesh
        if a not in mesh or b not in mesh:
            raise NetworkError(f"no link between {a!r} and {b!r}")
        if mesh[a] > mesh[b]:
            a, b = b, a
        overrides = self._link_specs
        spec = overrides.get((a, b)) or overrides.get((b, a)) or self._spec
        return self.connect(a, b, spec)

    def direction(self, src: str, dst: str) -> Direction:
        """The one-way channel for ``src`` -> ``dst`` traffic."""
        return self.link_between(src, dst).direction(src, dst)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer(self, src: str, dst: str, payload_bytes: int) -> float:
        """Submit a payload now; return its simulated arrival time."""
        return self.direction(src, dst).transfer(payload_bytes, self.sim.now)

    def send(self, message: Message, on_delivery: Callable[[Message, float], None]) -> float:
        """Submit ``message`` now and schedule ``on_delivery(message, t)`` at
        its arrival time ``t``.  Returns the arrival time."""
        arrival = self.transfer(message.src, message.dst, message.payload_bytes)
        self.sim.schedule_at(arrival, lambda: on_delivery(message, arrival))
        return arrival

    def round_trip_time(self, a: str, b: str, payload_bytes: int = 0) -> float:
        """Unloaded round-trip estimate (pure latency + serialization of a
        minimal message), without occupying the link."""
        fwd = self.direction(a, b)
        bwd = self.direction(b, a)
        size = payload_bytes + fwd.per_message_overhead_bytes
        return (
            fwd.latency_s
            + bwd.latency_s
            + size / fwd.bandwidth_bps
            + size / bwd.bandwidth_bps
        )
