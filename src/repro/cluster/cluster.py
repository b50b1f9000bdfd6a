"""Cluster: a set of nodes fully connected by point-to-point links.

Links default to the config's shared :class:`NetworkSpec`; ``link_specs``
replaces individual links (keyed by either endpoint order) for
heterogeneous topologies — e.g. a slow WAN hop in a migration path.
Each link is created on first use (:class:`repro.net.network.Network`),
and each of its directions on first lookup, so a 300-node fleet holds only
the links its traffic actually crosses, mostly in the one direction its
gossip took.

The paper's testbed (HKU Gideon 300) is a Fast-Ethernet switched cluster;
for the two- and three-node experiments a full mesh of point-to-point
links is an exact model, and for the scheduler examples it is the usual
simplification.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..config import NetworkSpec, SimulationConfig
from ..errors import ConfigurationError
from ..net.network import Network
from ..net.shaper import TrafficShaper
from ..node.node import Node
from ..sim import Simulator


class Cluster:
    """Nodes + network for one simulation."""

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        node_names: Sequence[str] = ("home", "dest"),
        link_specs: Mapping[tuple[str, str], NetworkSpec] | None = None,
    ) -> None:
        if len(node_names) < 2:
            raise ConfigurationError("a cluster needs at least two nodes")
        if len(set(node_names)) != len(node_names):
            raise ConfigurationError(f"duplicate node names: {node_names}")
        self.sim = sim
        self.config = config
        self.network = Network(node_names, spec=config.network, link_specs=link_specs)
        self.nodes: dict[str, Node] = {
            name: Node(name, config.hardware) for name in node_names
        }

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r}")

    def shaper(self, a: str, b: str) -> TrafficShaper:
        """A traffic shaper for the link between ``a`` and ``b``."""
        return TrafficShaper(self.network.link_between(a, b))
