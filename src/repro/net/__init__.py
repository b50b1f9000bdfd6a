"""Simulated cluster interconnect.

Links are duplex point-to-point channels with latency, finite bandwidth and
FIFO serialization (:mod:`repro.net.link`); a payload submitted to a
:class:`Direction` returns its arrival time, and the sender schedules
whatever happens on arrival with the DES kernel.  :mod:`repro.net.network`
wires links between nodes, :mod:`repro.net.shaper` reproduces the paper's
``tc``/``iptables`` traffic shaping (section 5.5), and
:mod:`repro.net.monitor` provides the byte counters and RTT probes consumed
by the oM_infoD daemon.
"""

from .link import Direction, Link
from .monitor import BandwidthEstimator, RttEstimator
from .network import Network
from .shaper import TrafficShaper

__all__ = [
    "BandwidthEstimator",
    "Direction",
    "Link",
    "Network",
    "RttEstimator",
    "TrafficShaper",
]
