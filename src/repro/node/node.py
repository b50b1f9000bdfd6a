"""A cluster node: CPU + memory + a name on the network."""

from __future__ import annotations

from ..config import HardwareSpec
from ..errors import ConfigurationError
from .cpu import CpuModel


class Node:
    """One machine of the simulated cluster.

    Nodes are intentionally thin: the interesting state lives in the CPU
    model (load/utilization) and in per-process structures (address space,
    residency).
    """

    def __init__(self, name: str, hardware: HardwareSpec) -> None:
        if not name:
            raise ConfigurationError("node name must be non-empty")
        self.name = name
        self.cpu = CpuModel(hardware.cpu_hz)

    @property
    def load(self) -> int:
        """openMosix-style load metric: runnable process count."""
        return self.cpu.runnable

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} load={self.load}>"
