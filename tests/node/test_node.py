"""Unit tests for the cluster node."""

from __future__ import annotations

import pytest

from repro.config import HardwareSpec
from repro.errors import ConfigurationError
from repro.node.node import Node


def test_load_tracks_runnable():
    node = Node("n1", HardwareSpec())
    assert node.load == 0
    node.cpu.acquire()
    assert node.load == 1


def test_empty_name_rejected():
    with pytest.raises(ConfigurationError):
        Node("", HardwareSpec())
