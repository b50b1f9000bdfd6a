"""The worked examples of docs/ALGORITHM.md run as doctests."""

from __future__ import annotations

import doctest
import pathlib

ALGORITHM_MD = pathlib.Path(__file__).parent.parent / "docs" / "ALGORITHM.md"


def test_algorithm_walkthrough_examples_pass():
    result = doctest.testfile(str(ALGORITHM_MD), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
