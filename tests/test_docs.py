"""Docs that must track the code: ALGORITHM.md doctests, DESIGN.md map."""

from __future__ import annotations

import doctest
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
ALGORITHM_MD = ROOT / "docs" / "ALGORITHM.md"


def test_algorithm_walkthrough_examples_pass():
    result = doctest.testfile(str(ALGORITHM_MD), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_design_module_map_matches_the_tree():
    """DESIGN.md section 3 names every module under src/repro/<subpackage>/
    and no module that does not exist."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 3. System inventory") : text.index("## 4.")]
    named = set(re.findall(r"`(\w+/\w+\.py)`", section))
    src = ROOT / "src" / "repro"
    tree = {
        str(path.relative_to(src))
        for path in src.glob("*/*.py")
        if path.name != "__init__.py"
    }
    assert not named - tree, f"DESIGN.md names missing modules: {sorted(named - tree)}"
    assert not tree - named, f"DESIGN.md omits modules: {sorted(tree - named)}"
