"""The equivalence set's hashes match the ones recorded for this host's numpy dispatch level."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _recorded_blocks() -> dict[str, list[str]]:
    """``tools/equivalence.expected`` as {first ``#`` line: the hash lines after it}; blank lines part blocks."""
    blocks = {}
    for block in (TOOLS / "equivalence.expected").read_text(encoding="utf-8").split("\n\n"):
        head, *hashes = block.strip().splitlines()
        blocks[head] = hashes
    return blocks


def test_hashes_match_the_recorded_level():
    run = subprocess.run([sys.executable, str(TOOLS / "equivalence.py")],
                         capture_output=True, text=True, check=True)
    head, *hashes = run.stdout.splitlines()
    blocks = _recorded_blocks()
    if head not in blocks:
        pytest.skip(f"no hashes recorded for this level: {head}")
    assert hashes == blocks[head]
