"""The fixed-seed outputs bit for bit: ``outputs.TIER1``'s records against ``tests/outputs.sha256``."""

import sys
from pathlib import Path

import pytest

import outputs

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))  # workloads, for the pools
DIGESTS = {name: sha for sha, name in map(str.split, outputs.DIGESTS.read_text().splitlines())}


def test_digests_name_every_case():
    assert list(DIGESTS) == list(outputs.CASES)


@pytest.mark.parametrize("name", outputs.TIER1)
def test_case_matches_its_digest(name):
    assert outputs.digest(outputs.CASES[name]()) == DIGESTS[name]
