"""The committed equivalence tool, run on one item of a workload."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest_lines(workload):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "outcome_digest.py"),
         "--workload", workload, "--items", "1"],
        capture_output=True, text=True, check=True, timeout=60).stdout.splitlines()


def test_outcome_digest_of_one_item():
    # The combined line moved when fibre-product components stopped carrying a
    # coorientation slot, which was None on every one recorded here.
    assert _digest_lines("fibre-identities") == [
        "fibre-identities items 0..0: 24 ops, 77 fibre_product_cells results (70 components)",
        "sha256 214a90eb5d0e95b2f4b81a9c46317b20be599b6cdf0da4aec978075cd9aa71fa",
        "outcomes sha256 14883f75bcdad41e29ab3760f7a75c66e560f0394399b689b70d65263f51867e",
    ]


def test_outcome_only_digest_of_one_cochain_item():
    # The fibre products of a cup are recorded in the combined digest, so only
    # the counts and the outcomes are pinned here.  The counts moved from 110
    # results (138 components) when check_dga came to compute cup(c1, c2)
    # once for its three laws instead of once per law; the outcomes did not.
    counts, _, outcomes = _digest_lines("cochain-algebra")
    assert counts == ("cochain-algebra items 0..0: 10 ops, "
                      "98 fibre_product_cells results (122 components)")
    assert outcomes == (
        "outcomes sha256 1dd9881733bafec6d8d0fb5ed9962cc5d78f9341d2dce31262009a5f2599a4eb")


def test_outcome_only_digest_of_one_chain_boundary_item():
    counts, _, outcomes = _digest_lines("chain-boundary")
    assert counts == ("chain-boundary items 0..0: 2 ops, "
                      "0 fibre_product_cells results (0 components)")
    assert outcomes == (
        "outcomes sha256 bc13f342d30de3ebe5ea75b52d35104d8d05f162fc0cd2c8fabc7523cf679246")


def test_outcome_only_digest_of_one_homology_bordism_item():
    counts, _, outcomes = _digest_lines("homology-bordism")
    assert counts == ("homology-bordism items 0..0: 25 ops, "
                      "0 fibre_product_cells results (0 components)")
    assert outcomes == (
        "outcomes sha256 af7886ba6038bde5315210fefae5567f7014e522f7be62e9ea96688f1c391a80")
