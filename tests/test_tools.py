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
    assert _digest_lines("fibre-identities") == [
        "fibre-identities items 0..0: 24 ops, 77 fibre_product_cells results (70 components)",
        "sha256 f7b6b737874c9eff963895c27c56af5ab3f57f3dc114b350d7fac24bf2d26c2c",
        "outcomes sha256 14883f75bcdad41e29ab3760f7a75c66e560f0394399b689b70d65263f51867e",
    ]


def test_outcome_only_digest_of_one_cochain_item():
    # The fibre products of a cup are recorded in the combined digest, so only
    # the counts and the outcomes are pinned here.
    counts, _, outcomes = _digest_lines("cochain-algebra")
    assert counts == ("cochain-algebra items 0..0: 10 ops, "
                      "110 fibre_product_cells results (138 components)")
    assert outcomes == (
        "outcomes sha256 1dd9881733bafec6d8d0fb5ed9962cc5d78f9341d2dce31262009a5f2599a4eb")
