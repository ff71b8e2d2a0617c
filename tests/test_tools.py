"""The committed equivalence tool, run on one item of one workload."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_outcome_digest_of_one_item():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "outcome_digest.py"),
         "--workload", "fibre-identities", "--items", "1"],
        capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines() == [
        "fibre-identities items 0..0: 24 ops, 77 fibre_product_cells results (70 components)",
        "sha256 f7b6b737874c9eff963895c27c56af5ab3f57f3dc114b350d7fac24bf2d26c2c",
    ]
