"""tools/bank_diff.py: a tree compared with itself matches everywhere."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bank_diff_of_a_tree_with_itself_is_identical():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bank_diff.py"), str(ROOT),
         str(ROOT), "--workload", "lines-coherent"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["lines-coherent: 10/10 identical"]
