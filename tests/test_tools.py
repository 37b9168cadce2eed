import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_artifact_digests_runs_every_config_and_bench_merge():
    """The digest table is what two checkouts are compared by, and it
    reads ``bench/workloads.py``: every run it makes, shipped or bench,
    must reach exit 0 and get its status row."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    statuses = re.findall(r"^\| `(.+) \[status exit=(-?\d+)\]` \|",
                          done.stdout, flags=re.MULTILINE)
    assert [label for label, code in statuses if code != "0"] == []
    expected = [p.stem for p in sorted((ROOT / "configs").glob("*.json"))]
    expected += ["tree_synthetic (--seed 99)", "validate_h2o2 (--seed 99)",
                 "lz_rbcs (--format json)", "cost_table (--format json)"]
    expected += [f"bench evolve_merge m={m} seed={seed}"
                 for m in (9, 21) for seed in range(3)]
    assert [label for label, _ in statuses] == expected
