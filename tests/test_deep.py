"""tools/deep.py, the off-benchmark timing runs, on its cheapest case cut
to a few rounds."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "deep.py"


def test_deep_prints_time_memory_and_digest():
    done = subprocess.run(
        [sys.executable, str(TOOL), "dyadic-xy-7", "--rounds", "4"],
        capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(done.stdout)
    assert (out["case"], out["rounds"]) == ("dyadic-xy-7", 4)
    assert out["wall_s"] >= 0 and out["maxrss_mib"] > 0
    # the 4-round basis of x, y on dyadic depth 8
    assert out["sha256"] == ("7b65ccaa9a74a8aafc26a9bb2407e662"
                             "279aef209d5d4afabb01f76fbca84caf")
