"""Set-up job: import branchspec and run one tiny job per CLI command.

Run as a script in a fresh process, it is what the benchmark's setup_s
measures (imports, lazy imports inside the commands, BLAS thread
start-up):

    python3 benchmark/setup_child.py OUT_DIR

The benchmark also calls warm_up() in its own process before timing.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODEL = {"h": 0.01, "epsilon": 0.03,
         "S12": [[0.01, 0.012], [0.3, 0.0]], "S34": [[0.02, 0.02], [-0.2, 0.0]]}

TINY_JOBS = [
    ("spectrum", {"h": 0.05, "epsilon": 0.8, "V": [0, 0, -1, 0, 1],
                  "W": [0, 0, 1], "L": 1.2, "N": 40, "dN": 8}),
    ("model", dict(MODEL, rectangle=[0.06, 0.07, -0.02, 0.02])),
    ("skeleton", MODEL),
    ("count", dict(MODEL, rectangle=[0.06, 0.09, -0.02, 0.02])),
    ("bs", dict(MODEL, branch="leftint", k_min=-5, k_max=-4)),
    ("average", {"x_poly": {"4,0": 1, "2,2": -1},
                 "correlate_with": {"3,1": 1}}),
    ("classify", {"a": [-1, 1], "b": 1, "c": [1, 2]}),
]


def warm_up(out_dir):
    """Run every tiny job with --check; raise if one exits nonzero."""
    from branchspec import cli
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for command, cfg in TINY_JOBS:
        path = out_dir / f"{command}.json"
        path.write_text(json.dumps(cfg))
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main([command, "--config", str(path), "--check",
                           "--out", str(out_dir / command)])
        if rc != 0:
            raise RuntimeError(f"set-up job {command} exited {rc}: "
                               f"{log.getvalue().strip()}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    warm_up(sys.argv[1])
