"""One-shot fixture sweep: every subcommand on every bundled fixture.

    python3 perfbench/sweep.py

Runs analyze, certify-ramification and render once on each of the six
fixtures (18 operations), outside the timed workloads, each under a
per-operation timeout.  certify-ramification uses the first pool root at the
workload depth; render uses the CLI defaults (128x128, 500 iterations).
Records status (``ok``, ``exit N`` or ``timeout``), wall time and peak RSS,
with the environment, in ``perfbench/sweep.json``.  Outputs are not checked:
the sweep records what finishes and what it costs, including the operations
no timed workload can wait for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness

FIXTURES = ("f", "g3", "g4", "lattes4", "power", "quadratic")
RESULT = harness.HERE / "sweep.json"


def sweep_ops(root: Path) -> list[harness.Op]:
    ops = []
    for fx in FIXTURES:
        point = harness.ROOT_POOLS[harness.fixture_shape(root, fx)[1]][0]
        ops += [harness.analyze_op(fx), harness.certify_op(fx, point), harness.render_op(fx, "128x128")]
    return ops


def main() -> int:
    root = Path.cwd()
    workdir = harness.HERE / "out" / "sweep"
    rows = []
    for op in sweep_ops(root):
        sample = harness.run_op(op, root, workdir, traced=False, timeout=harness.OP_TIMEOUT_S)
        row = {
            "command": " ".join(["critfin"] + op.argv(Path("OUT"))),
            "status": sample.status,
            "wall_s": round(sample.wall_s, 3),
            "peak_rss_mb": round(sample.rss_mb, 1),
        }
        rows.append(row)
        print(f"{row['command']}: {row['status']}, {row['wall_s']} s, {row['peak_rss_mb']} MB", flush=True)
    payload = {
        "environment": harness.environment(root, None),
        "timeout_s": harness.OP_TIMEOUT_S,
        "operations": rows,
    }
    RESULT.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
