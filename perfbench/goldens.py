"""Record the goldens every benchmark operation is checked against.

    python3 perfbench/goldens.py

Runs each operation any workload can draw once (every analyze and render
operation, and certify-ramification on every pool root of every fixture),
and writes the summaries that ``checks.py`` compares into
``perfbench/goldens.json``.  Record only from a commit whose outputs are
trusted; the benchmark never rewrites this file.  A recorded output that
breaks a certificate invariant is kept as recorded and listed under
``invariant_failures``: the timed workloads leave that operation out, every
``certify-backward`` run prints it, and ``tests/test_perfbench.py`` re-runs it
as an expected failure until the program is fixed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import harness


def all_ops(root: Path) -> list[harness.Op]:
    ops = [harness.analyze_op(fx) for fx in harness.ANALYZE_FIXTURES]
    ops += [harness.render_op(fx, res) for fx, res in harness.RENDERS]
    for fx in harness.CERTIFY_DEPTHS:
        pool = harness.ROOT_POOLS[harness.fixture_shape(root, fx)[1]]
        ops += [harness.certify_op(fx, point) for point in pool]
    return ops


def main() -> int:
    root = Path.cwd()
    workdir = harness.HERE / "out" / "goldens"
    goldens: dict[str, dict] = {}
    invariant_failures: dict[str, str] = {}
    for op in all_ops(root):
        sample = harness.run_op(op, root, workdir, traced=False, timeout=harness.OP_TIMEOUT_S)
        if not sample.ok:
            print(f"{op.golden_key}: {sample.status} {sample.detail}", file=sys.stderr)
            return 1
        if op.kind == "certify":
            degree, dimension = harness.fixture_shape(root, op.fixture)
            problem = checks.certify_invariants(sample.stdout, degree, dimension, op.depth)
            if problem is not None:
                # recorded, not dropped: the tests re-run it as an expected
                # failure until the program is fixed
                invariant_failures[op.golden_key] = problem
                print(f"{op.golden_key}: invariant fails: {problem}", file=sys.stderr)
        goldens[op.golden_key] = checks.summarize(op, sample.stdout, workdir)
        print(f"{op.golden_key}: {sample.wall_s:.2f} s", flush=True)
    payload = {
        "environment": harness.environment(root, None),
        "goldens": goldens,
        "invariant_failures": invariant_failures,
    }
    harness.GOLDENS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {harness.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
