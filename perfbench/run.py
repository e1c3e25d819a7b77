"""critfin benchmark: CLI workloads timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client, closed loop: the workload's
operations run one after another, each a separate ``critfin`` invocation in
a fresh child process, pass after pass, until the next operation would end
past ``--seconds`` (every operation runs at least once).
Every output is checked against ``goldens.json``; an operation that times
out, exits non-zero or fails its check counts as failed.

With ``--trace 0`` the end-to-end metrics are reported, with tracing off.
Their times are scaled to the reference machine speed: multiplied by
``harness.REF_CALIBRATION_S`` over the median of a fixed stdlib-import child
timed before every operation of the run, once per second the operation's slot
takes (``harness.calibrate``), because the speed of a shared machine drifts by
a third within minutes.

* ``wall_s``: one pass through the workload's sequence, spawn to exit of
  each operation, summed over the sequence (per-operation medians).
* ``solve_s``: the same sum of the time inside each child after
  ``import critfin``, from parsing the map to writing the output.
* ``setup_s``: median over the run's operations of interpreter start plus
  ``import critfin``.
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any child.

With ``--trace 1`` every pass repeats the first pass's operations, and each
runs twice, untraced and traced (alternating which goes first).  The
per-layer metrics come from the traced children, unscaled:
``<module>.<function>.{calls,s,self_s}`` plus work counts, each a per-pass
total (per-operation medians, summed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import harness
import tracer

T_PROCESS = time.monotonic()

#: every run ends, result printed, within this many seconds of starting
HARD_LIMIT_S = 165.0

E2E_UNITS = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: traced functions reported as ``<name>.calls``, ``<name>.s``, ``<name>.self_s``
LAYER_SPANS = tuple(
    f"{module.removeprefix('critfin.')}.{name}"
    for module, names in tracer.TARGETS.items()
    for name in names
)
#: work counts summed over a pass
LAYER_COUNTS = (
    "geometry.points_exact",
    "geometry.points_float",
    "dynamics.find_periodic.points",
    "dynamics.find_periodic.points_exact",
    "ramification.preimage_tree.nodes",
    "postcritical.build_orbit_graph.nodes",
    "fatou.build_targets.cycles",
    "fatou.render_slice.pixels",
    "fatou.render_slice.orbit_steps",
)
#: largest value over the pass
LAYER_MAXIMA = ("algebra.factor.max_degree", "geometry.binary_roots.max_degree")


def layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units: dict[str, str] = {}
    for span in LAYER_SPANS:
        units.update({f"{span}.calls": "count", f"{span}.s": "s", f"{span}.self_s": "s"})
    units.update({name: "count" for name in LAYER_COUNTS + LAYER_MAXIMA})
    units["geometry.solve_form_pair.attempts_per_call"] = "ratio"
    units["fatou.render_slice.pixels_per_s"] = "1/s"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def drive(workload: harness.Workload, seconds: float, trace: bool, root: Path,
          workdir: Path, goldens: dict) -> list[harness.Sample]:
    """Run passes until every slot ran in every mode and ``seconds`` are used."""
    start = time.monotonic()
    deadline = T_PROCESS + HARD_LIMIT_S
    samples: list[harness.Sample] = []
    slots = {(op.key, traced) for op in workload.ops(0) for traced in ((False, True) if trace else (False,))}
    seen: set[tuple[str, bool]] = set()
    took: dict[tuple[str, bool], list[float]] = defaultdict(list)
    pass_index = 0
    while True:
        # a traced run repeats the first pass's inputs, so that its counts
        # repeat exactly and its times are medians over identical operations
        for op in workload.ops(0 if trace else pass_index):
            modes = (False,) if not trace else ((False, True) if pass_index % 2 == 0 else (True, False))
            for traced in modes:
                now = time.monotonic()
                # once every slot has run, stop before an operation that would
                # end past ``seconds``, judged by its slot's median so far
                if seen >= slots and now - start + statistics.median(took[op.key, traced]) > seconds:
                    return samples
                if now >= deadline:
                    sample = harness.Sample(op, traced, "timeout", 0.0, 0.0, detail="run deadline")
                else:
                    prior = took[op.key, traced]
                    count = round(statistics.median(prior) / harness.CALIBRATION_EVERY_S) if prior else 1
                    calibrations = [harness.calibrate() for _ in range(max(1, count))]
                    timeout = min(harness.OP_TIMEOUT_S, deadline - time.monotonic())
                    sample = harness.run_op(op, root, workdir, traced, timeout)
                    sample.calibrations = calibrations
                if sample.ok:
                    shape = harness.fixture_shape(root, op.fixture)
                    problem = checks.check(op, sample.stdout, workdir, goldens, *shape)
                    if problem is not None:
                        sample.status, sample.detail = "mismatch", problem
                samples.append(sample)
                seen.add((op.key, traced))
                took[op.key, traced].append(time.monotonic() - now)
        pass_index += 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _by_key(samples, traced: bool) -> dict[str, list[harness.Sample]]:
    groups: dict[str, list[harness.Sample]] = defaultdict(list)
    for s in samples:
        if s.ok and s.traced == traced:
            groups[s.op.key].append(s)
    return groups


def _pass_total(groups, value) -> float:
    """Sum over the sequence of each operation's median ``value``."""
    return sum(statistics.median(value(s) for s in group) for group in groups.values())


def speed_scale(samples: list[harness.Sample]) -> float:
    """Reference calibration time over this run's median calibration time."""
    cals = [c for s in samples for c in s.calibrations]
    return harness.REF_CALIBRATION_S / statistics.median(cals) if cals else 1.0


def end_to_end(samples: list[harness.Sample]) -> dict[str, float]:
    """The end-to-end metrics; times are scaled to the reference machine speed.

    Interpreter work (start-up, import, and the solve of every operation that
    is not array-bound) is scaled; an array-bound solve is taken as measured.
    """
    groups = _by_key(samples, traced=False)
    ran = [s for s in samples if not s.traced and s.rss_mb > 0]
    ok = [s for group in groups.values() for s in group]
    scale = speed_scale(samples)

    def solve(s):
        return s.solve_s * (1.0 if s.op.array_bound else scale)

    return {
        "wall_s": _pass_total(groups, lambda s: (s.wall_s - s.solve_s) * scale + solve(s)),
        "solve_s": _pass_total(groups, solve),
        "setup_s": scale * statistics.median(s.setup_s for s in ok) if ok else 0.0,
        "peak_rss_mb": max((s.rss_mb for s in ran), default=0.0),
    }


def layer_values(sample: harness.Sample) -> dict[str, float]:
    """One traced operation's layer figures, before aggregation."""
    trace = sample.trace
    out: dict[str, float] = {}
    for span in LAYER_SPANS:
        entry = trace["layers"].get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in ("calls", "s", "self_s"):
            out[f"{span}.{stat}"] = entry[stat]
    for name in LAYER_COUNTS + ("geometry.solve_form_pair.eliminants",):
        out[name] = trace["counts"].get(name, 0)
    for name in LAYER_MAXIMA:
        out[name] = trace["maxima"].get(name, 0)
    out["cli.import_s"] = sample.import_s
    out["solve_s"] = sample.solve_s
    return out


def per_op_layers(samples) -> dict[str, dict[str, float]]:
    """Per operation slot: the median of each layer figure over its traced runs."""
    table = {}
    for key, group in _by_key(samples, traced=True).items():
        values = [layer_values(s) for s in group]
        table[key] = {name: statistics.median(v[name] for v in values) for name in values[0]}
    return table


def per_layer(samples: list[harness.Sample]) -> dict[str, float]:
    table = per_op_layers(samples)
    units = layer_units()
    totals: dict[str, float] = defaultdict(float)
    for row in table.values():
        for name, value in row.items():
            if name in LAYER_MAXIMA:
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    calls = totals["geometry.solve_form_pair.calls"]
    totals["geometry.solve_form_pair.attempts_per_call"] = (
        totals["geometry.solve_form_pair.eliminants"] / calls if calls else 0.0
    )
    render_s = totals["fatou.render_slice.s"]
    totals["fatou.render_slice.pixels_per_s"] = (
        totals["fatou.render_slice.pixels"] / render_s if render_s else 0.0
    )
    untraced = _pass_total(_by_key(samples, traced=False), lambda s: s.solve_s)
    totals["trace.overhead_s"] = totals["solve_s"] - untraced
    return {name: totals.get(name, 0.0) for name in units}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

#: layers shown per operation in the human-readable table, as shares of solve_s
SHOWN_LAYERS = (
    "algebra.factor.s",
    "geometry.solve_form_pair.s",
    "geometry.solve_form_pair_inexact.s",
    "dynamics.find_periodic.s",
    "postcritical.classify.s",
    "ramification.preimage_tree.s",
    "fatou.render_slice.s",
)


def print_report(args, env: dict, samples: list[harness.Sample], metrics: dict, units: dict) -> None:
    print(f"critfin benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    cals = [c for s in samples for c in s.calibrations]
    if cals:
        print(f"machine speed: calibration median {statistics.median(cals) * 1e3:.2f} ms over "
              f"{len(cals)} samples (reference {harness.REF_CALIBRATION_S * 1e3:.2f} ms); "
              f"end-to-end times are scaled by {speed_scale(samples):.4f} except array-bound "
              f"solve times; per-operation and per-layer times below are not")
    for key, group in sorted(_by_key(samples, traced=False).items()):
        print(f"  {key:<24} n={len(group):<3} wall {statistics.median(s.wall_s for s in group):7.3f} s"
              f"  setup {statistics.median(s.setup_s for s in group):6.3f} s"
              f"  solve {statistics.median(s.solve_s for s in group):7.3f} s"
              f"  rss {max(s.rss_mb for s in group):6.1f} MB")
    if args.trace:
        for key, row in sorted(per_op_layers(samples).items()):
            shares = ", ".join(
                f"{name[:-2]} {row[name]:.3f} s ({row[name] / row['solve_s']:.0%})"
                for name in SHOWN_LAYERS if row[name] > 0
            )
            inexact = row["geometry.solve_form_pair_inexact.calls"]
            print(f"  traced {key:<17} solve {row['solve_s']:.3f} s: {shares}; "
                  f"solve_form_pair_inexact.calls {inexact:g}")
    for s in samples:
        if not s.ok:
            print(f"  FAILED {s.op.key} ({s.op.golden_key}, traced={s.traced}): {s.status} {s.detail}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "critfin" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/critfin is missing", file=sys.stderr)
        return 2
    if not harness.GOLDENS.is_file():
        print(f"perfbench: {harness.GOLDENS} is missing", file=sys.stderr)
        return 2
    recorded = json.loads(harness.GOLDENS.read_text(encoding="utf-8"))
    goldens, known_defects = recorded["goldens"], recorded.get("invariant_failures", {})
    workload = harness.Workload(args.workload, args.seed, root, known_defects)
    workdir = harness.HERE / "out" / args.workload
    samples = drive(workload, args.seconds, bool(args.trace), root, workdir, goldens)
    if args.trace:
        metrics, units = per_layer(samples), layer_units()
    else:
        metrics, units = end_to_end(samples), E2E_UNITS
    print_report(args, harness.environment(root, args.seed), samples, metrics, units)
    if args.workload == "certify-backward":
        for key, problem in sorted(known_defects.items()):
            print(f"  KNOWN DEFECT, left out of the timed passes: {key}: {problem}")
    failed = sum(not s.ok for s in samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
