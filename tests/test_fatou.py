"""Orbit sampling, escape rates, and basin rendering."""

import contextlib
import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import critfin.dynamics as dynamics
import critfin.fatou as fatou
import critfin.orbits as orbits
from critfin.algebra import poly_parse
from critfin.cli import load_map
from critfin.config import Config, resolve
from critfin.dynamics import Endomorphism, endo_new, find_periodic, iterate
from critfin.errors import InputError
from critfin.fatou import (
    ACCUMULATES,
    CONVERGED,
    UNDECIDED,
    UNDECIDED_LABEL,
    SliceSpec,
    TargetSet,
    build_targets,
    escape_rate,
    render_slice,
    sample_orbit,
    sample_orbits,
    write_legend,
    write_ppm,
)
from critfin.geometry import ProjPoint
from orbit_oracle import tile_kernel_per_step

P3 = lambda s: poly_parse(s, 3)
P2 = lambda s: poly_parse(s, 2)


def f_map():
    return endo_new([P3("z^2 - w*t"), P3("w^2"), P3("t^2")])


def power_map():
    return endo_new([P3("z^2"), P3("w^2"), P3("t^2")])


def quad_map():
    return endo_new([P2("z^2 - 2*w^2"), P2("w^2")])


def lattes_map():
    return endo_new([P2("z^4 + 2*z^2*w^2 + w^4"), P2("4*z^3*w - 4*z*w^3")])


def shifted_map():
    # z -> (z - 1)^2 + 1: a superattracting fixed point off the vertices, at [1 : 1]
    return endo_new([P2("z^2 - 2*z*w + 2*w^2"), P2("w^2")])


def odd_map():
    # z -> (3z - z^3) / 2: superattracting fixed points at 1 and -1, which the
    # column mirror of the default slice, z -> -conj(z), swaps
    return endo_new([P2("3*z*w^2 - z^3"), P2("2*w^3")])


def pt(*coords):
    return ProjPoint.exact_point(list(coords))


# target sets are the expensive part of the suite; periodic-point solving is
# deterministic, so one copy per map serves every test
_TARGETS = {}
_MAPS = {
    "f": f_map,
    "power": power_map,
    "quad": quad_map,
    "lattes": lattes_map,
    "shifted": shifted_map,
    "odd": odd_map,
}


def targets_for(name):
    if name not in _TARGETS:
        _TARGETS[name] = build_targets(_MAPS[name]())
    return _TARGETS[name]


def trapless(name):
    """The map's targets without trapping balls: orbits confirm by the
    convergence window alone, the rule these tests pin step for step."""
    return dataclasses.replace(targets_for(name), traps={})


def cycle_index(targets, point):
    for i, cycle in enumerate(targets.cycles):
        if any(p.is_close(point, 1e-8) for p in cycle):
            return i
    raise AssertionError(f"no target cycle contains {point}")


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


def test_f_targets_oracle():
    T = targets_for("f")
    # seven fixed points (five rational, the golden-ratio pair) plus seven
    # 2-cycles, exactly as the period-2 solve reports
    assert len(T.cycles) == 14
    i = cycle_index(T, pt(0, 0, 1))
    assert T.classifications[i] == "superattracting-nilpotent-nonzero"
    assert T.superattracting(i)
    assert T.classifications[cycle_index(T, pt(1, 0, 0))] == (
        "superattracting-with-zero-differential"
    )
    assert not T.superattracting(cycle_index(T, pt(1, 0, 1)))
    kinds = sorted(c.kind for c in T.components)
    assert kinds == ["curve"] * 4 + ["point"] * 3


def test_power_targets_oracle():
    T = targets_for("power")
    assert len(T.cycles) == 14
    # the three vertices are superattracting, the edge and diagonal fixed
    # points are not
    assert T.superattracting(cycle_index(T, pt(0, 0, 1)))
    assert T.superattracting(cycle_index(T, pt(1, 0, 0)))
    assert not T.superattracting(cycle_index(T, pt(1, 1, 0)))
    assert not T.superattracting(cycle_index(T, pt(1, 1, 1)))
    # E_1 gives the three coordinate lines, E_2 the three vertices
    curves = sorted(str(c.poly) for c in T.components if c.kind == "curve")
    assert curves == ["t", "w", "z"]
    assert sum(1 for c in T.components if c.kind == "point") == 3


def test_quad_targets_oracle():
    T = targets_for("quad")
    assert len(T.cycles) == 4
    assert T.superattracting(cycle_index(T, pt(1, 0)))
    assert not T.superattracting(cycle_index(T, pt(2, 1)))
    points = sorted(str(c.point) for c in T.components)
    assert points == ["[1 : 0]", "[2 : 1]"]


def test_lattes_targets_all_repelling():
    T = targets_for("lattes")
    assert len(T.cycles) == 11  # 5 fixed points + 6 cycles of period two
    assert set(T.classifications) == {"other"}


def test_cycles_partition_the_periodic_points():
    T = targets_for("f")
    flat = [p for cycle in T.cycles for p in cycle]
    for i, p in enumerate(flat):
        assert not any(p.is_close(q, 1e-8) for q in flat[i + 1 :])
    assert sum(len(c) for c in T.cycles) == 21


@pytest.mark.parametrize("name", ["f", "power", "quad", "lattes"])
def test_build_targets_reads_the_cycles_find_periodic_walked(monkeypatch, name):
    f = {"f": f_map, "power": power_map, "quad": quad_map, "lattes": lattes_map}[name]()
    for pp in find_periodic(f, 2):
        walk = [pp.point]
        for _ in range(pp.period - 1):
            walk.append(f(walk[-1]))
        assert pp.cycle == walk
    # count map evaluations made by build_targets itself, outside the
    # periodic solve and the classification it calls
    calls, inside = [0], [0]
    real_call = Endomorphism.__call__

    def counting_call(self, p):
        if not inside[0]:
            calls[0] += 1
        return real_call(self, p)

    def nested(fn):
        def run(*args, **kwargs):
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return run

    monkeypatch.setattr(Endomorphism, "__call__", counting_call)
    monkeypatch.setattr(fatou, "find_periodic", nested(fatou.find_periodic))
    monkeypatch.setattr(fatou, "classify", nested(fatou.classify))
    T = build_targets(f)
    assert calls[0] == 0
    assert sum(len(c) for c in T.cycles) == len(find_periodic(f, 2))


# ---------------------------------------------------------------------------
# orbit verdicts
# ---------------------------------------------------------------------------


def test_f_origin_basin():
    # (0.1, 0.1) -> (-0.09, 0.01) -> (-0.0019, 0.0001) -> ... -> the origin
    T = trapless("f")
    v = sample_orbit(f_map(), ProjPoint.inexact([0.1, 0.1, 1]), T)
    assert v.outcome == CONVERGED
    assert v.cycle == cycle_index(T, pt(0, 0, 1))
    assert v.distance < 1e-8
    assert 10 <= v.iterations < 50


def test_power_basin_examples():
    T = targets_for("power")
    f = power_map()
    v = sample_orbit(f, ProjPoint.inexact([0.5, 0.5, 1]), T)
    assert v.outcome == CONVERGED
    assert v.cycle == cycle_index(T, pt(0, 0, 1))
    # (2, 2) doubles along the diagonal toward the line t = 0
    v = sample_orbit(f, ProjPoint.inexact([2, 2, 1]), T)
    assert v.outcome == CONVERGED
    assert v.cycle == cycle_index(T, pt(1, 1, 0))


def test_power_orbit_accumulates_on_a_line():
    # |w| = |t| = 1 while z squares to zero: the orbit closure is the circle
    # inside the invariant line z = 0, never a single cycle
    T = targets_for("power")
    start = ProjPoint.inexact([0.5, complex(math.cos(1), math.sin(1)), 1])
    v = sample_orbit(power_map(), start, T, max_iter=20)
    assert v.outcome == ACCUMULATES
    assert v.component.kind == "curve"
    assert str(v.component.poly) == "z"
    assert v.distance < 1e-12
    assert v.iterations == 20


def test_accumulation_tail_stays_near_postcritical_components():
    # starts spread over the unit torus direction: every orbit either lands
    # in a vertex basin or hugs a postcritical line within the tolerance
    T = targets_for("power")
    starts = []
    for th in (0.3, 1.1, 2.7):
        for ph in (1.0, 2.2):
            starts.append(
                ProjPoint.inexact(
                    [
                        0.5 * complex(math.cos(th), math.sin(th)),
                        complex(math.cos(ph), math.sin(ph)),
                        1,
                    ]
                )
            )
    verdicts = sample_orbits(power_map(), starts, T, max_iter=20)
    assert all(v.outcome in (CONVERGED, ACCUMULATES) for v in verdicts)
    hugging = [v for v in verdicts if v.outcome == ACCUMULATES]
    assert hugging
    for v in hugging:
        assert v.distance < 1e-3
        assert any(v.component is c for c in T.components)


def test_quad_julia_start_is_undecided():
    # 0.3 lies in the Julia interval [-2, 2] of z^2 - 2: no cycle is
    # approached and the tail keeps a visible gap to E_1 = {2, infinity}
    T = targets_for("quad")
    v = sample_orbit(quad_map(), ProjPoint.inexact([0.3, 1]), T, max_iter=60)
    assert v.outcome == UNDECIDED
    assert v.cycle is None and v.component is None
    assert v.iterations == 60
    assert math.isfinite(v.distance) and v.distance > resolve(None).accumulation_tol


def test_quad_escaping_start_reaches_infinity():
    T = targets_for("quad")
    v = sample_orbit(quad_map(), ProjPoint.inexact([3.0, 1]), T)
    assert v.outcome == CONVERGED
    assert v.cycle == cycle_index(T, pt(1, 0))


def test_verdicts_are_projectively_invariant():
    T = targets_for("f")
    a = pt(1, 2, 8)
    b = ProjPoint.inexact([0.125j, 0.25j, 1j])  # the same point, rotated lift
    va, vb = sample_orbits(f_map(), [a, b], T)
    assert (va.outcome, va.cycle, va.iterations, va.distance) == (
        vb.outcome,
        vb.cycle,
        vb.iterations,
        vb.distance,
    )


def test_batch_sampling_matches_single_calls():
    T = targets_for("f")
    f = f_map()
    starts = [
        ProjPoint.inexact([0.1, 0.1, 1]),
        ProjPoint.inexact([1.7, 0.3, 1]),
        pt(1, 2, 8),
        ProjPoint.inexact([0.3, 1.2, 1]),
    ]
    batch = sample_orbits(f, starts, T)
    for s, vb in zip(starts, batch):
        vs = sample_orbit(f, s, T)
        assert (vs.outcome, vs.cycle, vs.iterations, vs.distance) == (
            vb.outcome,
            vb.cycle,
            vb.iterations,
            vb.distance,
        )


def test_overlapping_target_cycles_are_refused():
    # one streak per orbit is only sound when no orbit is near two cycles at
    # once; a hand-made target set listing a cycle twice breaks that
    T = targets_for("f")
    i = cycle_index(T, pt(0, 0, 1))
    twice = TargetSet(
        cycles=T.cycles + [T.cycles[i]],
        classifications=T.classifications + [T.classifications[i]],
        components=T.components,
    )
    with pytest.raises(InputError, match=f"cycles {i} and {len(T.cycles)}"):
        sample_orbit(f_map(), ProjPoint.inexact([0.1, 0.1, 1]), twice)


def test_streak_restarts_when_the_near_cycle_changes():
    # f's 2-cycle {[0:1:1], [1:-1:-1]} split into two one-point targets: the
    # exact orbit of [0:1:1] alternates between them and confirms neither
    T = targets_for("f")
    i = cycle_index(T, pt(0, 1, 1))
    assert sample_orbit(f_map(), pt(0, 1, 1), T).cycle == i
    split = TargetSet(
        cycles=[[p] for p in T.cycles[i]],
        classifications=[T.classifications[i]] * 2,
        components=T.components,
    )
    v = sample_orbit(f_map(), pt(0, 1, 1), split, max_iter=40)
    assert v.outcome != CONVERGED and v.iterations == 40


def test_sampling_input_validation():
    T = targets_for("f")
    with pytest.raises(InputError):
        sample_orbit(f_map(), pt(1, 2), T)  # wrong space
    with pytest.raises(InputError):
        sample_orbit(f_map(), pt(1, 2, 8), T, max_iter=0)
    assert sample_orbits(f_map(), [], T) == []


# ---------------------------------------------------------------------------
# escape rate
# ---------------------------------------------------------------------------


def test_escape_rate_power_map_is_log_2():
    f = power_map()
    x = pt(2, 1, 1)  # canonical lift (2, 1, 1)
    for n in (1, 2, 5, 9):
        assert escape_rate(f, x, n) == math.log(2)


def test_escape_rate_vanishes_on_the_diagonal_fixed_point():
    assert escape_rate(power_map(), pt(1, 1, 1), 7) == 0.0


def test_escape_rate_lift_homogeneity():
    f = power_map()
    base = escape_rate(f, [2, 1, 1], 6)
    assert abs(escape_rate(f, [6j, 3j, 3j], 6) - base - math.log(3)) < 1e-12
    # canonical representatives make the ProjPoint value lift-independent
    assert escape_rate(f, pt(4, 2, 2), 6) == escape_rate(f, pt(2, 1, 1), 6)
    a = escape_rate(f, ProjPoint.inexact([0.4, 0.2, 0.2]), 6)
    b = escape_rate(f, ProjPoint.inexact([4.0, 2.0, 2.0]), 6)
    assert abs(a - b) < 1e-12


def test_escape_rate_stabilizes_on_f():
    f = f_map()
    assert escape_rate(f, pt(0, 0, 1), 20) == 0.0
    g20 = escape_rate(f, ProjPoint.inexact([1.7, 0.3, 1]), 20)
    g30 = escape_rate(f, ProjPoint.inexact([1.7, 0.3, 1]), 30)
    assert abs(g30 - g20) < 1e-9
    assert g20 != 0.0  # a genuinely curved potential, not the trivial orbit


def test_escape_rate_validation():
    f = power_map()
    with pytest.raises(InputError):
        escape_rate(f, pt(1, 1, 1), 0)
    with pytest.raises(InputError):
        escape_rate(f, [0, 0, 0], 3)
    with pytest.raises(InputError):
        escape_rate(f, [1, 2], 3)


# ---------------------------------------------------------------------------
# slice specifications
# ---------------------------------------------------------------------------


def test_slice_validation():
    with pytest.raises(InputError):
        SliceSpec(base=(0, 0), dir_u=(1, 0), dir_v=(2, 0), chart=2)  # dependent
    with pytest.raises(InputError):
        SliceSpec(base=(0,), dir_u=(1,), dir_v=(2,), chart=1)  # real-dependent
    with pytest.raises(InputError):
        SliceSpec(base=(0, 0), dir_u=(1, 0), dir_v=(0, 1), chart=3)
    with pytest.raises(InputError):
        SliceSpec(base=(0, 0), dir_u=(1, 0), dir_v=(0, 1), chart=2, width=0)
    with pytest.raises(InputError):
        SliceSpec(base=(0, 0), dir_u=(1, 0), dir_v=(0, 1), chart=2, extent=0.0)
    with pytest.raises(InputError):
        SliceSpec(base=(0, 0), dir_u=(1,), dir_v=(0, 1), chart=2)
    # a complex line inside the plane is a legitimate real 2-plane
    SliceSpec(base=(0, 0), dir_u=(1, 0), dir_v=(1j, 0), chart=2)


def test_slice_pixel_geometry():
    spec = SliceSpec.default(2, width=3, height=3)
    assert spec.params(0, 0) == (-1.0, 1.0)  # top-left pixel center
    assert spec.params(2, 2) == (1.0, -1.0)
    center = spec.point(1, 1)
    assert center.is_close(pt(0, 0, 1), 1e-15)
    for col in range(3):
        for row in range(3):
            assert spec.pixel_at(*spec.params(col, row)) == (col, row)


def test_slice_grid_is_row_major():
    spec = SliceSpec(
        base=(0.1, -0.2), dir_u=(1, 0.5), dir_v=(0, 1j), chart=1,
        center=(0.2, -0.1), extent=2.0, width=4, height=3,
    )
    grid = spec.grid()
    assert grid.shape == (3, 12)
    for row in range(3):
        for col in range(4):
            column = grid[:, row * 4 + col]
            assert ProjPoint.inexact(column) == spec.point(col, row)


def test_slice_point_is_its_render_column_bit_for_bit():
    # extent / width = 1/40 is not exact in binary, so a pixel centre
    # rounded otherwise than the column's differs in its last bits
    spec = SliceSpec.default(2, width=100, height=60, extent=2.5, center=(0.3, 0.2))
    for i in range(100 * 60):
        row, col = divmod(i, 100)
        assert spec.point(col, row) == ProjPoint.inexact(spec.columns(np.arange(i, i + 1))[:, 0])


def test_default_slices():
    line = SliceSpec.default(1)
    assert line.chart == 1 and line.dir_u == (1 + 0j,) and line.dir_v == (1j,)
    plane = SliceSpec.default(2)
    assert plane.chart == 2 and len(plane.base) == 2
    with pytest.raises(InputError):
        SliceSpec.default(3)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_power_render_oracle():
    T = targets_for("power")
    spec = SliceSpec.default(2, width=64, height=64)
    img = render_slice(power_map(), spec, T)
    col, row = spec.pixel_at(0.5, 0.5)
    assert img.labels[row, col] == cycle_index(T, pt(0, 0, 1)) + 1
    basin_labels = set(img.labels.ravel().tolist()) - {0, len(T.cycles) + 1}
    assert len(basin_labels) >= 3
    assert abs(sum(img.summary.values()) - 1.0) < 1e-12


def test_render_agrees_with_per_pixel_sampling():
    T = targets_for("quad")
    spec = SliceSpec.default(1, width=9, height=7, extent=4.2)
    img = render_slice(quad_map(), spec, T, max_iter=80)
    escape = len(T.cycles) + 1
    for row in range(7):
        for col in range(9):
            v = sample_orbit(quad_map(), spec.point(col, row), T, max_iter=80)
            if v.outcome == CONVERGED:
                expected = (v.cycle + 1, v.iterations)
            elif v.outcome == ACCUMULATES:
                expected = (escape, 80)
            else:
                expected = (UNDECIDED_LABEL, 80)
            assert (img.labels[row, col], img.iterations[row, col]) == expected
    # the window holds undecided, escaping and converged pixels alike
    assert {UNDECIDED_LABEL, escape} < set(img.labels.ravel().tolist())


def test_render_labels_match_legend():
    T = targets_for("f")
    img = render_slice(f_map(), SliceSpec.default(2, width=16, height=16), T)
    assert set(img.labels.ravel().tolist()) <= set(img.legend)
    assert img.legend[0] == "undecided"
    assert img.legend[len(T.cycles) + 1] == "escape-to-E"
    assert set(img.summary) == set(img.legend.values())


def test_f_render_converges_only_to_superattracting_cycles():
    T = targets_for("f")
    img = render_slice(f_map(), SliceSpec.default(2, width=64, height=64), T)
    escape = len(T.cycles) + 1
    seen = set(img.labels.ravel().tolist()) - {0, escape}
    assert seen  # the window is dominated by basins
    for label in seen:
        assert T.superattracting(label - 1)


def test_lattes_renders_have_no_basin_pixels():
    # 1-critically finite on the line: no attracting targets exist, so
    # neither chart may show a converged pixel
    T = targets_for("lattes")
    m = len(T.cycles)
    for chart in (0, 1):
        spec = SliceSpec(
            base=(0,), dir_u=(1,), dir_v=(1j,), chart=chart,
            center=(0.0, 0.0), extent=4.0, width=16, height=16,
        )
        img = render_slice(lattes_map(), spec, T, max_iter=120)
        assert not np.isin(img.labels, np.arange(1, m + 1)).any()


def test_single_pixel_render():
    T = trapless("f")
    img = render_slice(f_map(), SliceSpec.default(2, width=1, height=1), T)
    assert img.labels.shape == (1, 1)
    assert img.labels[0, 0] == cycle_index(T, pt(0, 0, 1)) + 1
    assert img.iterations[0, 0] == resolve(None).convergence_window


def test_render_iteration_counts():
    T = trapless("f")
    img = render_slice(f_map(), SliceSpec.default(2, width=16, height=16), T, max_iter=200)
    converged = (img.labels != 0) & (img.labels != len(T.cycles) + 1)
    assert (img.iterations[converged] >= resolve(None).convergence_window).all()
    assert (img.iterations[~converged] == 200).all()


def test_render_rejects_mismatched_slice():
    with pytest.raises(InputError):
        render_slice(f_map(), SliceSpec.default(1), targets_for("f"))
    with pytest.raises(InputError):
        render_slice(f_map(), SliceSpec.default(2), targets_for("f"), max_iter=0)


def test_render_deterministic_bytes(tmp_path):
    f = f_map()
    spec = SliceSpec.default(2, width=24, height=24)
    paths = []
    for run in (0, 1):
        # rebuild everything from scratch: solver, targets, render
        img = render_slice(f, spec, build_targets(f), max_iter=120)
        ppm = tmp_path / f"run{run}.ppm"
        legend = tmp_path / f"run{run}.json"
        write_ppm(img, ppm)
        write_legend(img, legend)
        paths.append((ppm, legend))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_text() == paths[1][1].read_text()


def test_ppm_format(tmp_path):
    T = targets_for("f")
    img = render_slice(f_map(), SliceSpec.default(2, width=20, height=12), T, max_iter=60)
    out = tmp_path / "img.ppm"
    write_ppm(img, out)
    data = out.read_bytes()
    header = b"P6\n20 12\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 20 * 12 * 3
    assert b"#" not in header


def test_ppm_pixels_match_sidecar_colors(tmp_path):
    T = targets_for("f")
    img = render_slice(f_map(), SliceSpec.default(2, width=8, height=8), T, max_iter=80)
    ppm, legend = tmp_path / "img.ppm", tmp_path / "img.json"
    write_ppm(img, ppm)
    write_legend(img, legend)
    data = ppm.read_bytes()
    side = json.loads(legend.read_text())
    offset = len(b"P6\n8 8\n255\n")
    for row, col in ((0, 0), (3, 4), (7, 7)):
        label = int(img.labels[row, col])
        at = offset + (row * 8 + col) * 3
        assert list(data[at : at + 3]) == side["colors"][str(label)]
        assert side["legend"][str(label)] == img.legend[label]
    assert side["summary"] == img.summary


# ---------------------------------------------------------------------------
# orbit kernel: frozen outputs, tiles, memory
# ---------------------------------------------------------------------------

# digests recorded from the untiled kernel (one column array for the whole
# grid, one streak counter per cycle); the tiled kernel must reproduce them
_PPM_SHA256 = {
    "f 64x64": "79e1988f164c77dc15f848f233f93c507cb082085934584e2521a88846e2bcd0",
    "lattes 32x32 120": "2877cee97398063de2b9198ab006b537872e51f15bc5a11b1097f96e70eaa695",
}
_KERNEL_SHA256_F24 = (
    "a11da769d1faeefbbcae6f5b6297158c37ae9e1c50ca9e4a34a612d4dbe865a6",  # cycle index
    "8595614a2f73657e6110ad96f0c3e2d50acb31879db33cbc2044459635f7c424",  # step
    "606f558e014930f9c1669f03c71c28945c4631568e39cd308c6c7f4077c7bfb9",  # distance
    "606f558e014930f9c1669f03c71c28945c4631568e39cd308c6c7f4077c7bfb9",  # overflow
    "d397edef4cf4719aa6670603a4abe242d870f1ac33e619dc894b24dc1eb9b413",  # component
    "8393be5d958e409e70271368216d62403de7c0dba4cb11b0346b55b99e75a1a6",  # tail distance
)


def _f_kernel(res):
    cfg = resolve(None)
    coords = SliceSpec.default(2, width=res, height=res).grid()
    return fatou._orbit_kernel(f_map(), coords, trapless("f"), cfg.max_orbit_iters, cfg)


def test_render_bytes_match_recorded_digests(tmp_path):
    renders = {
        "f 64x64": render_slice(
            f_map(), SliceSpec.default(2, width=64, height=64), targets_for("f")
        ),
        "lattes 32x32 120": render_slice(
            lattes_map(), SliceSpec.default(1, width=32, height=32), targets_for("lattes"),
            max_iter=120,
        ),
    }
    for name, img in renders.items():
        out = tmp_path / "img.ppm"
        write_ppm(img, out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _PPM_SHA256[name], name
    arrays = _f_kernel(24)
    assert [a.dtype.str for a in arrays] == ["<i8", "<i8", "<f8", "<i8", "<i8", "<f8"]
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert digests == _KERNEL_SHA256_F24


def test_kernel_tiles_do_not_change_results(monkeypatch):
    whole = _f_kernel(24)
    starts = [
        ProjPoint.inexact([complex(a, b), complex(c, 0.1 * d), 1])
        for a, b, c, d in np.random.default_rng(7).uniform(-1.5, 1.5, size=(20, 4))
    ]
    f, T = f_map(), trapless("f")
    # 15 steps leave some orbits to the tail-window component check
    budgets = (15, None)
    single = {it: [sample_orbit(f, s, T, max_iter=it) for s in starts] for it in budgets}
    monkeypatch.setattr(fatou, "_TILE", 7)  # 576 and 20 columns: pieces of 6 and 7
    for a, b in zip(whole, _f_kernel(24)):
        assert np.array_equal(a, b)
    outcomes = set()
    for it in budgets:
        batch = sample_orbits(f, starts, T, max_iter=it)
        outcomes |= {v.outcome for v in batch}
        for vs, vb in zip(single[it], batch):
            assert (vs.outcome, vs.cycle, vs.iterations, vs.distance, vs.component) == (
                vb.outcome,
                vb.cycle,
                vb.iterations,
                vb.distance,
                vb.component,
            )
    assert outcomes == {CONVERGED, ACCUMULATES}


def test_lattes_kernel_bits_do_not_depend_on_the_tile(monkeypatch):
    # lattes's chaotic orbits magnify a last-bit difference in any product,
    # so a product order that followed the number of live columns would show
    # here: in a smaller tile, and in a start sampled alone
    f, T, cfg = lattes_map(), targets_for("lattes"), resolve(None)
    spec = SliceSpec.default(1, width=128, height=128)
    starts = [spec.point(col, row) for row in range(128) for col in range(128)]
    batch = sample_orbits(f, starts, T, max_iter=500)
    for i in np.random.default_rng(3).choice(len(starts), size=20, replace=False):
        vs, vb = sample_orbit(f, starts[i], T, max_iter=500), batch[i]
        assert (vs.outcome, vs.cycle, vs.iterations, vs.distance, vs.component) == (
            vb.outcome,
            vb.cycle,
            vb.iterations,
            vb.distance,
            vb.component,
        )
    coords = spec.grid()
    whole = fatou._orbit_kernel(f, coords, T, 500, cfg)
    monkeypatch.setattr(fatou, "_TILE", 1000)  # 17 pieces of 963 and 964 columns
    for a, b in zip(whole, fatou._orbit_kernel(f, coords, T, 500, cfg)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_kernel_memory_does_not_grow_with_the_grid(monkeypatch):
    monkeypatch.setattr(fatou, "_cpus", lambda: 1)  # trace the tiles in this process
    coords = SliceSpec.default(2, width=256, height=256).grid()
    f, T, cfg = f_map(), targets_for("f"), resolve(None)
    tracemalloc.start()
    try:
        fatou._orbit_kernel(f, coords, T, cfg.max_orbit_iters, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"kernel peaked at {peak / 1e6:.1f} MB"


# lattes 128x128 is exactly one full tile of 2**14 columns; recorded before
# the per-tile kernel, when numpy computed ``t * coords[var] ** e`` in the
# power's buffer, as ``power * t``: the order every tile now takes
_KERNEL_SHA256_LATTES128_30 = (
    "b5a41c3758763bbec72769fab4a2533bf2db0b6312d93d25a695f9e4b9e02260",  # cycle index
    "fa43239bcee7b97ca62f007cc68487560a39e19f74f3dde7486db3f98df8e471",  # step
    "5f42542037e8dacd31104092fc2e76e82b0009135c64c3ef14923ce71d1d0853",  # distance
    "fa43239bcee7b97ca62f007cc68487560a39e19f74f3dde7486db3f98df8e471",  # overflow
    "fa43239bcee7b97ca62f007cc68487560a39e19f74f3dde7486db3f98df8e471",  # component
    "44f1e7a72c16e49eb27814ccf23d10019748476300393f2d261bd8e828c54f60",  # tail distance
)


def test_full_tile_kernel_matches_recorded_digests():
    coords = SliceSpec.default(1, width=128, height=128).grid()
    assert coords.shape[1] == fatou._TILE
    arrays = fatou._orbit_kernel(lattes_map(), coords, targets_for("lattes"), 30, resolve(None))
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert digests == _KERNEL_SHA256_LATTES128_30


def test_slice_columns_match_the_grid():
    spec = SliceSpec((0.25, -1), (1, 0.5j), (0.5, 1), 1, (0.3, -0.2), 2.5, width=37, height=23)
    grid = spec.grid()
    for lo, hi in [(0, 7), (5, 300), (800, 851), (0, 851)]:
        cols = spec.columns(np.arange(lo, hi))
        assert cols.shape == (3, hi - lo)
        assert cols.tobytes() == grid[:, lo:hi].tobytes()


def _nearest_cycle_reference(coords, cycles, tol):
    """Every cycle member measured against every column, no screening."""
    members = []
    for ci, cycle in enumerate(cycles):
        for p in cycle:
            v = np.asarray(p.to_complex(), dtype=complex)
            chart = int(np.argmax(np.abs(v)))
            members.append((chart, ci, v / v[chart]))
    members.sort(key=lambda m: m[0])  # stable: cycle order within a chart
    n = coords.shape[1]
    cycle = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    with np.errstate(all="ignore"):
        for chart, ci, anchor in members:
            d = np.abs(coords / coords[chart] - anchor[:, None]).max(axis=0)
            for col in np.flatnonzero(d < tol):
                if cycle[col] >= 0 and cycle[col] != ci:
                    raise InputError(
                        f"an orbit lies within {tol:g} of target cycles {cycle[col]} and {ci}"
                        " at once; target cycles must be disjoint"
                    )
                cycle[col] = ci
                dist[col] = min(dist[col], d[col])
    return cycle, dist


def _planted_columns(cycles, tol, rng):
    """Random lifts, every member itself, and lifts at tol*(1 -/+ 1e-3) from
    every member in each of its non-chart coordinates, along the real axis
    both ways and in a random complex direction; all randomly rescaled."""
    k1 = len(cycles[0][0].to_complex())
    cols = [rng.normal(size=(k1, 64)) + 1j * rng.normal(size=(k1, 64))]
    inside = 0
    for cycle in cycles:
        for p in cycle:
            v = np.asarray(p.to_complex(), dtype=complex)
            chart = int(np.argmax(np.abs(v)))
            anchor = v / v[chart]
            planted = [anchor]
            for j in set(range(k1)) - {chart}:
                for direction in (1, -1, np.exp(2j * np.pi * rng.uniform())):
                    for scale in (1 - 1e-3, 1 + 1e-3):
                        col = anchor.copy()
                        col[j] += tol * scale * direction
                        planted.append(col)
            inside += 1 + 3 * (k1 - 1)
            for col in planted:
                cols.append((col * np.exp(2j * np.pi * rng.uniform()))[:, None])
    return np.hstack(cols), inside


@pytest.mark.parametrize("name", ["f", "lattes"])
def test_nearest_cycle_matches_a_brute_force_reference(name):
    T = targets_for(name)
    tol = resolve(None).convergence_tol
    charts = fatou._anchor_charts(T.cycles)
    if name == "f":  # members that share a screening value are checked as one group
        assert any(len(members) > 1 for _, _, groups in charts for _, members in groups)
    coords, inside = _planted_columns(T.cycles, tol, np.random.default_rng(11))
    cycle, dist = fatou._nearest_cycle(coords, charts, tol)
    ref_cycle, ref_dist = _nearest_cycle_reference(coords, T.cycles, tol)
    assert np.count_nonzero(cycle >= 0) == inside
    assert cycle.tobytes() == ref_cycle.tobytes()
    assert dist.tobytes() == ref_dist.tobytes()

    # one cycle listed twice, then every cycle listed twice in reverse order,
    # where the first clash met depends on the order members are checked in
    duplicated = [T.cycles + [T.cycles[i]] for i in range(len(T.cycles))]
    for twice in duplicated + [T.cycles + T.cycles[::-1]]:
        with pytest.raises(InputError) as ref_err:
            _nearest_cycle_reference(coords, twice, tol)
        with pytest.raises(InputError) as err:
            fatou._nearest_cycle(coords, fatou._anchor_charts(twice), tol)
        assert str(err.value) == str(ref_err.value)


def _fork_joins(monkeypatch):
    """Record the (pieces, workers) of every fork-join the kernel runs."""
    calls = []
    fork_join = fatou._fork_join

    def recorded(work, out, pieces, workers):
        calls.append((list(pieces), workers))
        return fork_join(work, out, pieces, workers)

    monkeypatch.setattr(fatou, "_fork_join", recorded)
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_pool_gives_the_serial_results(monkeypatch):
    f, T, cfg = f_map(), trapless("f"), resolve(None)
    spec = SliceSpec.default(2, width=24, height=24)
    calls = _fork_joins(monkeypatch)
    monkeypatch.setattr(fatou, "_TILE", 100)  # 576 columns: 6 pieces of 96
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(fatou, "_cpus", lambda: cpus)
        img = render_slice(f, spec, T, max_iter=60)
        results[cpus] = (
            fatou._orbit_kernel(f, spec.grid(), T, cfg.max_orbit_iters, cfg),
            img.labels,
            img.iterations,
        )
    assert [workers for _, workers in calls] == [2, 2]
    (kernel_1, *image_1), (kernel_2, *image_2) = results[1], results[2]
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in kernel_2)
    assert digests == _KERNEL_SHA256_F24
    for a, b in zip((*kernel_1, *image_1), (*kernel_2, *image_2)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    _no_child_left()


def test_worker_clash_reaches_the_caller(monkeypatch):
    T = targets_for("f")
    i = cycle_index(T, pt(0, 0, 1))
    twice = TargetSet(
        cycles=T.cycles + [T.cycles[i]],
        classifications=T.classifications + [T.classifications[i]],
        components=T.components,
    )
    spec = SliceSpec.default(2, width=16, height=16)
    calls = _fork_joins(monkeypatch)
    monkeypatch.setattr(fatou, "_TILE", 64)
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(fatou, "_cpus", lambda: cpus)
        with pytest.raises(InputError) as err:
            render_slice(f_map(), spec, twice)
        messages.append(str(err.value))
    assert [workers for _, workers in calls] == [2]
    assert messages[0] == messages[1]
    assert f"cycles {i} and {len(T.cycles)}" in messages[0]
    _no_child_left()


def test_a_dead_worker_fails_the_call(monkeypatch):
    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="wait status 256"):
        fatou._run_tiles(lambda lo, hi: os._exit(1), (float,), 3 * fatou._TILE)
    _no_child_left()


class _Deadline(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``_Deadline`` in this process if the block is still running after ``seconds``."""

    def expire(signum, frame):
        raise _Deadline

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _zeros_failing_at(errors):
    """A ``work`` that fills zeros, but raises ``errors[lo]`` in a piece starting at such an lo."""

    def work(lo, hi):
        if lo in errors:
            raise errors[lo]
        return (np.zeros(hi - lo),)

    return work


@pytest.mark.parametrize(
    "error",
    [KeyboardInterrupt(), SystemExit(0), ValueError(lambda: None)],
    ids=["KeyboardInterrupt", "SystemExit", "unpicklable"],
)
def test_a_worker_that_leaves_without_a_record_fails_the_call(monkeypatch, error):
    # each ends the worker before it can pickle a record; none may leave the
    # piece's zeros behind as a result
    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    n = 4 * fatou._TILE  # four pieces, two a worker
    with _deadline(60), pytest.raises(RuntimeError, match="wait status 256"):
        fatou._run_tiles(_zeros_failing_at({3 * fatou._TILE: error}), (float,), n)
    _no_child_left()


def test_a_long_error_reaches_the_caller(monkeypatch):
    # a record far beyond a pipe's buffer: the worker blocks until it is read
    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    message = "x" * 300_000
    work = _zeros_failing_at({fatou._TILE: ValueError(message)})
    with _deadline(60), pytest.raises(ValueError) as err:
        fatou._run_tiles(work, (float,), 4 * fatou._TILE)
    assert str(err.value) == message
    _no_child_left()


def test_the_lowest_failed_piece_is_raised(monkeypatch):
    # three workers: pieces 0 and 3 go to worker 0, pieces 1 and 4 to worker
    # 1, so pieces 1 and 3 fail in different workers, and the first worker
    # read holds the later piece
    monkeypatch.setattr(fatou, "_cpus", lambda: 3)
    monkeypatch.setattr(fatou, "_TILE", 8)
    calls = _fork_joins(monkeypatch)
    work = _zeros_failing_at({lo: ValueError(f"piece at {lo}") for lo in (8, 24)})
    with _deadline(60), pytest.raises(ValueError, match="piece at 8"):
        fatou._run_tiles(work, (float,), 48)
    assert calls == [([(lo, lo + 8) for lo in range(0, 48, 8)], 3)]
    _no_child_left()


def test_an_interrupted_wait_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(_Deadline), _deadline(0.5):
        fatou._run_tiles(lambda lo, hi: time.sleep(30), (float,), 4 * fatou._TILE)
    assert time.monotonic() - start < 10
    _no_child_left()


def test_a_worker_that_cannot_fork_runs_here(monkeypatch, tmp_path):
    # the second fork fails as it does when the system is out of processes:
    # the render still ends, with the serial bytes, instead of reading as an
    # output error
    from critfin.cli import main

    fork = os.fork
    forks = []

    def fork_once():
        forks.append(len(forks))
        if len(forks) > 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    argv = ["render", "f", "--res", "128x128", "--iter", "40", "--out"]
    monkeypatch.setattr(fatou, "_cpus", lambda: 1)
    assert main([*argv, str(tmp_path / "serial.ppm")]) == 0
    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork_once)
    with _deadline(60):
        assert main([*argv, str(tmp_path / "forked.ppm")]) == 0
    assert forks == [0, 1]
    assert (tmp_path / "forked.ppm").read_bytes() == (tmp_path / "serial.ppm").read_bytes()
    _no_child_left()


def test_a_forked_render_writes_earlier_output_once():
    # stdout is a buffered pipe, so the marker waits in its buffer while the
    # workers fork; they leave without flushing it, and no pool machinery is
    # loaded
    script = """if True:
        import io, os, sys, tempfile
        import critfin.cli, critfin.fatou
        assert isinstance(sys.stdout.buffer, io.BufferedWriter)
        critfin.fatou._cpus = lambda: 2
        print("before the render")
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["render", "f", "--res", "128x128", "--iter", "20", "--out", tmp + "/f.ppm"]
            assert critfin.cli.main(argv) == 0
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
        print(*(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fatou.__file__))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    lines = done.stdout.decode().splitlines()
    assert lines.count("before the render") == 1
    assert lines[0] == "before the render" and lines[-2:] == ["no child left", ""]


def test_render_memory_is_per_tile(monkeypatch):
    # the whole 512x512 start grid alone peaks near 28 MB; per-tile columns
    # leave the tile's working set plus the per-pixel labels and iterations.
    # f runs its mirror pixels as shared orbits, lattes as mirror pairs
    monkeypatch.setattr(fatou, "_cpus", lambda: 1)
    for name in ("f", "lattes"):
        f, T = _MAPS[name](), targets_for(name)
        spec = SliceSpec.default(f.k, width=512, height=512)
        tracemalloc.start()
        try:
            render_slice(f, spec, T, max_iter=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"{name} render peaked at {peak / 1e6:.1f} MB"


def _serial_and_split(monkeypatch, f, coords, targets, max_iter, cfg):
    """The kernel arrays on 1 and on 2 CPUs, which must agree bit for bit,
    and the (pieces, workers) of the 2-CPU run's fork-joins."""
    calls = _fork_joins(monkeypatch)
    arrays = {}
    for cpus in (1, 2):
        monkeypatch.setattr(fatou, "_cpus", lambda: cpus)
        arrays[cpus] = fatou._orbit_kernel(f, coords, targets, max_iter, cfg)
    for a, b in zip(arrays[1], arrays[2]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    _no_child_left()
    return arrays[1], calls


@pytest.mark.parametrize(
    "name, res, max_iter",
    [
        ("lattes", 128, 200),  # a full tile that never retires
        ("f", 128, None),  # a full tile whose halves first retire at different steps
        ("f", 100, None),  # a ragged tile
    ],
)
def test_a_lone_tile_split_across_cpus_gives_the_serial_arrays(monkeypatch, name, res, max_iter):
    f = {"f": f_map, "lattes": lattes_map}[name]()
    cfg = resolve(None)
    max_iter = max_iter or cfg.max_orbit_iters
    coords = SliceSpec.default(f.k, width=res, height=res).grid()
    arrays, calls = _serial_and_split(monkeypatch, f, coords, targets_for(name), max_iter, cfg)
    n = res * res
    assert calls == [([(0, n // 2), (n // 2, n)], 2)]
    if name == "lattes":
        cycle_idx, _, _, overflow, _, _ = arrays
        assert (cycle_idx < 0).all() and not overflow.any()


def test_parts_that_retire_at_different_steps_give_the_serial_arrays(monkeypatch):
    # f's products are exact whichever order they take, so f cannot tell
    # whether a part rounds as its whole tile; lattes's chaotic orbits can.  A
    # loose tolerance around one repelling fixed point off the real axis makes
    # the halves of an off-center tile first retire at steps 2 and later.
    T = targets_for("lattes")
    fixed = ProjPoint.inexact([0.568864 + 0.351578j, 1])
    (i,) = [i for i, cycle in enumerate(T.cycles) if cycle[0].is_close(fixed, 1e-5)]
    one = TargetSet(cycles=T.cycles[i : i + 1], classifications=T.classifications[i : i + 1])
    cfg = resolve(None).with_overrides(convergence_tol=0.01, convergence_window=2)
    coords = SliceSpec.default(1, width=128, height=128, center=(0.3, 0.2)).grid()
    arrays, calls = _serial_and_split(monkeypatch, lattes_map(), coords, one, 100, cfg)
    assert calls == [([(0, 8192), (8192, 16384)], 2)]
    cycle_idx, conv_iter = arrays[:2]
    firsts = {int(conv_iter[lo:hi][cycle_idx[lo:hi] >= 0].min()) for lo, hi in calls[0][0]}
    assert len(firsts) == 2 and min(firsts) == 2


def test_a_clash_in_a_part_reaches_the_caller(monkeypatch):
    T = targets_for("f")
    i = cycle_index(T, pt(0, 0, 1))
    twice = TargetSet(
        cycles=T.cycles + [T.cycles[i]],
        classifications=T.classifications + [T.classifications[i]],
        components=T.components,
    )
    calls = _fork_joins(monkeypatch)
    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    with pytest.raises(InputError, match=f"cycles {i} and {len(T.cycles)}"):
        render_slice(f_map(), SliceSpec.default(2, width=128, height=128), twice, max_iter=20)
    assert [(len(pieces), workers) for pieces, workers in calls] == [(2, 2)]
    _no_child_left()


@pytest.mark.parametrize(
    "name, width, height, size",
    [
        ("f", 512, 512, 16384),  # the benchmark's renders keep their pieces
        ("lattes", 128, 128, 8192),
        ("lattes", 130, 128, 8320),  # was a piece of 16,384 and one of 256
    ],
)
def test_a_render_is_cut_into_even_pieces_on_two_cpus(monkeypatch, name, width, height, size):
    calls = _fork_joins(monkeypatch)
    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    f = _MAPS[name]()
    render_slice(f, SliceSpec.default(f.k, width=width, height=height), targets_for(name), 2)
    n = width * height
    assert calls == [([(lo, lo + size) for lo in range(0, n, size)], 2)]


# ---------------------------------------------------------------------------
# certified trapping balls
# ---------------------------------------------------------------------------


class Gauss:
    """An exact Gaussian rational re + im*i, enough arithmetic to evaluate forms."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Gauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def norm(self):
        return self.re**2 + self.im**2


def _evaluate_exactly(form, x):
    acc = Gauss(0)
    for expo, c in form.terms.items():
        term = Gauss(c)
        for xj, e in zip(x, expo):
            for _ in range(e):
                term = term * xj
        acc = acc + term
    return acc


def _ball_points(k, r, rng, count=200):
    """Offsets h in the closed polydisc |h_j| <= r of C^k: every corner with
    h_j in {r, -r, ir, -ir}, then seeded Gaussian rationals, some on the rim."""
    corners = [(r, 0), (-r, 0), (0, r), (0, -r)]
    points = [list(h) for h in itertools.product(corners, repeat=k)]
    while len(points) < count:
        h = []
        for _ in range(k):
            while True:
                a, b = (Fraction(int(v), 64) for v in rng.integers(-64, 65, size=2))
                if a * a + b * b <= 1:
                    break
            h.append((a * r, b * r))
        points.append(h)
    return [[Gauss(*hj) for hj in h] for h in points]


def _halves_distances(f, cycle, r, rng):
    """Whether some g = f^m, m = n or 2n, has ||g(p+h) - p|| <= ||h|| / 2 at
    every sampled h of every member's ball, checked in exact arithmetic."""
    n = len(cycle)
    for m in (n, 2 * n):
        g = iterate(f, m)
        ok = True
        for p in cycle:
            c = p.chart()
            anchor = [x / p.coords[c] for x in p.coords]
            others = [j for j in range(len(anchor)) if j != c]
            for h in _ball_points(len(others), r, rng):
                x = [Gauss(a) for a in anchor]
                for j, hj in zip(others, h):
                    x[j] = x[j] + hj
                y = [_evaluate_exactly(form, x) for form in g.forms]
                h2 = max(hj.norm() for hj in h)
                # |y_i / y_c - p_i|^2 <= |h|^2 / 4, with y_c != 0
                if y[c].norm() == 0 or any(
                    4 * (y[i] - y[c] * Gauss(anchor[i])).norm() > h2 * y[c].norm()
                    for i in others
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


@pytest.mark.parametrize("name", ["f", "power", "quad", "shifted"])
def test_every_trap_halves_distances_exactly(name):
    f = {"f": f_map, "power": power_map, "quad": quad_map, "shifted": shifted_map}[name]()
    T = targets_for(name)
    rng = np.random.default_rng(5)
    expected = {"f": ["1/4"] * 3, "power": ["1/2"] * 3, "quad": ["1/4"], "shifted": ["1/8"] * 2}
    assert [str(r) for _, r in sorted(T.traps.items())] == expected[name]
    for i, r in T.traps.items():
        assert all(p.exact for p in T.cycles[i]) and T.superattracting(i)
        assert _halves_distances(f, T.cycles[i], r, rng)
    if name == "f":  # twice the certified radius is too much somewhere
        assert not all(_halves_distances(f, T.cycles[i], 2 * r, rng) for i, r in T.traps.items())


@pytest.mark.parametrize("name, res", [("f", 64), ("power", 48), ("quad", 64), ("shifted", 64)])
def test_traps_only_confirm_earlier(name, res):
    # the trapless window rule is the oracle: every verdict, label and tail
    # measurement stays, a trapped orbit is confirmed no later, and its
    # distance at entry is within the trap radius
    f = {"f": f_map, "power": power_map, "quad": quad_map, "shifted": shifted_map}[name]()
    T, bare, cfg = targets_for(name), trapless(name), resolve(None)
    assert T.traps
    spec = SliceSpec.default(f.k, width=res, height=res)
    coords = spec.grid()
    trapped = fatou._orbit_kernel(f, coords, T, cfg.max_orbit_iters, cfg)
    oracle = fatou._orbit_kernel(f, coords, bare, cfg.max_orbit_iters, cfg)
    for j in (0, 3, 4, 5):  # cycle, overflow, component, tail distance
        assert trapped[j].tobytes() == oracle[j].tobytes()
    assert np.array_equal(fatou._accumulates(trapped, cfg), fatou._accumulates(oracle, cfg))
    cycle_idx, steps, dist = trapped[:3]
    converged = cycle_idx >= 0
    assert (steps[converged] <= oracle[1][converged]).all()
    in_trap = np.isin(cycle_idx, list(T.traps))
    assert in_trap.any()
    radius = np.array([float(T.traps.get(int(i), 0)) for i in cycle_idx[in_trap]])
    assert (dist[in_trap] <= radius).all()
    assert np.array_equal(render_slice(f, spec, T).labels, render_slice(f, spec, bare).labels)


def test_traps_cut_the_orbit_steps_of_f():
    # work, counted in steps rather than timed: f's basins are confirmed at
    # a third of the trapless steps or less
    spec = SliceSpec.default(2, width=64, height=64)
    steps = {
        name: int(render_slice(f_map(), spec, T).iterations.sum())
        for name, T in (("traps", targets_for("f")), ("trapless", trapless("f")))
    }
    assert 3 * steps["traps"] <= steps["trapless"], steps


def test_a_trap_needs_a_vanishing_differential():
    # z -> z^2 + z/8 halves |z| near 0, but its fixed point is only attracting:
    # no trap, though the radius bound alone would allow r = 1/4
    attracting = endo_new([P2("z^2 + 1/8*z*w"), P2("w^2")])
    assert dynamics._trap_radius(attracting, pt(0, 1)) is None
    assert dynamics._trap_radius(endo_new([P2("z^2"), P2("w^2")]), pt(0, 1)) == Fraction(1, 2)


def test_a_trap_holds_no_other_target_point():
    # quadratic's infinity gets r = 1/4; a listed point at |w/z| = 0.2 halves
    # it to 1/8, and a second copy of infinity leaves the cycle no trap
    T = targets_for("quad")
    (i,) = T.traps
    assert T.traps[i] == Fraction(1, 4)
    near = [ProjPoint.inexact([1, 0.2])]
    for extra, radius in ((near, Fraction(1, 8)), (T.cycles[i], None)):
        cycles = T.cycles + [extra]
        classifications = T.classifications + [T.classifications[i]]
        traps = dynamics.trapping_radii(quad_map(), cycles, classifications)
        assert traps.get(i) == radius


# ---------------------------------------------------------------------------
# the checkpoint schedule of the window screening
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("center, res", [((0.0, 0.0), 64), ((0.3, -0.2), 48)])
@pytest.mark.parametrize(
    "tol, window, max_iter",
    [(1e-8, 10, 500), (1e-5, 7, 300), (1e-3, 3, 200), (1e-2, 2, 100), (1e-8, 1, 60)],
)
@pytest.mark.parametrize("traps", [True, False], ids=["trapped", "trapless"])
@pytest.mark.parametrize("name", ["f", "power", "quad", "lattes"])
def test_the_checkpoint_schedule_matches_the_per_step_kernel(
    name, traps, tol, window, max_iter, center, res
):
    f = _MAPS[name]()
    T = targets_for(name) if traps else trapless(name)
    cfg = resolve(None).with_overrides(convergence_tol=tol, convergence_window=window)
    coords = SliceSpec.default(f.k, width=res, height=res, center=center).grid()
    ours = orbits._tile_kernel(f, T, max_iter, cfg)(coords)
    oracle = tile_kernel_per_step(f, T, max_iter, cfg)(coords)
    for a, b in zip(ours, oracle):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if name == "lattes" and window == 2:
        # lattes converges only by the window, and at P = 2 each such pixel
        # is first found near its cycle at a checkpoint, which replays
        assert (ours[0] >= 0).any()


def _screened(monkeypatch, f, spec, T, max_iter):
    """Columns screened against the window cycles, and trap screens, in one render."""
    window_tol = resolve(None).convergence_tol
    monkeypatch.setattr(fatou, "_cpus", lambda: 1)
    counts = {"window columns": 0, "trap screens": 0}
    nearest = orbits._nearest_cycle

    def spy(coords, charts, tol):
        if tol == window_tol:
            counts["window columns"] += coords.shape[1]
        else:
            counts["trap screens"] += 1
        return nearest(coords, charts, tol)

    monkeypatch.setattr(orbits, "_nearest_cycle", spy)
    render_slice(f, spec, T, max_iter=max_iter)
    return counts


def test_the_window_cycles_are_screened_once_per_window(monkeypatch):
    # every step screened every live column: 8,192,000 columns on lattes
    # 128x128 at 500 steps, and 636,536 on f 512x512
    lattes = _screened(monkeypatch, lattes_map(), SliceSpec.default(1), targets_for("lattes"), 500)
    assert lattes["window columns"] <= 50 * 128 * 128
    f = _screened(
        monkeypatch, f_map(), SliceSpec.default(2, width=512, height=512), targets_for("f"), 500
    )
    assert f["window columns"] < 6365
    assert f["trap screens"] == 222


def test_a_column_a_trap_retires_skips_that_steps_window_screen(monkeypatch):
    # no lift inside a certified trap reaches the window screen, at a
    # checkpoint or between them: the trap retires it first
    T = targets_for("f")
    trapped = sorted(T.traps)
    trap_charts = orbits._anchor_charts([T.cycles[i] for i in trapped])
    rho = min(map(float, T.traps.values())) * (1 - 2.0**-20)  # the kernel's margin
    window_tol = resolve(None).convergence_tol
    nearest = orbits._nearest_cycle
    in_trap = []

    def spy(coords, charts, tol):
        if tol == window_tol:
            in_trap.append(int((nearest(coords, trap_charts, rho)[0] >= 0).sum()))
        return nearest(coords, charts, tol)

    monkeypatch.setattr(fatou, "_cpus", lambda: 1)
    monkeypatch.setattr(orbits, "_nearest_cycle", spy)
    render_slice(f_map(), SliceSpec.default(2, width=64, height=64), T, max_iter=500)
    assert in_trap and not any(in_trap)


@pytest.mark.parametrize("name", ["f", "power", "quad", "lattes", "shifted"])
def test_every_fixture_target_set_is_apart(name):
    charts = orbits._anchor_charts(targets_for(name).cycles)
    for tol in (resolve(None).convergence_tol, 1e-2):
        assert orbits._cycles_apart(charts, tol)


def _moved_copies(cycles, shift):
    """Each member of ``cycles`` moved by ``shift`` in a non-chart coordinate."""
    for cycle in cycles:
        for p in cycle:
            v = np.asarray(p.to_complex(), dtype=complex)
            chart = int(np.argmax(np.abs(v)))
            v = v / v[chart]
            v[(chart + 1) % len(v)] += shift
            yield ProjPoint.inexact(list(v))


@pytest.mark.parametrize("name", ["f", "lattes"])
def test_close_cycles_are_not_apart(name):
    T, tol = targets_for(name), resolve(None).convergence_tol
    apart = lambda cycles, at=tol: orbits._cycles_apart(orbits._anchor_charts(cycles), at)
    for i in range(len(T.cycles)):
        assert not apart(T.cycles + [T.cycles[i]])
    for moved in _moved_copies(T.cycles, 2 * tol):
        assert not apart(T.cycles + [[moved]])
    for at in (np.nextafter(0.01, 1.0), 0.5):
        assert not apart(T.cycles, at) and not apart(T.cycles[:1], at)


def test_close_cycles_are_screened_on_every_step(monkeypatch):
    T = targets_for("lattes")
    moved = next(_moved_copies(T.cycles, 2 * resolve(None).convergence_tol))
    close = TargetSet(T.cycles + [[moved]], T.classifications + [T.classifications[0]])
    spec = SliceSpec.default(1, width=32, height=32)
    # no lattes orbit converges at the default tolerance: 1024 live columns
    # on each of 30 steps, or on each of 3 checkpoints
    for targets, screens in ((close, 30), (T, 3)):
        counts = _screened(monkeypatch, lattes_map(), spec, targets, 30)
        assert counts["window columns"] == screens * 1024
    cfg = resolve(None)
    coords = spec.grid()
    ours = orbits._tile_kernel(lattes_map(), close, 120, cfg)(coords)
    oracle = tile_kernel_per_step(lattes_map(), close, 120, cfg)(coords)
    for a, b in zip(ours, oracle):
        assert a.tobytes() == b.tobytes()


def _divided_and_multiplied(img, m):
    return (img / m).tobytes(), (img * (1.0 / m)).tobytes()


@pytest.mark.parametrize("name", ["f", "g3", "g4", "lattes4", "power", "quadratic"])
def test_the_reciprocal_normalizes_as_the_division_does(name):
    f, _ = load_map(name)
    terms = orbits._form_terms(f.forms)
    rng = np.random.default_rng(17)
    lifts = rng.normal(size=(f.k + 1, 2048)) + 1j * rng.normal(size=(f.k + 1, 2048))
    lifts /= np.abs(lifts).max(axis=0)
    for _ in range(20):
        img = orbits._eval_forms(terms, lifts)
        m = np.abs(img).max(axis=0)
        divided, multiplied = _divided_and_multiplied(img, m)
        assert divided == multiplied
        lifts = img / m


def test_the_reciprocal_is_exact_on_planted_columns():
    # zero real or imaginary parts (never -0, which img cannot hold), a frozen
    # column, subnormal maxima whose reciprocal overflows, and near-overflow
    # maxima whose reciprocal is subnormal
    tiny, huge = 5e-324, 1.5e308
    img = np.array(
        [
            [0j, complex(0, 0.5), 0.25, complex(0.3, -0.7), tiny, complex(0, 3 * tiny), huge],
            [complex(0.5, 0.5), 0j, complex(0, -1), 1.0, 2 * tiny, complex(tiny, tiny), 1e308],
        ]
    )
    img = np.hstack([img, [[complex(0, -0.75e308)], [complex(0, -huge)]]])
    assert not np.signbit(img.view(float)[img.view(float) == 0]).any()
    m = np.abs(img).max(axis=0)
    m[3] = 1.0  # a frozen column
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(1.0 / m).sum() == 2 and (1.0 / m[6:] < np.finfo(float).tiny).all()
        divided, multiplied = _divided_and_multiplied(img, m)
    assert divided == multiplied


# ---------------------------------------------------------------------------
# mirror pairs of render pixels
# ---------------------------------------------------------------------------


def _unpaired(monkeypatch):
    """Render with the column mirror refused: every pixel runs alone."""
    monkeypatch.setattr(orbits, "_column_mirror", lambda *args: None)


def _image_bytes(img, path):
    write_ppm(img, path)
    return img.labels.tobytes(), img.iterations.tobytes(), img.summary, path.read_bytes()


@pytest.mark.parametrize(
    "tol, window, max_iter",
    [(1e-8, 10, 500), (1e-5, 7, 300), (1e-3, 3, 200), (1e-2, 2, 100), (1e-8, 1, 60)],
)
@pytest.mark.parametrize(
    "name, traps",
    [("f", True), ("f", False), ("power", True), ("power", False), ("quad", True), ("quad", False),
     ("lattes", True)],
)
def test_mirrored_renders_match_the_unpaired_route(
    monkeypatch, tmp_path, name, traps, tol, window, max_iter
):
    # lattes has no traps, so its trapless case is the same render; a window
    # of one step is refused the pairing, so that setting compares the
    # unpaired route with itself
    f = _MAPS[name]()
    T = targets_for(name) if traps else trapless(name)
    cfg = resolve(None).with_overrides(convergence_tol=tol, convergence_window=window)
    # 64x64 in pieces of at most 1000 pixels, which end inside rows, so
    # pixels whose mirror lies in the next piece run alone; 128x128 in two
    # pieces of whole rows; 100 and 130 wide, whose u grids are not
    # symmetric to the bit
    sizes = [(64, 64, 1, 1000), (128, 128, 2, None), (100, 100, 1, None), (130, 128, 2, None)]
    for width, height, cpus, tile in sizes:
        spec = SliceSpec.default(f.k, width=width, height=height)
        with monkeypatch.context() as m:
            m.setattr(fatou, "_cpus", lambda: cpus)
            if tile:
                m.setattr(fatou, "_TILE", tile)
            paired = _image_bytes(render_slice(f, spec, T, max_iter, cfg), tmp_path / "paired.ppm")
            _unpaired(m)
            alone = _image_bytes(render_slice(f, spec, T, max_iter, cfg), tmp_path / "alone.ppm")
        assert paired == alone, (width, height)


def _split_render(monkeypatch, tmp_path, f, T, max_iter, cfg):
    """A paired render, checked byte for byte against the unpaired one."""
    spec = SliceSpec.default(1, width=128, height=128)
    assert orbits._column_mirror(f, spec, T, cfg)[2] is False
    monkeypatch.setattr(fatou, "_cpus", lambda: 1)
    paired = render_slice(f, spec, T, max_iter, cfg)
    with monkeypatch.context() as m:
        _unpaired(m)
        alone = render_slice(f, spec, T, max_iter, cfg)
    assert _image_bytes(paired, tmp_path / "a.ppm") == _image_bytes(alone, tmp_path / "b.ppm")
    return paired


def test_pairs_that_split_give_the_unpaired_render(monkeypatch, tmp_path):
    # one target, a repelling fixed point off the real axis: its h-image is a
    # fixed point too, but no target, so partners converge and their mirrors
    # do not, and each such pair splits when its partner retires
    T = targets_for("lattes")
    fixed = ProjPoint.inexact([0.568864 + 0.351578j, 1])
    (i,) = [i for i, cycle in enumerate(T.cycles) if cycle[0].is_close(fixed, 1e-5)]
    one = TargetSet(cycles=T.cycles[i : i + 1], classifications=T.classifications[i : i + 1])
    cfg = resolve(None).with_overrides(convergence_tol=0.01, convergence_window=2)
    img = _split_render(monkeypatch, tmp_path, lattes_map(), one, 100, cfg)
    converged = img.labels == 1
    assert converged.any() and (converged != converged[:, ::-1]).all(where=converged)


@pytest.mark.parametrize("tol, window, max_iter", [(1e-8, 10, 100), (1e-3, 3, 60)])
def test_survivors_of_split_pairs_replay_as_alone(monkeypatch, tmp_path, tol, window, max_iter):
    # only 1 keeps its trap, so a pixel retires there when it enters the
    # ball, while its mirror, bound for -1, runs on alone in the lone block
    # until the window confirms it, replaying from a snapshot whose columns
    # the split left out of order
    T = targets_for("odd")
    (plus,) = [i for i in T.traps if T.cycles[i][0] == pt(1, 1)]
    one_trap = dataclasses.replace(T, traps={plus: T.traps[plus]})
    cfg = resolve(None).with_overrides(convergence_tol=tol, convergence_window=window)
    img = _split_render(monkeypatch, tmp_path, odd_map(), one_trap, max_iter, cfg)
    trapped = img.labels == plus + 1
    assert trapped.any() and (img.labels[:, ::-1][trapped] != plus + 1).all()
    assert (img.iterations[:, ::-1][trapped] > img.iterations[trapped]).any()


@pytest.mark.parametrize(
    "name, mirror",
    [
        ("lattes4", ((-1, 1), (1, -1), False)),
        ("quadratic", ((-1, 1), (1, 1), False)),
        ("f", ((-1, 1, 1), (1, 1, 1), True)),
        ("power", ((-1, 1, 1), (1, 1, 1), True)),
        ("g4", ((-1, 1, 1), (1, 1, 1), True)),
        ("g3", None),  # z^3 and w^2 t have opposite parity in z
    ],
)
def test_the_column_mirror_of_each_fixture(name, mirror):
    # (s, eps, shared orbit); the census of g3 and g4 does not end, so their
    # map and slice decide alone
    f, _ = load_map(name)
    targets = {"lattes4": "lattes", "quadratic": "quad", "f": "f", "power": "power"}
    T = targets_for(targets[name]) if name in targets else TargetSet()
    assert orbits._column_mirror(f, SliceSpec.default(f.k), T, resolve(None)) == mirror


def test_the_column_mirror_is_refused_unless_exact():
    cfg = resolve(None)
    f, T = f_map(), targets_for("f")
    mirrored = lambda g, spec, targets=T: orbits._column_mirror(g, spec, targets, cfg)
    assert mirrored(f, SliceSpec.default(2))
    # an off-centre window, and a u grid not symmetric to the bit at 3/100
    assert mirrored(f, SliceSpec.default(2, center=(0.25, 0.0))) is None
    assert mirrored(f, SliceSpec.default(2, width=100, height=100)) is None
    # the v offset and a row's tilt keep the symmetry; a tilted u does not
    assert mirrored(f, SliceSpec.default(2, center=(0.0, 0.4))) is not None
    assert mirrored(f, SliceSpec((0, 0.5), (1, 0), (0.3, 1), 2)) is None
    assert mirrored(f, SliceSpec((0, 0.5), (1, 0), (0, 1), 2)) is not None
    # target cycles that are not apart keep the clash on its unpaired path
    i = cycle_index(T, pt(0, 0, 1))
    twice = TargetSet(T.cycles + [T.cycles[i]], T.classifications + [T.classifications[i]])
    assert mirrored(f, SliceSpec.default(2), twice) is None
    # a window of one step could confirm an orbit at the start lift it keeps
    # when its first image degenerates, and the mirror's start lift differs
    for window in (0, 1):
        one = cfg.with_overrides(convergence_window=window)
        assert orbits._column_mirror(f, SliceSpec.default(2), T, one) is None


def _evaluated(monkeypatch, f, spec, T, max_iter):
    """Columns the map is evaluated on in one render, on one CPU."""
    monkeypatch.setattr(fatou, "_cpus", lambda: 1)
    columns = []
    eval_forms = orbits._eval_forms

    def spy(terms, coords, *args):
        columns.append(coords.shape[1])
        return eval_forms(terms, coords, *args)

    monkeypatch.setattr(orbits, "_eval_forms", spy)
    render_slice(f, spec, T, max_iter=max_iter)
    return sum(columns)


def test_the_map_is_evaluated_once_per_mirror_pair(monkeypatch):
    # every pixel was evaluated on every step: 8,192,000 columns on lattes
    # 128x128 at 500 steps, where no pixel converges
    spec = SliceSpec.default(1)
    assert _evaluated(monkeypatch, lattes_map(), spec, targets_for("lattes"), 500) == 4_096_000
    # f's mirror pixels never enter the kernel
    spec, T = SliceSpec.default(2, width=64, height=64), targets_for("f")
    paired = _evaluated(monkeypatch, f_map(), spec, T, 500)
    _unpaired(monkeypatch)
    assert 2 * paired == _evaluated(monkeypatch, f_map(), spec, T, 500)
