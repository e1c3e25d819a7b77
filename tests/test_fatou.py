"""Orbit sampling, escape rates, and basin rendering."""

import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import critfin.fatou as fatou
from critfin.algebra import poly_parse
from critfin.config import Config, resolve
from critfin.dynamics import endo_new
from critfin.errors import InputError
from critfin.fatou import (
    ACCUMULATES,
    CONVERGED,
    UNDECIDED,
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


def pt(*coords):
    return ProjPoint.exact_point(list(coords))


# target sets are the expensive part of the suite; periodic-point solving is
# deterministic, so one copy per map serves every test
_TARGETS = {}


def targets_for(name):
    if name not in _TARGETS:
        builders = {
            "f": f_map,
            "power": power_map,
            "quad": quad_map,
            "lattes": lattes_map,
        }
        _TARGETS[name] = build_targets(builders[name]())
    return _TARGETS[name]


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


# ---------------------------------------------------------------------------
# orbit verdicts
# ---------------------------------------------------------------------------


def test_f_origin_basin():
    # (0.1, 0.1) -> (-0.09, 0.01) -> (-0.0019, 0.0001) -> ... -> the origin
    T = targets_for("f")
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
            assert ProjPoint.inexact(column).is_close(spec.point(col, row), 1e-12)


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
    spec = SliceSpec.default(1, width=5, height=4, extent=5.0)
    img = render_slice(quad_map(), spec, T, max_iter=80)
    for row in range(4):
        for col in range(5):
            v = sample_orbit(quad_map(), spec.point(col, row), T, max_iter=80)
            if v.outcome == CONVERGED:
                assert img.labels[row, col] == v.cycle + 1
                assert img.iterations[row, col] == v.iterations
            elif v.outcome == ACCUMULATES:
                assert img.labels[row, col] == len(T.cycles) + 1
            else:
                assert img.labels[row, col] == 0
                assert img.iterations[row, col] == 80


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
    T = targets_for("f")
    img = render_slice(f_map(), SliceSpec.default(2, width=1, height=1), T)
    assert img.labels.shape == (1, 1)
    assert img.labels[0, 0] == cycle_index(T, pt(0, 0, 1)) + 1
    assert img.iterations[0, 0] == resolve(None).convergence_window


def test_render_iteration_counts():
    T = targets_for("f")
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
    "lattes 32x32 120": "d5405b59009d610ec9105697fcce3a94488f6cf04fb04cd9d615b6f861ade03e",
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
    return fatou._orbit_kernel(f_map(), coords, targets_for("f"), cfg.max_orbit_iters, cfg)


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
    f, T = f_map(), targets_for("f")
    # 15 steps leave some orbits to the tail-window component check
    budgets = (15, None)
    single = {it: [sample_orbit(f, s, T, max_iter=it) for s in starts] for it in budgets}
    monkeypatch.setattr(fatou, "_TILE", 7)  # 576 and 20 columns: ragged last tiles
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


# lattes 128x128 is exactly one full tile of 2**14 columns, where numpy
# computes the power in ``t * coords[var] ** e`` in place and rounds
# differently from a smaller tile; recorded before the per-tile kernel
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
        cols = spec.columns(lo, hi)
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


def _pool_runs(monkeypatch):
    """Record the worker count of every pool the kernel starts."""
    from concurrent.futures import ProcessPoolExecutor

    runs = []
    pool_map = ProcessPoolExecutor.map

    def counted(self, *args, **kwargs):
        runs.append(self._max_workers)
        return pool_map(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", counted)
    return runs


def test_worker_pool_gives_the_serial_results(monkeypatch):
    import multiprocessing

    f, T, cfg = f_map(), targets_for("f"), resolve(None)
    spec = SliceSpec.default(2, width=24, height=24)
    runs = _pool_runs(monkeypatch)
    monkeypatch.setattr(fatou, "_TILE", 100)  # 576 columns: 6 tiles, the last ragged
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(fatou, "_cpus", lambda: cpus)
        img = render_slice(f, spec, T, max_iter=60)
        results[cpus] = (
            fatou._orbit_kernel(f, spec.grid(), T, cfg.max_orbit_iters, cfg),
            img.labels,
            img.iterations,
        )
    assert runs == [2, 2]
    (kernel_1, *image_1), (kernel_2, *image_2) = results[1], results[2]
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in kernel_2)
    assert digests == _KERNEL_SHA256_F24
    for a, b in zip((*kernel_1, *image_1), (*kernel_2, *image_2)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert multiprocessing.active_children() == []


def test_worker_clash_reaches_the_caller(monkeypatch):
    import multiprocessing

    T = targets_for("f")
    i = cycle_index(T, pt(0, 0, 1))
    twice = TargetSet(
        cycles=T.cycles + [T.cycles[i]],
        classifications=T.classifications + [T.classifications[i]],
        components=T.components,
    )
    spec = SliceSpec.default(2, width=16, height=16)
    runs = _pool_runs(monkeypatch)
    monkeypatch.setattr(fatou, "_TILE", 64)
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(fatou, "_cpus", lambda: cpus)
        with pytest.raises(InputError) as err:
            render_slice(f_map(), spec, twice)
        messages.append(str(err.value))
    assert runs == [2]
    assert messages[0] == messages[1]
    assert f"cycles {i} and {len(T.cycles)}" in messages[0]
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_the_call(monkeypatch):
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(fatou, "_cpus", lambda: 2)
    out = (np.zeros(3 * fatou._TILE),)
    with pytest.raises(BrokenProcessPool):
        fatou._run_tiles(lambda lo, hi: os._exit(1), out)
    assert multiprocessing.active_children() == []


def test_render_memory_is_per_tile(monkeypatch):
    # the whole 512x512 start grid alone peaks near 28 MB; per-tile columns
    # leave the tile's working set plus the per-pixel labels and iterations
    monkeypatch.setattr(fatou, "_cpus", lambda: 1)
    f, T = f_map(), targets_for("f")
    spec = SliceSpec.default(2, width=512, height=512)
    tracemalloc.start()
    try:
        render_slice(f, spec, T, max_iter=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"render peaked at {peak / 1e6:.1f} MB"
