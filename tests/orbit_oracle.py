"""The orbit kernel as it ran before its checkpoint schedule.

``orbits._tile_kernel`` screens the window cycles on every column only once
per convergence window, and on the columns near a cycle in between.  This
oracle keeps the per-step route: every live column is screened against every
window cycle on every step, and each step divides the images by their
max-norm.  The schedule may only save work, so both routes must give the
same six arrays bit for bit, or the same error.
"""

import numpy as np

from critfin.orbits import (
    _anchor_charts,
    _component_distances,
    _component_probes,
    _eval_forms,
    _form_terms,
    _nearest_cycle,
)


def tile_kernel_per_step(f, targets, max_iter, cfg):
    """``orbits._tile_kernel`` with every window cycle screened on every step."""
    terms = _form_terms(f.forms)
    charts = _anchor_charts(targets.cycles)
    trapped = sorted(targets.traps)
    trap_charts = _anchor_charts([targets.cycles[i] for i in trapped])
    rho = min(map(float, targets.traps.values()), default=0.0) * (1 - 2.0**-20)
    probes = _component_probes(targets.components)
    tail_start = max_iter - cfg.convergence_window

    def run(tile):
        size = tile.shape[1]
        cycle_idx = np.full(size, -1, dtype=np.int64)
        conv_iter = np.zeros(size, dtype=np.int64)
        conv_dist = np.full(size, np.inf)
        overflow = np.zeros(size, dtype=np.int64)
        comp_idx = np.full(size, -1, dtype=np.int64)
        comp_dist = np.full(size, np.inf)

        tile = tile / np.abs(tile).max(axis=0)
        cols = np.arange(size)
        streak = np.zeros(size, dtype=np.int64)
        last = np.full(size, -1, dtype=np.int64)

        for it in range(1, max_iter + 1):
            if not cols.size:
                break
            img = _eval_forms(terms, tile)
            m = np.abs(img).max(axis=0)
            live = np.isfinite(m) & (m > 0.0)
            if not live.all():
                overflow[cols[~live]] = it
                img[:, ~live] = tile[:, ~live]
                m = np.where(live, m, 1.0)
            tile = img / m

            if trap_charts:
                near, dist = _nearest_cycle(tile, trap_charts, rho)
                done = live & (near >= 0)
                if done.any():
                    rows = cols[done]
                    cycle_idx[rows] = np.take(trapped, near[done])
                    conv_iter[rows] = it
                    conv_dist[rows] = dist[done]
                    keep = ~done
                    tile, live, cols, streak, last = (
                        tile[:, keep], live[keep], cols[keep], streak[keep], last[keep]
                    )

            if charts:
                near, dist = _nearest_cycle(tile, charts, cfg.convergence_tol)
                streak = np.where(near < 0, 0, np.where(near == last, streak + 1, 1))
                last = near
                done = streak >= cfg.convergence_window
                if done.any():
                    rows = cols[done]
                    cycle_idx[rows] = near[done]
                    conv_iter[rows] = it
                    conv_dist[rows] = dist[done]
                    live &= ~done

            if not live.all():
                tile, cols, streak, last = tile[:, live], cols[live], streak[live], last[live]
            if probes and it > tail_start and cols.size:
                d = _component_distances(tile, probes)
                best = d.min(axis=1)
                better = best < comp_dist[cols]
                comp_dist[cols] = np.where(better, best, comp_dist[cols])
                comp_idx[cols] = np.where(better, d.argmin(axis=1), comp_idx[cols])

        return cycle_idx, conv_iter, conv_dist, overflow, comp_idx, comp_dist

    return run
