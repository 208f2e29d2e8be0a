#!/usr/bin/env python3
"""Convergence study of the microscopic-to-ring-exchange reduction.

Sweeps the detuning ratio at a few conveyor velocities and prints the
endpoint distance between the exact dynamics and the constant
mean-coupling model, plus the fitted convergence order in g/Delta.
"""
from dataclasses import replace

import numpy as np

from xypurify import CavityGeometry, solve_geometry, xy_agreement

if __name__ == "__main__":
    ell = 1.0
    d = solve_geometry(ell)
    print(f"ell = {ell} w, d = {d:.5f} w (unit pair coupling)")
    print(f"{'v':>6} {'delta':>7} {'distance':>10} {'leak':>9} {'bound':>9}")
    for v in (1.0, 0.5, 0.25):
        geom = CavityGeometry(ell=ell, d=d, v=v, delta=25.0)
        deltas, dists = [], []
        for fac in (1.0, 2.0, 4.0, 8.0):
            g = replace(geom, delta=geom.delta * fac)
            rep = xy_agreement(g)
            deltas.append(g.delta)
            dists.append(rep.distance_full_mean)
            print(f"{v:6.2f} {g.delta:7.1f} {rep.distance_full_mean:10.5f} "
                  f"{rep.max_photon_population:9.2e} "
                  f"{rep.photon_population_bound:9.2e}")
        order = np.polyfit(np.log(deltas), np.log(dists), 1)[0]
        print(f"   fitted order in 1/delta: {-order:.3f}")
