#!/usr/bin/env python3
"""Reproduce the switching-topology benchmark: three networks cycled
A A B C C with dwell 0.02 by the bundled cycle_schedule.json, per-network
coupling coefficients, and the contraction-factor bound on the error decay.

Writes trajectory.csv and summary.json under --out (default ./out_switching).
"""

import argparse
import json
from pathlib import Path

import numpy as np

from ntconsensus import (
    bundled_decomposition,
    bundled_graph,
    bundled_path,
    contraction_factor,
    convergence_report,
    design_switching,
    integrate_switching,
    load_schedule,
    write_trajectory_csv,
)
from ntconsensus.networks import SWITCHING_DELTAS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--out", default="out_switching")
    args = ap.parse_args()

    names = ["net_a", "net_b", "net_c"]
    graphs = {k: bundled_graph(n) for k, n in enumerate(names)}
    decs = {k: bundled_decomposition(n) for k, n in enumerate(names)}
    deltas = {k: SWITCHING_DELTAS[n] for k, n in enumerate(names)}
    theta = np.array([1.0, 2.0, -1.0])

    schedule = load_schedule(bundled_path("cycle_schedule.json"))
    sdesign = design_switching(graphs, decs, theta, alpha=schedule.alpha, deltas=deltas)
    for k, n in enumerate(names):
        d = sdesign.designs[k]
        print(f"{n}: delta = {d.delta:.4f}, x0 = {np.round(d.x0, 4)}")
    contraction = contraction_factor(sdesign, graphs)
    print(f"contraction factor per dwell: {contraction.factor:.6f}")

    x0 = np.random.default_rng(args.seed).uniform(-5.0, 5.0, 21)
    traj = integrate_switching(schedule, sdesign, graphs, x0, h=1e-3, horizon=args.T)
    conv = convergence_report(traj, theta)
    print(f"error ratio at T: {traj.error_norm[-1] / traj.error_norm[0]:.2e}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    (out / "summary.json").write_text(json.dumps(
        dict(conv.to_dict(), Lambda=contraction.factor), indent=2) + "\n")
    print(f"wrote {out / 'trajectory.csv'}")


if __name__ == "__main__":
    main()
