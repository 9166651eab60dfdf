"""Pick the restart trigger that maximizes the guaranteed decay rate.

The guaranteed rate depends on the trigger through a scalar ratio
beta = min(1, kappa_j) / c_upper; the maximizing window ratio solves a
one-dimensional root problem and always lands between twice and e times
the lower window bound.
"""

import math

import numpy as np

import nestode as nd


def main():
    print("optimal window ratio xi* and trigger multiple 1/xi* vs beta:")
    for beta in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        xi = nd.restart_ratio(beta)
        print(f"  beta = {beta:5.2f}: xi* = {xi:.6f}, T_opt/T_lower = {1 / xi:.4f}")
    print(f"  landmarks: 1/e = {1 / math.e:.6f} at beta = 1, 1/2 as beta -> 0")

    f = nd.helmholtz_split(np.array([[100.0, 5.0], [-5.0, 100.0]]))
    sol = nd.calibrate_optimal_restart(f, eta=0.5, T0=0.1)
    lo, hi = nd.reset_window(f, 0.1, 0.5)
    print(f"\ndemo field calibration: beta = {sol.beta:.6f},"
          f" T_opt = {sol.T_opt:.6f} in window ({lo:.4f}, {hi:.4f}]")
    print(f"  trigger estimates per fixed-point pass: {sol.history}")

    print("\nmeasured decay rate vs curvature (trigger re-solved per field):")
    eta, T0 = 0.5, 0.01
    for kappa in (1.0, 4.0, 16.0, 64.0):
        fk = nd.helmholtz_split(kappa * np.eye(2))
        solk = nd.calibrate_optimal_restart(fk, eta=eta, T0=T0)
        cfg = nd.RestartConfig(T0=T0, T=solk.T_opt, eta=eta)
        t_end = 24.0 / (eta * math.sqrt(kappa))
        traj = nd.simulate_hybrid(fk, cfg, (np.array([3.0, -2.0]), np.zeros(2), T0),
                                  t_end=t_end, h=1e-3)
        dist = traj.distance_to(fk.x_star)
        mask = dist > dist[0] * 1e-11
        rate = -np.polyfit(traj.t[mask], np.log(dist[mask]), 1)[0]
        print(f"  kappa = {kappa:4.0f}: T_opt = {solk.T_opt:.4f},"
              f" rate = {rate:.4f}, rate / (eta sqrt(kappa)) = {rate / (eta * math.sqrt(kappa)):.3f}")


if __name__ == "__main__":
    main()
