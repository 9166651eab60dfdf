"""Walk the averaging pipeline: drift period, pullback, averaged tracking.

The normalized flow splits into a fast periodic drift and a slow
perturbation.  Pulling the perturbation back along the drift gives a slow
system whose period average is analyzable; this script checks each link
of that chain numerically.
"""

import numpy as np

import nestode as nd

Y0 = np.array([0.1, -0.1, 0.0, 0.0])


def main():
    f = nd.helmholtz_split(np.array([[100.0, 5.0], [-5.0, 100.0]]))
    eps = f.epsilon
    print(f"timescale ratio eps = 1/sqrt(ell_j) = {eps}")

    # the certificate carries the drift period and both averages: the closed
    # form and its quadrature check
    report = nd.instability_certificate(f, nodes=4096)
    pr = report.period
    print(f"drift frequencies {f.freqs}, base {pr.omega0}, period {pr.period:.6f}")

    drift = nd.integrate_drift(f, Y0, s_end=pr.period, h=1e-3)
    print(f"drift returns to start after one period: "
          f"|psi(T) - psi(0)| = {np.linalg.norm(drift.states[-1] - Y0):.2e}")

    # exact factorization: full solution = drift exponential times pullback
    chk = nd.variation_of_constants_check(f, Y0, T0=0.1, s_end=10.0, h=1e-3)
    print(f"factorization identity gap over s in [0, 10]: {chk.max_gap:.2e}")

    avg_q, avg_c = report.quadrature, report.closed_form
    print(f"\nclosed-form vs quadrature averaged blocks: {report.quadrature_gap:.2e}")
    print(f"averaged damping block is -I/2 up to "
          f"{np.max(np.abs(avg_q.b2_bar + 0.5 * np.eye(4))):.2e}")
    print(f"spectrum of the averaged skew block: {np.round(avg_c.spectrum, 6)}")

    print("\npullback z vs averaged zeta (slow horizon 1/eps):")
    z = nd.integrate_pullback(f, Y0, T0=0.1, s_end=1 / eps, h=1e-3)
    zeta = nd.integrate_average(f, Y0, T0=0.1, s_end=1 / eps, h=1e-3)
    diff = np.linalg.norm(z.states - zeta.states, axis=1)
    for s in (0.0, 2.0, 5.0, 10.0):
        i = np.argmin(np.abs(z.times - s))
        print(f"  s = {s:5.1f}: |z| = {np.linalg.norm(z.states[i]):.4f},"
              f" |z - zeta| = {diff[i]:.4f}")
    print(f"  worst gap {diff.max():.4f} (sits in the strong-damping transient)")

    print("\nlong-horizon growth of the full normalized flow:")
    fast = nd.integrate_scaled_y(f, Y0, T0=0.1, s_end=400.0, h=0.01)
    norms = np.linalg.norm(fast.states, axis=1)
    for s in (0, 100, 200, 300, 400):
        i = np.argmin(np.abs(fast.times - s))
        print(f"  s = {s:3d}: |y| = {norms[i]:.4f}")


if __name__ == "__main__":
    main()
