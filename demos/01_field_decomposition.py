"""Split driving matrices into conservative and rotational parts.

The running example throughout these demos is the 2x2 matrix
Q = [[100, 5], [-5, 100]]: a stiff isotropic attraction plus a small
skew circulation.  The split extracts the regularity constants that the
rest of the analysis consumes.
"""

import numpy as np

import nestode as nd


def main():
    Q = np.array([[100.0, 5.0], [-5.0, 100.0]])
    f = nd.helmholtz_split(Q)

    print("matrix Q:")
    print(Q)
    print("\nsymmetric part Qs (gradient of J(x) = x.Qs.x / 2):")
    print(f.Qs)
    print("\nskew part Qa (rotation, does no work: <Qa x, x> = 0):")
    print(f.Qa)
    print(f"\ncurvature kappa_j = {f.kappa_j}")
    print(f"gradient Lipschitz ell_j = {f.ell_j}")
    print(f"rotation Lipschitz ell_k = {f.ell_k}")
    print(f"skew ratio alpha = ell_k / sqrt(ell_j) = {f.alpha}")

    print("\nnormalized pair (unit-norm symmetric block, alpha-norm skew block):")
    print(f.Qhat_s)
    print(f.Qhat_a)
    print(f"drift frequencies (square roots of the eigenvalues of Qhat_s): {f.freqs}")

    # wrap as a general field and probe the declared constants by sampling
    report = nd.validate_assumption1(f.as_general(), samples=256, radius=10.0, seed=0)
    print(f"\nsampled validation passed: {report.passed}")
    print(f"  worst monotonicity ratio {report.worst_grad_monotonicity:.6f}"
          f" (declared kappa_j = {f.kappa_j})")
    print(f"  worst gradient Lipschitz ratio {report.worst_grad_lipschitz:.6f}"
          f" (declared ell_j = {f.ell_j})")

    # a field with an oversized rotation part is flagged, not rejected
    loud = nd.helmholtz_split(np.eye(2) + np.array([[0.0, 2.0], [-2.0, 0.0]]))
    print(f"\noversized rotation: alpha = {loud.alpha}, warnings = {loud.warnings}")


if __name__ == "__main__":
    main()
