"""Certify instability of the accelerated flow under a skewed driving term.

Even a rotation part twenty times weaker than the attraction destabilizes
the vanishing-damping flow.  The certificate averages the rotation over
one period of the fast oscillation; a positive real eigenvalue of the
averaged block, together with three structural hypotheses, is the
certificate.
"""

import numpy as np

import nestode as nd


def show(title, Q):
    print(f"\n=== {title}")
    try:
        report = nd.instability_certificate(nd.helmholtz_split(Q))
    except nd.NotPositiveDefiniteError as exc:
        print(f"rejected: {exc}")
        return
    print(f"verdict: {report.verdict}")
    if report.failed:
        print(f"failed conditions: {', '.join(report.failed)}")
    print(f"spectrum of the averaged skew block: {np.round(report.spectrum, 6)}")
    if report.period is None:
        print("no common period: the quadrature cross-check is skipped")
    else:
        print(f"period {report.period.period:.6f}, frequency ratios {report.period.ratios}")
        print(f"closed form vs quadrature: {report.quadrature_gap:.2e}")


def main():
    show("demo matrix: small circulation on a degenerate attraction",
         np.array([[100.0, 5.0], [-5.0, 100.0]]))

    show("pure attraction (no rotation part): nothing to certify",
         np.array([[100.0, 0.0], [0.0, 100.0]]))

    show("non-degenerate spectrum: averaging wipes the rotation out",
         np.diag([36.0, 16.0, 4.0])
         + np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]]))

    show("incommensurate frequencies: no period to average over",
         np.diag([1.0, 2.0, 2.0])
         + 0.1 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]]))

    # the averaged growth rate scales with alpha: even tiny skew destabilizes
    print("\n=== growth rate vs rotation size (isotropic attraction)")
    for skew in (5.0, 1.0, 0.1, 0.01):
        Q = np.array([[100.0, skew], [-skew, 100.0]])
        report = nd.instability_certificate(nd.helmholtz_split(Q))
        print(f"  |Qa| = {skew:5.2f}: verdict {report.verdict},"
              f" top real eigenvalue {report.max_real_part:.6f}")


if __name__ == "__main__":
    main()
