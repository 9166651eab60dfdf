import numpy as np
from hypothesis import settings

from nestode.fields import LinearField, helmholtz_split

# Property tests draw the same examples on every run, keep no example
# database, and stay within a bounded budget of the Tier-1 suite.
settings.register_profile("nestode", derandomize=True, database=None,
                          max_examples=20, deadline=None)
settings.load_profile("nestode")

DEMO_Q = np.array([[100.0, 5.0], [-5.0, 100.0]])


def make_commensurate_field(seed: int, n: int) -> LinearField:
    """Random field whose drift frequencies are small-integer multiples.

    Frequencies are drawn as integers k <= 6 and normalized by the largest,
    so the symmetric part has unit-norm normalization with eigenvalues
    (k_i/k_max)^2; a random rotation part is scaled to keep alpha <= 1.
    At n = 1 there is no rotation part and the field is conservative.
    """
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 7, size=n)
    ks[rng.integers(0, n)] = 6  # pin the top frequency so ratios stay small
    freqs = ks / 6.0
    ell_j = float(rng.uniform(50.0, 200.0))
    eigs = ell_j * freqs ** 2

    raw = rng.standard_normal((n, n))
    R, _ = np.linalg.qr(raw)
    Qs = R @ np.diag(eigs) @ R.T

    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    alpha = float(rng.uniform(0.2, 1.0))
    if n > 1:
        skew *= alpha * np.sqrt(ell_j) / np.linalg.norm(skew, 2)

    return helmholtz_split(Qs + skew)
