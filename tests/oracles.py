"""Oracles that only the tests use, kept out of the package."""

import numpy as np

from latticeqmc.errors import DomainError
from latticeqmc.special_functions import bernoulli_poly


def bernoulli_periodic(tau: int, x):
    """Periodic extension: B_tau(x - floor(x)).

    Rejected for tau = 1: the extension is discontinuous at the integers.  The
    package's kernels evaluate the degree-2a polynomial at |x - y| in [0, 1]
    directly, so only the tests use it.
    """
    if tau < 2:
        raise DomainError("periodic extension requires tau >= 2")
    x = np.asarray(x, dtype=float)
    return bernoulli_poly(tau, x - np.floor(x))
