import hypothesis
import numpy as np
import pytest
import scipy.linalg

from gstdesign.builtins import make_xyi_gateset, standard_xyi_fiducials

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def xyi():
    return make_xyi_gateset()


@pytest.fixture(scope="session")
def xyi_fiducials():
    return standard_xyi_fiducials()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


def random_circuit(rng, labels=("Gi", "Gx", "Gy"), max_depth=20):
    from gstdesign.model import Circuit

    depth = int(rng.integers(0, max_depth + 1))
    return Circuit(tuple(rng.choice(labels, size=depth)))


def direct_gauge_frame(basis):
    """Rank and dense ``Q2`` of a gauge tangent basis from one pivoted QR
    and ``dormqr``: ``Q2``'s orthonormal columns span the complement of the
    basis's span, the non-gauge frame the dense test references read in."""
    from gstdesign.model import numerical_rank

    (reflectors, tau), r, _ = scipy.linalg.qr(basis, mode="raw", pivoting=True)
    rank = numerical_rank(np.abs(np.diag(r)))
    n = basis.shape[0]
    trailing = np.zeros((n, n - rank), order="F")
    trailing[rank:] = np.eye(n - rank)
    args = ("L", "N", reflectors, tau, trailing)
    lwork = int(scipy.linalg.lapack.dormqr(*args, -1)[1][0])
    q2, _, info = scipy.linalg.lapack.dormqr(*args, lwork)
    assert info == 0
    return rank, q2
