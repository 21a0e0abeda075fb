import numpy as np
import pytest

from gaussqfi import GaussianState, SymplecticMatrix, bloch_messiah


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


def random_symplectic(rng, n, r_max=1.2):
    return SymplecticMatrix.from_matrix(bloch_messiah(
        random_unitary(rng, n), rng.uniform(-r_max, r_max, n), random_unitary(rng, n)))


def random_covariance(rng, n, r_max=1.2, lam_max=3.0):
    s = random_symplectic(rng, n, r_max).matrix
    lams = rng.uniform(1.0, lam_max, n)
    return (s * np.concatenate([lams, lams])[None, :]) @ s.conj().T, lams


def random_state(rng, n, r_max=1.2, lam_max=3.0):
    sigma, _ = random_covariance(rng, n, r_max, lam_max)
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    return GaussianState(d, sigma[:n, :n], sigma[:n, n:])


def layout_blocks(cls, f):
    """The blocks a family's ``arrays`` takes, gathered by name from field
    columns ``f`` (name -> (B,)): the ``ANGLES`` rows, then each ``ENERGY``
    column."""
    return (np.array([f[name] for name in cls.ANGLES]),
            *(np.array([f[name] for name in names]) for names in zip(*cls.ENERGY)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
