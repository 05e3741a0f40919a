import numpy as np
import pytest

from gatedecomp.generators import haar_unitary


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def assert_close(a, b, tol=1e-8):
    a = np.asarray(a)
    b = np.asarray(b)
    err = 0.0 if a.size == 0 else float(np.abs(a - b).max())
    assert err <= tol, f"max-entry difference {err:.3e} exceeds {tol:.1e}"


def haar(n, seed):
    return haar_unitary(n, seed)


def noisy_haar(n, seed, noise):
    """Haar unitary plus complex Gaussian noise of standard deviation
    ``noise`` per entry: unitary to about ``noise``, not to round-off."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return haar_unitary(n, 7 * seed + n) + noise * z
