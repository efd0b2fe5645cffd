# deltatorus first: importing it pins OpenBLAS to one thread, which holds
# only if numpy has not loaded OpenBLAS yet
import sys

import deltatorus  # noqa: F401
import numpy as np
import pytest

from deltatorus.lattice import enumerate_spectrum


def _os_threads() -> int:
    """This process's OS thread count, from /proc/self/status (Linux)."""
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))


# counted once numpy has loaded OpenBLAS and before any test runs: the first
# os.fork makes OpenBLAS stop its worker threads, so a later count misses them
SESSION_THREADS = _os_threads() if sys.platform.startswith("linux") else None


@pytest.fixture
def session_threads():
    return SESSION_THREADS


@pytest.fixture(scope="session")
def table_d2_small():
    return enumerate_spectrum(2, 300)


@pytest.fixture(scope="session")
def table_d3_small():
    return enumerate_spectrum(3, 60)


@pytest.fixture(scope="session")
def table_d2_mid():
    return enumerate_spectrum(2, 21000)


def brute_counts_d2(m_max: int) -> np.ndarray:
    """Independent oracle: full double loop over the coordinate box."""
    import math

    a = math.isqrt(m_max)
    counts = np.zeros(m_max + 1, dtype=np.int64)
    for x in range(-a, a + 1):
        for y in range(-a, a + 1):
            m = x * x + y * y
            if m <= m_max:
                counts[m] += 1
    return counts


def brute_counts_d3(m_max: int) -> np.ndarray:
    import math

    a = math.isqrt(m_max)
    counts = np.zeros(m_max + 1, dtype=np.int64)
    for x in range(-a, a + 1):
        for y in range(-a, a + 1):
            for z in range(-a, a + 1):
                m = x * x + y * y + z * z
                if m <= m_max:
                    counts[m] += 1
    return counts
