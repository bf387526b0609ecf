import numpy as np
import pytest

from ffprog import enumerate_fibers, field_new, normalize_pair, parse_pair, value_table

STANDARD_PAIR_SPECS = ("y,y^2", "y^2,y^3", "y,y^3", "2*y^2,y^2+y")


def brute_points(pair, p):
    """Test-local point enumeration: full F_p^8 grid, vectorized.

    Returns {point: Q(point)}.  Shares no structure with the production
    paths (those never materialize 8-tuples).
    """
    f = field_new(p)
    t1 = value_table(pair.p1, f)
    t2 = value_table(pair.p2, f)
    t2p = value_table(pair.p2prime, f)
    rest = np.indices((p,) * 6).reshape(6, -1)
    y3, y4, y5, y6, y7, y8 = rest
    out = {}
    for y1 in range(p):
        for y2 in range(p):
            m = (t1[y4] - t1[y3] - t1[y2] + t1[y1]) % p == 0
            m &= (t1[y8] - t1[y7] - t1[y6] + t1[y5]) % p == 0
            m &= (t2[y6] - t2[y5] - t2[y2] + t2[y1]) % p == 0
            m &= (t2p[y7] - t2p[y5] - t2p[y3] + t2p[y1]) % p == 0
            cols = rest[:, m]
            q = (t2[cols[5]] - t2[cols[4]] - t2[cols[1]] + t2[cols[0]]) % p
            for j in range(cols.shape[1]):
                pt = (y1, y2, *(int(v) for v in cols[:, j]))
                out[pt] = int(q[j])
    return out


def root_table(p):
    """exp(2*pi*i*j/p) for j in [0, p)."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def direct_char_sums(weights, sign=1):
    """sum_x weights[x] * exp(sign * 2*pi*i*t*x/p) for every t in [0, p).

    The direct O(p^2) transform: the oracle for every numpy FFT in the
    package (sign=-1 is the forward direction).
    """
    p = len(weights)
    roots = root_table(p) if sign > 0 else root_table(p).conj()
    xs = np.arange(p, dtype=np.int64)
    return np.array([np.dot(weights, roots[(t * xs) % p]) for t in range(p)])


def brute_histogram(pair, p):
    vq = brute_points(pair, p)
    c = np.zeros(p, dtype=np.int64)
    for a in vq.values():
        c[a] += 1
    return c


@pytest.fixture(scope="session")
def standard_pairs():
    return {s: normalize_pair(*parse_pair(s)) for s in STANDARD_PAIR_SPECS}


@pytest.fixture(scope="session")
def fibers_cache():
    """Memoized fiber distributions shared across test modules."""
    memo = {}

    def get(pair, p):
        key = (pair.key(), p)
        if key not in memo:
            memo[key] = enumerate_fibers(pair, field_new(p))
        return memo[key]

    return get


def pytest_collection_modifyitems(config, items):
    """Refuse a test id with whitespace: a test list split on whitespace cuts
    it there, and two cases that differ only past the cut become one name."""
    spaced = [item.nodeid for item in items if any(ch.isspace() for ch in item.nodeid)]
    if spaced:
        raise pytest.UsageError(f"test ids with whitespace: {spaced}")
