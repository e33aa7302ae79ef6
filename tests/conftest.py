import itertools

import pytest

from ramseybook.bounds import load_mpmath
from ramseybook.colouring import pentagon_colouring, iter_vertices

# Several tests use mpmath itself as the oracle, at the package's working
# precision.  The package applies that precision when it loads mpmath, at its
# first interval use, so load it here, before any test runs: a test run alone
# must not meet mpmath at its own default of 53 bits.
load_mpmath()


@pytest.fixture
def c5():
    return pentagon_colouring()


def naive_max_clique(c, colour):
    """Subset-enumeration maximum clique; only for tiny n."""
    verts = list(range(c.n))
    for size in range(c.n, 0, -1):  # size 1 always returns, since n >= 1
        for combo in itertools.combinations(verts, size):
            if all(c.colour(u, v) == colour for u, v in itertools.combinations(combo, 2)):
                return size


def members(mask):
    return list(iter_vertices(mask))
