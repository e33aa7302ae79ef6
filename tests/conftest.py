import itertools

import pytest

from ramseybook.colouring import pentagon_colouring, iter_vertices


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
