import random
from pathlib import Path

import pytest

from codezeta.analysis import CodeAnalysis
from codezeta.code import LinearCode, parse_code
from codezeta.gf import field_new

FIXTURES = Path(__file__).parent / "fixtures"


def load_code(name):
    return parse_code((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def hamming74():
    return load_code("hamming74.code")


@pytest.fixture(scope="session")
def ext_hamming84():
    return load_code("ext_hamming84.code")


@pytest.fixture(scope="session")
def hexacode63():
    return load_code("hexacode63.code")


@pytest.fixture(scope="session")
def code10():
    return load_code("code10.code")


@pytest.fixture(scope="session")
def rep2():
    return load_code("rep2.code")


@pytest.fixture(scope="session")
def pair22():
    return load_code("pair22.code")


@pytest.fixture(scope="session")
def pless11():
    return load_code("pless11.code")


@pytest.fixture(scope="session")
def selfdual105():
    """A seeded random column permutation of ext-Hamming + {00,11}; self-dual."""
    rng = random.Random(20260823)
    base = [
        [1, 0, 0, 0, 0, 1, 1, 1, 0, 0],
        [0, 1, 0, 0, 1, 0, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 1, 0, 1, 0, 0],
        [0, 0, 0, 1, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    ]
    perm = list(range(10))
    rng.shuffle(perm)
    gen = tuple(tuple(row[p] for p in perm) for row in base)
    return LinearCode(field=field_new(2), n=10, k=5, generator=gen)


def random_nondegenerate_analysis(rng, q, n, k):
    """The CodeAnalysis of a seeded random code with d, d_dual >= 2."""
    field = field_new(q)
    while True:
        rows = [
            tuple(
                (1 if j == i else 0) if j < k else rng.randrange(q)
                for j in range(n)
            )
            for i in range(k)
        ]
        an = CodeAnalysis(LinearCode(field=field, n=n, k=k, generator=tuple(rows)))
        if an.wd.d >= 2 and an.wd.d_dual >= 2:
            return an


@pytest.fixture(scope="session")
def corpus():
    """Analyses of >= 60 seeded random nondegenerate codes, q in {2,3,4}, n <= 12."""
    rng = random.Random(1729)
    entries = []
    for q in (2, 3, 4):
        for _ in range(22):
            n = rng.randrange(6, 13)
            k = rng.randrange(2, n - 1)
            entries.append(random_nondegenerate_analysis(rng, q, n, k))
    assert len(entries) >= 60
    return entries
