import random

import pytest

from gpnorm import expand_to_primary, named_presentation, parse_presentation


def pres(orders, edges=()):
    """A presentation from {vertex: order} (None for infinite) and edges."""
    return parse_presentation(
        {
            "vertices": [{"id": v, "order": o or "inf"} for v, o in orders.items()],
            "edges": [list(e) for e in edges],
        }
    )


def corpus(name):
    return expand_to_primary(named_presentation(name))


@pytest.fixture
def psl():
    return corpus("psl")


@pytest.fixture
def dinf():
    return corpus("dinf")


@pytest.fixture
def z2():
    return corpus("z2")


@pytest.fixture
def f2():
    return corpus("f2")


@pytest.fixture
def path_raag():
    return corpus("path_raag")


@pytest.fixture
def rng():
    return random.Random(0)
