import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gdfif import DataSet, IntervalAssignment, WiringPlan, build_system

# The two worked examples used throughout the suite. example2b keeps the
# wiring of example2 and changes only the vertical scaling factors.
EX1_POINTS = ((0.0, 0.0), (3.0, 5.0), (6.0, 4.0), (10.0, 1.0))
EX1_SCALES = (0.25, 0.5, 0.25)

EX2_POINTS_1 = ((0.0, 5.0), (1.0, 4.0), (2.0, 1.0), (3.0, 1.0), (4.0, 4.0), (5.0, 5.0))
EX2_POINTS_2 = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0))
EX2_SOURCES = ((1, 1, 1, 2, 2), (1, 2, 2, 2))
EX2B_SCALES = ((0.25, 0.25, 0.25, 1 / 3, 1 / 3), (0.25, 0.5, 0.5, 0.5))

FLAT_POINTS = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))


def make_plan(sources, scales):
    return WiringPlan(tuple(
        tuple(IntervalAssignment(s, d) for s, d in zip(srcs, ds))
        for srcs, ds in zip(sources, scales)
    ))


@pytest.fixture(scope="session")
def ex1_system():
    return build_system(
        [DataSet(EX1_POINTS)], make_plan(((1, 1, 1),), (EX1_SCALES,))
    )


@pytest.fixture(scope="session")
def ex2_plan():
    return make_plan(EX2_SOURCES, ((1 / 3,) * 5, (1 / 3,) * 4))


@pytest.fixture(scope="session")
def ex2_system(ex2_plan):
    return build_system([DataSet(EX2_POINTS_1), DataSet(EX2_POINTS_2)], ex2_plan)


@pytest.fixture(scope="session")
def ex2b_system():
    return build_system(
        [DataSet(EX2_POINTS_1), DataSet(EX2_POINTS_2)],
        make_plan(EX2_SOURCES, EX2B_SCALES),
    )


@pytest.fixture(scope="session")
def flat_system():
    return build_system(
        [DataSet(FLAT_POINTS)], make_plan(((1, 1),), ((0.0, 0.0),))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
