import numpy as np
import pytest
from hypothesis import settings

from mechpoly import matching_pennies_game, screening_game

# Property tests draw the same examples on every run, and write no database.
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture
def mp2():
    return matching_pennies_game()


@pytest.fixture
def screen1():
    return screening_game()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
