import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spe_reach.fixpoint import _analysis
from spe_reach.game import FiniteGame
from spe_reach.jsonio import load_finite_game

from documents import CHAIN_GAME, FORK_GAME


@pytest.fixture(autouse=True)
def fresh_analysis_cache():
    """Start each test with no cached analyses. Equal games share one cached
    extended game, so a lazy view that one test builds on it would otherwise
    show up in another test's assertions."""
    _analysis.cache_clear()


@pytest.fixture
def chain_game() -> FiniteGame:
    return load_finite_game(CHAIN_GAME)


@pytest.fixture
def fork_game() -> FiniteGame:
    return load_finite_game(FORK_GAME)
