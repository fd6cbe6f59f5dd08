import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spe_reach.fixpoint import _analysis
from spe_reach.game import FiniteGame


@pytest.fixture(autouse=True)
def fresh_analysis_cache():
    """Start each test with no cached analyses. Equal games share one cached
    extended game, so a lazy view that one test builds on it would otherwise
    show up in another test's assertions."""
    _analysis.cache_clear()


@pytest.fixture
def chain_game() -> FiniteGame:
    """Two vertices, one player: A -> B, B -> B, target {B}."""
    return FiniteGame.build(
        vertices=["A", "B"],
        edges=[("A", "a", "B"), ("B", "a", "B")],
        owner={"A": 0, "B": 0},
        targets=[["B"]],
        initial="A",
    )


@pytest.fixture
def fork_game() -> FiniteGame:
    """One player choosing between a winning sink B and a losing sink C."""
    return FiniteGame.build(
        vertices=["A", "B", "C"],
        edges=[("A", "a", "B"), ("A", "a", "C"), ("B", "a", "B"), ("C", "a", "C")],
        owner={"A": 0, "B": 0, "C": 0},
        targets=[["B"]],
        initial="A",
    )
