"""Subgame-perfect-equilibrium solver for turn-based reachability games.

Explicit finite games are decided through the extended game and a labeling
fixpoint; timed games are reduced to finite ones by the clock-region
quotient first. All three graphs (the input arena, the region game and the
extended game's ``game`` view) are ``FiniteGame`` values that store one
per-vertex row of (letter, target) edges. A bounded brute-force oracle
(``spe_reach.oracle``) recomputes an extended game's SPE outcome set by
lasso enumeration to cross-check the solver on small instances; it is
left out of this namespace so that importing the solver stays cheap. For
the same reason the timed-automaton names are served from
``spe_reach.timed`` only when first looked up.

``analyze(g)`` builds a game's extended game and labeling fixpoint once;
its ``decide(c)`` answers one constraint, and ``decide_constrained_existence``
is the one-call form of both.
"""

from .errors import DeadlockedRegionError, InputError, SizeCapError
from .extended import ExtendedGame, build_extended_game
from .fixpoint import (
    Analysis,
    Decision,
    Labeling,
    Witness,
    analyze,
    compute_lambda_star,
    decide_constrained_existence,
    exists_consistent_play,
    initial_labeling,
    lambda_step,
)
from .game import ConstraintProfile, FiniteGame, GainProfile, LassoPlay
from .jsonio import dump_finite_game, load_finite_game, load_ppta

_TIMED_NAMES = frozenset((
    "ClockRegion", "GuardAtom", "PPTA", "RegionGame", "Transition", "build_region_game",
    "describe_region", "guard_sat_region", "reset_region",
))


def __getattr__(name: str):
    if name in _TIMED_NAMES:
        from . import timed

        return getattr(timed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Analysis",
    "ClockRegion",
    "ConstraintProfile",
    "DeadlockedRegionError",
    "Decision",
    "ExtendedGame",
    "FiniteGame",
    "GainProfile",
    "GuardAtom",
    "InputError",
    "Labeling",
    "LassoPlay",
    "PPTA",
    "RegionGame",
    "SizeCapError",
    "Transition",
    "Witness",
    "analyze",
    "build_extended_game",
    "build_region_game",
    "compute_lambda_star",
    "decide_constrained_existence",
    "describe_region",
    "dump_finite_game",
    "exists_consistent_play",
    "guard_sat_region",
    "initial_labeling",
    "lambda_step",
    "load_finite_game",
    "load_ppta",
    "reset_region",
]
