"""Test-only reference for the labeling step.

This is the direct reading of the recurrence that ``spe_reach.fixpoint``
computes layer by layer: for every gain profile, prune the whole extended
game with ``_surviving`` and search backward from the vertices whose
satisfied set is exactly that profile; then take, per (vertex, successor),
the minimum over profiles through those source sets. It is slow on
purpose and shares no code with the layered step, so tests can compare
the two. ``reference_surviving`` is the full-scan form of the pruning that
``spe_reach.fixpoint._surviving`` confines to a profile's down-set.
"""

from __future__ import annotations

from collections import deque

from spe_reach.extended import ExtendedGame
from spe_reach.fixpoint import Labeling


def reference_surviving(xg: ExtendedGame, lam: Labeling, win_mask: int) -> list[bool]:
    """Vertices usable by a consistent play whose losers are outside win_mask.

    Scans every extended vertex: deletes those where a supposed loser is
    already satisfied, those owned by a loser but labeled 1, and then
    iteratively everything left without a successor.
    """
    n = xg.n_vertices
    lose_mask = ((1 << xg.n_players) - 1) ^ win_mask
    sat, owner = xg.satisfied, xg.owner
    alive = [
        not (sat[v] & lose_mask) and not (lam[v] and (lose_mask >> owner[v]) & 1)
        for v in range(n)
    ]
    succ = xg.successors
    out = [0] * n
    dead: deque[int] = deque()
    for v in range(n):
        if not alive[v]:
            continue
        out[v] = sum(1 for w in succ[v] if alive[w])
        if out[v] == 0:
            dead.append(v)
    pred = xg.predecessors
    while dead:
        v = dead.popleft()
        alive[v] = False
        for u in pred[v]:
            if alive[u]:
                out[u] -= 1
                if out[u] == 0:
                    dead.append(u)
    return alive


def reference_sources(xg: ExtendedGame, lam: Labeling, mask: int) -> list[bool]:
    """Vertices from which some lam-consistent play with gain exactly mask starts."""
    n = xg.game.n_vertices
    sat = xg.satisfied
    pred = xg.game.predecessors
    alive = reference_surviving(xg, lam, mask)
    res = [False] * n
    queue: deque[int] = deque()
    for v in range(n):
        if alive[v] and sat[v] == mask:
            res[v] = True
            queue.append(v)
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if alive[u] and not res[u]:
                res[u] = True
                queue.append(u)
    return res


def reference_lambda_step(xg: ExtendedGame, lam: Labeling) -> Labeling:
    """One labeling iteration, computed mask by mask over the whole game.

    The new label of a vertex owned by player i is the maximum over its
    successors of the minimal gain of i among all lam-consistent plays from
    that successor. The minimum is 0 iff a consistent play with gain profile
    p, for some p with bit i clear, starts there; when no consistent play
    exists at all the minimum over the empty set is taken as 1.
    """
    g = xg.game
    succ = g.successors
    sources_for: dict[int, list[bool]] = {}

    def sources(mask: int) -> list[bool]:
        res = sources_for.get(mask)
        if res is None:
            res = sources_for[mask] = reference_sources(xg, lam, mask)
        return res

    new = []
    for v in range(g.n_vertices):
        i = g.owner[v]
        value = 0
        for w in succ[v]:
            minimum = 1
            for mask in range(1 << g.n_players):
                if (mask >> i) & 1:
                    continue
                if sources(mask)[w]:
                    minimum = 0
                    break
            if minimum:
                value = 1
                break
        new.append(value)
    return tuple(new)
