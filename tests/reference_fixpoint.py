"""Test-only references for the labeling step and the witness search.

These are the direct readings of what ``spe_reach.fixpoint`` computes from
the core of one layer at a time. ``reference_surviving`` prunes the whole
extended game for one gain profile. ``reference_lambda_step`` searches
backward from the surviving vertices whose satisfied set is exactly each
profile, then takes, per (vertex, successor), the minimum over profiles
through those source sets. ``reference_consistent_play`` searches forward
over the surviving vertices for the solver's witness lasso. They are slow
on purpose and share no code with ``src/``, so tests can compare the two.
"""

from __future__ import annotations

from collections import deque

from spe_reach.extended import ExtendedGame
from spe_reach.fixpoint import Labeling
from spe_reach.game import GainProfile


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


def reference_consistent_play(
    xg: ExtendedGame, lam: Labeling, start: int, p: GainProfile
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The (prefix, cycle) of the lam-consistent lasso from start with gain p
    that the solver must return, or None if there is none.

    Breadth-first over the surviving vertices, in successor order, to the
    first one whose satisfied set is exactly p; then along least-index
    surviving successors until a vertex repeats, which closes the cycle.
    """
    alive = reference_surviving(xg, lam, p.mask)
    if not alive[start]:
        return None
    sat, succ = xg.satisfied, xg.successors
    parent: dict[int, int | None] = {start: None}
    queue: deque[int] = deque([start])
    while queue:
        goal = queue.popleft()
        if sat[goal] == p.mask:
            break
        for w in succ[goal]:
            if alive[w] and w not in parent:
                parent[w] = goal
                queue.append(w)
    else:
        return None
    path: list[int] = []
    v: int | None = goal
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    walk = [goal]
    while True:
        nxt = min(w for w in succ[walk[-1]] if alive[w])
        if nxt in walk:
            j = walk.index(nxt)
            return tuple(path[:-1] + walk[:j]), tuple(walk[j:])
        walk.append(nxt)


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
