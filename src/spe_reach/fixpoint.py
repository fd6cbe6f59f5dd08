"""Labeling fixpoint and the constrained-existence decision.

The solver labels every extended vertex with 0 or 1. A 1 on a vertex owned
by player i means: any equilibrium play passing through that vertex must let
player i win from there on. Labels start at all zeros; each Jacobi step
raises v to 1 when every choice at v leads where all plays consistent with
the current labels make the owner win, and k* counts the steps that change
a label. A play with gain m ends in layer m (satisfied set m) and stays in
its down-set, so both the step and the witness search start from one
routine, :func:`_core`, which prunes layer m to the vertices a consistent
play can stay on forever. A step searches backward from the core of each
occurring layer and adds every vertex it reaches to the set of unsafe
vertices of each player who loses in that layer; it keeps one such set per
player. At the fixpoint a play is an equilibrium outcome iff it is
consistent with the labels, so constrained existence reduces to a forward
search for one consistent lasso per admissible gain profile.

The extended game, the fixpoint and the core of every layer under it
depend on the game alone, so :func:`analyze` computes them once per game
(and size cap), keeping the result as an :class:`Analysis`;
:meth:`Analysis.decide` then runs only the per-constraint profile scan, one
forward search per profile, each confined to the down-set of its gain
profile.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError
from .extended import ExtendedGame, build_extended_game
from .game import ConstraintProfile, FiniteGame, GainProfile, LassoPlay

Labeling = tuple[int, ...]


def initial_labeling(xg: ExtendedGame) -> Labeling:
    """The all-zero labeling the iteration starts from."""
    return (0,) * xg.n_vertices


def _core(xg: ExtendedGame, lam: Labeling, m: int, mark: list[int], out: list[int]) -> list[int]:
    """The vertices of layer m from which a play can stay in it forever.

    Starts from the layer, drops every vertex owned by a loser (a player
    outside m) and labeled 1, then repeatedly every vertex left without a
    successor in the set; the result is the greatest such set, so the order
    of removal does not matter. Sets ``mark[v] = m`` on exactly the returned
    vertices; ``out`` is scratch space over positions. Neither list may hold
    m on entry.

    A successor comes from the vertex's own row or from its delay link. So
    ``out[p]`` counts the own successors of p in the set, plus 1 while the
    position its link leads to still has one. It is kept for the vertices
    of the set and for every position a link leads to, dropped vertices
    included: the positions linked to them still see their successors. Any
    other position of the layer is a dropped vertex that no link leads to,
    so its count may go stale without effect.
    """
    owner, own, pred, delay, dpred = xg.owner, xg.own, xg.own_pred, xg.delay, xg.delay_pred
    sat = xg.satisfied
    lose = ((1 << xg.n_players) - 1) ^ m
    core = [v for v in xg.layers.get(m, ()) if not (lam[v] and lose >> owner[v] & 1)]
    for v in core:
        mark[v] = m
    linked = xg.chains.get(m)  # None in a layer without delay links
    counted = core if linked is None else core + [p for p in linked if mark[p] != m]
    for p in counted:
        count = 0
        for w in own[p]:
            if mark[w] == m:
                count += 1
        out[p] = count
    if linked is not None:
        for p in counted:
            if delay[p] >= 0:
                out[p] += 1
    dead = [p for p in counted if not out[p]]
    while dead:
        p = dead.pop()
        if mark[p] == m:
            mark[p] = -1
            for u in pred[p]:
                if sat[u] == m:
                    out[u] -= 1
                    if not out[u]:
                        dead.append(u)
        for u in dpred[p]:
            out[u] -= 1
            if not out[u]:
                dead.append(u)
    return [v for v in core if mark[v] == m]


def cores(xg: ExtendedGame, lam: Labeling) -> bytes:
    """One flag per extended vertex: 1 iff it is in the :func:`_core` of its
    own layer. Layers partition the vertices, so one array covers them all."""
    n = len(xg.own)
    mark, out = [-1] * n, [0] * n
    for m in xg.layers:
        _core(xg, lam, m, mark, out)
    return bytes([a == b for a, b in zip(mark[: xg.n_vertices], xg.satisfied)])


def exists_consistent_play(
    xg: ExtendedGame, lam: Labeling, start: int, p: GainProfile, core: bytes
) -> LassoPlay | None:
    """Find a lam-consistent lasso from start with gain profile exactly p.

    Such a play ends in the :func:`_core` of layer p (satisfied set p) and
    never leaves the down-set of p. ``core`` is :func:`cores` of lam, which
    :class:`Analysis` computes once per game. A forward search from start
    walks the usable vertices: those whose satisfied set lies within p and
    that are no loser's label-1 vertex. Winners need no further check,
    because suffix gains of a winning player hold at every position. The
    witness is deterministic: shortest path to the first core vertex found,
    then the first cycle along least-index core successors. Successor rows
    are expanded from the delay chains only for the vertices visited.
    """
    n = xg.n_vertices
    if not 0 <= start < n:
        raise ValueError(f"start vertex {start} is not in the extended game")
    if len(lam) != n:
        raise ValueError("labeling must be total over the extended vertices")
    if p.n != xg.n_players:
        raise ValueError("gain profile does not match the player count")
    if len(core) != n:
        raise ValueError("core must be total over the extended vertices")
    m = p.mask
    lose = ((1 << xg.n_players) - 1) ^ m
    sat, owner, succ = xg.satisfied, xg.owner, xg.successors
    if sat[start] & lose or lam[start] and lose >> owner[start] & 1:
        return None
    goal: int | None = start if core[start] and sat[start] == m else None
    parent: dict[int, int | None] = {start: None}
    if goal is None:
        queue: deque[int] = deque([start])
        while queue and goal is None:
            v = queue.popleft()
            for w in succ[v]:
                if w in parent or sat[w] & lose or lam[w] and lose >> owner[w] & 1:
                    continue
                parent[w] = v
                if core[w] and sat[w] == m:
                    goal = w
                    break
                queue.append(w)
    if goal is None:
        return None
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    walk = [goal]
    position = {goal: 0}
    while True:
        cur = walk[-1]
        nxt = next(w for w in succ[cur] if core[w] and sat[w] == m)
        j = position.get(nxt)
        if j is not None:
            return LassoPlay(tuple(path[:-1] + walk[:j]), tuple(walk[j:]))
        position[nxt] = len(walk)
        walk.append(nxt)


def lambda_step(xg: ExtendedGame, lam: Labeling) -> Labeling:
    """One Jacobi step, as counted by k*: each new label is read from lam alone.

    A vertex owned by player i gets 1 iff some successor starts no
    lam-consistent play that i loses. Such a play with gain m ends in layer
    m (satisfied set m) and stays in its down-set. So per occurring m, layer
    m alone is pruned to its :func:`_core`; a backward search from the core,
    skipping every loser's label-1 vertex, adds each vertex it reaches to
    the ``unsafe`` set of every loser (player outside m). A vertex looping
    only in a lower layer is not reached.

    The search runs over positions. It reaches a position when it reaches
    one of the position's own successors, or the position its link leads
    to; a position it reaches that is a vertex, and no skipped one, is a
    vertex it reaches. A chain keeps its owner (:class:`FiniteGame` checks
    it), so the flag "some successor is safe for the owner" is set per
    position from its own row, then copied down each chain from its end.
    """
    n = len(lam)
    if n != xg.n_vertices:
        raise ValueError("labeling must be total over the extended vertices")
    owner, own, pred, delay, dpred = xg.owner, xg.own, xg.own_pred, xg.delay, xg.delay_pred
    full = (1 << xg.n_players) - 1
    # unsafe[i]: the vertices that start a lam-consistent play player i loses
    unsafe: list[set[int]] = [set() for _ in range(xg.n_players)]
    # mark[p] == m: p is in the core of layer m, or the search from it reached p
    mark, out = [-1] * len(own), [0] * len(own)
    for m in xg.layers:
        lose = full ^ m
        if not lose:
            continue  # nobody can lose a play of gain "all"
        stack = _core(xg, lam, m, mark, out)
        reached = []
        # predecessors never gain satisfied players, so this stays in the down-set
        while stack:
            p = stack.pop()
            if p < n and not (lam[p] and lose >> owner[p] & 1):
                reached.append(p)
                for u in pred[p]:
                    if mark[u] != m:
                        mark[u] = m
                        stack.append(u)
            for u in dpred[p]:
                if mark[u] != m:
                    mark[u] = m
                    stack.append(u)
        for i, losers in enumerate(unsafe):
            if lose >> i & 1:
                losers.update(reached)
    safe = [0 if unsafe[i].issuperset(ws) else 1 for ws, i in zip(own, owner)]
    for p in xg.chain_order:
        if not safe[p]:
            safe[p] = safe[delay[p]]
    del safe[n:]
    return tuple(safe)


def compute_lambda_star(xg: ExtendedGame) -> tuple[Labeling, int]:
    """Iterate lambda_step from all zeros until two consecutive labelings agree.

    Returns the fixpoint and the first index k with step(lam_k) == lam_k;
    monotonicity bounds k by the number of extended vertices.
    """
    lam = initial_labeling(xg)
    k = 0
    while True:
        nxt = lambda_step(xg, lam)
        if nxt == lam:
            return lam, k
        lam = nxt
        k += 1


class Witness(NamedTuple):
    """A lasso realizing the decided gain profile, in both coordinate systems."""

    gain: GainProfile
    extended: LassoPlay
    base: LassoPlay


class Decision(NamedTuple):
    """Outcome of the constrained-existence decision.

    On a yes answer the witness is present, its gain lies within the
    constraint bounds, and the extended lasso is consistent with the
    fixpoint labeling. The labeling, its iteration count, and the extended
    game are kept for diagnostics.
    """

    answer: bool
    witness: Witness | None
    lambda_star: Labeling
    k_star: int
    extended_game: ExtendedGame


class Analysis(NamedTuple):
    """What a game's decisions share: its extended game, fixpoint and :func:`cores`."""

    extended_game: ExtendedGame
    lambda_star: Labeling
    k_star: int
    core: bytes

    def decide(self, c: ConstraintProfile) -> Decision:
        """Decide whether an equilibrium with gain between the bounds exists.

        Scans the admissible gain profiles in ascending numeric order
        (player 0 at the least significant bit) for a consistent lasso from
        the initial vertex; the first hit is returned as the witness. A play
        with gain m ends among the extended vertices with satisfied set m
        and never leaves the down-set of m, so only the sets that occur are
        scanned, each search stays within its down-set, and the work is
        bounded by the extended game rather than by the 2^n profiles.
        """
        xg, lam, k = self.extended_game, self.lambda_star, self.k_star
        if c.n != xg.n_players:
            raise InputError(
                f"constraint covers {c.n} players but the game has {xg.n_players}"
            )
        for mask in sorted(xg.layers):
            profile = GainProfile(mask, c.n)
            if not c.admits(profile):
                continue
            # positional: a wrapper around the search may forward *args only
            found = exists_consistent_play(xg, lam, xg.x0, profile, self.core)
            if found is not None:
                witness = Witness(profile, found, xg.project(found))
                return Decision(True, witness, lam, k, xg)
        return Decision(False, None, lam, k, xg)


@lru_cache(maxsize=256)
def _analysis(g: FiniteGame, max_ext_vertices: int | None) -> Analysis:
    xg = build_extended_game(g, max_vertices=max_ext_vertices)
    lam, k = compute_lambda_star(xg)
    return Analysis(xg, lam, k, cores(xg, lam))


def analyze(g: FiniteGame, *, max_ext_vertices: int | None = None) -> Analysis:
    """Build g's extended game and labeling fixpoint.

    Both are cached per (game, cap), so every constraint decided on one game
    shares one extended game and one fixpoint. A call that hits the size cap
    caches nothing.
    """
    return _analysis(g, max_ext_vertices)


def decide_constrained_existence(
    g: FiniteGame, c: ConstraintProfile, *, max_ext_vertices: int | None = None
) -> Decision:
    """Decide whether an equilibrium of g with gain between the bounds
    exists: ``analyze(g, max_ext_vertices=...).decide(c)``."""
    return analyze(g, max_ext_vertices=max_ext_vertices).decide(c)
