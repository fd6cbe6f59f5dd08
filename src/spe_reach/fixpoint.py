"""Labeling fixpoint and the constrained-existence decision.

The solver labels every extended vertex with 0 or 1. A 1 on a vertex owned
by player i means: any equilibrium play passing through that vertex must let
player i win from there on. Labels start at all zeros; each Jacobi step
raises v to 1 when every choice at v leads where all plays consistent with
the current labels make the owner win, and k* counts the steps that change
a label. A step visits only the satisfied sets that occur, each restricted
to its down-set, and folds all gain profiles into one per-vertex bitmask.
At the fixpoint a play is an equilibrium outcome iff it is consistent with
the labels, so constrained existence reduces to searching for one consistent
lasso per admissible gain profile.

The extended game and the fixpoint depend on the game alone, so
:func:`analyze` validates the game and computes them once per game (and
size cap), keeping the result as an :class:`Analysis`;
:meth:`Analysis.decide` then runs only the per-constraint profile scan,
each search confined to the down-set of its gain profile.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .extended import ExtendedGame, build_extended_game
from .game import ConstraintProfile, FiniteGame, GainProfile, LassoPlay, validate_game

Labeling = tuple[int, ...]


def initial_labeling(xg: ExtendedGame) -> Labeling:
    """The all-zero labeling the iteration starts from."""
    return (0,) * xg.n_vertices


def _surviving(xg: ExtendedGame, lam: Labeling, win_mask: int) -> list[bool]:
    """Vertices usable by a consistent play whose losers are outside win_mask.

    Only the down-set of win_mask is a candidate: a vertex where a supposed
    loser is already satisfied is never alive. Of those, vertices owned by a
    loser but labeled 1 are deleted, and then iteratively everything left
    without a successor, so any surviving vertex can continue forever. The
    result is the greatest such set, so the visiting order does not matter.
    """
    n = xg.n_vertices
    lose_mask = ((1 << xg.n_players) - 1) ^ win_mask
    owner, succ, pred = xg.owner, xg.successors, xg.predecessors
    alive = [False] * n
    candidates: list[int] = []
    for m, layer in xg.layers.items():
        if not m & lose_mask:
            for v in layer:
                if not (lam[v] and (lose_mask >> owner[v]) & 1):
                    alive[v] = True
                    candidates.append(v)
    out = [0] * n
    dead: deque[int] = deque()
    for v in candidates:
        out[v] = sum(map(alive.__getitem__, succ[v]))
        if out[v] == 0:
            dead.append(v)
    while dead:
        v = dead.popleft()
        alive[v] = False
        for u in pred[v]:
            if alive[u]:
                out[u] -= 1
                if out[u] == 0:
                    dead.append(u)
    return alive


def exists_consistent_play(
    xg: ExtendedGame, lam: Labeling, start: int, p: GainProfile
) -> LassoPlay | None:
    """Find a lam-consistent lasso from start with gain profile exactly p.

    Works on the pruned graph of :func:`_surviving`: winners need no check
    beyond reaching a vertex whose satisfied set equals the winner set,
    because suffix gains of a winning player hold at every position; for
    losers the pruning enforces both gain 0 and the label constraint. The
    witness is deterministic: shortest path to the first such vertex, then
    the first cycle along least-index successors.
    """
    n = xg.n_vertices
    if not 0 <= start < n:
        raise ValueError(f"start vertex {start} is not in the extended game")
    if len(lam) != n:
        raise ValueError("labeling must be total over the extended vertices")
    if p.n != xg.n_players:
        raise ValueError("gain profile does not match the player count")
    alive = _surviving(xg, lam, p.mask)
    if not alive[start]:
        return None
    sat = xg.satisfied
    succ = xg.successors
    goal: int | None = start if sat[start] == p.mask else None
    parent: dict[int, int | None] = {start: None}
    if goal is None:
        queue: deque[int] = deque([start])
        while queue and goal is None:
            v = queue.popleft()
            for w in succ[v]:
                if alive[w] and w not in parent:
                    parent[w] = v
                    if sat[w] == p.mask:
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
        nxt = next(w for w in succ[cur] if alive[w])
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
    m alone is pruned to the core that can stay in it with no loser (player
    outside m) owning a label-1 vertex; a backward search from the core,
    skipping such label-1 vertices, ORs the losers into ``canlose`` of each
    vertex it reaches. A vertex looping only in a lower layer is not reached.
    """
    n = len(lam)
    owner, succ, pred = xg.owner, xg.successors, xg.predecessors
    full = (1 << xg.n_players) - 1
    blocked = [label << i for label, i in zip(lam, owner)]  # the owner bit if labeled 1
    # mark[v] == m: v is in the core of layer m, and after pruning, v reaches it
    mark, out, canlose = [-1] * n, [0] * n, [0] * n
    for m, layer in xg.layers.items():
        lose = full ^ m
        if not lose:
            continue  # nobody can lose a play of gain "all": the search would OR in 0
        core = [v for v in layer if not blocked[v] & lose]
        for v in core:
            mark[v] = m
        for v in core:
            out[v] = [mark[w] for w in succ[v]].count(m)
        dead = [v for v in core if not out[v]]
        while dead:
            v = dead.pop()
            mark[v] = -1
            for u in pred[v]:
                if mark[u] == m:
                    out[u] -= 1
                    if not out[u]:
                        dead.append(u)
        # predecessors never gain satisfied players, so this stays in the down-set
        stack = [v for v in core if mark[v] == m]
        while stack:
            v = stack.pop()
            canlose[v] |= lose
            for u in pred[v]:
                if mark[u] != m and not blocked[u] & lose:
                    mark[u] = m
                    stack.append(u)
    return tuple(int(any(not canlose[w] >> i & 1 for w in ws)) for ws, i in zip(succ, owner))


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


@dataclass(frozen=True)
class Witness:
    """A lasso realizing the decided gain profile, in both coordinate systems."""

    gain: GainProfile
    extended: LassoPlay
    base: LassoPlay


@dataclass(frozen=True)
class Decision:
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


@dataclass(frozen=True)
class Analysis:
    """What a game's decisions share: its extended game and labeling fixpoint."""

    extended_game: ExtendedGame
    lambda_star: Labeling
    k_star: int

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
            found = exists_consistent_play(xg, lam, xg.x0, profile)
            if found is not None:
                witness = Witness(profile, found, xg.project(found))
                return Decision(True, witness, lam, k, xg)
        return Decision(False, None, lam, k, xg)


@lru_cache(maxsize=256)
def _analysis(g: FiniteGame, max_ext_vertices: int | None) -> Analysis:
    # an ill-formed game raises here, so only a validated game is cached
    problems = validate_game(g)
    if problems:
        raise InputError("; ".join(problems))
    xg = build_extended_game(g, max_vertices=max_ext_vertices, validate=False)
    lam, k = compute_lambda_star(xg)
    return Analysis(xg, lam, k)


def analyze(g: FiniteGame, *, max_ext_vertices: int | None = None) -> Analysis:
    """Validate g, then build its extended game and labeling fixpoint.

    All three are cached per (game, cap), so every constraint decided on one
    game shares one validation, one extended game and one fixpoint. A game
    value is immutable, so an equal game found in the cache has passed
    validation already. A call that fails validation or hits the size cap
    caches nothing, and an ill-formed game is rejected on every call.
    """
    return _analysis(g, max_ext_vertices)


def decide_constrained_existence(
    g: FiniteGame, c: ConstraintProfile, *, max_ext_vertices: int | None = None
) -> Decision:
    """Decide whether an equilibrium of g with gain between the bounds
    exists: ``analyze(g, max_ext_vertices=...).decide(c)``."""
    return analyze(g, max_ext_vertices=max_ext_vertices).decide(c)
