"""Brute-force cross-check for the labeling solver.

Everything here works by walking lasso plays outright: the labeling
recurrence is evaluated by scanning plays instead of pruning graphs, and the
outcome set is read off the consistent plays from the initial vertex. The
oracle reads the extended game's owners, satisfied sets and adjacency
directly; none of the solver's pruning or reachability code is used, and
nothing is cached. ``oracle_outcomes(xg)`` makes one pass per extended game,
and that one set answers every constraint on it. Sizes are guarded, since
the walk is exponential: the extended game may have at most
``ORACLE_MAX_EXT_VERTICES`` vertices, and the lassos walked for one game
count against ``ORACLE_MAX_LASSOS``.

The walk takes only lassos whose prefix never repeats a vertex, and on
extended games that loses nothing: satisfied sets only grow along a play, so
cutting the piece between two occurrences of the same extended vertex
changes neither the gain profile (which is determined by the cycle's
satisfied set) nor consistency (which only shrinks the visited set).
Small-instance tests check this against an unrestricted enumeration.
"""

from __future__ import annotations

from .extended import ExtendedGame
from .game import GainProfile

ORACLE_MAX_EXT_VERTICES = 64
# a dense game under the vertex bound can still have billions of lassos; the
# acceptance corpus needs at most about 242k for one game
ORACLE_MAX_LASSOS = 500_000


class OracleLimitError(ValueError):
    """The instance is beyond what the oracle is willing to enumerate."""


def _lasso_summaries(xg: ExtendedGame) -> tuple[frozenset[tuple[int, int]], ...]:
    """Per vertex, the set of (gain mask, binding vertices) pairs over all lassos.

    The lassos from a start vertex are walked depth first over simple
    prefixes, successors ascending. Each prefix is followed by every simple
    cycle through a successor of its last vertex; the empty prefix, by every
    simple cycle through the start. A cycle search stays among the vertices
    that can reach its head, since no simple cycle through the head leaves
    them.

    The binding vertices of a lasso (a bit set over extended vertices) are
    the positions whose owner does not win on the suffix from there; a lasso
    is consistent with a labeling iff no binding vertex is labeled 1. This
    is a pure factoring of the per-lasso consistency check, so each vertex
    is walked once instead of once per labeling iteration. Raises
    :class:`OracleLimitError` once more than ``ORACLE_MAX_LASSOS`` lassos
    have been walked.
    """
    n = xg.n_vertices
    succ, pred = xg.successors, xg.predecessors
    sat, owner = xg.satisfied, xg.owner
    # reaches[v]: the vertices with a path to v, as a bit set
    reaches = []
    for v in range(n):
        found = 1 << v
        stack = [v]
        while stack:
            for u in pred[stack.pop()]:
                if not (found >> u) & 1:
                    found |= 1 << u
                    stack.append(u)
        reaches.append(found)
    prefix: list[int] = []
    path: list[int] = []
    count = 0

    def cycles(head: int, cur: int, allowed: int, gain: int, summaries: set) -> None:
        """Put cur on the cycle path from head, fold the lasso if cur closes
        the cycle, and go on through the allowed vertices; gain is the
        path's satisfied sets."""
        nonlocal count
        path.append(cur)
        if head in succ[cur]:
            count += 1
            if count > ORACLE_MAX_LASSOS:
                raise OracleLimitError(f"more than {ORACLE_MAX_LASSOS} lassos to enumerate")
            binding = 0
            for v in path:
                if not (gain >> owner[v]) & 1:
                    binding |= 1 << v
            for v in reversed(prefix):
                gain |= sat[v]
                if not (gain >> owner[v]) & 1:
                    binding |= 1 << v
            summaries.add((gain, binding))
        for w in succ[cur]:
            if (allowed >> w) & 1:
                cycles(head, w, allowed & ~(1 << w), gain | sat[w], summaries)
        path.pop()

    def walk(on_prefix: int, summaries: set) -> None:
        """Fold the lassos of prefix and of its simple extensions, where
        on_prefix is the prefix as a bit set."""
        last = prefix[-1]
        for head in succ[last]:
            cycles(head, head, reaches[head] & ~(1 << head), sat[head], summaries)
        for w in succ[last]:
            if not (on_prefix >> w) & 1:
                prefix.append(w)
                walk(on_prefix | 1 << w, summaries)
                prefix.pop()

    out = []
    for start in range(n):
        summaries: set[tuple[int, int]] = set()
        cycles(start, start, reaches[start] & ~(1 << start), sat[start], summaries)
        prefix.append(start)
        walk(1 << start, summaries)
        prefix.pop()
        out.append(frozenset(summaries))
    return tuple(out)


def _solve(xg: ExtendedGame) -> tuple[tuple[frozenset[tuple[int, int]], ...], int]:
    """The lasso summaries and the fixpoint labeling as a bit set over vertices.

    Same recurrence as the solver, with the inner minimum read off the
    enumerated consistent plays.
    """
    n = xg.n_vertices
    if n > ORACLE_MAX_EXT_VERTICES:
        raise OracleLimitError(
            f"extended game has {n} vertices; the oracle refuses instances "
            f"above {ORACLE_MAX_EXT_VERTICES}"
        )
    summaries = _lasso_summaries(xg)
    succ, owner = xg.successors, xg.owner
    lam_mask = 0
    while True:
        new_mask = 0
        for v in range(n):
            i = owner[v]
            for w in succ[v]:
                loses = any(
                    not (gain >> i) & 1 and not binding & lam_mask
                    for gain, binding in summaries[w]
                )
                if not loses:
                    new_mask |= 1 << v
                    break
        if new_mask == lam_mask:
            return summaries, lam_mask
        lam_mask = new_mask


def oracle_outcomes(xg: ExtendedGame) -> frozenset[GainProfile]:
    """The SPE outcomes: the gain profiles of the plays from the initial
    vertex that are consistent with the fixpoint labeling. A constraint c
    has a solution iff ``any(map(c.admits, outcomes))``."""
    summaries, lam_mask = _solve(xg)
    return frozenset(
        GainProfile(gain, xg.n_players)
        for gain, binding in summaries[xg.x0]
        if not binding & lam_mask
    )
