"""Bounded brute-force cross-check for the labeling solver.

Everything here works by enumerating lasso plays outright: the labeling
recurrence is evaluated by scanning plays instead of pruning graphs, and the
outcome set is read off the consistent plays from the initial vertex. The
oracle reads the extended game's owners, satisfied sets and adjacency
directly; none of the solver's pruning or reachability code is used, and
nothing is cached. ``oracle_outcomes(xg)`` makes one pass per extended game,
and that one set answers every constraint on it. Sizes are guarded, since
enumeration is exponential: the extended game may have at most
``ORACLE_MAX_EXT_VERTICES`` vertices, and the lassos enumerated for one
game count against ``ORACLE_MAX_LASSOS``.

On extended games, restricting the scans to lassos whose prefix never repeats
a vertex loses nothing: satisfied sets only grow along a play, so cutting the
piece between two occurrences of the same extended vertex changes neither the
gain profile (which is determined by the cycle's satisfied set) nor
consistency (which only shrinks the visited set). Small-instance tests check
this against the unrestricted enumeration.
"""

from __future__ import annotations

from typing import Iterator

from .extended import ExtendedGame
from .game import FiniteGame, GainProfile, LassoPlay

ORACLE_MAX_EXT_VERTICES = 64
# a dense game under the vertex bound can still have billions of lassos; the
# acceptance corpus needs at most about 242k for one game
ORACLE_MAX_LASSOS = 500_000


class OracleLimitError(ValueError):
    """The instance is beyond what the oracle is willing to enumerate."""


def enumerate_lassos(
    g: FiniteGame | ExtendedGame,
    start: int,
    max_prefix: int,
    max_cycle: int,
    *,
    simple_prefix: bool = False,
) -> Iterator[LassoPlay]:
    """All lassos from start with prefix length <= max_prefix and simple cycle length <= max_cycle.

    Cycles never repeat a vertex; prefixes may, unless ``simple_prefix`` is
    set. Enumeration order is deterministic: depth-first over prefixes with
    ascending successors, and for each prefix depth-first over cycles. Only
    ``n_vertices``, ``successors`` and ``predecessors`` are read, so g may be
    a ``FiniteGame`` or an ``ExtendedGame``.
    """
    if max_cycle < 1:
        raise ValueError("cycle bound must be at least 1")
    if not 0 <= start < g.n_vertices:
        raise ValueError(f"start vertex {start} is not in the game")
    succ, pred = g.successors, g.predecessors
    reaching: dict[int, set[int]] = {}

    def reaches(head: int) -> set[int]:
        """The vertices with a path to head; every vertex of a simple cycle
        through head is one of them, so a cycle search need not leave this set."""
        found = reaching.get(head)
        if found is None:
            found = {head}
            stack = [head]
            while stack:
                for u in pred[stack.pop()]:
                    if u not in found:
                        found.add(u)
                        stack.append(u)
            reaching[head] = found
        return found

    def cycles(head: int) -> Iterator[tuple[int, ...]]:
        path = [head]
        on_path = {head}
        back = reaches(head)

        def extend() -> Iterator[tuple[int, ...]]:
            cur = path[-1]
            if head in succ[cur]:
                yield tuple(path)
            if len(path) < max_cycle:
                for w in succ[cur]:
                    if w in back and w not in on_path:
                        path.append(w)
                        on_path.add(w)
                        yield from extend()
                        path.pop()
                        on_path.remove(w)

        yield from extend()

    for cycle in cycles(start):
        yield LassoPlay((), cycle)
    if max_prefix < 1:
        return
    prefix = [start]
    on_prefix = {start}

    def with_prefix() -> Iterator[LassoPlay]:
        last = prefix[-1]
        for head in succ[last]:
            for cycle in cycles(head):
                yield LassoPlay(tuple(prefix), cycle)
        if len(prefix) < max_prefix:
            for w in succ[last]:
                if simple_prefix and w in on_prefix:
                    continue
                prefix.append(w)
                on_prefix.add(w)
                yield from with_prefix()
                prefix.pop()
                on_prefix.discard(w)

    yield from with_prefix()


def _lasso_summaries(xg: ExtendedGame) -> tuple[frozenset[tuple[int, int]], ...]:
    """Per vertex, the set of (gain mask, binding vertices) pairs over all lassos.

    The binding vertices of a lasso (a bit set over extended vertices) are
    the positions whose owner does not win on the suffix from there; a lasso
    is consistent with a labeling iff no binding vertex is labeled 1. This
    is a pure factoring of the per-lasso consistency check, so each vertex
    is enumerated once instead of once per labeling iteration. Raises
    :class:`OracleLimitError` once more than ``ORACLE_MAX_LASSOS`` lassos
    have been enumerated.
    """
    n = xg.n_vertices
    sat = xg.satisfied
    owner = xg.owner
    out = []
    count = 0
    for start in range(n):
        summaries: set[tuple[int, int]] = set()
        for rho in enumerate_lassos(xg, start, n, n, simple_prefix=True):
            count += 1
            if count > ORACLE_MAX_LASSOS:
                raise OracleLimitError(f"more than {ORACLE_MAX_LASSOS} lassos to enumerate")
            suffix_gain = 0
            for v in rho.cycle:
                suffix_gain |= sat[v]
            binding = 0
            for v in rho.cycle:
                if not (suffix_gain >> owner[v]) & 1:
                    binding |= 1 << v
            gain = suffix_gain
            for v in reversed(rho.prefix):
                gain |= sat[v]
                if not (gain >> owner[v]) & 1:
                    binding |= 1 << v
            summaries.add((gain, binding))
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


def oracle_lambda_star(xg: ExtendedGame) -> tuple[int, ...]:
    """Fixpoint labeling computed by scanning enumerated lassos; must agree
    with the solver's fixpoint."""
    lam_mask = _solve(xg)[1]
    return tuple((lam_mask >> v) & 1 for v in range(xg.n_vertices))


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
