"""Bounded brute-force cross-check for the labeling solver.

Everything here works by enumerating lasso plays outright: the labeling
recurrence is evaluated by scanning plays instead of pruning graphs, and the
final decision scans plays from the initial vertex. The only machinery shared
with the solver is the data model and the extended-game construction; none of
the solver's pruning or reachability code is used. Sizes are guarded, since
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

from functools import lru_cache
from typing import Iterator

from .extended import ExtendedGame, build_extended_game
from .game import ConstraintProfile, FiniteGame, LassoPlay

ORACLE_MAX_EXT_VERTICES = 64
# a dense game under the vertex bound can still have billions of lassos; the
# acceptance corpus needs at most about 242k for one game
ORACLE_MAX_LASSOS = 500_000


class OracleLimitError(ValueError):
    """The instance is beyond what the oracle is willing to enumerate."""


def enumerate_lassos(
    g: FiniteGame,
    start: int,
    max_prefix: int,
    max_cycle: int,
    *,
    simple_prefix: bool = False,
) -> Iterator[LassoPlay]:
    """All lassos from start with prefix length <= max_prefix and simple cycle length <= max_cycle.

    Cycles never repeat a vertex; prefixes may, unless ``simple_prefix`` is
    set. Enumeration order is deterministic: depth-first over prefixes with
    ascending successors, and for each prefix depth-first over cycles.
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


def _guard(xg: ExtendedGame) -> None:
    n = xg.n_vertices
    if n > ORACLE_MAX_EXT_VERTICES:
        raise OracleLimitError(
            f"extended game has {n} vertices; the oracle refuses instances "
            f"above {ORACLE_MAX_EXT_VERTICES}"
        )


@lru_cache(maxsize=64)
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
    g = xg.game
    n = g.n_vertices
    tm = g.target_mask
    owner = g.owner
    out = []
    count = 0
    for start in range(n):
        summaries: set[tuple[int, int]] = set()
        for rho in enumerate_lassos(g, start, n, n, simple_prefix=True):
            count += 1
            if count > ORACLE_MAX_LASSOS:
                raise OracleLimitError(f"more than {ORACLE_MAX_LASSOS} lassos to enumerate")
            suffix_gain = 0
            for v in rho.cycle:
                suffix_gain |= tm[v]
            binding = 0
            for v in rho.cycle:
                if not (suffix_gain >> owner[v]) & 1:
                    binding |= 1 << v
            gain = suffix_gain
            for j in range(len(rho.prefix) - 1, -1, -1):
                v = rho.prefix[j]
                gain |= tm[v]
                if not (gain >> owner[v]) & 1:
                    binding |= 1 << v
            summaries.add((gain, binding))
        out.append(frozenset(summaries))
    return tuple(out)


@lru_cache(maxsize=64)
def oracle_lambda_star(xg: ExtendedGame) -> tuple[int, ...]:
    """Fixpoint labeling computed by scanning enumerated lassos.

    Same recurrence as the solver, with the inner minimum read off the
    enumerated consistent plays; must agree with the solver's fixpoint.
    """
    _guard(xg)
    g = xg.game
    n = g.n_vertices
    summaries = _lasso_summaries(xg)
    succ = g.successors
    lam_mask = 0
    while True:
        new_mask = 0
        for v in range(n):
            i = g.owner[v]
            for w in succ[v]:
                loses = any(
                    not (gain >> i) & 1 and not binding & lam_mask
                    for gain, binding in summaries[w]
                )
                if not loses:
                    new_mask |= 1 << v
                    break
        if new_mask == lam_mask:
            return tuple((lam_mask >> v) & 1 for v in range(n))
        lam_mask = new_mask


def oracle_decide(g: FiniteGame, c: ConstraintProfile) -> bool:
    """Decide constrained existence by enumeration over the extended game."""
    xg = build_extended_game(g)
    _guard(xg)
    lam = oracle_lambda_star(xg)
    lam_mask = 0
    for v, bit in enumerate(lam):
        lam_mask |= bit << v
    lo, up = c.lower.mask, c.upper.mask
    for gain, binding in _lasso_summaries(xg)[xg.x0]:
        if lo | gain == gain and gain | up == up and not binding & lam_mask:
            return True
    return False
