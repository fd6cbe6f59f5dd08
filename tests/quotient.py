"""Test helper: quotients of finite games by a supplied equivalence relation.

The quotient collapses each equivalence class to a single vertex. For the
quotient to preserve equilibrium outcomes the relation must respect the
player partition and the target sets and be a bisimulation on the transition
system; the checkers here verify exactly those side conditions, and
:func:`quotient_game` refuses to build anything from a relation that fails
one. Computing a coarsest bisimulation (Paige and Tarjan, "Three partition
refinement algorithms", SIAM J. Comput. 16(6), 1987) is out of scope: the
relation is always supplied, by the caller or by the region construction.
The solver never quotients a game; the tests use this module to check that
decisions survive cloning and quotienting, and that regions are
bisimilar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from spe_reach.errors import InputError
from spe_reach.game import FiniteGame


@dataclass(frozen=True)
class EquivalenceMap:
    """Assignment of every vertex to an equivalence class.

    Class ids must be dense integers starting at 0.
    """

    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        ids = set(self.class_of)
        if self.class_of and ids != set(range(len(ids))):
            raise ValueError("class ids must be dense integers starting at 0")

    @property
    def n_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in range(self.n_classes)]
        for v, c in enumerate(self.class_of):
            buckets[c].append(v)
        return tuple(tuple(b) for b in buckets)

    @classmethod
    def identity(cls, n_vertices: int) -> "EquivalenceMap":
        return cls(tuple(range(n_vertices)))


def _require_total(g: FiniteGame, eq: EquivalenceMap) -> None:
    if len(eq.class_of) != g.n_vertices:
        raise ValueError(
            f"equivalence covers {len(eq.class_of)} of {g.n_vertices} vertices"
        )


def check_respects_partition(g: FiniteGame, eq: EquivalenceMap) -> bool:
    """True iff all vertices of a class are owned by the same player."""
    _require_total(g, eq)
    owner_of: dict[int, int] = {}
    for v, c in enumerate(eq.class_of):
        if owner_of.setdefault(c, g.owner[v]) != g.owner[v]:
            return False
    return True


def check_respects_targets(g: FiniteGame, eq: EquivalenceMap) -> bool:
    """True iff class mates agree on membership in every target set."""
    _require_total(g, eq)
    mask_of: dict[int, int] = {}
    tm = g.target_mask
    for v, c in enumerate(eq.class_of):
        if mask_of.setdefault(c, tm[v]) != tm[v]:
            return False
    return True


def check_bisimulation(g: FiniteGame, eq: EquivalenceMap) -> bool:
    """True iff eq is a bisimulation equivalence on g's transition system.

    For every edge u -a-> u' and every class mate w of u, some w' must
    exist with w -a-> w' and w' in the class of u'; equivalently, all class
    mates share the same set of (letter, successor class) pairs.
    """
    _require_total(g, eq)
    signature_of: dict[int, frozenset[tuple[str, int]]] = {}
    for v in range(g.n_vertices):
        sig = frozenset((letter, eq.class_of[w]) for letter, w in g.out_edges[v])
        c = eq.class_of[v]
        if signature_of.setdefault(c, sig) != sig:
            return False
    return True


def quotient_game(
    g: FiniteGame, eq: EquivalenceMap
) -> tuple[FiniteGame, tuple[tuple[int, ...], ...]]:
    """Collapse each class to one vertex; returns the quotient and the members per class.

    Rejects the construction, naming the violated condition, unless eq
    respects the partition and the target sets and is a bisimulation.
    """
    _require_total(g, eq)
    for name, check in (
        ("respects-partition", check_respects_partition),
        ("respects-targets", check_respects_targets),
        ("bisimulation", check_bisimulation),
    ):
        if not check(g, eq):
            raise InputError(f"quotient precondition violated: {name}")
    members = eq.members
    names = tuple(f"[{g.vertex_names[group[0]]}]" for group in members)
    owners = tuple(g.owner[group[0]] for group in members)
    # a dict per class row keeps the first occurrence of each (letter, class)
    rows: list[dict[tuple[str, int], None]] = [{} for _ in members]
    for src, row in enumerate(g.out_edges):
        for letter, dst in row:
            rows[eq.class_of[src]][(letter, eq.class_of[dst])] = None
    targets = tuple(
        frozenset(eq.class_of[v] for v in ts) for ts in g.targets
    )
    quotient = FiniteGame(
        n_players=g.n_players,
        alphabet=g.alphabet,
        vertex_names=names,
        out_edges=tuple(map(tuple, rows)),
        owner=owners,
        targets=targets,
        initial=eq.class_of[g.initial],
    )
    return quotient, members
