"""JSON formats for finite games and player-partitioned timed automata.

One object per UTF-8 file. A finite game looks like::

    {"players": 1, "alphabet": ["a"],
     "vertices": [{"name": "A", "owner": 0}, {"name": "B", "owner": 0}],
     "edges": [{"from": "A", "letter": "a", "to": "B"},
               {"from": "B", "letter": "a", "to": "B"}],
     "targets": [["B"]], "initial": "A"}

and a timed automaton adds clocks, guarded transitions, and goal locations;
comparators are the strings le, lt, eq, gt, ge.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from .errors import InputError
from .game import FiniteGame

if TYPE_CHECKING:
    from .timed import PPTA


def _load_object(source) -> tuple[dict, str]:
    if isinstance(source, dict):
        return source, "<input>"
    path = os.fspath(source)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad syntax, or an int over 4300 digits
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    return obj, path


def _get(obj: dict, key: str, kind: type | tuple[type, ...], where: str) -> Any:
    if key not in obj:
        raise InputError(f"{where}: missing key '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{where}: key '{key}' has the wrong type")
    return value


def _string_list(obj: dict, key: str, where: str) -> list[str]:
    values = _get(obj, key, list, where)
    for v in values:
        if not isinstance(v, str):
            raise InputError(f"{where}: '{key}' must be a list of strings")
    return values


def load_finite_game(source) -> FiniteGame:
    """Parse a finite game from a path or an already-decoded dict."""
    obj, where = _load_object(source)
    players = _get(obj, "players", int, where)
    if players < 1:
        raise InputError(f"{where}: 'players' must be a positive integer")
    alphabet = _string_list(obj, "alphabet", where)
    vertices = []
    owner = {}
    for k, entry in enumerate(_get(obj, "vertices", list, where)):
        if not isinstance(entry, dict):
            raise InputError(f"{where}: vertices[{k}] must be an object")
        name = _get(entry, "name", str, f"{where}: vertices[{k}]")
        vertices.append(name)
        owner[name] = _get(entry, "owner", int, f"{where}: vertices[{k}]")
    edges = []
    for k, entry in enumerate(_get(obj, "edges", list, where)):
        if not isinstance(entry, dict):
            raise InputError(f"{where}: edges[{k}] must be an object")
        ctx = f"{where}: edges[{k}]"
        edges.append(
            (_get(entry, "from", str, ctx), _get(entry, "letter", str, ctx), _get(entry, "to", str, ctx))
        )
    targets = _get(obj, "targets", list, where)
    if len(targets) != players:
        raise InputError(f"{where}: expected {players} target lists, got {len(targets)}")
    for i, ts in enumerate(targets):
        if not isinstance(ts, list) or any(not isinstance(v, str) for v in ts):
            raise InputError(f"{where}: targets[{i}] must be a list of vertex names")
    initial = _get(obj, "initial", str, where)
    try:
        return FiniteGame.build(
            vertices=vertices,
            edges=edges,
            owner=owner,
            targets=targets,
            initial=initial,
            n_players=players,
            alphabet=alphabet,
        )
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def dump_finite_game(g: FiniteGame) -> dict:
    """Serialize a finite game into the file format."""
    return {
        "players": g.n_players,
        "alphabet": list(g.alphabet),
        "vertices": [
            {"name": name, "owner": g.owner[v]} for v, name in enumerate(g.vertex_names)
        ],
        "edges": [
            {"from": g.vertex_names[src], "letter": letter, "to": g.vertex_names[dst]}
            for src, letter, dst in g.edges
        ],
        "targets": [sorted(g.vertex_names[v] for v in ts) for ts in g.targets],
        "initial": g.vertex_names[g.initial],
    }


def load_ppta(source) -> PPTA:
    """Parse a player-partitioned timed automaton from a path or dict."""
    # imported here so that loading a finite game leaves the timed module out
    from .timed import COMPARATORS, GuardAtom, PPTA, Transition, validate_ppta

    obj, where = _load_object(source)
    players = _get(obj, "players", int, where)
    if players < 1:
        raise InputError(f"{where}: 'players' must be a positive integer")
    alphabet = _string_list(obj, "alphabet", where)
    clocks = _string_list(obj, "clocks", where)
    clock_index = {name: i for i, name in enumerate(clocks)}
    if len(clock_index) != len(clocks):
        raise InputError(f"{where}: duplicate clock name")
    locations = []
    owners = []
    loc_index: dict[str, int] = {}
    for k, entry in enumerate(_get(obj, "locations", list, where)):
        if not isinstance(entry, dict):
            raise InputError(f"{where}: locations[{k}] must be an object")
        name = _get(entry, "name", str, f"{where}: locations[{k}]")
        if name in loc_index:
            raise InputError(f"{where}: duplicate location name '{name}'")
        loc_index[name] = k
        locations.append(name)
        owners.append(_get(entry, "owner", int, f"{where}: locations[{k}]"))

    def location(name: str, ctx: str) -> int:
        if name not in loc_index:
            raise InputError(f"{ctx}: unknown location '{name}'")
        return loc_index[name]

    def clock(name: str, ctx: str) -> int:
        if name not in clock_index:
            raise InputError(f"{ctx}: unknown clock '{name}'")
        return clock_index[name]

    transitions = []
    for k, entry in enumerate(_get(obj, "transitions", list, where)):
        if not isinstance(entry, dict):
            raise InputError(f"{where}: transitions[{k}] must be an object")
        ctx = f"{where}: transitions[{k}]"
        atoms = []
        for j, atom in enumerate(_get(entry, "guard", list, ctx)):
            if not isinstance(atom, dict):
                raise InputError(f"{ctx}: guard[{j}] must be an object")
            actx = f"{ctx}: guard[{j}]"
            op = _get(atom, "op", str, actx)
            if op not in COMPARATORS:
                raise InputError(f"{actx}: unknown comparator '{op}'")
            const = _get(atom, "const", int, actx)
            if const < 0:
                raise InputError(f"{actx}: guard constant must be a natural number")
            atoms.append(GuardAtom(clock(_get(atom, "clock", str, actx), actx), op, const))
        resets = frozenset(
            clock(name, ctx) for name in _string_list(entry, "reset", ctx)
        )
        transitions.append(
            Transition(
                source=location(_get(entry, "from", str, ctx), ctx),
                letter=_get(entry, "letter", str, ctx),
                guard=tuple(atoms),
                resets=resets,
                target=location(_get(entry, "to", str, ctx), ctx),
            )
        )
    goals_raw = _get(obj, "goals", list, where)
    if len(goals_raw) != players:
        raise InputError(f"{where}: expected {players} goal lists, got {len(goals_raw)}")
    goals = []
    for i, gs in enumerate(goals_raw):
        if not isinstance(gs, list) or any(not isinstance(v, str) for v in gs):
            raise InputError(f"{where}: goals[{i}] must be a list of location names")
        goals.append(frozenset(location(name, f"{where}: goals[{i}]") for name in gs))
    automaton = PPTA(
        n_players=players,
        alphabet=tuple(alphabet),
        clock_names=tuple(clocks),
        location_names=tuple(locations),
        owners=tuple(owners),
        transitions=tuple(transitions),
        goals=tuple(goals),
        initial=location(_get(obj, "initial", str, where), where),
    )
    problems = validate_ppta(automaton)
    if problems:
        raise InputError(f"{where}: {problems[0]}")
    return automaton
