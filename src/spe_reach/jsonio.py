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
from typing import TYPE_CHECKING, Any, NoReturn

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


def _reject_edge(entry: Any, k: int, where: str, index: dict[str, int]) -> NoReturn:
    """Raise the error for ``edges[k]``, which failed to resolve.

    The checks run in the order the message should name them: the entry's
    shape, its key types, then its source and target names.
    """
    if not isinstance(entry, dict):
        raise InputError(f"{where}: edges[{k}] must be an object")
    ctx = f"{where}: edges[{k}]"
    src, _, dst = (_get(entry, key, str, ctx) for key in ("from", "letter", "to"))
    name = dst if src in index else src
    raise InputError(f"{where}: edge {k}: unknown vertex '{name}'")


def load_finite_game(source) -> FiniteGame:
    """Parse a finite game from a path or an already-decoded dict.

    One pass over the document checks its types and resolves every vertex
    name to its index; :class:`FiniteGame` then checks owner ranges and
    letters. The first fault found is reported.
    """
    obj, where = _load_object(source)
    players = _get(obj, "players", int, where)
    if players < 1:
        raise InputError(f"{where}: 'players' must be a positive integer")
    alphabet = _string_list(obj, "alphabet", where)
    names: list[str] = []
    owners: list[int] = []
    index: dict[str, int] = {}
    for k, entry in enumerate(_get(obj, "vertices", list, where)):
        if not isinstance(entry, dict):
            raise InputError(f"{where}: vertices[{k}] must be an object")
        name, player = entry.get("name"), entry.get("owner")
        if not isinstance(name, str) or isinstance(player, bool) or not isinstance(player, int):
            # a type fault: _get names it, checking the name first
            _get(entry, "name", str, f"{where}: vertices[{k}]")
            _get(entry, "owner", int, f"{where}: vertices[{k}]")
        if name in index:
            raise InputError(f"{where}: duplicate vertex name '{name}'")
        index[name] = k
        names.append(name)
        owners.append(player)
    # a dict per row keeps the first declaration of each (letter, target)
    rows: list[dict[tuple[str, int], None]] = [{} for _ in names]
    for k, entry in enumerate(_get(obj, "edges", list, where)):
        # the common case in one try; any fault is named on the slow path
        try:
            src, letter, dst = index[entry["from"]], entry["letter"], index[entry["to"]]
            if isinstance(letter, str):
                rows[src][(letter, dst)] = None
                continue
        except (KeyError, TypeError):
            pass
        _reject_edge(entry, k, where, index)
    targets = _get(obj, "targets", list, where)
    if len(targets) != players:
        raise InputError(f"{where}: expected {players} target lists, got {len(targets)}")
    target_sets = []
    for i, ts in enumerate(targets):
        if not isinstance(ts, list) or any(not isinstance(v, str) for v in ts):
            raise InputError(f"{where}: targets[{i}] must be a list of vertex names")
        try:
            target_sets.append(frozenset([index[name] for name in ts]))
        except KeyError as miss:
            raise InputError(f"{where}: targets[{i}]: unknown vertex '{miss.args[0]}'") from None
    initial = _get(obj, "initial", str, where)
    if initial not in index:
        raise InputError(f"{where}: initial: unknown vertex '{initial}'")
    try:
        return FiniteGame(
            n_players=players,
            alphabet=tuple(alphabet),
            vertex_names=tuple(names),
            out_edges=tuple(map(tuple, rows)),
            owner=tuple(owners),
            targets=tuple(target_sets),
            initial=index[initial],
        )
    except ValueError as exc:
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
    from .timed import GuardAtom, PPTA, Transition

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
            const = _get(atom, "const", int, actx)
            clock_id = clock(_get(atom, "clock", str, actx), actx)
            try:
                atoms.append(GuardAtom(clock_id, op, const))
            except ValueError as exc:
                raise InputError(f"{actx}: {exc}") from exc
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
    initial = location(_get(obj, "initial", str, where), where)
    try:
        return PPTA(
            n_players=players,
            alphabet=tuple(alphabet),
            clock_names=tuple(clocks),
            location_names=tuple(locations),
            owners=tuple(owners),
            transitions=tuple(transitions),
            goals=tuple(goals),
            initial=initial,
        )
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
