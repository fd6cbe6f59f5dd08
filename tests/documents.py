"""Test documents in the file formats, each written once.

``FORK_GAME``, ``CHAIN_GAME`` and ``LOOP_GAME`` are finite games for
``load_finite_game``; the ``*_PPTA`` documents are timed automata for
``load_ppta``. Tests that change a document copy it first.
"""

# one player choosing between a winning sink B and a losing sink C
FORK_GAME = {
    "players": 1,
    "alphabet": ["a"],
    "vertices": [
        {"name": "A", "owner": 0},
        {"name": "B", "owner": 0},
        {"name": "C", "owner": 0},
    ],
    "edges": [
        {"from": "A", "letter": "a", "to": "B"},
        {"from": "A", "letter": "a", "to": "C"},
        {"from": "B", "letter": "a", "to": "B"},
        {"from": "C", "letter": "a", "to": "C"},
    ],
    "targets": [["B"]],
    "initial": "A",
}

# one player: A -> B, B -> B, target {B}
CHAIN_GAME = {
    "players": 1,
    "alphabet": ["a"],
    "vertices": [{"name": "A", "owner": 0}, {"name": "B", "owner": 0}],
    "edges": [{"from": "A", "letter": "a", "to": "B"}, {"from": "B", "letter": "a", "to": "B"}],
    "targets": [["B"]],
    "initial": "A",
}

# one vertex with a self-loop and no target
LOOP_GAME = {
    "players": 1,
    "alphabet": ["a"],
    "vertices": [{"name": "A", "owner": 0}],
    "edges": [{"from": "A", "letter": "a", "to": "A"}],
    "targets": [[]],
    "initial": "A",
}

ONE_CLOCK_PPTA = {
    "players": 1,
    "alphabet": ["a", "b"],
    "clocks": ["c"],
    "locations": [
        {"name": "l0", "owner": 0},
        {"name": "l1", "owner": 0},
        {"name": "l2", "owner": 0},
    ],
    "transitions": [
        {"from": "l0", "letter": "a", "guard": [{"clock": "c", "op": "le", "const": 1}], "reset": [], "to": "l1"},
        {"from": "l0", "letter": "b", "guard": [{"clock": "c", "op": "gt", "const": 1}], "reset": [], "to": "l2"},
        {"from": "l1", "letter": "a", "guard": [], "reset": [], "to": "l1"},
        {"from": "l2", "letter": "b", "guard": [], "reset": [], "to": "l2"},
    ],
    "goals": [["l1"]],
    "initial": "l0",
}

TWO_CLOCK_PPTA = {
    "players": 2,
    "alphabet": ["a", "b", "c"],
    "clocks": ["x", "y"],
    "locations": [
        {"name": "l0", "owner": 0},
        {"name": "l1", "owner": 1},
        {"name": "l2", "owner": 0},
    ],
    "transitions": [
        {"from": "l0", "letter": "a", "guard": [{"clock": "x", "op": "le", "const": 2}], "reset": ["y"], "to": "l1"},
        {"from": "l0", "letter": "b", "guard": [{"clock": "x", "op": "gt", "const": 2}], "reset": [], "to": "l2"},
        {"from": "l1", "letter": "a", "guard": [{"clock": "y", "op": "lt", "const": 1}], "reset": ["x"], "to": "l0"},
        {"from": "l1", "letter": "b", "guard": [{"clock": "y", "op": "ge", "const": 1}], "reset": [], "to": "l2"},
        {"from": "l2", "letter": "c", "guard": [], "reset": [], "to": "l2"},
    ],
    "goals": [["l2"], ["l1"]],
    "initial": "l0",
}

ZERO_CLOCK_PPTA = {
    "players": 1,
    "alphabet": ["a"],
    "clocks": [],
    "locations": [
        {"name": "A", "owner": 0},
        {"name": "B", "owner": 0},
        {"name": "C", "owner": 0},
    ],
    "transitions": [
        {"from": "A", "letter": "a", "guard": [], "reset": [], "to": "B"},
        {"from": "A", "letter": "a", "guard": [], "reset": [], "to": "C"},
        {"from": "B", "letter": "a", "guard": [], "reset": [], "to": "B"},
        {"from": "C", "letter": "a", "guard": [], "reset": [], "to": "C"},
    ],
    "goals": [["B"]],
    "initial": "A",
}
