"""Tests of the benchmark itself: input generation, output checks, timeouts.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
import run
from spe_reach import cli

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("make", [gen.finite_cli_instance, gen.timed_cli_instance, gen.query_game])
def test_same_seed_same_bytes(make):
    def text(made) -> str:
        return gen.dumps(made) if isinstance(made, dict) else gen.dumps(made[0]) + " ".join(made[1])

    for index in (0, 7):
        assert text(make(3, index)) == text(make(3, index))
    assert text(make(3, 0)) != text(make(4, 0))


@pytest.mark.parametrize("module", ["gen.py", "check.py"])
def test_inputs_and_checks_import_nothing_from_the_solver(module):
    tree = ast.parse((HERE / module).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {m for m in imported if m and m.split(".")[0] in ("spe_reach", "tests", "conftest")}


FORK = {
    "players": 1,
    "alphabet": ["a"],
    "vertices": [{"name": v, "owner": 0} for v in ("A", "B", "C")],
    "edges": [
        {"from": "A", "letter": "a", "to": "B"},
        {"from": "A", "letter": "a", "to": "C"},
        {"from": "B", "letter": "a", "to": "B"},
        {"from": "C", "letter": "a", "to": "C"},
    ],
    "targets": [["B"]],
    "initial": "A",
}
FORK_WIN = "YES\nwitness gain: (1)\nwitness prefix:\n  A  {}\nwitness cycle:\n  B  {0}\n"


def test_checker_accepts_a_sound_witness():
    assert check.finite_witness_problems(FORK, ["win"], check.parse_cli(FORK_WIN)) == []


def test_checker_rejects_a_step_that_is_not_an_edge():
    tampered = FORK_WIN.replace("  A  {}", "  C  {}")
    problems = check.finite_witness_problems(FORK, ["any"], check.parse_cli(tampered))
    assert any("no move from 'C' to 'B'" in p for p in problems)


def test_checker_rejects_a_gain_outside_the_bounds():
    problems = check.finite_witness_problems(FORK, ["lose"], check.parse_cli(FORK_WIN))
    assert problems == ["player 0 gain 1 violates the constraint lose"]


def test_checker_rejects_a_misprinted_gain_or_satisfied_set():
    answer = check.parse_cli(FORK_WIN.replace("(1)", "(0)").replace("B  {0}", "B  {}"))
    problems = check.finite_witness_problems(FORK, ["any"], answer)
    assert any("printed gain" in p for p in problems)
    assert any("satisfied sets" in p for p in problems)


TIMED = {
    "players": 1,
    "alphabet": ["a", "b"],
    "clocks": ["c"],
    "locations": [{"name": n, "owner": 0} for n in ("l0", "l1", "l2")],
    "transitions": [
        {"from": "l0", "letter": "a", "guard": [{"clock": "c", "op": "le", "const": 1}], "reset": [], "to": "l1"},
        {"from": "l0", "letter": "b", "guard": [{"clock": "c", "op": "gt", "const": 1}], "reset": [], "to": "l2"},
        {"from": "l1", "letter": "a", "guard": [], "reset": [], "to": "l1"},
        {"from": "l2", "letter": "b", "guard": [], "reset": [], "to": "l2"},
    ],
    "goals": [["l2"]],
    "initial": "l0",
}


def _solve(tmp_path: Path, capsys, obj: dict, args: list[str]) -> str:
    path = tmp_path / "input.json"
    path.write_text(gen.dumps(obj))
    capsys.readouterr()
    cli.main([args[0], str(path), *args[1:]])
    return capsys.readouterr().out


def test_timed_checker_follows_regions(tmp_path, capsys):
    out = _solve(tmp_path, capsys, TIMED, ["solve-timed", "--player=0=win", "--witness"])
    answer = check.parse_cli(out)
    assert answer.yes
    assert check.timed_witness_problems(TIMED, ["win"], answer) == []
    # l0 -> l2 exists as a transition, but only after c passes 1, so it
    # cannot arrive with c still 0
    bad = check.parse_cli(out.replace("l2|c>1", "l2|c=0", 1))
    assert any("no move from 'l0|c=0' to 'l2|c=0'" in p for p in check.timed_witness_problems(TIMED, ["win"], bad))


@pytest.mark.parametrize("index", range(3))
def test_checker_accepts_the_solver_on_generated_instances(tmp_path, capsys, index):
    game, words = gen.finite_cli_instance(1, index)
    flags = [f"--player={p}={w}" for p, w in enumerate(words)]
    answer = check.parse_cli(_solve(tmp_path, capsys, game, ["solve", *flags, "--witness", "--lambda"]))
    assert not answer.yes or check.finite_witness_problems(game, words, answer) == []
    automaton, words = gen.timed_cli_instance(1, index)
    flags = [f"--player={p}={w}" for p, w in enumerate(words)]
    answer = check.parse_cli(_solve(tmp_path, capsys, automaton, ["solve-timed", *flags, "--witness"]))
    assert not answer.yes or check.timed_witness_problems(automaton, words, answer) == []


def test_query_lines_round_trip_through_the_checker():
    import child
    from spe_reach.fixpoint import decide_constrained_existence
    from spe_reach.game import ConstraintProfile
    from spe_reach.jsonio import load_finite_game

    obj = gen.query_game(1, 0)
    g = load_finite_game(obj)
    answers = []
    for words in gen.all_words(4)[::10]:
        line = child.describe(g, decide_constrained_existence(g, ConstraintProfile.from_words(words)))
        answer = run._query_answer(line)
        answers.append(answer.yes)
        assert not answer.yes or check.finite_witness_problems(obj, words, answer) == []
    assert any(answers)


def test_hung_instance_is_killed_and_counted_failed(tmp_path):
    o = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path, timeout=0.5)
    assert o.timed_out and o.wall < 10
    inst = run.Instance(0, FORK, tmp_path / "x.json", ["any"], ["solve"])
    assert run.judge_cli(inst, o, None) == ["timed out after 30 s"]


def test_crash_is_counted_failed(tmp_path):
    o = run.spawn([sys.executable, "-c", "print('YES'); raise SystemExit(1 / 0)"], tmp_path, timeout=30)
    inst = run.Instance(0, FORK, tmp_path / "x.json", ["any"], ["solve"])
    assert "ended in a traceback" in run.judge_cli(inst, o, None)


def test_layer_times_are_self_times_that_add_up_to_the_wall_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["jsonio.load", 1.0, 2.0, 0],
        ["fixpoint.decide", 2.0, 9.0, 0],
        ["fixpoint.lambda", 3.0, 7.0, 2],
        ["game.views", 4.0, 5.0, 3],
    ]
    m = run.layer_metrics([(12.0, {"spans": spans, "counts": {}})], 12.0, 10.0, 0)
    assert m["cli.self_s"][0] == 2.0
    assert m["fixpoint.decide_self_s"][0] == 3.0
    assert m["fixpoint.lambda_s"][0] == 3.0
    assert m["game.views_s"][0] == 1.0
    assert m["trace.process_s"][0] == 2.0
    assert sum(m[k[:-2] + "_share"][0] for k in run.LAYER_TIMES) == pytest.approx(1.0)
    assert m["trace.overhead_ratio"][0] == 1.2


def test_refuses_to_run_without_the_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "finite-cli", "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench_run").exists()
