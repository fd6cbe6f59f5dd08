import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spe_reach
from spe_reach import cli
from spe_reach.cli import main
from spe_reach.errors import InputError
from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import analyze
from spe_reach.game import ConstraintProfile
from spe_reach.jsonio import dump_finite_game, load_finite_game, load_ppta
from spe_reach.oracle import oracle_outcomes

from documents import FORK_GAME, GUARDED_PPTA, ONE_CLOCK_PPTA, TWO_CLOCK_PPTA, ZERO_CLOCK_PPTA
from generators import random_games

@pytest.fixture
def fork_file(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text(json.dumps(FORK_GAME), encoding="utf-8")
    return str(path)


@pytest.fixture
def one_clock_file(tmp_path):
    path = tmp_path / "choice.json"
    path.write_text(json.dumps(ONE_CLOCK_PPTA), encoding="utf-8")
    return str(path)


@pytest.fixture
def complete_file(tmp_path):
    # one player, no targets, every edge of the complete graph on 14 vertices:
    # 14 extended vertices, but far too many lassos to enumerate
    names = [f"v{i}" for i in range(14)]
    game = {
        "players": 1,
        "alphabet": ["a"],
        "vertices": [{"name": v, "owner": 0} for v in names],
        "edges": [{"from": v, "letter": "a", "to": w} for v in names for w in names],
        "targets": [[]],
        "initial": "v0",
    }
    path = tmp_path / "complete.json"
    path.write_text(json.dumps(game), encoding="utf-8")
    return str(path)


@pytest.fixture
def layered_file(tmp_path):
    # one player, no targets: s, then 30 layers of two vertices, each layer
    # joined to all of the next, then a self-looping t; 2^30 paths, none of
    # which returns to where it started
    layers = [[f"l{d}_{j}" for j in range(2)] for d in range(30)]
    steps = [["s"], *layers, ["t"]]
    edges = [(v, w) for here, there in zip(steps, steps[1:]) for v in here for w in there]
    names = [v for step in steps for v in step]
    game = {
        "players": 1,
        "alphabet": ["a"],
        "vertices": [{"name": v, "owner": 0} for v in names],
        "edges": [{"from": v, "letter": "a", "to": w} for v, w in edges + [("t", "t")]],
        "targets": [[]],
        "initial": "s",
    }
    path = tmp_path / "layered.json"
    path.write_text(json.dumps(game), encoding="utf-8")
    return str(path)


@pytest.fixture
def k10_file(tmp_path):
    # three players, every edge of the complete graph on 10 vertices: 68
    # extended vertices, past the oracle's bound of 64
    names = [f"v{i}" for i in range(10)]
    game = {
        "players": 3,
        "alphabet": ["a"],
        "vertices": [{"name": v, "owner": 0} for v in names],
        "edges": [{"from": v, "letter": "a", "to": w} for v in names for w in names],
        "targets": [["v1"], ["v2"], ["v3"]],
        "initial": "v0",
    }
    path = tmp_path / "k10.json"
    path.write_text(json.dumps(game), encoding="utf-8")
    return str(path)


def run_cli(args, timeout):
    """Run ``python -m spe_reach ARGS`` in a subprocess, which turns a hang into a failure."""
    src = Path(spe_reach.__file__).parent.parent
    return subprocess.run(
        [sys.executable, "-m", "spe_reach", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=timeout,
    )


class TestJsonIO:
    def test_game_round_trip(self):
        g = load_finite_game(FORK_GAME)
        assert load_finite_game(dump_finite_game(g)) == g

    def test_missing_key(self):
        broken = {k: v for k, v in FORK_GAME.items() if k != "initial"}
        with pytest.raises(InputError, match="initial"):
            load_finite_game(broken)

    def test_unknown_edge_vertex(self):
        broken = dict(FORK_GAME)
        broken["edges"] = FORK_GAME["edges"] + [{"from": "A", "letter": "a", "to": "Z"}]
        with pytest.raises(InputError, match="'Z'"):
            load_finite_game(broken)

    def test_target_count_mismatch(self):
        broken = dict(FORK_GAME)
        broken["targets"] = [["B"], ["C"]]
        with pytest.raises(InputError, match="target"):
            load_finite_game(broken)

    def test_ppta_loads(self):
        a = load_ppta(ONE_CLOCK_PPTA)
        assert a.n_clocks == 1
        assert a.maxima == (1,)
        assert len(a.transitions) == 4

    def test_ppta_bad_comparator(self):
        broken = json.loads(json.dumps(ONE_CLOCK_PPTA))
        broken["transitions"][0]["guard"][0]["op"] = "leq"
        with pytest.raises(InputError, match="comparator"):
            load_ppta(broken)

    def test_ppta_unknown_clock(self):
        broken = json.loads(json.dumps(ONE_CLOCK_PPTA))
        broken["transitions"][0]["reset"] = ["x"]
        with pytest.raises(InputError, match="unknown clock"):
            load_ppta(broken)

    def test_ppta_duplicate_clock(self):
        broken = json.loads(json.dumps(ONE_CLOCK_PPTA))
        broken["clocks"] = ["c", "c"]
        with pytest.raises(InputError) as excinfo:
            load_ppta(broken)
        assert str(excinfo.value) == "<input>: duplicate clock name"

    def test_ppta_goals_entry_not_a_name_list(self):
        broken = json.loads(json.dumps(ONE_CLOCK_PPTA))
        broken["goals"] = [[1]]
        with pytest.raises(InputError) as excinfo:
            load_ppta(broken)
        assert str(excinfo.value) == "<input>: goals[0] must be a list of location names"


class TestSolveCommand:
    def test_win_yes(self, fork_file, capsys):
        assert main(["solve", fork_file, "--player", "0=win"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "YES"

    def test_lose_no(self, fork_file, capsys):
        assert main(["solve", fork_file, "--player", "0=lose"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "NO"

    def test_default_constraint_is_any(self, fork_file, capsys):
        assert main(["solve", fork_file]) == 0

    def test_witness_output(self, fork_file, capsys):
        assert main(["solve", fork_file, "--player", "0=win", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "witness gain: (1)" in out
        assert "B  {0}" in out

    def test_lambda_output(self, fork_file, capsys):
        main(["solve", fork_file, "--lambda"])
        out = capsys.readouterr().out
        assert "iterations to fixpoint: 1" in out
        assert "A|{}  1" in out
        assert "C|{}  0" in out

    def test_lambda_rows_spell_the_vertex_names(self, tmp_path, capsys):
        games = [g for g in random_games(40, seed=23, max_players=4) if g.n_players >= 3]
        assert len(games) >= 10
        for i, g in enumerate(games):
            path = tmp_path / f"g{i}.json"
            path.write_text(json.dumps(dump_finite_game(g)), encoding="utf-8")
            main(["solve", str(path), "--lambda"])
            a = analyze(g)
            xg = a.extended_game
            rows = [f"  {name}  {label}" for name, label in zip(xg.game.vertex_names, a.lambda_star)]
            expected = ["labeling fixpoint:", *rows, f"iterations to fixpoint: {a.k_star}"]
            assert capsys.readouterr().out.splitlines()[1:] == expected

    def test_oracle_agreement(self, fork_file, capsys):
        assert main(["solve", fork_file, "--player", "0=win", "--oracle"]) == 0
        assert "oracle: AGREE" in capsys.readouterr().out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        blocked = json.loads(json.dumps(FORK_GAME))
        blocked["edges"] = blocked["edges"][:3]  # C loses its self-loop
        path.write_text(json.dumps(blocked), encoding="utf-8")
        # FiniteGame rejects a blocking vertex as the loader builds it, so
        # the message carries the file name as every load fault does
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: vertex 'C' has no outgoing edge (blocking)\n")

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "/nonexistent.json"]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(FORK_GAME).replace("A", "\u00c4").encode("latin-1"))
        assert main(["solve", str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_huge_integer_literal_exit_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"players": ' + "9" * 5000 + "}", encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, document, edit", [
        ("solve", FORK_GAME, lambda doc, name: doc["vertices"].extend([{"name": name, "owner": 0}] * 2)),
        ("solve", FORK_GAME, lambda doc, name: doc["edges"][0].update(letter=name)),
        ("solve-timed", ONE_CLOCK_PPTA, lambda doc, name: doc["locations"].extend([{"name": name, "owner": 0}] * 2)),
    ], ids=["vertex", "letter", "location"])
    def test_quoted_control_characters_keep_one_error_line(self, command, document, edit, tmp_path, capsys):
        # a duplicate vertex, an unknown letter, a duplicate location
        doc = json.loads(json.dumps(document))
        edit(doc, "q\n\r\x1b")
        path = tmp_path / "names.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")
        assert "'q\\n\\r\\x1b'" in err

    def test_module_entry_point(self, fork_file):
        src = Path(spe_reach.__file__).parent.parent
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for spec, status, first in (("0=win", 0, "YES"), ("0=lose", 1, "NO")):
            run = subprocess.run(
                [sys.executable, "-m", "spe_reach", "solve", fork_file, "--player", spec],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert run.returncode == status, run.stderr
            assert run.stdout.splitlines()[0] == first

    def test_import_leaves_out_test_helpers(self):
        # the concrete-valuation helpers live in the tests, and the oracle
        # and timed modules are loaded only on demand; importing the CLI
        # must pull in none of them, which would add to every solve. The
        # records are tuples, so dataclasses (and the inspect module it
        # loads) stays out of solve and solve-timed alike
        src = Path(spe_reach.__file__).parent.parent
        for module, absent in (
            ("spe_reach.cli", ("fractions", "spe_reach.oracle", "spe_reach.timed", "dataclasses", "inspect")),
            ("spe_reach.timed", ("fractions", "spe_reach.oracle", "dataclasses", "inspect")),
        ):
            code = f"import {module}, sys; print([m for m in {absent!r} if m in sys.modules])"
            run = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
            )
            assert run.returncode == 0, run.stderr
            assert run.stdout.strip() == "[]", module

    def test_every_export_resolves(self):
        # a removed member must not leave a stale name behind in __all__
        names = spe_reach.__all__
        assert len(set(names)) == len(names)
        assert spe_reach._TIMED_NAMES <= set(names)
        assert [name for name in names if not hasattr(spe_reach, name)] == []

    def test_leaves_the_game_view_unbuilt(self, fork_file, monkeypatch, capsys):
        decisions = []
        original = cli.decide_constrained_existence

        def decide(*args, **kwargs):
            decisions.append(original(*args, **kwargs))
            return decisions[-1]

        monkeypatch.setattr(cli, "decide_constrained_existence", decide)
        assert main(["solve", fork_file, "--witness", "--lambda"]) == 0
        assert "  A|{}  1\n  B|{0}  1\n  C|{}  0\n" in capsys.readouterr().out
        assert "game" not in decisions[0].extended_game.__dict__

    @pytest.mark.parametrize("command", ["solve", "solve-timed"])
    def test_leaves_the_edge_triples_unbuilt(self, command, fork_file, one_clock_file, monkeypatch, capsys):
        # the solve path reads the per-vertex edge rows only; the flat
        # edges view is for dumps and tools
        decisions = []
        original = cli.decide_constrained_existence

        def decide(*args, **kwargs):
            decisions.append(original(*args, **kwargs))
            return decisions[-1]

        monkeypatch.setattr(cli, "decide_constrained_existence", decide)
        source = fork_file if command == "solve" else one_clock_file
        assert main([command, source, "--witness", "--lambda"]) == 0
        assert "edges" not in decisions[0].extended_game.base.__dict__

    @pytest.mark.slow
    def test_oracle_skips_a_game_with_too_many_lassos(self, complete_file):
        run = run_cli(["solve", complete_file, "--oracle"], timeout=10)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "YES",
            "oracle: skipped (more than 500000 lassos to enumerate)",
        ]

    def test_oracle_skips_a_game_past_the_vertex_bound(self, k10_file, capsys):
        assert main(["solve", k10_file, "--oracle"]) == 0
        out, err = capsys.readouterr()
        assert out == "YES\noracle: skipped (extended game too large)\n"
        assert err == ""

    def test_many_players_answer_fast(self, tmp_path):
        # one vertex that is a target of every player: the profile scan must
        # not walk all 2^30 masks; a subprocess turns a hang into a failure
        def one_vertex(players):
            game = {
                "players": players,
                "alphabet": ["a"],
                "vertices": [{"name": "A", "owner": 0}],
                "edges": [{"from": "A", "letter": "a", "to": "A"}],
                "targets": [["A"]] * players,
                "initial": "A",
            }
            path = tmp_path / f"one_{players}.json"
            path.write_text(json.dumps(game), encoding="utf-8")
            return str(path)

        src = Path(spe_reach.__file__).parent.parent
        flags = ["--player", "0=win", "--player", "2=any", "--witness", "--lambda"]
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "spe_reach", "solve", one_vertex(30), *flags],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=10,
        )
        assert time.perf_counter() - start < 1.0
        small = build_extended_game(load_finite_game(one_vertex(3)))
        c = ConstraintProfile.from_words(["win", "any", "any"])
        expected = any(map(c.admits, oracle_outcomes(small)))
        assert run.returncode == (0 if expected else 1), run.stderr
        assert f"witness gain: ({','.join(['1'] * 30)})" in run.stdout
        assert f"A|{{{','.join(map(str, range(30)))}}}  1" in run.stdout

    def test_player_help_names_the_accepted_words(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "--player I=win|lose|any" in capsys.readouterr().out

    def test_bad_player_flag_exit_2(self, fork_file, capsys):
        assert main(["solve", fork_file, "--player", "9=win"]) == 2
        assert main(["solve", fork_file, "--player", "0=maybe"]) == 2

    @pytest.mark.parametrize("token, message", [
        ("0win", "--player expects I=win|lose|any, got '0win'"),
        ("x=win", "--player: invalid player index 'x'"),
    ], ids=["no equals sign", "index not an integer"])
    def test_bad_player_flag_named(self, fork_file, capsys, token, message):
        assert main(["solve", fork_file, "--player", token]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_size_cap_exit_3(self, fork_file, monkeypatch, capsys):
        monkeypatch.setenv("SPE_REACH_MAX_EXT_VERTICES", "2")
        assert main(["solve", fork_file]) == 3
        assert "cap" in capsys.readouterr().err


class TestSolveTimedCommand:
    def test_one_clock_win(self, one_clock_file, capsys):
        assert main(["solve-timed", one_clock_file, "--player", "0=win"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "YES"

    def test_one_clock_lose(self, one_clock_file, capsys):
        assert main(["solve-timed", one_clock_file, "--player", "0=lose"]) == 1

    def test_zero_clock_matches_finite(self, tmp_path, fork_file, capsys):
        ppta = tmp_path / "fork-timed.json"
        ppta.write_text(json.dumps(ZERO_CLOCK_PPTA), encoding="utf-8")
        for spec in ("0=win", "0=lose", "0=any"):
            timed = main(["solve-timed", str(ppta), "--player", spec])
            finite = main(["solve", fork_file, "--player", spec])
            assert timed == finite

    def test_witness_uses_region_names(self, one_clock_file, capsys):
        main(["solve-timed", one_clock_file, "--player", "0=win", "--witness"])
        out = capsys.readouterr().out
        assert "l1|" in out

    def test_regions_flag_emits_game(self, one_clock_file, capsys):
        main(["solve-timed", one_clock_file, "--regions"])
        out = capsys.readouterr().out
        assert "region game:" in out
        payload = json.loads(out.split("region game:\n", 1)[1])
        assert len(payload["vertices"]) == 6

    def test_oracle_flag(self, one_clock_file, capsys):
        assert main(["solve-timed", one_clock_file, "--player", "0=win", "--oracle"]) == 0
        assert "oracle: AGREE" in capsys.readouterr().out

    def test_oracle_flag_on_positions_no_move_reaches(self, tmp_path, capsys):
        # the oracle reads the full successor rows, which the solver never
        # builds; this region game has 10 vertices on 15 positions
        path = tmp_path / "guarded.json"
        path.write_text(json.dumps(GUARDED_PPTA), encoding="utf-8")
        game = cli.build_region_game(load_ppta(path)).game
        assert len(game.out_edges) > game.n_vertices
        for spec in ("0=win", "0=lose", "1=win", "1=lose"):
            main(["solve-timed", str(path), "--player", spec, "--oracle"])
            assert capsys.readouterr().out.splitlines()[-1] == "oracle: AGREE"

    def test_deadlock_exit_2(self, tmp_path, capsys):
        broken = json.loads(json.dumps(ONE_CLOCK_PPTA))
        # l2 only admits b while c is exactly 0, which never holds on arrival
        broken["transitions"][3]["guard"] = [{"clock": "c", "op": "eq", "const": 0}]
        path = tmp_path / "deadlock.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["solve-timed", str(path)]) == 2
        err = capsys.readouterr().err
        assert "l2" in err and "deadlock" in err

    def test_region_cap_exit_3(self, tmp_path, monkeypatch, capsys):
        # waiting for x >= 3,000,000 spans a chain of about 6M clock regions
        long_wait = {
            "players": 1,
            "alphabet": ["a"],
            "clocks": ["x"],
            "locations": [{"name": "l0", "owner": 0}],
            "transitions": [
                {"from": "l0", "letter": "a", "guard": [{"clock": "x", "op": "ge", "const": 3_000_000}], "reset": [], "to": "l0"},
            ],
            "goals": [["l0"]],
            "initial": "l0",
        }
        path = tmp_path / "long-wait.json"
        path.write_text(json.dumps(long_wait), encoding="utf-8")
        monkeypatch.setenv("SPE_REACH_MAX_REGIONS", "1000")
        assert main(["solve-timed", str(path)]) == 3
        assert "cap of 1000 clock regions" in capsys.readouterr().err


    def test_region_limit_is_its_own(self, one_clock_file, monkeypatch, capsys):
        # the game has 6 vertices over the 4 clock regions of one clock
        # compared against 1
        monkeypatch.setenv("SPE_REACH_MAX_REGIONS", "3")
        assert main(["solve-timed", one_clock_file]) == 3
        assert capsys.readouterr().err == "error: region game would exceed the cap of 3 clock regions\n"
        monkeypatch.setenv("SPE_REACH_MAX_REGIONS", "4")
        assert main(["regions", one_clock_file]) == 0
        monkeypatch.setenv("SPE_REACH_MAX_EXT_VERTICES", "5")
        assert main(["regions", one_clock_file]) == 3
        assert capsys.readouterr().err.endswith("error: region game would exceed the cap of 5 vertices\n")

    @pytest.mark.parametrize("raw", ["0", "-3", "many"])
    def test_bad_region_limit_exit_2(self, one_clock_file, monkeypatch, capsys, raw):
        monkeypatch.setenv("SPE_REACH_MAX_REGIONS", raw)
        assert main(["regions", one_clock_file]) == 2
        assert capsys.readouterr().err.startswith("error: SPE_REACH_MAX_REGIONS must be")


class TestRegionsCommand:
    def test_emits_json(self, one_clock_file, capsys):
        assert main(["regions", one_clock_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["vertices"]) == 6
        assert len(payload["edges"]) == 15

    def test_output_file(self, one_clock_file, tmp_path):
        out = tmp_path / "regions.json"
        assert main(["regions", one_clock_file, "--output", str(out)]) == 0
        assert len(json.loads(out.read_text(encoding="utf-8"))["edges"]) == 15

    def test_output_into_missing_directory_exit_2(self, one_clock_file, tmp_path, capsys):
        out = tmp_path / "missing" / "regions.json"
        assert main(["regions", one_clock_file, "--output", str(out)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_round_trip_matches_solve_timed(self, one_clock_file, tmp_path, capsys):
        out = tmp_path / "rg.json"
        main(["regions", one_clock_file, "--output", str(out)])
        capsys.readouterr()
        for spec in ("0=win", "0=lose", "0=any"):
            direct = main(["solve-timed", one_clock_file, "--player", spec])
            via_file = main(["solve", str(out), "--player", spec])
            assert direct == via_file

    def test_round_trip_two_players(self, tmp_path, capsys):
        ppta = tmp_path / "handover.json"
        ppta.write_text(json.dumps(TWO_CLOCK_PPTA), encoding="utf-8")
        out = tmp_path / "rg.json"
        main(["regions", str(ppta), "--output", str(out)])
        capsys.readouterr()
        for w0 in ("win", "lose", "any"):
            for w1 in ("win", "lose", "any"):
                flags = ["--player", f"0={w0}", "--player", f"1={w1}"]
                direct = main(["solve-timed", str(ppta)] + flags)
                via_file = main(["solve", str(out)] + flags)
                assert direct == via_file


class TestOracleCheckCommand:
    def test_too_many_extended_vertices_exit_2(self, k10_file, capsys):
        assert main(["oracle-check", k10_file]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: extended game has 68 vertices; the oracle only handles up to 64\n"

    @pytest.mark.slow
    def test_too_many_lassos_exit_2(self, complete_file):
        run = run_cli(["oracle-check", complete_file], timeout=10)
        assert run.returncode == 2
        assert run.stdout == ""
        assert "more than 500000 lassos" in run.stderr

    @pytest.mark.slow
    def test_cycle_search_stays_where_it_can_return(self, layered_file):
        # a cycle search that walked every path from a head it cannot
        # return to would run for hours before counting a single lasso
        run = run_cli(["oracle-check", layered_file], timeout=60)
        assert run.returncode == 2
        assert run.stdout == ""
        assert "more than 500000 lassos" in run.stderr

    def test_agreement(self, fork_file, capsys):
        assert main(["oracle-check", fork_file, "--player", "0=win"]) == 0
        out = capsys.readouterr().out
        assert "solver: YES" in out
        assert "oracle: YES" in out
        assert "AGREE" in out

    def test_agreement_on_no(self, fork_file, capsys):
        assert main(["oracle-check", fork_file, "--player", "0=lose"]) == 0
        out = capsys.readouterr().out
        assert "solver: NO" in out


class TestClosedStdout:
    """A reader that stops early (``| head -1``) must not turn the answer into a traceback."""

    @pytest.mark.parametrize("command", ["solve", "regions"])
    def test_exit_status_survives_a_closed_pipe(self, command, tmp_path):
        if command == "solve":
            # a YES ring whose --lambda output overflows the pipe buffer
            names = [f"v{i}" for i in range(10_000)]
            spec = {
                "players": 1,
                "alphabet": ["a"],
                "vertices": [{"name": v, "owner": 0} for v in names],
                "edges": [
                    {"from": v, "letter": "a", "to": names[(i + 1) % len(names)]}
                    for i, v in enumerate(names)
                ],
                "targets": [[names[5_000]]],
                "initial": "v0",
            }
            args = ["--lambda"]
        else:
            # waiting up to c = 100 reaches 201 clock regions: about 1.8 MB of JSON
            spec = dict(ONE_CLOCK_PPTA)
            spec["transitions"] = [
                {"from": "l0", "letter": "a", "guard": [], "reset": [], "to": "l0"},
                {"from": "l0", "letter": "b", "guard": [{"clock": "c", "op": "ge", "const": 100}], "reset": [], "to": "l1"},
                {"from": "l1", "letter": "a", "guard": [], "reset": [], "to": "l1"},
            ]
            args = []
        path = tmp_path / "input.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        src = Path(spe_reach.__file__).parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "spe_reach", command, str(path), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert first == (b"YES\n" if command == "solve" else b"{\n")


class TestUnencodableNames:
    """A name that stdout cannot encode is written as backslash escapes, as
    stderr writes it, so the answer's exit code survives the output; a
    region game is JSON, so there the escape is JSON's own."""

    @pytest.mark.parametrize("args, suffix, encoding", [
        # a lone surrogate is valid JSON, but UTF-8 cannot encode it
        *((args, "\ud800", "utf-8") for args in (
            ["solve", "fork.json", "--witness"],
            ["solve", "fork.json", "--lambda"],
            ["solve-timed", "choice.json", "--lambda"],
            ["regions", "choice.json"],
            ["regions", "choice.json", "--output", "regions.json"],
        )),
        # on an ASCII stdout, any name outside ASCII; the --output file is
        # always UTF-8, which encodes these
        *((args, "\xe9", "ascii") for args in (
            ["solve", "fork.json", "--witness"],
            ["solve", "fork.json", "--lambda"],
            ["solve-timed", "choice.json", "--lambda"],
            ["regions", "choice.json"],
        )),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_exit_code_is_the_answers(self, tmp_path, args, suffix, encoding):
        doc, name = (FORK_GAME, "B") if args[1] == "fork.json" else (ONE_CLOCK_PPTA, "l1")
        text = json.dumps(doc).replace(json.dumps(name), json.dumps(name + suffix))
        (tmp_path / args[1]).write_text(text, encoding="utf-8")
        src = Path(spe_reach.__file__).parent.parent
        run = subprocess.run(
            [sys.executable, "-m", "spe_reach", *args], cwd=tmp_path, capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING=encoding), timeout=60,
        )
        assert (run.returncode, run.stderr) == (0, b"")
        written = (tmp_path / "regions.json").read_bytes() if "--output" in args else run.stdout
        if args[0] == "regions":
            assert json.dumps(name + suffix)[1:-1].encode() in written
            # a JSON string escape reads back as the name itself
            names = [v["name"] for v in json.loads(written)["vertices"]]
            assert any(v.startswith(name + suffix + "|") for v in names)
        else:
            assert (name + suffix).encode(encoding, "backslashreplace") in written


class TestBenchmarkTracer:
    """The benchmark's tracer wraps solver functions by module attribute and
    skips any it cannot find, so a renamed entry point would read 0 there
    instead of failing; every layer it wraps must still show up."""

    LAYERS = {
        "jsonio.load", "extended.build",
        "fixpoint.lambda", "fixpoint.witness", "fixpoint.decide",
    }

    @pytest.mark.parametrize(
        "command, fixture, flags, extra",
        [
            ("solve", "fork_file", ["--witness", "--lambda"], set()),
            ("solve-timed", "one_clock_file", ["--witness"], {"timed.region_build"}),
        ],
    )
    def test_every_layer_is_traced(self, command, fixture, flags, extra, request, tmp_path):
        src = Path(spe_reach.__file__).parent.parent
        child = src.parent / "perfbench" / "child.py"
        trace = tmp_path / "trace.json"
        run = subprocess.run(
            [sys.executable, str(child), "cli", str(trace), "--",
             command, request.getfixturevalue(fixture), *flags],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[0] == "YES"
        data = json.loads(trace.read_text(encoding="utf-8"))
        assert {span[0] for span in data["spans"]} >= self.LAYERS | extra
        assert data["counts"]["fixpoint.lambda_steps"] >= 1
        assert data["counts"]["fixpoint.profiles_tried"] >= 1
