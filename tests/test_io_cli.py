import json
import random
import warnings
from pathlib import Path

import pytest

from meaning_games import (
    ScenarioError,
    load_discourse,
    load_game,
    parse_discourse,
    parse_game,
    serialize_game,
    validate_game,
)
from meaning_games import cli
from meaning_games.cli import main
from generators import random_valid_game

PINNED = Path(__file__).parent / "data"


class TestLoadGame:
    def test_bundled_pronoun_game(self, fig2_path):
        g = load_game(fig2_path)
        assert g.content_ids() == ("fred", "max")
        assert g.message_ids() == ("he", "the man")
        assert g.prior["fred"] == pytest.approx(0.6)
        assert g.utility.sender_cost[("max", "the man")] == pytest.approx(0.5)
        assert g.utility.shared
        assert g.is_complete()
        assert validate_game(g).ok

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.game"
        path.write_text("")
        with pytest.raises(ScenarioError, match="empty"):
            load_game(path)

    def test_malformed_json_names_the_position(self, tmp_path):
        path = tmp_path / "broken.game"
        path.write_text('{"contents": [,]}')
        with pytest.raises(ScenarioError, match=r"broken\.game:1:"):
            load_game(path)

    def test_unnormalized_prior_normalizes_with_warning(self, tmp_path):
        path = tmp_path / "raw.game"
        path.write_text(
            json.dumps(
                {
                    "contents": [{"id": "a"}, {"id": "b"}],
                    "messages": [{"id": "m", "cost": 0.0}, {"id": "n", "cost": 0.1}],
                    "prior": {"a": 3, "b": 1},
                }
            )
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = load_game(path)
        assert g.prior["a"] == pytest.approx(0.75)
        assert g.prior["b"] == pytest.approx(0.25)
        assert any("normalized" in str(w.message) for w in caught)

    def test_excluded_pairs_are_ungrammatical(self, tmp_path):
        path = tmp_path / "holes.game"
        path.write_text(
            json.dumps(
                {
                    "contents": [{"id": "a"}, {"id": "b"}],
                    "messages": [{"id": "m", "cost": 0.0}, {"id": "n", "cost": 0.1}],
                    "prior": {"a": 0.5, "b": 0.5},
                    "exclude": [["a", "n"]],
                }
            )
        )
        g = load_game(path)
        assert ("a", "n") not in g.edges
        assert ("b", "n") in g.edges

    def test_invalid_game_is_rejected_with_the_violation(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text(
            json.dumps(
                {
                    "contents": [{"id": "a"}, {"id": "b"}],
                    "messages": [{"id": "m"}],
                    "prior": {"a": 0.5, "b": 0.5},
                    "sender_costs": {"a": {"m": 0.1}},
                    "receiver_costs": {"m": {"a": 0.1}},
                }
            )
        )
        with pytest.raises(ScenarioError, match="grammatical"):
            load_game(path)

    def test_round_trip_is_identical(self):
        rng = random.Random(21)
        for _ in range(25):
            g = random_valid_game(rng, max_size=3)
            again = parse_game(serialize_game(g)).game
            assert again == g
        g = load_game(
            __file__.replace("tests/test_io_cli.py", "src/meaning_games/data/fig2.game")
        )
        assert parse_game(serialize_game(g)).game == g

    def test_round_trip_preserves_bonus_overlap(self):
        from meaning_games import CompoundGame, ConstituentGame, Slot, flatten
        from generators import random_constituent

        rng = random.Random(22)
        cg = CompoundGame(
            (
                ConstituentGame(Slot("a"), random_constituent(rng, "a", False)),
                ConstituentGame(Slot("b"), random_constituent(rng, "b", False)),
            )
        )
        flat = flatten(cg).game
        assert parse_game(serialize_game(flat)).game == flat


class TestLoadDiscourse:
    def test_bundled_discourse(self, he_man_path):
        d = load_discourse(he_man_path)
        assert len(d.utterances) == 2
        assert d.utterances[0].is_resolved()
        assert [s.id for s in d.utterances[1].slots()] == ["u2_subj", "u2_obj"]

    def test_unknown_tags_rejected(self, tmp_path):
        path = tmp_path / "bad.disc"
        path.write_text(
            json.dumps(
                {
                    "entities": [{"id": "a"}],
                    "utterances": [
                        {
                            "realizations": [
                                {
                                    "entity": "a",
                                    "function": "topic",
                                    "form": "pronoun",
                                    "surface": "it",
                                }
                            ]
                        }
                    ],
                }
            )
        )
        with pytest.raises(ScenarioError, match="topic"):
            load_discourse(path)

    def test_no_slots_is_fine(self, tmp_path):
        path = tmp_path / "plain.disc"
        path.write_text(
            json.dumps(
                {
                    "entities": [{"id": "a"}],
                    "utterances": [
                        {
                            "realizations": [
                                {
                                    "entity": "a",
                                    "function": "subject",
                                    "form": "proper_name",
                                    "surface": "A",
                                }
                            ]
                        }
                    ],
                }
            )
        )
        d = load_discourse(path)
        assert all(u.is_resolved() for u in d.utterances)

    def test_incompatible_candidates_named(self, tmp_path):
        path = tmp_path / "mismatch.disc"
        path.write_text(
            json.dumps(
                {
                    "entities": [
                        {"id": "ann", "features": {"gender": "female"}},
                        {"id": "max", "features": {"gender": "male"}},
                    ],
                    "utterances": [
                        {
                            "realizations": [
                                {
                                    "slot": "s1",
                                    "function": "subject",
                                    "surface": "he",
                                    "options": [
                                        {
                                            "surface": "he",
                                            "form": "pronoun",
                                            "requires": {"gender": "male"},
                                        }
                                    ],
                                    "candidates": ["ann", "max"],
                                }
                            ]
                        }
                    ],
                }
            )
        )
        with pytest.raises(ScenarioError, match="s1"):
            load_discourse(path)

    def test_form_cost_ordering_enforced(self, tmp_path):
        path = tmp_path / "costs.disc"
        path.write_text(
            json.dumps(
                {
                    "entities": [{"id": "a"}],
                    "form_costs": {"pronoun": 0.9, "definite_np": 0.5},
                    "utterances": [],
                }
            )
        )
        with pytest.raises(ScenarioError, match="pronoun"):
            load_discourse(path)


GAME_SCHEMA_ERRORS = {
    "content_without_id": lambda d: d["contents"][0].pop("id"),
    "contents_not_a_list": lambda d: d.update(contents=5),
    "prior_as_a_list": lambda d: d.update(prior=[0.6, 0.4]),
    "non_numeric_cost": lambda d: d["messages"][0].update(cost="abc"),
}

# Fields whose wrong type used to be coerced into a quiet wrong game: a
# string "no" made the game common-interest, 1.5 or true became cap 1, and a
# true success bonus became 1.0.
MALFORMED_SHARED_OR_CAP = {
    "shared_as_a_string": {"shared": "no"},
    "shared_as_a_number": {"shared": 0},
    "shared_as_null": {"shared": None},
    "fractional_cap": {"cap": 1.5},
    "boolean_cap": {"cap": True},
    "negative_cap": {"cap": -1},
    "cap_as_a_string": {"cap": "10"},
    "boolean_success_bonus": {"success_bonus": True},
}

BAD_DISCOURSES = {
    "entity_without_id": lambda d: d["entities"][0].pop("id"),
    "negative_success_bonus": lambda d: d["config"].update(success_bonus=-1),
    "nan_cb_bonus": lambda d: d["config"].update(cb_bonus=float("nan")),
    "negative_cb_bonus": lambda d: d["config"].update(cb_bonus=-5),
    "inf_form_cost": lambda d: d["form_costs"].update(proper_name=float("inf")),
    "unknown_boost_form": lambda d: d["config"].update(boosts={"epithet": 2.0}),
    "unknown_realization_form": lambda d: d["utterances"][0]["realizations"][0].update(
        form="epithet"
    ),
    "unknown_function": lambda d: d["utterances"][1]["realizations"][0].update(
        function="topic"
    ),
    "surface_not_among_options": lambda d: d["utterances"][1]["realizations"][0].update(
        surface="she"
    ),
    "nan_option_cost": lambda d: d["utterances"][1]["realizations"][0]["options"][
        0
    ].update(cost=float("nan")),
    "negative_realization_cost": lambda d: d["utterances"][0]["realizations"][0].update(
        cost=-1
    ),
}


def _section(d):
    return d["compounds"][0]


def _rename_section_slot(d, old, new):
    """Rename a slot in the section only, consistently across its parts."""
    section = _section(d)
    section["slots"] = [new if s == old else s for s in section["slots"]]
    for table in [p["assigns"] for p in section["propositions"]] + [
        s["parts"] for s in section["sentences"]
    ]:
        table[new] = table.pop(old)


# Malformed compound sections and slot ids, applied to man_him.disc.
BAD_SECTIONS = {
    "nan_parallelism_penalty": lambda d: _section(d).update(
        parallelism_penalty=float("nan")
    ),
    "negative_parallelism_penalty": lambda d: _section(d).update(parallelism_penalty=-5),
    "nan_sentence_cost": lambda d: _section(d)["sentences"][0].update(cost=float("nan")),
    "nan_cost_override": lambda d: _section(d)["propositions"][0].update(
        cost_overrides={"man_angry_him": float("nan")}
    ),
    "nan_prior": lambda d: _section(d)["propositions"][0].update(prior=float("nan")),
    "inf_prior": lambda d: _section(d)["propositions"][0].update(prior=float("inf")),
    "negative_prior": lambda d: _section(d)["propositions"][0].update(prior=-0.5),
    "fractional_utterance": lambda d: _section(d).update(utterance=2.7),
    "boolean_utterance": lambda d: _section(d).update(utterance=True),
    "string_utterance": lambda d: _section(d).update(utterance="2"),
    "unlisted_utterance": lambda d: _section(d).update(utterance=9),
    "repeated_section": lambda d: d["compounds"].append(
        json.loads(json.dumps(_section(d)))
    ),
    "unlisted_section_slot": lambda d: _rename_section_slot(d, "u2_obj", "u2_zzz"),
    "repeated_section_slot": lambda d: _section(d)["slots"].append("u2_obj"),
    "section_on_resolved_utterance": lambda d: _section(d).update(utterance=1),
    "duplicate_slot_id": lambda d: d["utterances"][1]["realizations"][1].update(
        slot="u2_subj"
    ),
}


# Wrongly typed values: (bundled file, the keys down to the value, the value,
# the field path the error must name).  Each must be refused, not coerced into
# a different game.
U1_R0 = ("utterances", 1, "realizations", 0)
SECTION = ("compounds", 0)
WRONG_TYPES = [
    ("fig2.game", ("prior",), {"fred": "0.6", "max": True}, "prior['fred']"),
    ("fig2.game", ("prior", "max"), True, "prior['max']"),
    ("fig2.game", ("success_bonus",), {"receiver": "1"}, "success_bonus: receiver"),
    ("fig2.game", ("exclude",), ["ab"], "exclude[0]"),
    ("fig2.game", ("exclude",), [["fred", "he"], ["max", 1]], "exclude[1]"),
    ("fig2.game", ("contents", 0, "id"), None, "contents[0]: id"),
    ("fig2.game", ("contents", 1, "id"), 7, "contents[1]: id"),
    ("fig2.game", ("messages", 1, "label"), 2, "messages[1]: label"),
    ("fig2.game", ("messages", 0, "cost"), False, "messages[0]: cost"),
    (
        "fig2.game",
        ("sender_costs",),
        {"fred": {"he": "0"}},
        "sender_costs['fred']['he']",
    ),
    ("he_man.disc", ("config", "rank_weight"), "0.5", "config: rank_weight"),
    ("he_man.disc", ("config", "cb_bonus"), None, "config: cb_bonus"),
    ("he_man.disc", ("config", "boosts", "pronoun"), "2", "config: boosts['pronoun']"),
    ("he_man.disc", ("form_costs", "pronoun"), False, "form_costs['pronoun']"),
    ("he_man.disc", ("entities", 0, "id"), None, "entities[0]: id"),
    ("he_man.disc", ("entities", 1, "id"), 3, "entities[1]: id"),
    ("he_man.disc", ("entities", 0, "features", "number"), 1, "entities[0]: features"),
    (
        "he_man.disc",
        ("utterances", 0, "realizations", 1, "entity"),
        ["max"],
        "utterances[0]: realizations[1]: entity",
    ),
    (
        "he_man.disc",
        U1_R0 + ("function",),
        1,
        "utterances[1]: realizations[0]: function",
    ),
    (
        "he_man.disc",
        U1_R0 + ("candidates",),
        "fred",
        "utterances[1]: realizations[0]: candidates",
    ),
    (
        "he_man.disc",
        U1_R0 + ("options", 0, "cost"),
        True,
        "utterances[1]: realizations[0]: options[0]: cost",
    ),
    (
        "he_man.disc",
        U1_R0 + ("options", 1, "requires", "number"),
        None,
        "utterances[1]: realizations[0]: options[1]: requires",
    ),
    ("man_him.disc", SECTION + ("slots",), "u2_subj", "compounds[0]: slots"),
    (
        "man_him.disc",
        SECTION + ("sentences", 0, "cost"),
        False,
        "compounds[0]: sentences[0]: cost",
    ),
    (
        "man_him.disc",
        SECTION + ("sentences", 1, "parts", "u2_obj"),
        0,
        "compounds[0]: sentences[1]: parts",
    ),
    (
        "man_him.disc",
        SECTION + ("propositions", 1, "assigns", "u2_subj"),
        1,
        "compounds[0]: propositions[1]: assigns",
    ),
    (
        "man_him.disc",
        SECTION + ("propositions", 0, "prior"),
        "1",
        "compounds[0]: propositions[0]: prior",
    ),
    (
        "man_him.disc",
        SECTION + ("propositions", 0, "cost_overrides"),
        {"he_angry_man": True},
        "compounds[0]: propositions[0]: cost_overrides['he_angry_man']",
    ),
    # Containers of the wrong JSON type, empty ones included.
    ("fig2.game", ("contents",), 5, "contents"),
    ("fig2.game", ("messages", 1), "the man", "messages"),
    ("fig2.game", ("prior",), [0.6, 0.4], "prior"),
    ("fig2.game", ("exclude",), {"fred": "he"}, "exclude"),
    ("fig2.game", ("sender_costs",), {"fred": 0.1}, "sender_costs['fred']"),
    ("fig2.game", ("receiver_costs",), [], "receiver_costs"),
    ("fig2.game", ("bonus_overlap",), {"fred": {"fred": [1.0]}}, "bonus_overlap['fred']['fred']"),
    ("he_man.disc", ("config",), [], "config"),
    ("he_man.disc", ("config", "boosts"), [], "config: boosts"),
    ("he_man.disc", ("utterances",), {}, "utterances"),
    ("he_man.disc", ("entities",), {}, "entities"),
    ("he_man.disc", ("form_costs",), [], "form_costs"),
    ("he_man.disc", ("utterances", 1, "realizations"), {}, "utterances[1]: realizations"),
    ("he_man.disc", U1_R0 + ("options",), {}, "utterances[1]: realizations[0]: options"),
    ("man_him.disc", ("compounds",), {}, "compounds"),
    ("man_him.disc", SECTION + ("propositions",), {}, "compounds[0]: propositions"),
    ("man_him.disc", SECTION + ("sentences", 0), [], "compounds[0]: sentences"),
    (
        "man_him.disc",
        SECTION + ("propositions", 0, "cost_overrides"),
        [],
        "compounds[0]: propositions[0]: cost_overrides",
    ),
]


class TestCli:
    def test_predict_bundled_game(self, fig2_path, capsys):
        code = main(["predict", "--game", str(fig2_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "he: fred" in out
        assert "the man: max" in out

    def test_solve_reports_all_equilibria(self, fig2_path, capsys):
        code = main(["solve", "--game", str(fig2_path), "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["count"] == 3
        kinds = {e["kind"] for e in payload["equilibria"]}
        assert kinds == {"separating", "pooling"}

    def test_pareto_keeps_one(self, fig2_path, capsys):
        code = main(["pareto", "--game", str(fig2_path), "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["count"] == 1

    def test_resolve_reports_violation_and_attribution(self, man_him_path, capsys):
        code = main(["resolve", "--discourse", str(man_him_path), "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        by_slot = {a["slot"]: a for a in payload["assignments"]}
        assert by_slot["u2_subj"]["entity"] == "fred"
        assert by_slot["u2_obj"]["entity"] == "max"
        assert "parallelism" in by_slot["u2_subj"]["via"]
        assert len(payload["rule1_violations"]) == 1

    def test_resolve_without_parallelism_restores_the_matched_reading(
        self, man_him_path, capsys
    ):
        code = main(
            [
                "resolve",
                "--discourse",
                str(man_him_path),
                "--parallelism",
                "0",
                "--format",
                "machine",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        by_slot = {a["slot"]: a for a in payload["assignments"]}
        assert by_slot["u2_subj"]["entity"] == "max"
        assert by_slot["u2_obj"]["entity"] == "fred"
        assert payload["rule1_violations"] == []

    def test_machine_output_is_byte_stable(self, man_him_path, capsys):
        outputs = []
        for _ in range(2):
            main(["resolve", "--discourse", str(man_him_path), "--format", "machine"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_ambiguous_prediction_exit_code(self, tmp_path, capsys):
        path = tmp_path / "sym.game"
        path.write_text(
            json.dumps(
                {
                    "contents": [{"id": "a"}, {"id": "b"}],
                    "messages": [{"id": "m", "cost": 0.1}, {"id": "n", "cost": 0.1}],
                    "prior": {"a": 0.5, "b": 0.5},
                }
            )
        )
        assert main(["predict", "--game", str(path)]) == 3

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "junk.game"
        path.write_text("{nope")
        assert main(["validate", "--game", str(path)]) == 1
        err = capsys.readouterr().err
        assert "junk.game" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["predict", "--game", str(tmp_path / "absent.game")]) == 1

    def test_level_k_command(self, fig2_path, capsys):
        code = main(
            ["levelk", "--game", str(fig2_path), "--depth", "3", "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["fixed_point_level"] == 0
        assert payload["fixed_profile_is_equilibrium"] is True
        assert len(payload["levels"]) == 4

    def test_explain_command(self, fig2_path, capsys):
        code = main(["explain", "--game", str(fig2_path), "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["decomposition"]["gap"] == pytest.approx(0.1)

    def test_compound_command(self, man_him_path, capsys):
        code = main(
            ["compound", "--discourse", str(man_him_path), "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        section = payload["sections"]["2"]
        assert not section["ambiguous"]
        flags = {a["slot"]: a["locally_optimal"] for a in section["constituents"][0]}
        assert flags == {"sentence": True, "u2_subj": False, "u2_obj": False}
        readings = section["slot_readings"][0]
        assert readings["u2_subj"] == {"the man": "fred"}
        assert readings["u2_obj"] == {"him": "max"}
        assert readings["sentence"] == {"man_angry_him": "angry_fred_max"}

    def test_out_writes_machine_report(self, fig2_path, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["predict", "--game", str(fig2_path), "--out", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["command"] == "predict"

    def test_cap_environment_variable(self, fig2_path, capsys, monkeypatch):
        monkeypatch.setenv("MEANING_GAMES_CAP", "3")
        assert main(["solve", "--game", str(fig2_path)]) == 1
        assert "cap" in capsys.readouterr().err

    def test_malformed_cap_environment_variable(self, fig2_path, capsys, monkeypatch):
        monkeypatch.setenv("MEANING_GAMES_CAP", "abc")
        assert main(["solve", "--game", str(fig2_path)]) == 1
        assert "error: MEANING_GAMES_CAP='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "true", "-1", "ten"])
    def test_malformed_cap_flag_and_environment_exit_1(
        self, fig2_path, capsys, monkeypatch, value
    ):
        assert main(["solve", "--game", str(fig2_path), "--cap", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --cap={value!r}")
        assert "Traceback" not in err
        monkeypatch.setenv("MEANING_GAMES_CAP", value)
        assert main(["solve", "--game", str(fig2_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: MEANING_GAMES_CAP={value!r}")

    def test_cap_flag_echoes_an_integer(self, fig2_path, capsys):
        assert main(["solve", "--game", str(fig2_path), "--cap", "0"]) == 1
        capsys.readouterr()
        assert main(["solve", "--game", str(fig2_path), "--cap", "16"]) == 0
        capsys.readouterr()
        main(["solve", "--game", str(fig2_path), "--cap", "16", "--format", "machine"])
        assert json.loads(capsys.readouterr().out)["args"]["cap"] == 16

    @pytest.mark.parametrize("case", sorted(MALFORMED_SHARED_OR_CAP))
    def test_malformed_shared_or_cap_in_a_game_file(
        self, fig2_path, tmp_path, capsys, case
    ):
        data = json.loads(fig2_path.read_text())
        data.update(MALFORMED_SHARED_OR_CAP[case])
        field = next(iter(MALFORMED_SHARED_OR_CAP[case]))
        path = tmp_path / f"{case}.game"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=f"{field} must be"):
            load_game(path)
        assert main(["predict", "--game", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {field} must be")
        assert "Traceback" not in err

    def test_boolean_shared_and_integer_cap_load(self, fig2_path, tmp_path):
        data = json.loads(fig2_path.read_text())
        data.update(shared=False, cap=16)
        spec = parse_game(data)
        assert spec.cap == 16
        assert not spec.game.utility.shared
        del data["shared"]
        assert not parse_game(data).game.utility.shared

    @pytest.mark.parametrize("cap", [1.5, True, -1, "10", None])
    def test_malformed_discourse_config_cap(self, he_man_path, tmp_path, capsys, cap):
        data = json.loads(he_man_path.read_text())
        data["config"]["cap"] = cap
        path = tmp_path / "cap.disc"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="config: cap must be"):
            load_discourse(path)
        assert main(["resolve", "--discourse", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: config: cap must be")
        data["config"]["cap"] = 1000
        path.write_text(json.dumps(data))
        assert load_discourse(path).config.cap == 1000

    def test_negative_cb_bonus_is_refused_naming_its_field(self, he_man_path):
        data = json.loads(he_man_path.read_text())
        data["config"]["cb_bonus"] = -5.0
        with pytest.raises(ScenarioError, match="config: cb_bonus must be"):
            parse_discourse(data)
        data["config"]["cb_bonus"] = 0
        assert parse_discourse(data).config.cb_bonus == 0.0

    def test_non_finite_prior_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.game"
        path.write_text(
            json.dumps(
                {
                    "contents": [{"id": "a"}, {"id": "b"}],
                    "messages": [{"id": "m", "cost": 0.1}, {"id": "n", "cost": 0.2}],
                    "prior": {"a": float("nan"), "b": 0.5},
                }
            )
        )
        assert main(["predict", "--game", str(path)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(GAME_SCHEMA_ERRORS))
    def test_schema_error_exit_code(self, fig2_path, tmp_path, capsys, case):
        data = json.loads(fig2_path.read_text())
        GAME_SCHEMA_ERRORS[case](data)
        path = tmp_path / f"{case}.game"
        path.write_text(json.dumps(data))
        assert main(["predict", "--game", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_DISCOURSES))
    def test_bad_discourse_exit_code(self, he_man_path, tmp_path, capsys, case):
        data = json.loads(he_man_path.read_text())
        BAD_DISCOURSES[case](data)
        path = tmp_path / f"{case}.disc"
        path.write_text(json.dumps(data))
        assert main(["resolve", "--discourse", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_DISCOURSES))
    def test_bad_discourse_error_names_the_file(
        self, he_man_path, tmp_path, capsys, case
    ):
        data = json.loads(he_man_path.read_text())
        BAD_DISCOURSES[case](data)
        path = tmp_path / f"{case}.disc"
        path.write_text(json.dumps(data))
        assert main(["resolve", "--discourse", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["resolve", "compound"])
    @pytest.mark.parametrize("case", sorted(BAD_SECTIONS))
    def test_bad_section_fails_cleanly(
        self, man_him_path, tmp_path, capsys, case, command
    ):
        data = json.loads(man_him_path.read_text())
        BAD_SECTIONS[case](data)
        path = tmp_path / f"{case}.disc"
        path.write_text(json.dumps(data))
        assert main([command, "--discourse", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, keys, value, field", WRONG_TYPES, ids=[c[3] for c in WRONG_TYPES]
    )
    def test_wrongly_typed_value_is_refused_naming_its_field(
        self, fig2_path, tmp_path, capsys, name, keys, value, field
    ):
        data = json.loads((fig2_path.parent / name).read_text())
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / name
        path.write_text(json.dumps(data))
        if name.endswith(".game"):
            argv = ["predict", "--game", str(path)]
        else:
            command = "compound" if name == "man_him.disc" else "resolve"
            argv = [command, "--discourse", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {field} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ['{"success_bonus": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["overlong_integer", "deep_nesting"],
    )
    def test_undecodable_json_is_refused_naming_the_file(self, tmp_path, capsys, text):
        # ``json.loads`` raises these as a plain ValueError and a
        # RecursionError, not a JSONDecodeError.
        path = tmp_path / "bad.game"
        path.write_text(text)
        with pytest.raises(ScenarioError, match=r"bad\.game: "):
            load_game(path)
        assert main(["predict", "--game", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    def test_integer_numbers_load_as_their_float_spelling(
        self, fig2_path, man_him_path
    ):
        game = json.loads(fig2_path.read_text())
        game.update(prior={"fred": 3.0, "max": 2.0}, success_bonus=1.0)
        integers = json.loads(json.dumps(game))
        integers.update(prior={"fred": 3, "max": 2}, success_bonus=1)
        integers["messages"][0]["cost"] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert repr(parse_game(integers)) == repr(parse_game(game))

        discourse = json.loads(man_him_path.read_text())
        discourse["config"].update(cb_bonus=0.0, parallelism_penalty=1.0)
        discourse["compounds"][0].update(parallelism_penalty=0.0)
        integers = json.loads(json.dumps(discourse))
        integers["form_costs"]["pronoun"] = 0
        integers["config"].update(cb_bonus=0, parallelism_penalty=1, initial_salience=1)
        integers["config"]["boosts"]["proper_name"] = 1
        integers["compounds"][0].update(parallelism_penalty=0)
        integers["compounds"][0]["propositions"][0]["prior"] = 1
        integers["compounds"][0]["sentences"][0]["cost"] = 0
        assert repr(parse_discourse(integers)) == repr(parse_discourse(discourse))

    def test_validate_discourse(self, he_man_path, capsys):
        code = main(
            ["validate", "--discourse", str(he_man_path), "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["unresolved_slots"] == ["u2_subj", "u2_obj"]

    def test_table_output_skips_the_machine_rendering(
        self, fig2_path, monkeypatch, capsys
    ):
        def refuse(report):
            raise AssertionError("machine output rendered for a table run")

        monkeypatch.setattr(cli, "render_machine", refuse)
        assert main(["predict", "--game", str(fig2_path)]) == 0
        assert "he: fred" in capsys.readouterr().out

    def test_one_parser_serves_every_call_without_carrying_state(
        self, man_him_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(man_him_path.parent)
        parser = cli._parser()
        code = main(
            [
                "resolve",
                "--discourse",
                "man_him.disc",
                "--off-path",
                "uniform",
                "--cap",
                "1000000000",
                "--parallelism",
                "0.5",
                "--format",
                "machine",
            ]
        )
        assert code in (0, 3)
        assert json.loads(capsys.readouterr().out)["args"]["parallelism"] == 0.5
        with pytest.raises(SystemExit) as refused:
            main(["predict"])
        assert refused.value.code == 2
        capsys.readouterr()
        main(["resolve", "--discourse", "man_him.disc", "--format", "machine"])
        assert capsys.readouterr().out == (PINNED / "resolve.man_him.json").read_text()
        assert cli._parser() is parser
