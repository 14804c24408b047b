import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaning_games import (
    Content,
    InvalidGameError,
    MeaningGame,
    Message,
    Prior,
    ReceiverStrategy,
    SenderStrategy,
    Turn,
    UtilityModel,
    equalize_utilities,
    expected_utility,
    is_cheap_talk,
    success_probability,
    utility,
    validate_game,
)
from generators import message_cost_game, pronoun_game, random_valid_game

from oracle import turn_utility


def left_profile():
    s = SenderStrategy.deterministic({"fred": "he", "max": "the man"})
    r = ReceiverStrategy.deterministic({"he": "fred", "the man": "max"})
    return s, r


def right_profile():
    s = SenderStrategy.deterministic({"fred": "the man", "max": "he"})
    r = ReceiverStrategy.deterministic({"he": "max", "the man": "fred"})
    return s, r


class TestValidateGame:
    def test_complete_two_by_two_is_clean(self):
        report = validate_game(pronoun_game())
        assert report.errors == ()
        assert report.ok

    def test_prior_not_summing_to_one(self):
        g = pronoun_game()
        bad = replace(g, prior=Prior({"fred": 0.6, "max": 0.3}))
        report = validate_game(bad)
        assert any("prior" in e for e in report.errors)

    def test_content_without_edges(self):
        g = pronoun_game()
        costs = {k: v for k, v in g.utility.sender_cost.items() if k[0] != "max"}
        bad = MeaningGame(
            g.contents,
            g.messages,
            g.prior,
            replace(g.utility, sender_cost=costs),
        )
        report = validate_game(bad)
        assert any("max" in e and "grammatical" in e for e in report.errors)

    def test_negative_cost_rejected(self):
        g = pronoun_game()
        costs = dict(g.utility.sender_cost)
        costs[("fred", "he")] = -0.1
        report = validate_game(
            replace(g, utility=replace(g.utility, sender_cost=costs))
        )
        assert any("negative" in e for e in report.errors)

    @pytest.mark.parametrize(
        "field",
        [
            "prior",
            "sender_cost",
            "receiver_cost",
            "sender_bonus",
            "receiver_bonus",
            "bonus_overlap",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, field, value):
        g = pronoun_game()
        u = g.utility
        changed = {
            "prior": lambda: replace(g, prior=Prior({"fred": value, "max": 0.4})),
            "sender_cost": lambda: replace(
                g,
                utility=replace(u, sender_cost={**u.sender_cost, ("fred", "he"): value}),
            ),
            "receiver_cost": lambda: replace(
                g,
                utility=replace(
                    u, receiver_cost={**u.receiver_cost, ("he", "fred"): value}
                ),
            ),
            "sender_bonus": lambda: replace(
                g, utility=replace(u, shared=False, sender_bonus=value)
            ),
            "receiver_bonus": lambda: replace(
                g, utility=replace(u, shared=False, receiver_bonus=value)
            ),
            "bonus_overlap": lambda: replace(
                g,
                utility=replace(
                    u,
                    bonus_overlap={
                        ("fred", "fred"): (1.0, value),
                        ("max", "max"): (1.0, 1.0),
                    },
                ),
            ),
        }[field]()
        report = validate_game(changed)
        assert any("finite" in e for e in report.errors)

    def test_weak_bonus_warns(self):
        report = validate_game(pronoun_game(bonus=0.3))
        assert report.ok
        assert any("dominate" in w for w in report.warnings)


class TestUtility:
    def test_matching_turn_pays_bonus_minus_cost(self):
        g = message_cost_game(
            {"fred": 0.6, "max": 0.4}, {"he": 0.0, "the man": 0.5}, 1.0, shared=False
        )
        assert utility(g, Turn("fred", "he", "fred"), "S") == pytest.approx(1.0)

    def test_mismatched_turn_never_positive(self):
        g = pronoun_game()
        for m in ("he", "the man"):
            assert utility(g, Turn("fred", m, "max"), "S") <= 0.0
            assert utility(g, Turn("fred", m, "max"), "R") <= 0.0

    def test_zero_costs_matching_turn_is_exactly_bonus(self):
        g = message_cost_game({"a": 1.0}, {"m": 0.0}, 0.75)
        assert utility(g, Turn("a", "m", "a"), "S") == pytest.approx(0.75)

    def test_unknown_ids_rejected(self):
        g = pronoun_game()
        with pytest.raises(InvalidGameError):
            utility(g, Turn("fred", "she", "fred"), "S")
        with pytest.raises(InvalidGameError):
            utility(g, Turn("bob", "he", "fred"), "S")


# One invalid strategy per validation error, in place of one side of the
# pronoun game's left profile: (player, its rows, the exact error text).
BAD_ROWS = [
    ("S", {"fred": {"he": 1.0}}, "sender strategy rows do not match the content set"),
    ("S", {"fred": {"he": 0.5}, "max": {"he": 1.0}}, "sender row for 'fred' sums to 0.5"),
    (
        "S",
        {"fred": {"he": 1.5, "the man": -0.5}, "max": {"he": 1.0}},
        "sender row for 'fred' has negative mass",
    ),
    (
        "S",
        {"fred": {"she": 1.0}, "max": {"he": 1.0}},
        "sender row for 'fred' puts mass on ungrammatical 'she'",
    ),
    ("R", {"he": {"fred": 1.0}}, "receiver strategy rows do not match the messages with edges"),
    ("R", {"he": {"fred": 0.25}, "the man": {"max": 1.0}}, "receiver row for 'he' sums to 0.25"),
    (
        "R",
        {"he": {"fred": 2.0, "max": -1.0}, "the man": {"max": 1.0}},
        "receiver row for 'he' has negative mass",
    ),
    (
        "R",
        {"he": {"bob": 1.0}, "the man": {"max": 1.0}},
        "receiver row for 'he' puts mass on ungrammatical 'bob'",
    ),
]


class TestExpectedUtility:
    @pytest.mark.parametrize("player, rows, text", BAD_ROWS, ids=[c[2] for c in BAD_ROWS])
    def test_invalid_strategy_is_refused_with_its_text(self, player, rows, text):
        s, r = left_profile()
        if player == "S":
            s = SenderStrategy(rows)
        else:
            r = ReceiverStrategy(rows)
        for evaluate in (expected_utility, success_probability):
            args = (pronoun_game(), s, r) + (("S",) if evaluate is expected_utility else ())
            with pytest.raises(InvalidGameError) as refused:
                evaluate(*args)
            assert str(refused.value) == text

    def test_message_utilities_weighted_by_prior(self):
        # Message utilities enter as negated costs; with no success bonus the
        # matched play earns P1*U1 + P2*U2.
        g = MeaningGame(
            (Content("fred"), Content("max")),
            (Message("he"), Message("the man")),
            Prior({"fred": 0.6, "max": 0.4}),
            UtilityModel(
                0.0,
                0.0,
                {(c, m): cost for c in ("fred", "max") for m, cost in (("he", -1.0), ("the man", -0.5))},
                {(m, c): cost for c in ("fred", "max") for m, cost in (("he", -1.0), ("the man", -0.5))},
                shared=True,
            ),
        )
        s, r = left_profile()
        assert expected_utility(g, s, r, "S") == pytest.approx(0.8)
        s, r = right_profile()
        assert expected_utility(g, s, r, "S") == pytest.approx(0.7)

    def test_deterministic_matched_zero_cost(self):
        g = message_cost_game(
            {"fred": 0.6, "max": 0.4}, {"he": 0.0, "the man": 0.0}, 1.0
        )
        s, r = left_profile()
        assert expected_utility(g, s, r, "S") == pytest.approx(1.0)

    def test_two_by_two_example_values(self):
        g = pronoun_game(p1=0.6, k_light=0.0, k_heavy=0.5, bonus=0.0)
        s, r = left_profile()
        assert expected_utility(g, s, r, "S") == pytest.approx(-0.2)
        s, r = right_profile()
        assert expected_utility(g, s, r, "S") == pytest.approx(-0.3)

    def test_dimension_mismatch_rejected(self):
        g = pronoun_game()
        s = SenderStrategy.deterministic({"fred": "he"})
        _, r = left_profile()
        with pytest.raises(InvalidGameError):
            expected_utility(g, s, r, "S")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_affine_in_a_single_row(self, seed, lam):
        rng = random.Random(seed)
        g = random_valid_game(rng, max_size=3)
        cid = rng.choice(g.content_ids())
        options = g.messages_for(cid)
        rows = {c: {rng.choice(g.messages_for(c)): 1.0} for c in g.content_ids()}
        r = ReceiverStrategy(
            {
                m: {rng.choice(g.contents_for(m)): 1.0}
                for m in g.message_ids()
                if g.contents_for(m)
            }
        )
        row_a = {options[0]: 1.0}
        row_b = {options[-1]: 1.0}
        blend = {}
        for m in set(row_a) | set(row_b):
            blend[m] = (1 - lam) * row_a.get(m, 0.0) + lam * row_b.get(m, 0.0)
        eu = {}
        for tag, row in (("a", row_a), ("b", row_b), ("mix", blend)):
            s = SenderStrategy({**rows, cid: row})
            eu[tag] = expected_utility(g, s, r, "S")
        assert eu["mix"] == pytest.approx((1 - lam) * eu["a"] + lam * eu["b"], abs=1e-9)


class TestSuccessProbability:
    def test_full_success_profiles(self):
        g = pronoun_game()
        for profile in (left_profile(), right_profile()):
            assert success_probability(g, *profile) == pytest.approx(1.0)

    def test_uniform_receiver_halves_any_prior(self):
        for p1 in (0.5, 0.6, 0.9):
            g = pronoun_game(p1=p1)
            s, _ = left_profile()
            r = ReceiverStrategy(
                {
                    "he": {"fred": 0.5, "max": 0.5},
                    "the man": {"fred": 0.5, "max": 0.5},
                }
            )
            assert success_probability(g, s, r) == pytest.approx(0.5)

    def test_single_pair_game(self):
        g = message_cost_game({"a": 1.0}, {"m": 0.1}, 1.0)
        s = SenderStrategy.deterministic({"a": "m"})
        r = ReceiverStrategy.deterministic({"m": "a"})
        assert success_probability(g, s, r) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounded_and_one_iff_perfect_routing(self, seed):
        rng = random.Random(seed)
        g = random_valid_game(rng, max_size=3)
        smap = {c: rng.choice(g.messages_for(c)) for c in g.content_ids()}
        rmap = {
            m: rng.choice(g.contents_for(m))
            for m in g.message_ids()
            if g.contents_for(m)
        }
        s = SenderStrategy.deterministic(smap)
        r = ReceiverStrategy.deterministic(rmap)
        p = success_probability(g, s, r)
        assert -1e-12 <= p <= 1.0 + 1e-12
        routed = all(
            rmap[smap[c]] == c for c in g.content_ids() if g.prior[c] > 0.0
        )
        assert routed == (p > 1.0 - 1e-9)


class TestEqualizeUtilities:
    def test_identical_models_are_a_fixed_point(self):
        g = pronoun_game()  # shared already
        assert equalize_utilities(g) is g

    def test_effective_cost_is_the_mean(self):
        g = MeaningGame(
            (Content("a"), Content("b")),
            (Message("m"), Message("n")),
            Prior({"a": 0.5, "b": 0.5}),
            UtilityModel(
                1.0,
                1.0,
                {("a", "m"): 0.2, ("a", "n"): 0.1, ("b", "m"): 0.3, ("b", "n"): 0.0},
                {("m", "a"): 0.4, ("n", "a"): 0.5, ("m", "b"): 0.1, ("n", "b"): 0.2},
                shared=False,
            ),
        )
        eq = equalize_utilities(g)
        t = Turn("a", "m", "a")
        assert utility(eq, t, "S") == pytest.approx(1.0 - 0.3)
        assert utility(eq, t, "R") == pytest.approx(1.0 - 0.3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pointwise_mean_symmetry_idempotence(self, seed):
        rng = random.Random(seed)
        g = random_valid_game(rng, max_size=3, shared=False)
        eq = equalize_utilities(g)
        assert eq.utility.shared
        assert equalize_utilities(eq) == eq
        for c in g.content_ids():
            for m in g.messages_for(c):
                for a in g.contents_for(m):
                    t = Turn(c, m, a)
                    mean = (utility(g, t, "S") + utility(g, t, "R")) / 2.0
                    assert utility(eq, t, "S") == pytest.approx(mean, abs=1e-12)
                    assert utility(eq, t, "R") == pytest.approx(mean, abs=1e-12)


class TestIdTuples:
    def test_repeated_calls_return_the_same_tuple(self):
        g = pronoun_game()
        assert g.content_ids() is g.content_ids()
        assert g.message_ids() is g.message_ids()
        assert g.content_ids() == ("fred", "max")
        assert g.message_ids() == ("he", "the man")

    def test_cached_ids_are_not_fields(self):
        g = pronoun_game()
        assert pronoun_game() == g
        assert [f.name for f in fields(g)] == [
            "contents", "messages", "prior", "utility", "edges"
        ]
        assert "_content_ids" not in repr(g)

    def test_replace_reports_the_new_ids(self):
        g = pronoun_game()
        relabeled = replace(
            g,
            contents=(Content("max", "Max"), Content("fred", "Fred")),
            messages=(Message("the man"), Message("he")),
        )
        assert relabeled.content_ids() == ("max", "fred")
        assert relabeled.message_ids() == ("the man", "he")
        assert g.content_ids() == ("fred", "max")


class TestCheapTalk:
    def test_zero_costs_everywhere(self):
        g = message_cost_game({"a": 0.5, "b": 0.5}, {"m": 0.0, "n": 0.0}, 1.0)
        assert is_cheap_talk(g)

    def test_distinct_message_costs(self):
        assert not is_cheap_talk(pronoun_game())

    def test_content_level_costs_are_message_independent(self):
        cids, mids = ("a", "b"), ("m", "n")
        g = MeaningGame(
            tuple(Content(c) for c in cids),
            tuple(Message(m) for m in mids),
            Prior({"a": 0.5, "b": 0.5}),
            UtilityModel(
                1.0,
                1.0,
                {(c, m): {"a": 0.3, "b": 0.1}[c] for c in cids for m in mids},
                {(m, c): {"a": 0.2, "b": 0.4}[c] for c in cids for m in mids},
                shared=False,
            ),
        )
        assert is_cheap_talk(g)


class TestUtilityModelAgainstOracle:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_positive_utility_requires_a_match(self, seed):
        rng = random.Random(seed)
        g = random_valid_game(rng, max_size=3)
        for c in g.content_ids():
            for m in g.messages_for(c):
                for a in g.contents_for(m):
                    if a == c:
                        continue
                    assert utility(g, Turn(c, m, a), "S") <= 1e-12
                    assert utility(g, Turn(c, m, a), "R") <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_turn_utility_matches_independent_formula(self, seed):
        rng = random.Random(seed)
        g = random_valid_game(rng, max_size=3)
        for c in g.content_ids():
            for m in g.messages_for(c):
                for a in g.contents_for(m):
                    for player in ("S", "R"):
                        assert utility(g, Turn(c, m, a), player) == pytest.approx(
                            turn_utility(g, c, m, a, player), abs=1e-12
                        )

    def test_gap_identity_on_two_by_two(self):
        rng = random.Random(7)
        for _ in range(200):
            p1 = rng.uniform(0.51, 0.95)
            k1 = rng.uniform(0.0, 0.4)
            k2 = k1 + rng.uniform(0.01, 0.6)
            g = pronoun_game(p1=p1, k_light=k1, k_heavy=k2, bonus=0.0)
            s, r = left_profile()
            e1 = expected_utility(g, s, r, "S")
            s, r = right_profile()
            e2 = expected_utility(g, s, r, "S")
            gap = (p1 - (1 - p1)) * (k2 - k1)
            assert math.isclose(e1 - e2, gap, abs_tol=1e-9)
