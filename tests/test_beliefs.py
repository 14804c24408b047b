import math
from dataclasses import replace

import pytest

from meaning_games import (
    BeliefNode,
    Content,
    InvalidGameError,
    LevelKConfig,
    MeaningGame,
    Message,
    Prior,
    Profile,
    UtilityModel,
    consistency_check,
    is_equilibrium,
    level_k_strategies,
    prune_by_message,
    validate_game,
)
from generators import message_cost_game, pronoun_game


def top_map(strategy):
    return {k: max(row, key=row.get) for k, row in strategy.rows.items()}


# A pair of estimates with conflicting cost structure; the mutual
# simulation never settles (period-two cycle), found by randomized search.
OSCILLATING_ALPHABET = (
    ("c0", "c1", "c2"),
    ("m0", "m1", "m2"),
)
OSCILLATING_SENDER_GAME = MeaningGame(
    tuple(Content(c) for c in OSCILLATING_ALPHABET[0]),
    tuple(Message(m) for m in OSCILLATING_ALPHABET[1]),
    Prior({"c0": 6 / 31, "c1": 11 / 31, "c2": 14 / 31}),
    UtilityModel(
        0.81,
        0.51,
        {
            ("c2", "m0"): 0.27,
            ("c0", "m2"): 1.33,
            ("c1", "m2"): 2.64,
            ("c0", "m1"): 0.49,
            ("c2", "m2"): 0.14,
            ("c2", "m1"): 1.9,
        },
        {
            ("m0", "c2"): 0.48,
            ("m2", "c0"): 1.36,
            ("m2", "c1"): 0.64,
            ("m1", "c0"): 0.01,
            ("m2", "c2"): 1.28,
            ("m1", "c2"): 2.16,
        },
    ),
)
OSCILLATING_RECEIVER_GAME = MeaningGame(
    OSCILLATING_SENDER_GAME.contents,
    OSCILLATING_SENDER_GAME.messages,
    Prior({"c0": 8 / 22, "c1": 7 / 22, "c2": 7 / 22}),
    UtilityModel(
        1.19,
        1.67,
        {
            ("c2", "m0"): 2.89,
            ("c0", "m2"): 2.5,
            ("c1", "m2"): 1.8,
            ("c0", "m1"): 2.91,
            ("c2", "m2"): 0.61,
            ("c2", "m1"): 0.27,
        },
        {
            ("m0", "c2"): 1.35,
            ("m2", "c0"): 1.62,
            ("m2", "c1"): 2.7,
            ("m1", "c0"): 1.99,
            ("m2", "c2"): 2.36,
            ("m1", "c2"): 1.15,
        },
    ),
)


class TestLevelK:
    def test_shared_estimates_reach_an_equilibrium_fast(self):
        g = pronoun_game()
        result = level_k_strategies(g, g, LevelKConfig(depth=4))
        assert result.converged
        assert result.fixed_point_level <= 4
        s, r = result.fixed_profile()
        assert is_equilibrium(g, Profile(s, r))

    def test_depth_zero_is_exactly_the_anchors(self):
        g = pronoun_game()
        result = level_k_strategies(g, g, LevelKConfig(depth=0))
        assert len(result.levels) == 1
        s, r = result.levels[0]
        assert top_map(s) == {"fred": "he", "max": "he"}  # cheapest expression
        assert top_map(r) == {"he": "fred", "the man": "fred"}  # likeliest referent

    def test_opposed_estimates_oscillate(self):
        assert validate_game(OSCILLATING_SENDER_GAME).errors == ()
        assert validate_game(OSCILLATING_RECEIVER_GAME).errors == ()
        result = level_k_strategies(
            OSCILLATING_SENDER_GAME,
            OSCILLATING_RECEIVER_GAME,
            LevelKConfig(depth=8, off_path="uniform"),
        )
        assert not result.converged
        assert result.oscillating
        assert result.cycle_period == 2
        with pytest.raises(InvalidGameError):
            result.fixed_profile()

    def test_ties_within_tol_go_to_the_first_id_however_the_game_is_listed(self):
        # Against the level-0 sender, who sends m0 for everything, readings
        # c0 and c1 are both worth 0.125 / 3, but the three terms summed in
        # the reverse order differ in the last bit.
        g = MeaningGame(
            (Content("c0"), Content("c1"), Content("c2")),
            (Message("m0"),),
            Prior({"c0": 1 / 3, "c1": 1 / 3, "c2": 1 / 3}),
            UtilityModel(
                0.5,
                0.5,
                {("c0", "m0"): 0.0, ("c1", "m0"): 0.25, ("c2", "m0"): 0.5},
                {("m0", "c0"): 0.0, ("m0", "c1"): 0.0, ("m0", "c2"): 0.5},
                shared=True,
            ),
        )
        reverse = replace(g, contents=g.contents[::-1], messages=g.messages[::-1])
        result = level_k_strategies(g, g, LevelKConfig(depth=3))
        assert level_k_strategies(reverse, reverse, LevelKConfig(depth=3)) == result
        assert top_map(result.levels[1][1]) == {"m0": "c0"}

    def test_mismatched_alphabets_rejected(self):
        g = pronoun_game()
        other = message_cost_game({"a": 1.0}, {"m": 0.0}, 1.0)
        with pytest.raises(InvalidGameError):
            level_k_strategies(g, other, LevelKConfig(depth=1))


def common_knowledge_tree(game, depth=2):
    """Mutual simulation of the canonical game, every estimate correct."""

    def sender_node(anchor, d):
        children = ()
        if d > 0:
            children = tuple(
                receiver_node(m, d - 1) for m in game.message_ids()
            )
        return BeliefNode("S", anchor, game, children)

    def receiver_node(anchor, d):
        children = ()
        if d > 0:
            children = tuple(sender_node(c, d - 1) for c in game.content_ids())
        return BeliefNode("R", anchor, game, children)

    return sender_node(game.content_ids()[0], depth)


class TestConsistencyCheck:
    def test_correct_tree_survives_an_on_path_message(self):
        g = pronoun_game()
        tree = common_knowledge_tree(g)
        assert consistency_check(tree, "he") == []

    def test_planted_wrong_estimate_is_the_only_refutation(self):
        g = pronoun_game()
        # One embedded sender viewpoint holds reversed expression costs, so
        # under that estimate nothing would ever be said with "he".
        wrong = message_cost_game(
            {"fred": 0.6, "max": 0.4}, {"he": 0.9, "the man": 0.1}, 1.0
        )
        planted = BeliefNode("S", "max", wrong)
        tree = BeliefNode(
            "S",
            "fred",
            g,
            (
                BeliefNode("R", "he", g, (BeliefNode("S", "fred", g), BeliefNode("S", "max", g))),
                BeliefNode("R", "the man", g, (BeliefNode("S", "fred", g), planted)),
            ),
        )
        refuted = consistency_check(tree, "he")
        assert refuted == [planted]

    def test_unspeakable_message_refutes_the_node(self):
        g = pronoun_game()
        # "the man" is ungrammatical under this estimate (no cost entries),
        # the infinitely-costly limit.
        mute = MeaningGame(
            g.contents,
            g.messages,
            g.prior,
            UtilityModel(
                1.0,
                1.0,
                {(c, "he"): 0.0 for c in g.content_ids()},
                {("he", c): 0.0 for c in g.content_ids()},
                shared=True,
            ),
        )
        node = BeliefNode("S", "fred", mute)
        assert consistency_check(node, "the man") == [node]

    def test_reading_unknown_to_the_parent_estimate_is_worth_nothing(self):
        # The child receiver's estimate has a third referent and reads "he"
        # as it; the parent sender cannot be understood by that reading, so
        # "he" is worth 0 to it, which still beats the misread "the man" for
        # max.  The refutations equal those of the string-keyed solver.
        g = pronoun_game()
        wider = message_cost_game(
            {"fred": 0.1, "max": 0.1, "bob": 0.8}, {"he": 0.0, "the man": 0.5}, 1.0
        )
        child = BeliefNode("R", "he", wider)
        root = BeliefNode("S", "fred", g, (child,))
        assert consistency_check(root, "he") == []
        assert consistency_check(root, "the man") == [child]

    def test_observed_message_outside_alphabet_rejected(self):
        tree = common_knowledge_tree(pronoun_game())
        with pytest.raises(InvalidGameError):
            consistency_check(tree, "she")

    def test_non_alternating_tree_rejected(self):
        g = pronoun_game()
        bad = BeliefNode("S", "fred", g, (BeliefNode("S", "max", g),))
        with pytest.raises(InvalidGameError):
            consistency_check(bad, "he")


class TestPruneByMessage:
    def test_infinite_threshold_is_identity(self):
        g = pronoun_game()
        assert prune_by_message(g, "he", math.inf) is g

    def test_exorbitant_content_is_pruned(self):
        g = pronoun_game()
        contents = g.contents + (Content("bob", "Bob"),)
        sender_cost = dict(g.utility.sender_cost)
        receiver_cost = dict(g.utility.receiver_cost)
        for m in g.message_ids():
            sender_cost[("bob", m)] = 50.0
            receiver_cost[(m, "bob")] = 50.0
        big = MeaningGame(
            contents,
            g.messages,
            Prior({"fred": 0.5, "max": 0.3, "bob": 0.2}),
            replace(
                g.utility, sender_cost=sender_cost, receiver_cost=receiver_cost
            ),
        )
        pruned = prune_by_message(big, "the man", threshold=10.0)
        assert set(pruned.content_ids()) == {"fred", "max"}
        assert set(pruned.message_ids()) == {"he", "the man"}
        assert sum(pruned.prior.weights.values()) == pytest.approx(1.0)
        assert validate_game(pruned).errors == ()
        assert pruned.edges <= big.edges

    def test_disconnected_component_is_dropped(self):
        cids = ("a", "b")
        mids = ("m1", "m2")
        g = MeaningGame(
            tuple(Content(c) for c in cids),
            tuple(Message(m) for m in mids),
            Prior({"a": 0.5, "b": 0.5}),
            UtilityModel(
                1.0,
                1.0,
                {("a", "m1"): 0.1, ("b", "m2"): 0.2},
                {("m1", "a"): 0.1, ("m2", "b"): 0.2},
            ),
        )
        pruned = prune_by_message(g, "m1", threshold=100.0)
        assert pruned.content_ids() == ("a",)
        assert pruned.message_ids() == ("m1",)
        assert pruned.prior["a"] == pytest.approx(1.0)
        assert validate_game(pruned).errors == ()

    def test_pruning_everything_is_an_error(self):
        g = pronoun_game(k_light=0.4, k_heavy=0.5)
        with pytest.raises(InvalidGameError):
            prune_by_message(g, "he", threshold=0.1)

    def test_unknown_message_rejected(self):
        with pytest.raises(InvalidGameError):
            prune_by_message(pronoun_game(), "she", 1.0)
