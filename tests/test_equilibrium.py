import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaning_games import (
    Content,
    InvalidGameError,
    MeaningGame,
    Message,
    NotApplicableError,
    Prior,
    Profile,
    ReceiverStrategy,
    SenderStrategy,
    SizeLimitError,
    UtilityModel,
    assortative_solution,
    enumerate_pure_equilibria,
    explain_two_by_two,
    is_equilibrium,
    level_k_strategies,
    pareto_filter,
    posterior_beliefs,
    predict,
)
from generators import (
    message_cost_game,
    pronoun_game,
    random_assortative_game,
    random_valid_game,
)
import oracle
from meaning_games.equilibrium import TOL, _Compiled, _dominates, _pareto_front


class TestPosteriorBeliefs:
    def test_separating_sender_gives_point_beliefs(self):
        g = pronoun_game()
        s = SenderStrategy.deterministic({"fred": "he", "max": "the man"})
        beliefs = posterior_beliefs(g, s)
        assert beliefs.at("he") == {"fred": 1.0}
        assert beliefs.at("the man") == {"max": 1.0}
        assert beliefs.on_path == {"he", "the man"}

    def test_pooling_sender_prior_posterior_and_off_path(self):
        g = pronoun_game(p1=0.6)
        s = SenderStrategy.deterministic({"fred": "he", "max": "he"})
        beliefs = posterior_beliefs(g, s, "prior")
        assert beliefs.at("he")["fred"] == pytest.approx(0.6)
        assert beliefs.at("he")["max"] == pytest.approx(0.4)
        assert beliefs.at("the man")["fred"] == pytest.approx(0.6)
        assert "the man" not in beliefs.on_path

    def test_uniform_prior_pooling_is_uniform(self):
        g = pronoun_game(p1=0.5)
        s = SenderStrategy.deterministic({"fred": "he", "max": "he"})
        beliefs = posterior_beliefs(g, s, "uniform")
        assert beliefs.at("he")["fred"] == pytest.approx(0.5)
        assert beliefs.at("the man")["fred"] == pytest.approx(0.5)

    def test_mixed_sender_bayes_by_hand(self):
        g = pronoun_game(p1=0.6)
        s = SenderStrategy(
            {
                "fred": {"he": 0.7, "the man": 0.3},
                "max": {"he": 0.2, "the man": 0.8},
            }
        )
        beliefs = posterior_beliefs(g, s)
        # joint mass: he = (0.42, 0.08), the man = (0.18, 0.32)
        assert beliefs.at("he")["fred"] == pytest.approx(0.84)
        assert beliefs.at("he")["max"] == pytest.approx(0.16)
        assert beliefs.at("the man")["fred"] == pytest.approx(0.36)
        assert beliefs.at("the man")["max"] == pytest.approx(0.64)
        assert beliefs.on_path == {"he", "the man"}

    def test_unknown_off_path_rule_refused_with_every_message_on_path(self):
        g = pronoun_game()
        s = SenderStrategy.deterministic({"fred": "he", "max": "the man"})
        with pytest.raises(InvalidGameError, match="^unknown off-path rule 'bogus'$"):
            posterior_beliefs(g, s, "bogus")


class TestIsEquilibrium:
    def test_both_full_success_profiles_pass(self):
        g = pronoun_game()
        left = Profile.from_maps(
            {"fred": "he", "max": "the man"}, {"he": "fred", "the man": "max"}
        )
        right = Profile.from_maps(
            {"fred": "the man", "max": "he"}, {"he": "max", "the man": "fred"}
        )
        assert is_equilibrium(g, left)
        assert is_equilibrium(g, right)

    def test_pooling_with_inviting_off_path_row_fails(self):
        # Receiver would interpret the unused heavy message as the less
        # salient referent, so that sender type profitably deviates to it.
        g = pronoun_game()
        p = Profile.from_maps(
            {"fred": "he", "max": "he"}, {"he": "fred", "the man": "max"}
        )
        check = is_equilibrium(g, p)
        assert not check
        assert check.witness.player == "S"
        assert check.witness.at == "max"
        assert not oracle.deviation_check(
            g, {"fred": "he", "max": "he"}, {"he": "fred", "the man": "max"}
        )

    def test_pooling_with_consistent_off_path_row_passes(self):
        g = pronoun_game()
        p = Profile.from_maps(
            {"fred": "he", "max": "he"}, {"he": "fred", "the man": "fred"}
        )
        assert is_equilibrium(g, p)

    def test_single_pair_game_trivially_passes(self):
        g = message_cost_game({"a": 1.0}, {"m": 0.2}, 1.0)
        p = Profile.from_maps({"a": "m"}, {"m": "a"})
        assert is_equilibrium(g, p)

    def test_fully_mixed_babbling_profile_in_a_symmetric_game(self):
        g = message_cost_game({"a": 0.5, "b": 0.5}, {"m": 0.0, "n": 0.0}, 1.0)
        mixed = Profile(
            SenderStrategy(
                {"a": {"m": 0.5, "n": 0.5}, "b": {"m": 0.5, "n": 0.5}}
            ),
            ReceiverStrategy(
                {"m": {"a": 0.5, "b": 0.5}, "n": {"a": 0.5, "b": 0.5}}
            ),
        )
        assert is_equilibrium(g, mixed)


class TestUtilityTables:
    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_cells_are_the_games_utilities(self, rule, shared):
        rng = random.Random(27)
        for _ in range(30):
            g = random_valid_game(rng, max_size=3, shared=shared)
            core = _Compiled(g, rule)
            assert core.sender_u == oracle.utility_table(g, "S")
            assert core.receiver_u == oracle.utility_table(g, "R")
            assert (core.receiver_u is core.sender_u) == shared


class TestEnumerate:
    def test_two_full_success_separating_equilibria(self):
        g = pronoun_game()
        reports = enumerate_pure_equilibria(g)
        full = [r for r in reports if r.success == pytest.approx(1.0)]
        assert len(full) == 2
        assert all(r.kind == "separating" for r in full)

    def test_one_message_two_contents_pools_on_the_likelier(self):
        g = message_cost_game({"fred": 0.6, "max": 0.4}, {"he": 0.0}, 1.0)
        reports = enumerate_pure_equilibria(g)
        assert [r.kind for r in reports] == ["pooling"]
        assert reports[0].success == pytest.approx(0.6)
        assert reports[0].receiver_map() == {"he": "fred"}

    def test_zero_cost_uniform_prior_symmetric_equilibria(self):
        g = message_cost_game({"a": 0.5, "b": 0.5}, {"m": 0.0, "n": 0.0}, 1.0)
        reports = enumerate_pure_equilibria(g)
        separating = [r for r in reports if r.kind == "separating"]
        assert len(separating) == 2
        assert separating[0].eu_sender == pytest.approx(separating[1].eu_sender)
        assert separating[0].eu_receiver == pytest.approx(separating[1].eu_receiver)

    def test_cap_enforced(self):
        g = pronoun_game()
        with pytest.raises(SizeLimitError):
            enumerate_pure_equilibria(g, cap=3)

    def test_deterministic_output_order(self):
        rng = random.Random(3)
        g = random_valid_game(rng, max_size=3)
        first = enumerate_pure_equilibria(g)
        second = enumerate_pure_equilibria(g)
        assert [r.profile for r in first] == [r.profile for r in second]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_relabeling_leaves_the_set_invariant(self, seed):
        rng = random.Random(seed)
        g = random_valid_game(rng, max_size=3)
        cmap = {c: f"X{i}" for i, c in enumerate(g.content_ids())}
        mmap = {m: f"Y{j}" for j, m in enumerate(g.message_ids())}
        relabeled = MeaningGame(
            tuple(Content(cmap[c.id], c.label) for c in g.contents),
            tuple(Message(mmap[m.id], m.label) for m in g.messages),
            Prior({cmap[c]: w for c, w in g.prior.weights.items()}),
            UtilityModel(
                g.utility.sender_bonus,
                g.utility.receiver_bonus,
                {(cmap[c], mmap[m]): v for (c, m), v in g.utility.sender_cost.items()},
                {(mmap[m], cmap[c]): v for (m, c), v in g.utility.receiver_cost.items()},
                g.utility.shared,
            ),
        )

        def canon(reports, cm, mm):
            return {
                (
                    tuple(sorted((cm[c], mm[m]) for c, m in r.sender_map().items())),
                    tuple(sorted((mm[m], cm[c]) for m, c in r.receiver_map().items())),
                )
                for r in reports
            }

        identity_c = {c: c for c in cmap.values()}
        identity_m = {m: m for m in mmap.values()}
        assert canon(enumerate_pure_equilibria(g), cmap, mmap) == canon(
            enumerate_pure_equilibria(relabeled), identity_c, identity_m
        )


class TestPareto:
    def test_matched_play_dominates(self):
        g = pronoun_game()
        reports = enumerate_pure_equilibria(g)
        kept = pareto_filter(reports)
        assert len(kept) == 1
        assert kept[0].sender_map() == {"fred": "he", "max": "the man"}

    def test_payoff_identical_reports_all_survive(self):
        g = message_cost_game({"a": 0.5, "b": 0.5}, {"m": 0.1, "n": 0.1}, 1.0)
        reports = enumerate_pure_equilibria(g)
        separating = [r for r in reports if r.kind == "separating"]
        kept = pareto_filter(separating)
        assert len(kept) == len(separating) == 2

    def test_strict_chain_keeps_only_the_top(self):
        g = pronoun_game()
        reports = enumerate_pure_equilibria(g)
        base = reports[0]
        chain = [
            replace(base, eu_sender=0.1, eu_receiver=0.2),
            replace(base, eu_sender=0.3, eu_receiver=0.4),
            replace(base, eu_sender=0.5, eu_receiver=0.6),
        ]
        kept = pareto_filter(chain)
        assert kept == [chain[2]]

    def test_a_report_dominated_only_by_a_dominated_one_is_dropped(self):
        # Within the tolerance dominance is not transitive: top beats middle
        # and middle beats low, but top is too far below low for the
        # receiver to beat it.
        base = enumerate_pure_equilibria(pronoun_game())[0]
        t = 1e-9
        top = replace(base, eu_sender=2 * t, eu_receiver=-0.9 * t)
        middle = replace(base, eu_sender=0.0, eu_receiver=0.0)
        low = replace(base, eu_sender=-2 * t, eu_receiver=0.5 * t)
        assert pareto_filter([top, middle, low]) == [top]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_output_is_an_antichain(self, seed):
        rng = random.Random(seed)
        g = random_valid_game(rng, max_size=3)
        kept = pareto_filter(enumerate_pure_equilibria(g))
        for a in kept:
            for b in kept:
                if a is b:
                    continue
                dominates = (
                    a.eu_sender >= b.eu_sender - 1e-9
                    and a.eu_receiver >= b.eu_receiver - 1e-9
                    and (
                        a.eu_sender > b.eu_sender + 1e-9
                        or a.eu_receiver > b.eu_receiver + 1e-9
                    )
                )
                assert not dominates


class TestCommonInterestFront:
    # Every payoff pair of a common-interest game is (x, x); the front keeps
    # a pair unless the best beats it by more than the tolerance.
    top = 0.5 + TOL  # exactly TOL above 0.5 in floats

    @pytest.mark.parametrize(
        "points, kept",
        [
            ([], []),
            ([(0.25, 0.25)] * 3, [True] * 3),
            ([(0.1, 0.1), (0.4, 0.4), (0.1, 0.1), (0.4, 0.4)], [False, True, False, True]),
            ([(0.5, 0.5), (top, top), (0.5, 0.5)], [True] * 3),
            ([(top, top), (0.5 - 1e-15, 0.5 - 1e-15)], [True, False]),
            # Off the diagonal every pair is checked: the diagonal rule alone
            # would drop (2, 0), which no other pair is as good for the sender.
            ([(1.0, 1.0), (0.5, 0.5), (2.0, 0.0)], [True, False, True]),
        ],
        ids=[
            "empty",
            "duplicates",
            "duplicates_below",
            "exactly_tol_below_kept",
            "just_below_that_dropped",
            "one_off_diagonal",
        ],
    )
    def test_front_matches_the_definition(self, points, kept):
        by_definition = [not any(_dominates(a, b) for a in points) for b in points]
        assert _pareto_front(points) == by_definition == kept

    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    def test_predict_matches_the_oracle_on_shared_games(self, rule):
        rng = random.Random(2026)
        for _ in range(40):
            g = random_valid_game(rng, max_size=3, shared=True)
            survivors = {tuple(sorted(r.sender_map().items())) for r in predict(g, rule).reports}
            assert survivors == oracle.pareto_maps(g, oracle.enumerate_equilibria(g, rule))
            core = _Compiled(g, rule)
            for s, r in core.search():
                smap = {core.cids[c]: core.mids[m] for c, m in enumerate(s)}
                rmap = {core.mids[m]: core.cids[a] for m, a in zip(core.used, r)}
                _, eu_sender, eu_receiver = core.payoffs(s, r)
                assert eu_sender == eu_receiver == oracle.expected_utility(g, smap, rmap, "R")


def with_costs(g, cost):
    u = g.utility
    return replace(
        g,
        utility=replace(
            u,
            sender_cost=dict.fromkeys(u.sender_cost, cost),
            receiver_cost=dict.fromkeys(u.receiver_cost, cost),
        ),
    )


class TestGamesBuiltInCode:
    """A game built in code need not have passed ``validate_game``: every
    solver entry refuses the numbers that would make its answer NaN or
    meaningless, instead of answering."""

    MATCHED = Profile.from_maps(
        {"fred": "he", "max": "the man"}, {"he": "fred", "the man": "max"}
    )
    SOLVERS = {
        "predict": predict,
        "enumerate": enumerate_pure_equilibria,
        "is_equilibrium": lambda g: is_equilibrium(g, TestGamesBuiltInCode.MATCHED),
        "level_k": lambda g: level_k_strategies(g, g),
    }

    def refused(self, solve, g, text):
        with pytest.raises(InvalidGameError, match=text):
            self.SOLVERS[solve](g)

    @pytest.mark.parametrize("solve", list(SOLVERS))
    def test_nan_prior_weight(self, solve):
        g = replace(pronoun_game(), prior=Prior({"fred": math.nan, "max": 0.4}))
        self.refused(solve, g, "prior weight nan of 'fred' is negative or not finite")

    @pytest.mark.parametrize("solve", list(SOLVERS))
    def test_negative_prior_weight(self, solve):
        g = replace(pronoun_game(), prior=Prior({"fred": -0.5, "max": 1.5}))
        self.refused(solve, g, "prior weight -0.5 of 'fred' is negative or not finite")

    @pytest.mark.parametrize("solve", list(SOLVERS))
    def test_nan_cost(self, solve):
        self.refused(solve, with_costs(pronoun_game(), math.nan), "a cost of .* is not finite")

    @pytest.mark.parametrize("solve", list(SOLVERS))
    def test_infinite_success_bonus(self, solve):
        self.refused(solve, pronoun_game(bonus=math.inf), "a success bonus is not finite")

    def test_infinite_overlap_bonus(self):
        g, ids = pronoun_game(), ("fred", "max")
        overlap = {(a, b): (float(a == b), float(a == b)) for a in ids for b in ids}
        overlap[("max", "fred")] = (0.0, math.inf)
        g = replace(g, utility=replace(g.utility, bonus_overlap=overlap))
        self.refused("predict", g, "a success bonus is not finite")


class TestPredict:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["prior", "uniform"]))
    def test_common_interest_reads_a_one_reading_message_that_way(self, seed, rule):
        # The premise of the NP route's shortcut: a common-interest game
        # always has a Pareto-optimal pure equilibrium, and it can read a
        # message with one grammatical reading only that way.
        g = random_valid_game(random.Random(seed), max_size=4, shared=True)
        prediction = predict(g, rule)
        assert prediction.reports
        for mid in g.message_ids():
            if len(g.contents_for(mid)) == 1:
                assert prediction.readings_of(mid) == set(g.contents_for(mid))

    def test_unique_matched_interpretation(self):
        prediction = predict(pronoun_game())
        assert not prediction.ambiguous
        assert prediction.interpretation() == {"he": "fred", "the man": "max"}

    def test_symmetric_game_is_ambiguous(self):
        prediction = predict(
            message_cost_game({"a": 0.5, "b": 0.5}, {"m": 0.1, "n": 0.1}, 1.0)
        )
        assert prediction.ambiguous
        assert len(prediction.interpretations) == 2
        with pytest.raises(NotApplicableError):
            prediction.interpretation()

    def test_three_by_three_assortative(self):
        g = message_cost_game(
            {"c1": 0.5, "c2": 0.3, "c3": 0.2},
            {"m1": 0.1, "m2": 0.2, "m3": 0.3},
            1.0,
        )
        prediction = predict(g)
        assert not prediction.ambiguous
        assert prediction.interpretation() == {"m1": "c1", "m2": "c2", "m3": "c3"}
        expected = assortative_solution(g)
        assert prediction.reports[0].sender_map() == {
            c: max(row, key=row.get) for c, row in expected.sender.rows.items()
        }


class TestAssortative:
    def test_canonical_game(self):
        profile = assortative_solution(pronoun_game())
        assert profile.sender.rows == {"fred": {"he": 1.0}, "max": {"the man": 1.0}}
        assert profile.receiver.rows == {"he": {"fred": 1.0}, "the man": {"max": 1.0}}

    def test_single_pair(self):
        g = message_cost_game({"a": 1.0}, {"m": 0.3}, 1.0)
        profile = assortative_solution(g)
        assert profile.sender.rows == {"a": {"m": 1.0}}

    def test_requires_strict_orderings(self):
        with pytest.raises(NotApplicableError):
            assortative_solution(
                message_cost_game({"a": 0.5, "b": 0.5}, {"m": 0.1, "n": 0.2}, 1.0)
            )
        with pytest.raises(NotApplicableError):
            assortative_solution(
                message_cost_game({"a": 0.6, "b": 0.4}, {"m": 0.2, "n": 0.2}, 1.0)
            )

    def test_requires_complete_square_game(self):
        g = message_cost_game({"a": 0.6, "b": 0.4}, {"m": 0.1}, 1.0)
        with pytest.raises(NotApplicableError):
            assortative_solution(g)

    def test_matches_enumeration_on_random_square_instances(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            g = random_assortative_game(rng, n)
            prediction = predict(g)
            assert not prediction.ambiguous
            expected = assortative_solution(g)
            assert prediction.reports[0].sender_map() == {
                c: max(row, key=row.get) for c, row in expected.sender.rows.items()
            }

    @pytest.mark.parametrize("n, cap, count", [(5, None, 4), (6, 6**12, 1)])
    def test_matches_enumeration_on_complete_larger_games(self, n, cap, count):
        rng = random.Random(50 + n)
        for _ in range(count):
            g = random_assortative_game(rng, n)
            prediction = predict(g, cap=cap)
            assert [r.profile for r in prediction.reports] == [assortative_solution(g)]


class TestExplain:
    def test_values_match_the_identity(self):
        facts = explain_two_by_two(pronoun_game())
        assert facts["p1"] == pytest.approx(0.6)
        assert facts["u1"] == pytest.approx(0.0)
        assert facts["u2"] == pytest.approx(-0.5)
        assert facts["gap"] == pytest.approx(
            (facts["p1"] - facts["p2"]) * (facts["u1"] - facts["u2"])
        )
        assert facts["gap"] == pytest.approx(facts["eu_matched"] - facts["eu_crossed"])

    def test_rejects_non_two_by_two(self):
        g = message_cost_game(
            {"c1": 0.5, "c2": 0.3, "c3": 0.2}, {"m1": 0.1, "m2": 0.2, "m3": 0.3}, 1.0
        )
        with pytest.raises(NotApplicableError):
            explain_two_by_two(g)


class TestOracleAgreement:
    def test_checker_matches_oracle_on_random_games(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_valid_game(rng, max_size=3)
            rule = rng.choice(["prior", "uniform"])
            for smap, rmap in oracle.all_profiles(g):
                ours = bool(is_equilibrium(g, Profile.from_maps(smap, rmap), rule))
                theirs = oracle.deviation_check(g, smap, rmap, rule)
                assert ours == theirs, (g, smap, rmap, rule)

    def test_enumeration_matches_oracle_enumeration(self):
        rng = random.Random(123)
        for _ in range(40):
            g = random_valid_game(rng, max_size=3)
            rule = rng.choice(["prior", "uniform"])
            ours = {
                (
                    tuple(sorted(r.sender_map().items())),
                    tuple(sorted(r.receiver_map().items())),
                )
                for r in enumerate_pure_equilibria(g, rule)
            }
            assert ours == oracle.enumerate_equilibria(g, rule)

    @pytest.mark.parametrize(
        "costs", [(1.2e-9, 0.6e-9, 0.0), (0.0, 0.6e-9, 1.2e-9)], ids=["up", "down"]
    )
    def test_sender_values_moving_in_steps_below_the_tolerance(self, costs):
        # Neighbouring messages differ by less than the tolerance, the first
        # and last by more, so two of the three are best replies.  Going up,
        # the first is within the tolerance of the best met so far but not
        # of the final best; going down, the last is out as soon as it is met.
        g = message_cost_game({"c": 1.0}, dict(zip(["m0", "m1", "m2"], costs)), 0.0)
        ours = {
            (
                tuple(sorted(r.sender_map().items())),
                tuple(sorted(r.receiver_map().items())),
            )
            for r in enumerate_pure_equilibria(g)
        }
        assert len(ours) == 2
        assert ours == oracle.enumerate_equilibria(g)
