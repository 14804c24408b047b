import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaning_games import (
    Discourse,
    DiscourseState,
    Entity,
    ExpressionForm,
    ExpressionOption,
    FormKind,
    GrammaticalFunction,
    InvalidGameError,
    Realization,
    ReferenceSlot,
    ResolutionConfig,
    ScenarioError,
    SizeLimitError,
    Utterance,
    accommodate,
    build_np_game,
    cb,
    cf,
    cp,
    ingest,
    resolve,
    rule1_check,
    salience_priors,
    validate_game,
)
from meaning_games.centering import (
    DEFAULT_FORM_COSTS,
    _resolve_slot_by_game,
    validate_form_costs,
)
from generators import random_featured_discourse, random_strict_discourse

PRONOUN = ExpressionForm(FormKind.PRONOUN, 0.0)
DEFINITE = ExpressionForm(FormKind.DEFINITE_NP, 0.5)
PROPER = ExpressionForm(FormKind.PROPER_NAME, 0.7)


def scolding_utterance():
    return Utterance(
        1,
        (
            Realization("fred", GrammaticalFunction.SUBJECT, PROPER, "Fred"),
            Realization("max", GrammaticalFunction.DIRECT_OBJECT, PROPER, "Max"),
        ),
    )


def second_utterance(subject_entity, subject_form, other_entity, other_form):
    return Utterance(
        2,
        (
            Realization(
                subject_entity, GrammaticalFunction.SUBJECT, subject_form, "s"
            ),
            Realization(
                other_entity, GrammaticalFunction.OTHER_COMPLEMENT, other_form, "o"
            ),
        ),
    )


class TestCenters:
    def test_cf_orders_subject_before_object(self):
        assert cf(scolding_utterance()) == ("fred", "max")

    def test_cf_singleton(self):
        u = Utterance(
            1, (Realization("fred", GrammaticalFunction.SUBJECT, PROPER, "Fred"),)
        )
        assert cf(u) == ("fred",)

    def test_cf_rank_beats_surface_order(self):
        u = Utterance(
            1,
            (
                Realization("max", GrammaticalFunction.ADJUNCT, PROPER, "Max"),
                Realization("ann", GrammaticalFunction.DIRECT_OBJECT, PROPER, "Ann"),
                Realization("fred", GrammaticalFunction.SUBJECT, PROPER, "Fred"),
            ),
        )
        assert cf(u) == ("fred", "ann", "max")

    def test_cf_collapses_repeats_to_highest_rank(self):
        u = Utterance(
            1,
            (
                Realization("fred", GrammaticalFunction.SUBJECT, PROPER, "Fred"),
                Realization("fred", GrammaticalFunction.ADJUNCT, PRONOUN, "him"),
                Realization("max", GrammaticalFunction.DIRECT_OBJECT, PROPER, "Max"),
            ),
        )
        assert cf(u) == ("fred", "max")

    def test_cp_is_the_head(self):
        assert cp(scolding_utterance()) == "fred"
        assert cp(Utterance(1, ())) is None

    def test_cb_picks_highest_previous_center_realized(self):
        u1 = scolding_utterance()
        u2 = second_utterance("fred", PRONOUN, "max", DEFINITE)
        assert cb(u2, u1) == "fred"

    def test_cb_absent_without_previous_or_without_overlap(self):
        u1 = scolding_utterance()
        lone = Utterance(
            2, (Realization("ann", GrammaticalFunction.SUBJECT, PROPER, "Ann"),)
        )
        assert cb(lone, u1) is None
        assert cb(u1, None) is None

    def test_cb_second_ranked_when_top_unrealized(self):
        u1 = scolding_utterance()
        u2 = Utterance(
            2, (Realization("max", GrammaticalFunction.SUBJECT, PRONOUN, "he"),)
        )
        assert cb(u2, u1) == "max"

    def test_cf_invariant_under_permutation_with_distinct_ranks(self):
        rng = random.Random(0)
        realizations = [
            Realization("a", GrammaticalFunction.SUBJECT, PROPER, "A"),
            Realization("b", GrammaticalFunction.DIRECT_OBJECT, PROPER, "B"),
            Realization("c", GrammaticalFunction.ADJUNCT, PROPER, "C"),
        ]
        reference = cf(Utterance(1, tuple(realizations)))
        for _ in range(5):
            rng.shuffle(realizations)
            assert cf(Utterance(1, tuple(realizations))) == reference


def test_one_realization_per_function_slot():
    with pytest.raises(InvalidGameError):
        Utterance(
            1,
            (
                Realization("fred", GrammaticalFunction.SUBJECT, PROPER, "Fred"),
                Realization("max", GrammaticalFunction.SUBJECT, PROPER, "Max"),
            ),
        )


def test_one_slot_per_id():
    with pytest.raises(InvalidGameError, match="duplicate slot ids"):
        Utterance(
            2,
            (
                man_slot("s", GrammaticalFunction.SUBJECT, "he"),
                man_slot("s", GrammaticalFunction.OTHER_COMPLEMENT, "the man"),
            ),
        )


class TestRule1:
    def test_matched_resolution_is_clean(self):
        u1 = scolding_utterance()
        u2 = second_utterance("fred", PRONOUN, "max", DEFINITE)
        assert rule1_check([u1, u2]) == []

    def test_crossed_resolution_violates(self):
        u1 = scolding_utterance()
        # Backward center realized by a pronoun: clean even when crossed.
        u2 = second_utterance("max", DEFINITE, "fred", PRONOUN)
        assert rule1_check([u1, u2]) == []
        # Backward center (fred) demoted to a definite while max gets the
        # pronoun: the violation.
        u2_bad = second_utterance("fred", DEFINITE, "max", PRONOUN)
        violations = rule1_check([u1, u2_bad])
        assert len(violations) == 1
        assert violations[0].utterance_index == 2
        assert violations[0].backward_center == "fred"
        assert violations[0].pronoun_realized == ("max",)

    def test_no_pronouns_no_violation(self):
        u1 = scolding_utterance()
        u2 = second_utterance("max", DEFINITE, "fred", DEFINITE)
        assert rule1_check([u1, u2]) == []

    def test_unresolved_slot_rejected(self):
        slot = ReferenceSlot(
            "s",
            GrammaticalFunction.SUBJECT,
            "he",
            (ExpressionOption("he", PRONOUN),),
            ("fred",),
        )
        with pytest.raises(InvalidGameError):
            rule1_check([Utterance(1, (slot,))])


class TestSalience:
    def test_ranked_contributions(self):
        config = ResolutionConfig()
        state = DiscourseState.initial(["fred", "max"], config)
        state = ingest(state, scolding_utterance(), config)
        assert state.salience["fred"] == pytest.approx(1.5)
        assert state.salience["max"] == pytest.approx(1.25)

    def test_priors_follow_salience(self):
        config = ResolutionConfig()
        state = DiscourseState.initial(["fred", "max"], config)
        state = ingest(state, scolding_utterance(), config)
        prior = salience_priors(state, ["fred", "max"])
        assert prior["fred"] == pytest.approx(6 / 11)
        assert prior["fred"] > prior["max"]

    def test_single_candidate(self):
        config = ResolutionConfig()
        state = DiscourseState.initial(["fred", "max"], config)
        assert salience_priors(state, ["max"])["max"] == pytest.approx(1.0)

    def test_normalization_values(self):
        state = DiscourseState((), {"a": 2.0, "b": 1.0, "c": 1.0})
        prior = salience_priors(state, ["a", "b", "c"])
        assert prior["a"] == pytest.approx(0.5)
        assert prior["b"] == pytest.approx(0.25)
        assert prior["c"] == pytest.approx(0.25)

    def test_scale_invariance(self):
        rng = random.Random(5)
        scores = {f"e{i}": rng.uniform(0.5, 4.0) for i in range(4)}
        state = DiscourseState((), scores)
        base = salience_priors(state, sorted(scores))
        for lam in (0.25, 3.0, 17.5):
            scaled = DiscourseState((), {k: lam * v for k, v in scores.items()})
            prior = salience_priors(scaled, sorted(scores))
            for k in scores:
                assert prior[k] == pytest.approx(base[k], abs=1e-12)

    def test_empty_candidates_rejected(self):
        state = DiscourseState((), {"a": 1.0})
        with pytest.raises(InvalidGameError):
            salience_priors(state, [])


class TestAccommodate:
    def test_boost_multiplies_salience(self):
        config = ResolutionConfig()
        state = DiscourseState((), {"fred": 2.0, "max": 1.0})
        ref = Realization("fred", GrammaticalFunction.SUBJECT, PRONOUN, "he")
        boosted = accommodate(state, ref, config)
        assert boosted.salience["fred"] == pytest.approx(3.0)
        assert boosted.salience["max"] == pytest.approx(1.0)

    def test_identity_boost_changes_nothing(self):
        config = ResolutionConfig(
            boosts={
                FormKind.PRONOUN: 1.0,
                FormKind.DEFINITE_NP: 1.0,
                FormKind.PROPER_NAME: 1.0,
            }
        )
        state = DiscourseState((), {"fred": 2.0, "max": 1.0})
        ref = Realization("fred", GrammaticalFunction.SUBJECT, PRONOUN, "he")
        assert accommodate(state, ref, config).salience == state.salience

    def test_repeated_boosts_can_flip_the_order(self):
        config = ResolutionConfig()
        state = DiscourseState((), {"fred": 1.5, "max": 1.25})
        ref = Realization("max", GrammaticalFunction.SUBJECT, PRONOUN, "he")
        for _ in range(2):
            state = accommodate(state, ref, config)
        prior = salience_priors(state, ["fred", "max"])
        assert prior["max"] > prior["fred"]
        assert all(v > 0 for v in state.salience.values())
        assert sum(prior.weights.values()) == pytest.approx(1.0, abs=1e-12)


def man_slot(slot_id, function, surface):
    options = (
        ExpressionOption("he", PRONOUN, {"gender": "male"}),
        ExpressionOption("the man", DEFINITE, {"gender": "male"}),
    )
    return ReferenceSlot(slot_id, function, surface, options, ("fred", "max"))


MALE_ENTITIES = {
    "fred": Entity("fred", "Fred", {"gender": "male"}),
    "max": Entity("max", "Max", {"gender": "male"}),
}


class TestBuildNpGame:
    def setup_method(self):
        self.config = ResolutionConfig()
        state = DiscourseState.initial(["fred", "max"], self.config)
        self.state = ingest(state, scolding_utterance(), self.config)

    def test_reproduces_the_reference_game(self):
        slot = man_slot("s", GrammaticalFunction.SUBJECT, "he")
        g = build_np_game(self.state, slot, MALE_ENTITIES, self.config)
        assert validate_game(g).errors == ()
        assert g.is_complete()
        assert g.prior["fred"] > g.prior["max"]
        assert g.utility.sender_cost[("fred", "he")] == 0.0
        assert g.utility.sender_cost[("fred", "the man")] == 0.5
        assert g.utility.shared

    def test_feature_mismatch_removes_edge(self):
        entities = {
            "fred": Entity("fred", "Fred", {"gender": "male"}),
            "ann": Entity("ann", "Ann", {"gender": "female"}),
        }
        options = (
            ExpressionOption("he", PRONOUN, {"gender": "male"}),
            ExpressionOption("the girl", DEFINITE, {"gender": "female"}),
            ExpressionOption("them", PRONOUN),
        )
        slot = ReferenceSlot(
            "s", GrammaticalFunction.SUBJECT, "he", options, ("fred", "ann")
        )
        state = DiscourseState.initial(["fred", "ann"], self.config)
        g = build_np_game(state, slot, entities, self.config)
        assert ("ann", "he") not in g.edges
        assert ("fred", "the girl") not in g.edges
        assert ("ann", "them") in g.edges

    def test_candidate_missing_from_salience_rejected(self):
        state = DiscourseState((), {"fred": 1.0})
        slot = man_slot("u2", GrammaticalFunction.SUBJECT, "he")
        with pytest.raises(InvalidGameError, match=r"'u2'.*'max'"):
            build_np_game(state, slot, MALE_ENTITIES, self.config)

    def test_candidate_without_expression_rejected(self):
        entities = {
            "fred": Entity("fred", "Fred", {"gender": "male"}),
            "ann": Entity("ann", "Ann", {"gender": "female"}),
        }
        slot = ReferenceSlot(
            "s",
            GrammaticalFunction.SUBJECT,
            "he",
            (ExpressionOption("he", PRONOUN, {"gender": "male"}),),
            ("fred", "ann"),
        )
        state = DiscourseState.initial(["fred", "ann"], self.config)
        with pytest.raises(InvalidGameError, match="ann"):
            build_np_game(state, slot, entities, self.config)

    def test_three_candidates_two_expressions(self):
        entities = {
            e: Entity(e, e.title(), {"gender": "male"}) for e in ("fred", "max", "bob")
        }
        slot = ReferenceSlot(
            "s",
            GrammaticalFunction.SUBJECT,
            "he",
            (
                ExpressionOption("he", PRONOUN, {"gender": "male"}),
                ExpressionOption("the man", DEFINITE, {"gender": "male"}),
            ),
            ("fred", "max", "bob"),
        )
        state = DiscourseState((), {"fred": 2.0, "max": 1.0, "bob": 1.0})
        g = build_np_game(state, slot, entities, self.config)
        assert len(g.contents) == 3 and len(g.messages) == 2
        assert sum(g.prior[c] for c in g.content_ids()) == pytest.approx(1.0)
        assert g.prior["fred"] == pytest.approx(0.5)


class TestResolveUnit:
    def test_pronoun_discourse_end_to_end(self):
        u1 = scolding_utterance()
        u2 = Utterance(
            2,
            (
                man_slot("subj", GrammaticalFunction.SUBJECT, "he"),
                man_slot("obj", GrammaticalFunction.OTHER_COMPLEMENT, "the man"),
            ),
        )
        discourse = Discourse(MALE_ENTITIES, (u1, u2), ResolutionConfig())
        report = resolve(discourse)
        assert report.fully_resolved
        assert report.assignment() == {"he": "fred", "the man": "max"}
        assert report.rule1 == ()
        assert report.state.salience["fred"] == pytest.approx((1.5 + 0.5) * 1.5)

    def test_symmetric_slot_reported_ambiguous(self):
        u1 = scolding_utterance()
        options = (
            ExpressionOption("he", PRONOUN),
            ExpressionOption("him", PRONOUN),
        )
        slot = ReferenceSlot(
            "s", GrammaticalFunction.SUBJECT, "he", options, ("fred", "max")
        )
        state_entities = dict(MALE_ENTITIES)
        discourse = Discourse(
            state_entities,
            (Utterance(1, (slot,)),),
            ResolutionConfig(),
        )
        report = resolve(discourse)
        assert not report.fully_resolved
        assert report.rule1 is None
        [resolution] = report.resolutions
        assert resolution.entity is None
        assert set(resolution.alternatives) == {"fred", "max"}

    def test_single_candidate_resolves_regardless_of_form(self):
        slot = ReferenceSlot(
            "s",
            GrammaticalFunction.SUBJECT,
            "the man",
            (
                ExpressionOption("he", PRONOUN),
                ExpressionOption("the man", DEFINITE),
            ),
            ("max",),
        )
        discourse = Discourse(
            {"max": Entity("max", "Max")}, (Utterance(1, (slot,)),), ResolutionConfig()
        )
        report = resolve(discourse)
        assert report.assignment() == {"the man": "max"}

    def test_randomized_strict_discourses_respect_the_pronoun_rule(self):
        rng = random.Random(2024)
        for _ in range(60):
            discourse = random_strict_discourse(rng)
            report = resolve(discourse)
            assert report.fully_resolved
            assert report.rule1 == ()

    def test_extralinguistic_priors_drive_the_reading(self, man_him_path):
        # Knowing who gets angry enters as proposition priors: even with the
        # parallelism penalty off, the biased sentence game settles the
        # reading without the reference games.
        from dataclasses import replace

        from meaning_games import load_discourse

        discourse = load_discourse(man_him_path)
        section = discourse.compounds[2]
        biased = replace(
            section,
            propositions=tuple(
                replace(p, prior=0.9 if p.id == "angry_fred_max" else 0.1)
                for p in section.propositions
            ),
            parallelism_penalty=0.0,
        )
        report = resolve(replace(discourse, compounds={2: biased}))
        assert report.assignment() == {"the man": "fred", "him": "max"}
        assert all(r.via.startswith("compound") for r in report.resolutions)

    def test_backward_center_premium_shifts_the_prior(self):
        config = ResolutionConfig(cb_bonus=5.0)
        state = DiscourseState.initial(["fred", "max"], config)
        state = ingest(state, scolding_utterance(), config)
        slot = man_slot("s", GrammaticalFunction.SUBJECT, "he")
        plain = build_np_game(state, slot, MALE_ENTITIES, ResolutionConfig())
        boosted = build_np_game(state, slot, MALE_ENTITIES, config)
        # fred heads the previous utterance's centers, so only he gains.
        assert boosted.prior["fred"] > plain.prior["fred"]

    def test_tied_compound_reading_reported_unresolved(self):
        from meaning_games import CompoundSection, PropositionOption, SentenceOption

        subj = man_slot("subj", GrammaticalFunction.SUBJECT, "the man")
        obj = ReferenceSlot(
            "obj",
            GrammaticalFunction.OTHER_COMPLEMENT,
            "him",
            (
                ExpressionOption("him", PRONOUN, {"gender": "male"}),
                ExpressionOption("the man", DEFINITE, {"gender": "male"}),
            ),
            ("fred", "max"),
        )
        u2 = Utterance(2, (subj, obj))
        # The unuttered sentence discriminates the propositions (so the
        # compound engages), but at the uttered one the readings tie.
        section = CompoundSection(
            2,
            ("subj", "obj"),
            (
                PropositionOption(
                    "p1", "p1", {"subj": "fred", "obj": "max"}, 1.0,
                    {"s1": 0.3, "s2": 0.1},
                ),
                PropositionOption(
                    "p2", "p2", {"subj": "max", "obj": "fred"}, 1.0,
                    {"s1": 0.3, "s2": 0.5},
                ),
            ),
            (
                SentenceOption("s1", "s1", {"subj": "the man", "obj": "him"}),
                SentenceOption("s2", "s2", {"subj": "he", "obj": "the man"}),
            ),
            parallelism_penalty=0.0,
        )
        # Equal salience keeps the reference-level priors from breaking the tie.
        entities = dict(MALE_ENTITIES)
        discourse = Discourse(
            entities, (u2,), ResolutionConfig(), {2: section}
        )
        report = resolve(discourse)
        assert not report.fully_resolved
        assert report.rule1 is None
        for r in report.resolutions:
            assert r.entity is None
            assert set(r.alternatives) == {"fred", "max"}
            assert r.via.startswith("compound")

    def test_slot_outside_the_section_takes_its_own_game(self):
        from meaning_games import CompoundSection, PropositionOption, SentenceOption

        subj = man_slot("subj", GrammaticalFunction.SUBJECT, "he")
        obj = man_slot("obj", GrammaticalFunction.OTHER_COMPLEMENT, "the man")
        # The section names only the second slot; its priors make it informative.
        section = CompoundSection(
            2,
            ("obj",),
            (
                PropositionOption("p1", "p1", {"obj": "max"}, 0.9),
                PropositionOption("p2", "p2", {"obj": "fred"}, 0.1),
            ),
            (
                SentenceOption("s1", "s1", {"obj": "the man"}),
                SentenceOption("s2", "s2", {"obj": "he"}),
            ),
        )
        discourse = Discourse(
            MALE_ENTITIES,
            (scolding_utterance(), Utterance(2, (subj, obj))),
            ResolutionConfig(),
            {2: section},
        )
        report = resolve(discourse)
        assert [r.slot_id for r in report.resolutions] == ["subj", "obj"]
        by_slot = {r.slot_id: r for r in report.resolutions}
        assert by_slot["subj"].via == "np-game"
        assert by_slot["obj"].via.startswith("compound")
        assert report.assignment() == {"he": "fred", "the man": "max"}

    def test_compound_tie_with_agreeing_referents_stays_unresolved(self):
        from meaning_games import CompoundSection, PropositionOption, SentenceOption

        subj = man_slot("subj", GrammaticalFunction.SUBJECT, "the man")
        obj = man_slot("obj", GrammaticalFunction.OTHER_COMPLEMENT, "he")
        assigns = {"subj": "fred", "obj": "max"}
        # Two propositions with the same referents tie at the uttered
        # sentence; the unuttered one tells them apart, so the compound engages.
        section = CompoundSection(
            2,
            ("subj", "obj"),
            (
                PropositionOption("p1", "p1", assigns, 1.0, {"s2": 0.1}),
                PropositionOption("p2", "p2", assigns, 1.0, {"s2": 0.5}),
            ),
            (
                SentenceOption("s1", "s1", {"subj": "the man", "obj": "he"}),
                SentenceOption("s2", "s2", {"subj": "he", "obj": "the man"}),
            ),
            parallelism_penalty=0.0,
        )
        discourse = Discourse(
            MALE_ENTITIES, (Utterance(2, (subj, obj)),), ResolutionConfig(), {2: section}
        )
        report = resolve(discourse)
        assert not report.fully_resolved
        assert [(r.slot_id, r.entity, r.alternatives) for r in report.resolutions] == [
            ("subj", None, ("fred",)),
            ("obj", None, ("max",)),
        ]
        for r in report.resolutions:
            assert r.via.startswith("compound")
            assert r.locally_suboptimal == ()


def test_unknown_slot_candidate_raises_scenario_error(he_man_path):
    from meaning_games import load_discourse

    discourse = load_discourse(he_man_path)
    second = discourse.utterances[1]
    slot = second.slots()[0]
    widened = replace(slot, candidates=slot.candidates + ("zed",))
    utterance = replace(
        second,
        realizations=tuple(
            widened if r is slot else r for r in second.realizations
        ),
    )
    utterances = (discourse.utterances[0], utterance) + discourse.utterances[2:]
    with pytest.raises(ScenarioError, match=f"slot {slot.id!r}.*'zed'"):
        resolve(replace(discourse, utterances=utterances))


def route_slots(monkeypatch):
    """Record the ``(state, slot, entities, config)`` of every slot that
    ``resolve`` hands to the NP route."""
    from meaning_games import centering

    routed = []

    def capture(state, slot, entities, config, utterance_index):
        routed.append((state, slot, entities, config))
        return _resolve_slot_by_game(state, slot, entities, config, utterance_index)

    monkeypatch.setattr(centering, "_resolve_slot_by_game", capture)
    return routed


def route_readings(state, slot, entities, config):
    """The readings the NP route finds for the slot."""
    r = _resolve_slot_by_game(state, slot, entities, config, 0)
    return {r.entity} if r.resolved else set(r.alternatives)


def game_path_readings(state, slot, entities, config):
    """The readings of the slot's ``MeaningGame``: through
    ``_pareto_readings``, and through the public prediction."""
    from meaning_games.equilibrium import _pareto_readings, predict

    g = build_np_game(state, slot, entities, config)
    rule, cap = config.off_path, config.cap
    return (
        _pareto_readings(g, rule, cap, slot.surface),
        predict(g, rule, cap).readings_of(slot.surface),
    )


class TestParetoReadings:
    """The NP route compiles each slot's game straight from the slot; its
    readings must be those of the slot's ``MeaningGame`` under
    ``_pareto_readings`` and under the public prediction, on every slot
    resolved, under both off-path rules."""

    def discourses(self, he_man_path, man_him_path):
        from meaning_games import load_discourse

        rng = random.Random(808)
        out = [random_strict_discourse(rng) for _ in range(30)]
        out += [load_discourse(he_man_path), load_discourse(man_him_path)]
        symmetric = ReferenceSlot(
            "s",
            GrammaticalFunction.SUBJECT,
            "he",
            (ExpressionOption("he", PRONOUN), ExpressionOption("him", PRONOUN)),
            ("fred", "max"),
        )
        out.append(
            Discourse(
                dict(MALE_ENTITIES), (Utterance(1, (symmetric,)),), ResolutionConfig()
            )
        )
        return out

    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    def test_agrees_with_predict(self, monkeypatch, he_man_path, man_him_path, rule):
        routed = route_slots(monkeypatch)
        for discourse in self.discourses(he_man_path, man_him_path):
            resolve(discourse, replace(discourse.config, off_path=rule))

        assert len(routed) > 30
        tied = 0
        for state, slot, entities, config in routed:
            assert config.off_path == rule
            readings = route_readings(state, slot, entities, config)
            by_game, predicted = game_path_readings(state, slot, entities, config)
            assert readings == by_game == predicted
            tied += len(predicted) > 1
        assert tied > 0

    def test_message_without_edges_has_no_reading(self):
        from meaning_games.equilibrium import _pareto_readings, predict

        config = ResolutionConfig()
        state = DiscourseState.initial(["fred", "max"], config)
        slot = man_slot("s", GrammaticalFunction.SUBJECT, "he")
        she = ExpressionOption("she", PRONOUN, {"gender": "female"})
        slot = replace(slot, options=slot.options + (she,))
        g = build_np_game(state, slot, MALE_ENTITIES, config)
        assert g.contents_for("she") == ()
        for mid in ("she", "nobody"):
            assert _pareto_readings(g, "prior", None, mid) == set()
            assert predict(g).readings_of(mid) == set()


class TestDirectNpRoute:
    """The NP route compiles a slot's game from the slot and reads a used
    expression that fits one candidate without a search: it must give the
    readings and raise the errors of the slot's ``MeaningGame``."""

    def test_featured_discourses_mix_one_and_many_reading_slots(self):
        fits = []
        for seed in range(20):
            discourse = random_featured_discourse(random.Random(seed))
            for slot in discourse.utterances[1].slots():
                used = slot.used_option()
                fits.append(
                    sum(used.compatible(discourse.entities[c]) for c in slot.candidates)
                )
        assert 1 in fits and max(fits) > 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_readings_equal_the_game_path(self, seed):
        rng = random.Random(seed)
        discourse = random_featured_discourse(rng)
        config = replace(
            discourse.config,
            off_path=rng.choice(["prior", "uniform"]),
            cb_bonus=rng.choice([0.0, rng.uniform(0.1, 1.0)]),
        )
        with pytest.MonkeyPatch.context() as mp:
            routed = route_slots(mp)
            resolve(discourse, config)
        assert routed
        for state, slot, entities, config in routed:
            zeroed = replace(state, salience={**state.salience, slot.candidates[0]: 0.0})
            for start in (state, zeroed):
                readings = route_readings(start, slot, entities, config)
                by_game = game_path_readings(start, slot, entities, config)
                assert [readings] * 2 == list(by_game)

    ENTITIES = {**MALE_ENTITIES, "ann": Entity("ann", "Ann", {"gender": "female"})}
    HE = ExpressionOption("he", PRONOUN, {"gender": "male"})
    SHE = ExpressionOption("she", PRONOUN, {"gender": "female"})
    PERSON = ExpressionOption("the person", DEFINITE)
    # Per case: slot changes, config changes (set past the config's own
    # checks), whether the state lacks max, and the error every path raises.
    ERRORS = {
        "unknown candidate": (
            {"candidates": ("fred", "zed")}, {}, False,
            ScenarioError, "slot 's' names unknown candidate 'zed'",
        ),
        "missing salience": (
            {}, {}, True, InvalidGameError, "slot 's' has no salience for ['max']",
        ),
        "duplicate candidates": (
            {"candidates": ("fred", "fred")}, {}, False,
            InvalidGameError, "slot 's' has duplicate candidates",
        ),
        "duplicate options": (
            {"options": (HE, HE)}, {}, False,
            ScenarioError, "slot 's' has duplicate expression options",
        ),
        "candidate without expression": (
            {"options": (HE,), "candidates": ("fred", "ann")}, {}, False,
            InvalidGameError, "candidate 'ann' of slot 's' has no grammatical expression",
        ),
        "used surface not an option": (
            {"surface": "it"}, {}, False,
            ScenarioError, "slot 's': used surface 'it' is not among its options",
        ),
        "used expression fits no candidate": (
            {"surface": "she", "options": (HE, SHE)}, {}, False,
            InvalidGameError,
            "no candidate of slot 's' is compatible with the used expression 'she'",
        ),
        "zero total salience": (
            {"candidates": ("ann",), "options": (SHE,), "surface": "she"},
            {"initial_salience": 0.0}, False,
            InvalidGameError, "prior weights must have positive total mass",
        ),
        "unknown off-path rule": (
            {}, {"off_path": "bogus"}, False,
            InvalidGameError, "unknown off-path rule 'bogus'",
        ),
        "cap below the profile count": (
            {}, {"cap": 15}, False,
            SizeLimitError, "16 deterministic profiles exceed the cap of 15",
        ),
        "cap below the profile count, one reading": (
            {"candidates": ("fred", "ann"), "options": (HE, SHE, PERSON)},
            {"cap": 7}, False,
            SizeLimitError, "8 deterministic profiles exceed the cap of 7",
        ),
        # Doubly bad input keeps the first error.
        "unknown and duplicate candidates": (
            {"candidates": ("zed", "fred", "fred")}, {}, False,
            ScenarioError, "slot 's' names unknown candidate 'zed'",
        ),
        "duplicate candidates and options": (
            {"candidates": ("fred", "fred"), "options": (HE, HE)}, {}, False,
            InvalidGameError, "slot 's' has duplicate candidates",
        ),
        "no expression and used fits none": (
            {"options": (SHE,), "surface": "she"}, {}, False,
            InvalidGameError, "candidate 'fred' of slot 's' has no grammatical expression",
        ),
        "zero salience and unknown rule": (
            {"candidates": ("ann",), "options": (SHE,), "surface": "she"},
            {"initial_salience": 0.0, "off_path": "bogus"}, False,
            InvalidGameError, "prior weights must have positive total mass",
        ),
        "unknown rule and cap": (
            {}, {"off_path": "bogus", "cap": 1}, False,
            InvalidGameError, "unknown off-path rule 'bogus'",
        ),
    }

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_error_parity(self, case):
        from meaning_games.equilibrium import _pareto_readings

        slot_changes, config_changes, drop_max, error, text = self.ERRORS[case]
        slot = replace(man_slot("s", GrammaticalFunction.SUBJECT, "he"), **slot_changes)
        config = ResolutionConfig()
        for name, value in config_changes.items():
            object.__setattr__(config, name, value)
        state = DiscourseState.initial(sorted(self.ENTITIES), config)
        state = ingest(state, scolding_utterance(), config)
        if drop_max:
            del state.salience["max"]
        paths = [
            lambda: _resolve_slot_by_game(state, slot, self.ENTITIES, config, 2),
            lambda: _pareto_readings(
                build_np_game(state, slot, self.ENTITIES, config),
                config.off_path, config.cap, slot.surface,
            ),
        ]
        if not drop_max:  # every entity of a discourse has a salience
            u2 = Utterance(2, (slot,))
            discourse = Discourse(self.ENTITIES, (scolding_utterance(), u2), config)
            paths.append(lambda: resolve(discourse))
        for path in paths:
            with pytest.raises(error) as raised:
                path()
            assert str(raised.value).split(";")[0] == text


class TestConfigContract:
    @pytest.mark.parametrize(
        "field",
        [
            "initial_salience",
            "rank_weight",
            "cb_bonus",
            "success_bonus",
            "parallelism_penalty",
            "pronoun_boost",
            "definite_np_boost",
            "proper_name_boost",
            "pronoun_cost",
            "definite_np_cost",
            "proper_name_cost",
            "lightness_cost",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, field, value):
        kind = field.rsplit("_", 1)[0]
        with pytest.raises(ScenarioError, match="finite"):
            if field.endswith("_boost"):
                config = ResolutionConfig()
                ResolutionConfig(boosts={**config.boosts, FormKind(kind): value})
            elif field == "lightness_cost":
                ExpressionForm(FormKind.PRONOUN, value)
            elif field.endswith("_cost"):
                validate_form_costs({**DEFAULT_FORM_COSTS, FormKind(kind): value})
            else:
                replace(ResolutionConfig(), **{field: value})

    def test_negative_success_bonus_rejected(self):
        with pytest.raises(ScenarioError, match="success bonus"):
            ResolutionConfig(success_bonus=-1.0)

    def test_negative_cb_bonus_rejected(self):
        # ``_np_parts`` adds the bonus only when positive, so a negative one
        # would be ignored without a word.
        with pytest.raises(ScenarioError, match="cb bonus must be nonnegative"):
            ResolutionConfig(cb_bonus=-5.0)
        assert ResolutionConfig(cb_bonus=0.0).cb_bonus == 0.0

    def test_unknown_off_path_rule_rejected(self):
        with pytest.raises(ScenarioError, match="off-path"):
            ResolutionConfig(off_path="nearest")
