import itertools
import random
from dataclasses import replace

import pytest

from meaning_games import (
    CompatibilityRelation,
    CompoundGame,
    ConstituentGame,
    Content,
    InvalidGameError,
    MeaningGame,
    Message,
    NotApplicableError,
    Prior,
    Profile,
    SenderStrategy,
    SizeLimitError,
    Slot,
    UtilityModel,
    composite_belief_builder,
    constituent_expected_utility,
    enumerate_compound,
    enumerate_pure_equilibria,
    expected_utility,
    flatten,
    is_equilibrium,
    predict,
    predict_compound,
    validate_game,
)
from meaning_games.compound import product_receiver_filter, product_sender_filter
from meaning_games.equilibrium import _Compiled
from meaning_games.game import TOL
from generators import (
    message_cost_game,
    pronoun_game,
    random_compound,
    random_constituent,
)
import oracle


def product_profiles(flat, profile_pairs):
    """Map per-constituent profile maps onto the flattened game's ids."""
    out = set()
    for (s1, r1), (s2, r2) in profile_pairs:
        smap = {}
        for cid, (c1, c2) in flat.content_components.items():
            smap[cid] = None
            for mid, (m1, m2) in flat.message_components.items():
                if m1 == dict(s1)[c1] and m2 == dict(s2)[c2]:
                    smap[cid] = mid
        rmap = {}
        for mid, (m1, m2) in flat.message_components.items():
            target = (dict(r1)[m1], dict(r2)[m2])
            for cid, ctup in flat.content_components.items():
                if ctup == target:
                    rmap[mid] = cid
        out.add(
            (tuple(sorted(smap.items())), tuple(sorted(rmap.items())))
        )
    return out


class TestFlatten:
    def test_single_constituent_is_identity_up_to_relabeling(self):
        g = pronoun_game()
        flat = flatten(CompoundGame((ConstituentGame(Slot("np"), g),)))
        assert flat.game.content_ids() == g.content_ids()
        assert flat.game.message_ids() == g.message_ids()
        assert flat.game.prior.weights == pytest.approx(g.prior.weights)
        assert flat.game.utility.sender_cost == g.utility.sender_cost
        ours = {
            (
                tuple(sorted(r.sender_map().items())),
                tuple(sorted(r.receiver_map().items())),
            )
            for r in enumerate_pure_equilibria(flat.game)
        }
        theirs = {
            (
                tuple(sorted(r.sender_map().items())),
                tuple(sorted(r.receiver_map().items())),
            )
            for r in enumerate_pure_equilibria(g)
        }
        assert ours == theirs

    def test_flat_game_is_valid_and_prior_renormalizes(self):
        rng = random.Random(1)
        for _ in range(20):
            cg = random_compound(rng, constrained=True)
            try:
                flat = flatten(cg)
            except InvalidGameError:
                continue  # a joint content can lose all its messages
            assert validate_game(flat.game).errors == ()
            assert sum(flat.game.prior.weights.values()) == pytest.approx(1.0)

    def test_partial_success_pays_partial_bonus(self):
        rng = random.Random(2)
        cg = random_compound(rng, constrained=False)
        flat = flatten(cg)
        g1 = cg.constituents[0].game
        g2 = cg.constituents[1].game
        c1, c2 = g1.content_ids()[0], g2.content_ids()[0]
        other2 = g2.content_ids()[1]
        intended = f"{c1}|{c2}"
        interpreted = f"{c1}|{other2}"
        bonus_s, bonus_r = flat.game.utility.bonus_parts(intended, interpreted)
        assert bonus_s == pytest.approx(
            cg.constituents[0].weight * g1.utility.sender_bonus
        )
        assert bonus_r == pytest.approx(
            cg.constituents[0].weight * g1.utility.receiver_bonus
        )

    def test_mixed_shared_flags_rejected(self):
        rng = random.Random(3)
        g1 = random_constituent(rng, "a", shared=True)
        g2 = random_constituent(rng, "b", shared=False)
        cg = CompoundGame(
            (ConstituentGame(Slot("a"), g1), ConstituentGame(Slot("b"), g2))
        )
        with pytest.raises(NotApplicableError):
            flatten(cg)

    def test_cap_enforced(self):
        rng = random.Random(4)
        cg = random_compound(rng, constrained=False)
        with pytest.raises(SizeLimitError):
            flatten(cg, cap=3)

    def test_empty_compat_rejected(self):
        rng = random.Random(5)
        g1 = random_constituent(rng, "a", shared=False)
        g2 = random_constituent(rng, "b", shared=False)
        cg = CompoundGame(
            (ConstituentGame(Slot("a"), g1), ConstituentGame(Slot("b"), g2)),
            CompatibilityRelation(frozenset()),
        )
        with pytest.raises(InvalidGameError):
            flatten(cg)


class TestUtilityPreservation:
    def test_joint_profiles_earn_the_weighted_constituent_sum(self):
        rng = random.Random(6)
        checked = 0
        while checked < 30:
            weights = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            cg = random_compound(rng, constrained=rng.random() < 0.5, weights=weights)
            try:
                flat = flatten(cg)
            except InvalidGameError:
                continue
            g = flat.game
            for _ in range(5):
                smap = {c: rng.choice(g.messages_for(c)) for c in g.content_ids()}
                rmap = {
                    m: rng.choice(g.contents_for(m))
                    for m in g.message_ids()
                    if g.contents_for(m)
                }
                profile = Profile.from_maps(smap, rmap)
                for player in ("S", "R"):
                    flat_eu = expected_utility(g, profile.sender, profile.receiver, player)
                    summed = sum(
                        cg.constituents[k].weight
                        * constituent_expected_utility(flat, k, profile, player)
                        for k in range(2)
                    )
                    assert flat_eu == pytest.approx(summed, abs=1e-9)
            checked += 1


class TestProductStructure:
    def test_unconstrained_compounds_factor(self):
        rng = random.Random(7)
        for _ in range(15):
            cg = random_compound(rng, constrained=False)
            flat = flatten(cg)
            composite = {
                (
                    tuple(sorted(r.sender_map().items())),
                    tuple(sorted(r.receiver_map().items())),
                )
                for r in enumerate_compound(flat, "prior")
            }
            eq1 = oracle.enumerate_equilibria(cg.constituents[0].game, "prior")
            eq2 = oracle.enumerate_equilibria(cg.constituents[1].game, "prior")
            expected = product_profiles(
                flat, [(a, b) for a in eq1 for b in eq2]
            )
            assert composite == expected


def factors(mapping, key_parts, value_parts):
    """Whether a flat map combines one map per slot (written out here, not
    taken from the library)."""
    slots = len(next(iter(key_parts.values())))
    for k in range(slots):
        induced = {}
        for key, value in mapping.items():
            part = value_parts[value][k]
            if induced.setdefault(key_parts[key][k], part) != part:
                return False
    return True


def all_maps(options):
    keys = list(options)
    for choice in itertools.product(*[options[k] for k in keys]):
        yield dict(zip(keys, choice))


def as_key(smap, rmap):
    return (tuple(sorted(smap.items())), tuple(sorted(rmap.items())))


class TestFactoredSearch:
    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    def test_constrained_compounds_match_brute_force(self, rule):
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            cg = random_compound(rng, constrained=True)
            try:
                flat = flatten(cg)
            except InvalidGameError:
                continue
            g = flat.game
            cc, mc = flat.content_components, flat.message_components
            senders = [
                smap
                for smap in all_maps({c: g.messages_for(c) for c in g.content_ids()})
                if factors(smap, cc, mc)
            ]
            receivers = [
                rmap
                for rmap in all_maps(
                    {m: g.contents_for(m) for m in g.message_ids() if g.contents_for(m)}
                )
                if factors(rmap, mc, cc)
            ]
            beliefs = composite_belief_builder(flat, rule)
            expected = set()
            for smap in senders:
                for rmap in receivers:
                    profile = Profile.from_maps(smap, rmap)
                    if is_equilibrium(g, profile, rule, beliefs(profile.sender)):
                        expected.add(as_key(smap, rmap))
            found = {
                as_key(r.sender_map(), r.receiver_map())
                for r in enumerate_compound(flat, rule)
            }
            assert found == expected
            checked += 1

    def test_three_slots_with_the_cap_raised(self):
        rng = random.Random(32)
        games = [random_constituent(rng, tag, shared=True) for tag in "abc"]
        cg = CompoundGame(
            tuple(ConstituentGame(Slot(tag), g) for tag, g in zip("abc", games))
        )
        flat = flatten(cg)
        with pytest.raises(SizeLimitError):
            enumerate_compound(flat)  # 8**16 flat profiles; the cap is unchanged
        found = {
            as_key(r.sender_map(), r.receiver_map())
            for r in enumerate_compound(flat, cap=10**18)
        }
        message_of = {tup: mid for mid, tup in flat.message_components.items()}
        content_of = {tup: cid for cid, tup in flat.content_components.items()}
        expected = set()
        for per_slot in itertools.product(
            *[oracle.enumerate_equilibria(g, "prior") for g in games]
        ):
            smaps = [dict(s) for s, _ in per_slot]
            rmaps = [dict(r) for _, r in per_slot]
            smap = {
                cid: message_of[tuple(s[c] for s, c in zip(smaps, ctup))]
                for cid, ctup in flat.content_components.items()
            }
            rmap = {
                mid: content_of[tuple(r[m] for r, m in zip(rmaps, mtup))]
                for mid, mtup in flat.message_components.items()
            }
            expected.add(as_key(smap, rmap))
        assert found and found == expected


def shaped_constituent(rng, tag, n_contents, n_messages, shared, costs):
    """Complete constituent of the given shape.  ``costs`` is "random",
    "zero" or "equal"; the last two tie every message, so best-reply sets
    hold several messages."""
    cids = [f"{tag}c{i}" for i in range(n_contents)]
    mids = [f"{tag}m{j}" for j in range(n_messages)]
    weights = [rng.uniform(0.5, 2.0) for _ in cids]
    prior = {c: w / sum(weights) for c, w in zip(cids, weights)}

    def cost():
        return {"random": rng.uniform(0.0, 1.0), "zero": 0.0, "equal": 0.4}[costs]

    sender_cost = {(c, m): cost() for c in cids for m in mids}
    receiver_cost = {(m, c): cost() for c in cids for m in mids}
    bonus = rng.uniform(0.5, 2.0)
    return MeaningGame(
        tuple(Content(c) for c in cids),
        tuple(Message(m) for m in mids),
        Prior(prior),
        UtilityModel(bonus, bonus if shared else rng.uniform(0.5, 2.0),
                     sender_cost, receiver_cost, shared),
    )


def shaped_compound(rng, shapes, costs, constrained):
    shared = rng.random() < 0.5
    games = [
        shaped_constituent(rng, tag, nc, nm, shared, cost)
        for tag, (nc, nm), cost in zip("ab", shapes, costs)
    ]
    constituents = tuple(ConstituentGame(Slot(tag), g) for tag, g in zip("ab", games))
    if not constrained:
        return CompoundGame(constituents)
    contents = list(itertools.product(*[g.content_ids() for g in games]))
    messages = list(itertools.product(*[g.message_ids() for g in games]))
    return CompoundGame(
        constituents,
        CompatibilityRelation(frozenset(rng.sample(messages, rng.randint(3, len(messages))))),
        frozenset(rng.sample(contents, rng.randint(3, len(contents)))),
    )


def brute_force_compound(flat, rule):
    """Every profile of per-slot strategy combinations that is a mutual
    best response under composite beliefs, by exhaustive check."""
    g = flat.game
    cc, mc = flat.content_components, flat.message_components
    senders = [
        smap
        for smap in all_maps({c: g.messages_for(c) for c in g.content_ids()})
        if factors(smap, cc, mc)
    ]
    receivers = [
        rmap
        for rmap in all_maps(
            {m: g.contents_for(m) for m in g.message_ids() if g.contents_for(m)}
        )
        if factors(rmap, mc, cc)
    ]
    beliefs = composite_belief_builder(flat, rule)
    found = set()
    for smap in senders:
        system = beliefs(SenderStrategy.deterministic(smap))
        for rmap in receivers:
            if is_equilibrium(g, Profile.from_maps(smap, rmap), rule, system):
                found.add(as_key(smap, rmap))
    return found


class TestTiedAndNonSquareCompounds:
    """The search against brute force where best-reply sets tie and the
    constituents are not square, so the multi-message sender draw and the
    reading tables of uneven slots are both exercised."""

    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    @pytest.mark.parametrize(
        "shapes", [((3, 2), (2, 2)), ((2, 2), (2, 3))], ids=["3x2*2x2", "2x2*2x3"]
    )
    def test_search_matches_brute_force(self, rule, shapes):
        rng = random.Random(61 + len(rule) + shapes[0][0])
        costs = [("zero", "random"), ("random", "equal"), ("equal", "zero"),
                 ("random", "random")]
        checked = tied = zero_prior = 0
        while checked < 8:
            cg = shaped_compound(rng, shapes, costs[checked % 4], checked >= 4)
            if checked % 3 == 0 and shapes[0] == (2, 2):
                cg = with_zero_prior(cg)
            try:
                flat = flatten(cg)
            except InvalidGameError:
                continue
            g = flat.game
            zero_prior += any(g.prior[c] == 0.0 for c in g.content_ids())
            expected = brute_force_compound(flat, rule)
            found = [
                as_key(r.sender_map(), r.receiver_map())
                for r in enumerate_compound(flat, rule)
            ]
            assert len(found) == len(set(found))
            assert set(found) == expected
            tied += len(found) > 1
            checked += 1
        assert tied
        assert zero_prior or shapes[0] != (2, 2)


class TestProductFilters:
    def test_filters_agree_with_the_written_out_rule(self):
        rng = random.Random(71)
        checked = 0
        refused = {"sender": 0, "receiver": 0}
        while checked < 10:
            cg = random_compound(rng, constrained=True)
            try:
                flat = flatten(cg)
            except InvalidGameError:
                continue
            g = flat.game
            cc, mc = flat.content_components, flat.message_components
            sender_ok = product_sender_filter(flat)
            receiver_ok = product_receiver_filter(flat)
            smaps = list(all_maps({c: g.messages_for(c) for c in g.content_ids()}))
            rmaps = list(all_maps(
                {m: g.contents_for(m) for m in g.message_ids() if g.contents_for(m)}
            ))
            for smap in smaps:
                assert sender_ok(smap) == factors(smap, cc, mc)
                refused["sender"] += not factors(smap, cc, mc)
            for rmap in rmaps:
                assert receiver_ok(rmap) == factors(rmap, mc, cc)
                refused["receiver"] += not factors(rmap, mc, cc)
            checked += 1
        assert all(refused.values())


def with_zero_prior(cg):
    """The compound with all the first constituent's prior on its first
    content, so half the joint contents have zero prior."""
    first = cg.constituents[0]
    ids = first.game.content_ids()
    game = replace(first.game, prior=Prior({ids[0]: 1.0, ids[1]: 0.0}))
    return replace(cg, constituents=(replace(first, game=game),) + cg.constituents[1:])


def nonzero(beliefs):
    return {m: {c: p for c, p in row.items() if p > 0.0} for m, row in beliefs.items()}


class TestCompositeBeliefs:
    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    def test_builder_matches_the_oracle_on_every_factoring_sender(self, rule):
        rng = random.Random(41)
        checked = zero_prior = 0
        while checked < 40:
            cg = random_compound(rng, constrained=checked % 2 == 1)
            if checked % 5 == 0:
                cg = with_zero_prior(cg)
            try:
                flat = flatten(cg)
            except InvalidGameError:
                continue
            g = flat.game
            cc, mc = flat.content_components, flat.message_components
            zero_prior += any(g.prior[c] == 0.0 for c in g.content_ids())
            build = composite_belief_builder(flat, rule)
            for smap in all_maps({c: g.messages_for(c) for c in g.content_ids()}):
                if not factors(smap, cc, mc):
                    continue
                ours = build(SenderStrategy.deterministic(smap)).posterior
                theirs = oracle.composite_beliefs(flat, smap, rule)
                assert nonzero(ours).keys() == theirs.keys()
                for m, row in nonzero(theirs).items():
                    assert nonzero(ours)[m] == pytest.approx(row, abs=1e-12)
            checked += 1
        assert zero_prior

    def test_mixed_sender_is_not_applicable(self):
        flat = flatten(random_compound(random.Random(42), constrained=False))
        g = flat.game
        rows = {c: {g.messages_for(c)[0]: 1.0} for c in g.content_ids()}
        first = g.content_ids()[0]
        rows[first] = {m: 1.0 / len(g.messages_for(first)) for m in g.messages_for(first)}
        with pytest.raises(NotApplicableError):
            composite_belief_builder(flat)(SenderStrategy(rows))

    def test_mass_on_an_ungrammatical_message_is_invalid(self):
        cg = random_compound(random.Random(43), constrained=False)
        first = cg.constituents[0]
        c0, m0 = first.game.content_ids()[0], first.game.message_ids()[0]
        game = replace(first.game, edges=first.game.edges - {(c0, m0)})
        cg = replace(cg, constituents=(replace(first, game=game),) + cg.constituents[1:])
        flat = flatten(cg)
        g = flat.game
        smap = {c: g.messages_for(c)[0] for c in g.content_ids()}
        bad = next(c for c in g.content_ids() if flat.content_components[c][0] == c0)
        smap[bad] = next(m for m in g.message_ids() if flat.message_components[m][0] == m0)
        with pytest.raises(InvalidGameError):
            composite_belief_builder(flat)(SenderStrategy.deterministic(smap))


class TestPredictCompound:
    def test_parallelism_style_override(self):
        # Sentence-level cost asymmetry flips the reading of the only
        # feasible joint message away from the one the reference games
        # prefer, and the reference constituents get flagged.
        subject = message_cost_game(
            {"fred": 6 / 11, "max": 5 / 11}, {"he": 0.0, "the man": 0.5}, 1.0
        )
        sentence = message_cost_game(
            {"p_fm": 0.5, "p_mf": 0.5}, {"s1": 0.0}, 1.0
        )
        from dataclasses import replace

        penalized = replace(
            sentence,
            utility=replace(
                sentence.utility,
                sender_cost={("p_fm", "s1"): 0.0, ("p_mf", "s1"): 0.5},
                receiver_cost={("s1", "p_fm"): 0.0, ("s1", "p_mf"): 0.5},
            ),
        )
        cg = CompoundGame(
            (
                ConstituentGame(Slot("sentence"), penalized),
                ConstituentGame(Slot("subject"), subject),
            ),
            CompatibilityRelation(frozenset({("s1", "the man")})),
            frozenset({("p_fm", "fred"), ("p_mf", "max")}),
        )
        result = predict_compound(cg)
        assert not result.prediction.ambiguous
        assert result.prediction.interpretation() == {"s1|the man": "p_fm|fred"}
        annotations = {a.slot_id: a for a in result.annotations[0]}
        assert annotations["sentence"].locally_optimal
        assert not annotations["subject"].locally_optimal

    def test_zero_sentence_utilities_reduce_to_reference_level(self):
        # With a silent sentence level and slot-specific priors and costs,
        # the global prediction is the product of the matched pairings.
        subject = message_cost_game(
            {"fred": 0.7, "max": 0.3}, {"he": 0.0, "the man": 0.5}, 1.0
        )
        object_np = message_cost_game(
            {"fred2": 0.6, "max2": 0.4}, {"him": 0.0, "that man": 0.6}, 1.0
        )
        sentence = message_cost_game(
            {"p_fm": 0.5, "p_mf": 0.5}, {"s1": 0.0, "s2": 0.0}, 1.0
        )
        cg = CompoundGame(
            (
                ConstituentGame(Slot("sentence"), sentence),
                ConstituentGame(Slot("subject"), subject),
                ConstituentGame(Slot("object"), object_np),
            ),
            CompatibilityRelation(
                frozenset({("s1", "the man", "him"), ("s2", "he", "that man")})
            ),
            frozenset({("p_fm", "fred", "max2"), ("p_mf", "max", "fred2")}),
        )
        result = predict_compound(cg)
        assert not result.prediction.ambiguous
        interp = result.prediction.interpretation()
        # p_fm|fred|max2 carries prior mass 0.7 * 0.4 vs 0.3 * 0.6: likelier,
        # so it takes the lighter joint expression ("the man ... him" costs
        # 0.5, "he ... that man" 0.6).
        assert interp["s1|the man|him"] == "p_fm|fred|max2"
        assert interp["s2|he|that man"] == "p_mf|max|fred2"

    def test_symmetric_compound_flagged_ambiguous(self):
        subject = message_cost_game(
            {"fred": 0.5, "max": 0.5}, {"he": 0.0, "the man": 0.0}, 1.0
        )
        sentence = message_cost_game(
            {"p_fm": 0.5, "p_mf": 0.5}, {"s1": 0.0, "s2": 0.0}, 1.0
        )
        cg = CompoundGame(
            (
                ConstituentGame(Slot("sentence"), sentence),
                ConstituentGame(Slot("subject"), subject),
            ),
            CompatibilityRelation(frozenset({("s1", "the man"), ("s2", "he")})),
            frozenset({("p_fm", "fred"), ("p_mf", "max")}),
        )
        result = predict_compound(cg)
        assert result.prediction.ambiguous


class TestSharedViews:
    """A compound solve compiles each game once and reads every answer off
    those views; the answers are those of separately compiled games."""

    @staticmethod
    def compounds(seed, count):
        rng = random.Random(seed)
        found = []
        while len(found) < count:
            cg = random_compound(rng, constrained=len(found) % 2 == 1)
            if len(found) % 5 == 0:
                cg = with_zero_prior(cg)
            try:
                found.append((cg, flatten(cg)))
            except InvalidGameError:
                continue
        return found

    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    def test_annotations_agree_with_each_constituents_own_prediction(self, rule):
        for cg, flat in self.compounds(71, 30):
            result = predict_compound(cg, rule)
            own = [predict(c.game, rule).reports for c in cg.constituents]
            assert len(result.annotations) == len(result.prediction.reports)
            for report, annotations in zip(result.prediction.reports, result.annotations):
                for k, (a, reports) in enumerate(zip(annotations, own)):
                    ind_s, ind_r = a.induced_eu_sender, a.induced_eu_receiver
                    for player, induced in (("S", ind_s), ("R", ind_r)):
                        eu = constituent_expected_utility(flat, k, report.profile, player)
                        assert induced == pytest.approx(eu, abs=1e-12)
                    assert a.slot_id == cg.constituents[k].slot.id
                    expected = (True, ind_s, ind_r)
                    if reports:
                        expected = (
                            any(
                                ind_s >= r.eu_sender - TOL and ind_r >= r.eu_receiver - TOL
                                for r in reports
                            ),
                            max(r.eu_sender for r in reports),
                            max(r.eu_receiver for r in reports),
                        )
                    assert (a.locally_optimal, a.best_eu_sender, a.best_eu_receiver) == expected

    @pytest.mark.parametrize("rule", ["prior", "uniform"])
    def test_reports_carry_the_public_builders_beliefs(self, rule):
        for cg, flat in self.compounds(72, 30):
            build = composite_belief_builder(flat, rule)
            reports = enumerate_compound(flat, rule)
            survivors = predict_compound(cg, rule).prediction.reports
            for r in reports + list(survivors):
                assert r.beliefs == build(r.profile.sender)
            assert all(r in reports for r in survivors)

    def test_each_game_is_compiled_once_per_call(self, monkeypatch):
        compiled = []
        init = _Compiled.__init__

        def counted(self, *args):
            compiled.append(self)
            init(self, *args)

        monkeypatch.setattr(_Compiled, "__init__", counted)
        single = CompoundGame((ConstituentGame(Slot("np"), pronoun_game()),))
        for cg in [single] + [cg for cg, _ in self.compounds(73, 4)]:
            k = len(cg.constituents)
            flat = flatten(cg)
            compiled.clear()
            predict_compound(cg)
            assert len(compiled) == 1 + k
            compiled.clear()
            enumerate_compound(flat)
            assert len(compiled) == 1 + k
