"""The compiled solver core against the brute-force oracle and pinned output.

The equilibrium search runs on an integer-indexed view of the game,
filters the senders' best-reply sets at the last depth once per parent node,
and memoizes receiver best replies per message by the bit mask of the
contents that send it; these tests check it report for report against
``oracle.py`` (maps, expected utilities, success, beliefs, Pareto
survivors), including where the last message's values sit at the edges of
the tolerance, check that ``predict`` and ``predict_compound``,
which build reports only for the Pareto survivors, equal the filtered full
enumeration, and pin the CLI's machine output for the bundled files.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
from generators import message_cost_game, random_compound, random_valid_game
from meaning_games import (
    Content,
    MeaningGame,
    Message,
    Prediction,
    Prior,
    SizeLimitError,
    UtilityModel,
    constituent_expected_utility,
    enumerate_pure_equilibria,
    equilibrium,
    flatten,
    pareto_filter,
    predict,
)
from meaning_games.cli import main
from meaning_games.compound import enumerate_compound, predict_compound
from meaning_games.game import TOL

BUNDLED = Path(__file__).parent.parent / "src" / "meaning_games" / "data"
PINNED = Path(__file__).parent / "data"
RULES = ("prior", "uniform")


def with_ties(rng: random.Random, g):
    """Costs on a quarter grid, some nudged by far less than the tolerance."""

    def snap(v):
        return round(v * 4) / 4 + (1e-12 if rng.random() < 0.3 else 0.0)

    u = g.utility
    return replace(
        g,
        utility=replace(
            u,
            sender_cost={k: snap(v) for k, v in u.sender_cost.items()},
            receiver_cost={k: snap(v) for k, v in u.receiver_cost.items()},
            sender_bonus=1.0,
            receiver_bonus=1.0,
        ),
    )


def with_zero_prior(rng: random.Random, g):
    """Some contents (never all) carry no prior mass."""
    cids = g.content_ids()
    weights = dict(g.prior.weights)
    for c in rng.sample(cids, rng.randint(1, len(cids) - 1)):
        weights[c] = 0.0
    return replace(g, prior=Prior.normalized(weights))


def maps(report):
    return (
        tuple(sorted(report.sender_map().items())),
        tuple(sorted(report.receiver_map().items())),
    )


def assert_reports_match_oracle(g, reports, rule):
    found = [maps(r) for r in reports]
    assert len(set(found)) == len(found)
    assert set(found) == oracle.enumerate_equilibria_fast(g, rule)

    m_index = {m: i for i, m in enumerate(g.message_ids())}
    c_index = {c: i for i, c in enumerate(g.content_ids())}
    encodings = [
        (
            tuple(m_index[r.sender_map()[c]] for c in g.content_ids()),
            tuple(c_index[a] for a in r.receiver_map().values()),
        )
        for r in reports
    ]
    assert encodings == sorted(encodings)

    for r in reports:
        smap, rmap = r.sender_map(), r.receiver_map()
        assert r.eu_sender == oracle.expected_utility(g, smap, rmap, "S")
        assert r.eu_receiver == oracle.expected_utility(g, smap, rmap, "R")
        assert r.success == pytest.approx(
            sum(g.prior[c] for c in g.content_ids() if rmap[smap[c]] == c), abs=1e-12
        )
        expected = oracle._beliefs(g, smap, rule)
        for m, row in expected.items():
            if m in r.beliefs.on_path:
                row = {c: p for c, p in row.items() if p > 0.0}
            assert r.beliefs.at(m) == row

    survivors = {tuple(sorted(r.sender_map().items())) for r in pareto_filter(reports)}
    assert survivors == oracle.pareto_maps(g, set(found))


def generated_games(count: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        g = random_valid_game(rng, max_size=4 if i % 5 == 0 else 3)
        if i % 3 == 1:
            g = with_ties(rng, g)
        elif i % 3 == 2 and len(g.contents) > 1:
            g = with_zero_prior(rng, g)
        yield g


@pytest.mark.parametrize("rule", RULES)
def test_reports_match_oracle_on_generated_games(rule):
    for g in generated_games(60, 2024):
        assert_reports_match_oracle(g, enumerate_pure_equilibria(g, rule), rule)


@pytest.mark.parametrize("rule", RULES)
def test_zero_mass_preimage_falls_back_to_the_off_path_row(rule):
    # Only the zero-prior content may send "n", so n's posterior is the
    # off-path row for every sender, whichever content pools on "m".
    g = message_cost_game({"a": 0.7, "b": 0.3, "z": 0.0}, {"m": 0.1, "n": 0.3}, 1.0)
    reports = enumerate_pure_equilibria(g, rule)
    assert reports
    assert_reports_match_oracle(g, reports, rule)
    silent = [r for r in reports if "n" not in r.beliefs.on_path]
    assert silent
    for r in silent:
        assert r.beliefs.at("n") == oracle._beliefs(g, r.sender_map(), rule)["n"]


@pytest.mark.parametrize("rule", RULES)
def test_common_interest_games_with_unequal_bonuses_match_oracle(rule):
    # Under ``shared`` both players value a turn at the mean of the two
    # selfish utilities, whatever the bonuses and cost tables, so one
    # utility table serves both; the generators only give equal bonuses.
    rng = random.Random(2525)
    for i in range(40):
        g = random_valid_game(rng, max_size=4 if i % 4 == 0 else 3, shared=True)
        u = g.utility
        g = replace(
            g,
            utility=replace(
                u,
                sender_bonus=rng.uniform(0.2, 2.0),
                receiver_bonus=rng.uniform(0.2, 2.0),
            ),
        )
        assert g.utility.sender_bonus != g.utility.receiver_bonus
        assert g.utility.sender_cost != {
            (c, m): v for (m, c), v in g.utility.receiver_cost.items()
        }
        reports = enumerate_pure_equilibria(g, rule)
        assert_reports_match_oracle(g, reports, rule)
        survivors = predict(g, rule).reports
        expected = oracle.pareto_maps(g, {maps(r) for r in reports})
        assert {maps(r)[0] for r in survivors} == expected
        for r in survivors:
            smap, rmap = r.sender_map(), r.receiver_map()
            assert r.eu_sender == oracle.expected_utility(g, smap, rmap, "S")
            assert r.eu_receiver == oracle.expected_utility(g, smap, rmap, "R")


# Offsets of a last-column cost from an earlier message's: exact ties, ties
# nudged far inside the tolerance, and offsets just inside and just outside
# it, so a leaf's last value sits at, just under or just over the running
# best, and just above or just below the running best minus TOL.
NUDGES = (0.0, 1e-12, -1e-12, TOL - 1e-12, TOL + 1e-12, 1e-12 - TOL, -1e-12 - TOL)


def nudged_last_column(rng: random.Random, shared: bool):
    """A 4x4 game with quarter-grid costs whose last message's costs copy
    an earlier message's, per content, offset by one of ``NUDGES``.  Some
    games give an earlier message a single reading, some contents no prior
    mass."""
    cids = [f"c{i}" for i in range(4)]
    mids = [f"m{j}" for j in range(4)]
    *earlier, last = mids
    sender_cost = {(c, m): (1 + rng.randrange(5)) / 4 for c in cids for m in earlier}
    receiver_cost = {(m, c): (1 + rng.randrange(5)) / 4 for c in cids for m in earlier}
    for c in cids:
        twin, nudge = rng.choice(earlier), rng.choice(NUDGES)
        sender_cost[(c, last)] = sender_cost[(c, twin)] + nudge
        # A shared game halves each cost, so both move to shift a value by
        # the whole nudge.
        nudge = nudge if shared else rng.choice(NUDGES)
        receiver_cost[(last, c)] = receiver_cost[(twin, c)] + nudge
    if rng.random() < 0.4:
        single, keep = rng.choice(earlier), rng.choice(cids)
        for c in cids:
            if c != keep:
                del sender_cost[(c, single)], receiver_cost[(single, c)]
    weights = {c: float(rng.randint(1, 9)) for c in cids}
    if rng.random() < 0.4:
        for c in rng.sample(cids, rng.randint(1, 3)):
            weights[c] = 0.0
    return MeaningGame(
        tuple(Content(c) for c in cids),
        tuple(Message(m) for m in mids),
        Prior.normalized(weights),
        UtilityModel(1.0, 1.0, sender_cost, receiver_cost, shared),
    )


@pytest.mark.parametrize("rule", RULES)
def test_last_message_at_the_tolerance_edges_matches_oracle(rule):
    rng = random.Random(6161)
    for i in range(16):
        g = nudged_last_column(rng, shared=bool(i % 2))
        assert_reports_match_oracle(g, enumerate_pure_equilibria(g, rule), rule)


@pytest.mark.parametrize("rule", RULES)
def test_cost_entries_naming_unknown_ids_are_ignored(rule):
    # A pair is an edge when both cost tables carry it, so stray entries
    # for an unknown content or message become edges the solver skips.
    rng = random.Random(5151)
    for _ in range(20):
        g = random_valid_game(rng, max_size=3)
        u = g.utility
        c0, m0 = g.content_ids()[0], g.message_ids()[0]
        stray = [("ghost", m0), (c0, "phantom"), ("ghost", "phantom")]
        haunted = replace(
            g,
            edges=None,
            utility=replace(
                u,
                sender_cost={**u.sender_cost, **{e: 0.1 for e in stray}, ("wraith", m0): 0.0},
                receiver_cost={**u.receiver_cost, **{(m, c): 0.2 for c, m in stray}},
            ),
        )
        assert set(stray) < haunted.edges
        assert repr(predict(haunted, rule)) == repr(predict(g, rule))
        assert repr(enumerate_pure_equilibria(haunted, rule)) == repr(
            enumerate_pure_equilibria(g, rule)
        )


def profile_count(g) -> int:
    """Deterministic profiles of ``g``: each content's grammatical
    messages times each message's grammatical readings, over the messages
    with at least one."""
    count = 1
    for c in g.content_ids():
        count *= len(g.messages_for(c))
    for m in g.message_ids():
        count *= len(g.contents_for(m)) or 1
    return count


def assert_cap_boundary(solve, g):
    count = profile_count(g)
    with pytest.raises(SizeLimitError) as refused:
        solve(count - 1)
    assert str(refused.value).startswith(
        f"{count} deterministic profiles exceed the cap of {count - 1}"
    )
    solve(count)


def test_the_cap_refuses_one_profile_over_and_admits_the_count():
    rng = random.Random(3131)
    for _ in range(10):
        g = random_valid_game(rng, max_size=3)
        assert_cap_boundary(lambda cap: predict(g, "prior", cap), g)


def test_the_compound_cap_refuses_one_profile_over_and_admits_the_count():
    rng = random.Random(3232)
    for i in range(6):
        flat = flatten(random_compound(rng, constrained=bool(i % 2)))
        assert_cap_boundary(
            lambda cap: enumerate_compound(flat, "prior", cap), flat.game
        )


def product_profiles(flat, pairs):
    """Per-constituent profile maps, carried onto the flattened game's ids."""
    by_message = {mtup: mid for mid, mtup in flat.message_components.items()}
    by_content = {ctup: cid for cid, ctup in flat.content_components.items()}
    out = set()
    for (s1, r1), (s2, r2) in pairs:
        s1, r1, s2, r2 = dict(s1), dict(r1), dict(s2), dict(r2)
        smap = {
            cid: by_message[(s1[c1], s2[c2])]
            for cid, (c1, c2) in flat.content_components.items()
        }
        rmap = {
            mid: by_content[(r1[m1], r2[m2])]
            for mid, (m1, m2) in flat.message_components.items()
        }
        out.add((tuple(sorted(smap.items())), tuple(sorted(rmap.items()))))
    return out


@pytest.mark.parametrize("rule", RULES)
def test_predict_compound_matches_oracle(rule):
    rng = random.Random(77)
    for i in range(12):
        cg = random_compound(rng, constrained=bool(i % 2))
        flat = flatten(cg)
        result = predict_compound(cg, rule)
        g = flat.game
        for r in result.prediction.reports:
            smap, rmap = r.sender_map(), r.receiver_map()
            assert r.eu_sender == oracle.expected_utility(g, smap, rmap, "S")
            assert r.eu_receiver == oracle.expected_utility(g, smap, rmap, "R")
        if i % 2:
            continue
        equilibria = product_profiles(
            flat,
            [
                (a, b)
                for a in oracle.enumerate_equilibria(cg.constituents[0].game, rule)
                for b in oracle.enumerate_equilibria(cg.constituents[1].game, rule)
            ],
        )
        survivors = {
            tuple(sorted(r.sender_map().items())) for r in result.prediction.reports
        }
        assert survivors == oracle.pareto_maps(g, equilibria)


def reference_prediction(g, reports) -> Prediction:
    """The prediction of the Pareto-optimal ``reports``, with each distinct
    interpretation read back off a report's maps: the messages its sender
    sends on the prior's support, with the readings its receiver gives
    them, sorted."""
    maps = []
    for r in reports:
        smap, rmap = r.sender_map(), r.receiver_map()
        on_path = {smap[c] for c in g.content_ids() if g.prior[c] > 0.0}
        interp = tuple(sorted((m, rmap[m]) for m in on_path))
        if interp not in maps:
            maps.append(interp)
    return Prediction(tuple(reports), len(maps) > 1, tuple(maps))


@pytest.mark.parametrize("rule", RULES)
def test_predict_equals_the_filtered_enumeration(rule):
    # Ties nudged within the tolerance make dominance non-transitive, so the
    # filter on payoff pairs must check every pair against every other.
    for g in generated_games(60, 4242):
        expected = reference_prediction(g, pareto_filter(enumerate_pure_equilibria(g, rule)))
        assert repr(predict(g, rule)) == repr(expected)


@pytest.mark.parametrize("rule", RULES)
def test_predict_compound_equals_the_filtered_enumeration(rule):
    rng = random.Random(4343)
    for i in range(20):
        cg = random_compound(rng, constrained=bool(i % 2))
        flat = flatten(cg)
        expected = reference_prediction(
            flat.game, pareto_filter(enumerate_compound(flat, rule))
        )
        assert repr(predict_compound(cg, rule).prediction) == repr(expected)


@pytest.mark.parametrize("rule", RULES)
def test_annotations_equal_the_constituent_expected_utilities(rule):
    rng = random.Random(4444)
    for i in range(20):
        cg = random_compound(rng, constrained=bool(i % 2))
        result = predict_compound(cg, rule)
        for report, annotations in zip(result.prediction.reports, result.annotations):
            for k, a in enumerate(annotations):
                assert a.induced_eu_sender == constituent_expected_utility(
                    result.flattened, k, report.profile, "S"
                )
                assert a.induced_eu_receiver == constituent_expected_utility(
                    result.flattened, k, report.profile, "R"
                )


@pytest.mark.parametrize("rule", RULES)
def test_predict_builds_beliefs_for_the_survivors_only(rule, monkeypatch):
    calls = []
    real = equilibrium.posterior_beliefs

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "posterior_beliefs", counted)
    pruned = 0
    for g in generated_games(30, 4444):
        calls.clear()
        survivors = predict(g, rule).reports
        assert len(calls) == len(survivors)
        calls.clear()
        reports = enumerate_pure_equilibria(g, rule)
        assert len(calls) == len(reports)
        pruned += len(reports) - len(survivors)
    assert pruned > 0


PINNED_RUNS = [
    ("pareto", "--game", "fig2.game"),
    ("predict", "--game", "fig2.game"),
    ("solve", "--game", "fig2.game"),
    ("levelk", "--game", "fig2.game"),
    ("resolve", "--discourse", "he_man.disc"),
    ("resolve", "--discourse", "man_him.disc"),
    ("compound", "--discourse", "man_him.disc"),
]


@pytest.mark.parametrize("command,flag,name", PINNED_RUNS)
def test_machine_output_is_pinned(command, flag, name, capsys, monkeypatch):
    monkeypatch.chdir(BUNDLED)
    for extra, suffix in (([], ""), (["--off-path", "uniform"], ".uniform")):
        main([command, flag, name, "--format", "machine", *extra])
        pinned = PINNED / f"{command}.{name.split('.')[0]}{suffix}.json"
        assert capsys.readouterr().out == pinned.read_text()
