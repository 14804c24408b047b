"""Randomized instance builders shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from dataclasses import replace

from meaning_games import (
    CompatibilityRelation,
    CompoundGame,
    ConstituentGame,
    Content,
    Discourse,
    Entity,
    ExpressionForm,
    ExpressionOption,
    FormKind,
    GrammaticalFunction,
    MeaningGame,
    Message,
    Prior,
    Realization,
    ReferenceSlot,
    ResolutionConfig,
    Slot,
    Utterance,
    UtilityModel,
    validate_game,
)


def message_cost_game(
    prior_weights, message_costs, bonus, shared=True, labels=None
) -> MeaningGame:
    """Complete game whose costs depend on the message only."""
    cids = list(prior_weights)
    mids = list(message_costs)
    sender_cost = {(c, m): message_costs[m] for c in cids for m in mids}
    receiver_cost = {(m, c): message_costs[m] for c in cids for m in mids}
    return MeaningGame(
        tuple(Content(c, (labels or {}).get(c, "")) for c in cids),
        tuple(Message(m) for m in mids),
        Prior(dict(prior_weights)),
        UtilityModel(bonus, bonus, sender_cost, receiver_cost, shared),
    )


def pronoun_game(p1=0.6, k_light=0.0, k_heavy=0.5, bonus=1.0) -> MeaningGame:
    """The canonical two-referent, two-expression reference game."""
    return message_cost_game(
        {"fred": p1, "max": 1.0 - p1},
        {"he": k_light, "the man": k_heavy},
        bonus,
        labels={"fred": "Fred", "max": "Max"},
    )


def random_dominant_two_by_two(rng: random.Random) -> MeaningGame:
    """Random 2x2 complete game with strict prior and cost orderings and a
    success bonus strictly dominating the cost spread."""
    p1 = rng.uniform(0.55, 0.95)
    k1 = rng.uniform(0.0, 0.5)
    k2 = k1 + rng.uniform(0.05, 0.8)
    bonus = (k2 - k1) + rng.uniform(0.05, 1.0)
    return message_cost_game({"c1": p1, "c2": 1.0 - p1}, {"m1": k1, "m2": k2}, bonus)


def random_assortative_game(rng: random.Random, n: int) -> MeaningGame:
    """Complete n x n game with strict prior order, strict per-message cost
    order, and a dominant bonus, so the matched pairing is the unique
    prediction."""
    raw = sorted((rng.uniform(0.5, 10.0) for _ in range(n)), reverse=True)
    while any(a - b < 0.05 for a, b in zip(raw, raw[1:])):
        raw = sorted((rng.uniform(0.5, 10.0) for _ in range(n)), reverse=True)
    total = sum(raw)
    prior = {f"c{i}": w / total for i, w in enumerate(raw)}
    costs = {}
    cost = rng.uniform(0.0, 0.2)
    for j in range(n):
        costs[f"m{j}"] = cost
        cost += rng.uniform(0.05, 0.4)
    bonus = (max(costs.values()) - min(costs.values())) + rng.uniform(0.1, 1.0)
    return message_cost_game(prior, costs, bonus)


def random_valid_game(rng: random.Random, max_size=3, shared=None) -> MeaningGame:
    """Random game of size up to max_size x max_size with random pair costs
    and random edge deletions that keep every content grammatical."""
    nc = rng.randint(1, max_size)
    nm = rng.randint(1, max_size)
    cids = [f"c{i}" for i in range(nc)]
    mids = [f"m{j}" for j in range(nm)]
    while True:
        edges = {(c, m) for c in cids for m in mids if rng.random() < 0.75}
        if all(any((c, m) in edges for m in mids) for c in cids):
            break
    raw = [rng.uniform(0.1, 5.0) for _ in cids]
    total = sum(raw)
    prior = {c: w / total for c, w in zip(cids, raw)}
    sender_cost = {e: rng.uniform(0.0, 1.5) for e in edges}
    receiver_cost = {(m, c): rng.uniform(0.0, 1.5) for (c, m) in edges}
    if shared is None:
        shared = rng.random() < 0.5
    bonus = rng.uniform(0.2, 2.0)
    game = MeaningGame(
        tuple(Content(c) for c in cids),
        tuple(Message(m) for m in mids),
        Prior(prior),
        UtilityModel(bonus, bonus, sender_cost, receiver_cost, shared),
    )
    assert not validate_game(game).errors
    return game


def random_cheap_talk_game(
    rng: random.Random, positive: bool, sender_bonus=0.0
) -> MeaningGame:
    """Complete game with message-independent costs; a negative instance
    perturbs a single sender-cost entry."""
    nc = rng.randint(2, 3)
    nm = rng.randint(2, 3)
    cids = [f"c{i}" for i in range(nc)]
    mids = [f"m{j}" for j in range(nm)]
    raw = [rng.uniform(0.2, 3.0) for _ in cids]
    while len({round(w, 6) for w in raw}) < nc:
        raw = [rng.uniform(0.2, 3.0) for _ in cids]
    total = sum(raw)
    prior = {c: w / total for c, w in zip(cids, raw)}
    send_level = {c: rng.uniform(0.0, 1.0) for c in cids}
    recv_level = {c: rng.uniform(0.0, 1.0) for c in cids}
    sender_cost = {(c, m): send_level[c] for c in cids for m in mids}
    receiver_cost = {(m, c): recv_level[c] for c in cids for m in mids}
    if not positive:
        c = rng.choice(cids)
        m = rng.choice(mids)
        sender_cost[(c, m)] += rng.uniform(0.2, 0.6)
    return MeaningGame(
        tuple(Content(c) for c in cids),
        tuple(Message(m) for m in mids),
        Prior(prior),
        UtilityModel(sender_bonus, rng.uniform(0.5, 2.0), sender_cost, receiver_cost, False),
    )


_FUNCTIONS = list(GrammaticalFunction)


def form_options(rng: random.Random, count: int) -> list[ExpressionOption]:
    """Expression options with strictly increasing costs, pronoun lightest,
    definites before proper names so the form-cost ordering holds."""
    n_definite = rng.randint(0, count - 1)
    kinds = (
        [FormKind.PRONOUN]
        + [FormKind.DEFINITE_NP] * n_definite
        + [FormKind.PROPER_NAME] * (count - 1 - n_definite)
    )
    cost = 0.0
    options = []
    for i, kind in enumerate(kinds):
        if i > 0:
            cost += rng.uniform(0.1, 0.4)
        options.append(ExpressionOption(f"expr{i}", ExpressionForm(kind, cost)))
    return options


def random_strict_discourse(rng: random.Random) -> Discourse:
    """Two utterances: all entities realized at distinct ranks, then one to
    three square complete reference slots with strict lightness order."""
    n = rng.randint(2, 4)
    entities = {f"e{i}": Entity(f"e{i}") for i in range(n)}
    functions = rng.sample(_FUNCTIONS, n)
    first = Utterance(
        1,
        tuple(
            Realization(
                f"e{i}",
                functions[i],
                ExpressionForm(FormKind.PROPER_NAME, 0.7),
                f"E{i}",
            )
            for i in range(n)
        ),
    )
    n_slots = rng.randint(1, min(3, n))
    slot_functions = rng.sample(_FUNCTIONS, n_slots)
    slots = []
    for s in range(n_slots):
        options = form_options(rng, n)
        used = rng.choice(options)
        slots.append(
            ReferenceSlot(
                f"slot{s}",
                slot_functions[s],
                used.surface,
                tuple(options),
                tuple(entities),
            )
        )
    second = Utterance(2, tuple(slots))
    return Discourse(entities, (first, second), ResolutionConfig())


def random_featured_discourse(rng: random.Random) -> Discourse:
    """``random_strict_discourse`` with a gender on every entity and on some
    options, so a used expression may fit one candidate or several; every
    candidate keeps a compatible option and the used one fits a candidate."""
    discourse = random_strict_discourse(rng)
    entities = {
        e: replace(entity, features={"gender": rng.choice("mf")})
        for e, entity in discourse.entities.items()
    }
    first, second = discourse.utterances
    slots = []
    for slot in second.realizations:
        candidates = [entities[c] for c in slot.candidates]
        while True:
            options = tuple(
                replace(o, requires=rng.choice([{}, {"gender": "m"}, {"gender": "f"}]))
                for o in slot.options
            )
            if all(any(o.compatible(e) for o in options) for e in candidates):
                break
        used = rng.choice([o for o in options if any(map(o.compatible, candidates))])
        slots.append(replace(slot, surface=used.surface, options=options))
    return replace(
        discourse, entities=entities, utterances=(first, Utterance(2, tuple(slots)))
    )


def random_constituent(rng: random.Random, tag: str, shared: bool) -> MeaningGame:
    """Complete 2x2 constituent with generic (tie-free) costs and prior."""
    cids = [f"{tag}c0", f"{tag}c1"]
    mids = [f"{tag}m0", f"{tag}m1"]
    p = rng.uniform(0.15, 0.85)
    prior = {cids[0]: p, cids[1]: 1.0 - p}
    sender_cost = {(c, m): rng.uniform(0.0, 1.0) for c in cids for m in mids}
    receiver_cost = {(m, c): rng.uniform(0.0, 1.0) for c in cids for m in mids}
    sender_bonus = rng.uniform(0.5, 2.0)
    receiver_bonus = sender_bonus if shared else rng.uniform(0.5, 2.0)
    return MeaningGame(
        tuple(Content(c) for c in cids),
        tuple(Message(m) for m in mids),
        Prior(prior),
        UtilityModel(sender_bonus, receiver_bonus, sender_cost, receiver_cost, shared),
    )


def random_compound(
    rng: random.Random, constrained: bool, weights=None
) -> CompoundGame:
    """Two-constituent compound; unconstrained ones allow every joint
    assignment, constrained ones restrict both joint sets randomly."""
    shared = rng.random() < 0.5
    g1 = random_constituent(rng, "a", shared)
    g2 = random_constituent(rng, "b", shared)
    w1, w2 = weights or (1.0, 1.0)
    constituents = (
        ConstituentGame(Slot("first"), g1, w1),
        ConstituentGame(Slot("second"), g2, w2),
    )
    if not constrained:
        return CompoundGame(constituents)
    all_contents = [
        (c1, c2) for c1 in g1.content_ids() for c2 in g2.content_ids()
    ]
    all_messages = [
        (m1, m2) for m1 in g1.message_ids() for m2 in g2.message_ids()
    ]
    joint_contents = frozenset(
        rng.sample(all_contents, rng.randint(2, len(all_contents)))
    )
    joint_messages = frozenset(
        rng.sample(all_messages, rng.randint(2, len(all_messages)))
    )
    return CompoundGame(
        constituents, CompatibilityRelation(joint_messages), joint_contents
    )
