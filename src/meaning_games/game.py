"""Core representation of meaning games.

A meaning game is a discrete signaling game in which sender types and
receiver actions are both drawn from one set of semantic contents.  The
sender, intending a content, picks a message; the receiver maps the message
back to a content.  A turn succeeds when the interpreted content equals the
intended one, and success is the only source of positive utility: every
utility has the shape  bonus * [intended == interpreted] - pair cost,
where the pair costs encode how hard a content-message association is to
produce or to resolve.  A missing cost entry means the pair is ungrammatical
and is excluded from the game graph entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Literal, Mapping

from .errors import InvalidGameError

TOL = 1e-9

Player = Literal["S", "R"]
SENDER: Player = "S"
RECEIVER: Player = "R"


@dataclass(frozen=True)
class Content:
    """A semantic content; doubles as sender type and receiver action."""

    id: str
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.id)


@dataclass(frozen=True)
class Message:
    """A transmittable signal (word, phrase, or whole sentence)."""

    id: str
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.id)


@dataclass(frozen=True)
class Prior:
    """Probability distribution over content ids."""

    weights: Mapping[str, float]

    @staticmethod
    def uniform(ids: Iterable[str]) -> "Prior":
        ids = list(ids)
        return Prior({cid: 1.0 / len(ids) for cid in ids})

    @staticmethod
    def normalized(weights: Mapping[str, float]) -> "Prior":
        total = sum(weights.values())
        if total <= 0:
            raise InvalidGameError("prior weights must have positive total mass")
        return Prior({cid: w / total for cid, w in weights.items()})

    def __getitem__(self, cid: str) -> float:
        return self.weights[cid]

    def support(self) -> set[str]:
        return {cid for cid, w in self.weights.items() if w > 0.0}


@dataclass(frozen=True)
class UtilityModel:
    """Success bonuses plus pair-cost tables for both players.

    ``sender_cost`` is keyed by (content id, message id): the cost the sender
    pays to express that content with that message.  ``receiver_cost`` is
    keyed by (message id, content id): the cost of resolving the message to
    that content.  A pair missing from either table is ungrammatical.

    With ``shared`` set the players play a common-interest game: both
    evaluate every turn as the arithmetic mean of the two selfish utilities,
    so the two evaluations coincide on all turns by construction.
    """

    sender_bonus: float = 1.0
    receiver_bonus: float = 1.0
    sender_cost: Mapping[tuple[str, str], float] = field(default_factory=dict)
    receiver_cost: Mapping[tuple[str, str], float] = field(default_factory=dict)
    shared: bool = False
    # Optional partial-success bonuses, keyed by (intended, interpreted).
    # Flattened compound games use this to award each constituent's bonus
    # independently; plain games leave it unset.
    bonus_overlap: Mapping[tuple[str, str], tuple[float, float]] | None = None

    def bonus_parts(self, intended: str, interpreted: str) -> tuple[float, float]:
        """Sender and receiver bonus earned by a turn, before costs."""
        if self.bonus_overlap is not None:
            return self.bonus_overlap.get((intended, interpreted), (0.0, 0.0))
        if intended == interpreted:
            return (self.sender_bonus, self.receiver_bonus)
        return (0.0, 0.0)


@dataclass(frozen=True)
class Turn:
    """One course of communication: intended content, message, reading."""

    intended: str
    sent: str
    interpreted: str


@dataclass(frozen=True)
class MeaningGame:
    contents: tuple[Content, ...]
    messages: tuple[Message, ...]
    prior: Prior
    utility: UtilityModel
    edges: frozenset[tuple[str, str]] | None = None  # derived when omitted

    def __post_init__(self):
        object.__setattr__(self, "contents", tuple(self.contents))
        object.__setattr__(self, "messages", tuple(self.messages))
        if self.edges is None:
            derived = frozenset(
                pair
                for pair in self.utility.sender_cost
                if (pair[1], pair[0]) in self.utility.receiver_cost
            )
            object.__setattr__(self, "edges", derived)
        else:
            object.__setattr__(self, "edges", frozenset(self.edges))
        # Not fields: equality, repr and ``replace`` see only the above.
        object.__setattr__(self, "_content_ids", tuple(c.id for c in self.contents))
        object.__setattr__(self, "_message_ids", tuple(m.id for m in self.messages))

    # -- structure helpers -------------------------------------------------

    def content_ids(self) -> tuple[str, ...]:
        return self._content_ids

    def message_ids(self) -> tuple[str, ...]:
        return self._message_ids

    def messages_for(self, cid: str) -> tuple[str, ...]:
        """Messages grammatical for a content, in game message order."""
        return tuple(m.id for m in self.messages if (cid, m.id) in self.edges)

    def contents_for(self, mid: str) -> tuple[str, ...]:
        """Contents grammatical for a message, in game content order."""
        return tuple(c.id for c in self.contents if (c.id, mid) in self.edges)

    def is_complete(self) -> bool:
        return len(self.edges) == len(self.contents) * len(self.messages)


@dataclass(frozen=True)
class SenderStrategy:
    """Per-content distribution over messages, sigma_S(m | c)."""

    rows: Mapping[str, Mapping[str, float]]

    def row(self, cid: str) -> Mapping[str, float]:
        return self.rows[cid]

    @staticmethod
    def deterministic(assignment: Mapping[str, str]) -> "SenderStrategy":
        return SenderStrategy({c: {m: 1.0} for c, m in assignment.items()})


@dataclass(frozen=True)
class ReceiverStrategy:
    """Per-message distribution over contents, sigma_R(c | m)."""

    rows: Mapping[str, Mapping[str, float]]

    def row(self, mid: str) -> Mapping[str, float]:
        return self.rows[mid]

    @staticmethod
    def deterministic(assignment: Mapping[str, str]) -> "ReceiverStrategy":
        return ReceiverStrategy({m: {c: 1.0} for m, c in assignment.items()})


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_game(g: MeaningGame) -> ValidationReport:
    """Check every structural invariant; report errors and warnings.

    Errors make the game unusable (duplicate ids, malformed prior, negative
    or non-finite numbers, contents with no grammatical message).  A success
    bonus that does not strictly dominate the cost spread is legal but only
    gets a warning, since full-success equilibria are then not guaranteed to
    exist.
    """
    errors: list[str] = []
    warnings: list[str] = []

    cids = [c.id for c in g.contents]
    mids = [m.id for m in g.messages]
    if len(set(cids)) != len(cids):
        errors.append("duplicate content ids")
    if len(set(mids)) != len(mids):
        errors.append("duplicate message ids")
    cset, mset = set(cids), set(mids)

    if set(g.prior.weights) != cset:
        errors.append("prior domain does not match the content set")
    if any(w < 0 for w in g.prior.weights.values()):
        errors.append("prior contains a negative weight")
    if not all(math.isfinite(w) for w in g.prior.weights.values()):
        errors.append("prior contains a non-finite weight")
    total = sum(g.prior.weights.values())
    if abs(total - 1.0) > TOL:
        errors.append(f"prior weights sum to {total!r}, not 1")

    u = g.utility
    for (c, m), cost in u.sender_cost.items():
        if c not in cset or m not in mset:
            errors.append(f"sender cost entry ({c!r}, {m!r}) uses unknown ids")
        if cost < 0:
            errors.append(f"sender cost for ({c!r}, {m!r}) is negative")
        if not math.isfinite(cost):
            errors.append(f"sender cost for ({c!r}, {m!r}) is not finite")
    for (m, c), cost in u.receiver_cost.items():
        if m not in mset or c not in cset:
            errors.append(f"receiver cost entry ({m!r}, {c!r}) uses unknown ids")
        if cost < 0:
            errors.append(f"receiver cost for ({m!r}, {c!r}) is negative")
        if not math.isfinite(cost):
            errors.append(f"receiver cost for ({m!r}, {c!r}) is not finite")
    if u.sender_bonus < 0 or u.receiver_bonus < 0:
        errors.append("success bonus is negative")
    if not (math.isfinite(u.sender_bonus) and math.isfinite(u.receiver_bonus)):
        errors.append("success bonus is not finite")
    if u.shared and abs(u.sender_bonus - u.receiver_bonus) > TOL:
        errors.append("shared utility model with unequal player bonuses")
    if u.bonus_overlap is not None:
        for (a, b), (bs, br) in u.bonus_overlap.items():
            if a not in cset or b not in cset:
                errors.append(f"bonus overlap entry ({a!r}, {b!r}) uses unknown ids")
            if bs < 0 or br < 0:
                errors.append(f"bonus overlap for ({a!r}, {b!r}) is negative")
            if not (math.isfinite(bs) and math.isfinite(br)):
                errors.append(f"bonus overlap for ({a!r}, {b!r}) is not finite")

    derived = frozenset(
        pair for pair in u.sender_cost if (pair[1], pair[0]) in u.receiver_cost
    )
    if g.edges != derived:
        errors.append("edge set disagrees with the cost tables")
    for c in g.contents:
        if not any((c.id, m) in g.edges for m in mids):
            errors.append(f"content {c.id!r} has no grammatical message")

    if not errors:
        for player, bonus, costs in (
            ("sender", u.sender_bonus, u.sender_cost),
            ("receiver", u.receiver_bonus, u.receiver_cost),
        ):
            relevant = [
                cost
                for pair, cost in costs.items()
                if (player == "sender" and pair in g.edges)
                or (player == "receiver" and (pair[1], pair[0]) in g.edges)
            ]
            if relevant:
                spread = max(relevant) - min(relevant)
                if bonus <= spread + TOL and spread > 0:
                    warnings.append(
                        f"{player} success bonus {bonus} does not strictly "
                        f"dominate the cost spread {spread}"
                    )
        if u.sender_bonus == 0 or u.receiver_bonus == 0:
            warnings.append("success bonus is zero; success itself carries no value")

    return ValidationReport(tuple(errors), tuple(warnings))


def _check_turn(g: MeaningGame, t: Turn) -> None:
    cset = set(g.content_ids())
    if t.intended not in cset or t.interpreted not in cset:
        raise InvalidGameError(f"turn {t} references an unknown content")
    if t.sent not in set(g.message_ids()):
        raise InvalidGameError(f"turn {t} references an unknown message")
    if (t.intended, t.sent) not in g.edges:
        raise InvalidGameError(f"pair ({t.intended!r}, {t.sent!r}) is ungrammatical")
    if (t.interpreted, t.sent) not in g.edges:
        raise InvalidGameError(f"pair ({t.sent!r}, {t.interpreted!r}) is ungrammatical")


def utility(g: MeaningGame, t: Turn, player: Player) -> float:
    """Utility of a single turn for one player.

    Selfish form: the player earns their bonus when the reading matches the
    intention and pays only their own pair cost.  Shared form: both players
    get the mean of the two selfish utilities, so each pays half of both
    pair costs.
    """
    _check_turn(g, t)
    return _utility_unchecked(g, t.intended, t.sent, t.interpreted, player)


def _utility_unchecked(
    g: MeaningGame, intended: str, sent: str, interpreted: str, player: Player
) -> float:
    u = g.utility
    bonus_s, bonus_r = u.bonus_parts(intended, interpreted)
    sc = u.sender_cost[(intended, sent)]
    rc = u.receiver_cost[(sent, interpreted)]
    if u.shared:
        return (bonus_s + bonus_r) / 2.0 - (sc + rc) / 2.0
    if player == SENDER:
        return bonus_s - sc
    return bonus_r - rc


def _validate_sender(g: MeaningGame, s: SenderStrategy) -> None:
    if set(s.rows) != set(g.content_ids()):
        raise InvalidGameError("sender strategy rows do not match the content set")
    for cid, row in s.rows.items():
        total = sum(row.values())
        if abs(total - 1.0) > TOL:
            raise InvalidGameError(f"sender row for {cid!r} sums to {total!r}")
        for mid, p in row.items():
            if p < 0:
                raise InvalidGameError(f"sender row for {cid!r} has negative mass")
            if p > 0 and (cid, mid) not in g.edges:
                raise InvalidGameError(
                    f"sender row for {cid!r} puts mass on ungrammatical {mid!r}"
                )


def _validate_receiver(g: MeaningGame, r: ReceiverStrategy) -> None:
    expected = {m.id for m in g.messages if g.contents_for(m.id)}
    if set(r.rows) != expected:
        raise InvalidGameError(
            "receiver strategy rows do not match the messages with edges"
        )
    for mid, row in r.rows.items():
        total = sum(row.values())
        if abs(total - 1.0) > TOL:
            raise InvalidGameError(f"receiver row for {mid!r} sums to {total!r}")
        for cid, p in row.items():
            if p < 0:
                raise InvalidGameError(f"receiver row for {mid!r} has negative mass")
            if p > 0 and (cid, mid) not in g.edges:
                raise InvalidGameError(
                    f"receiver row for {mid!r} puts mass on ungrammatical {cid!r}"
                )


def expected_utility(
    g: MeaningGame, s: SenderStrategy, r: ReceiverStrategy, player: Player
) -> float:
    """Expected utility of a strategy pair: sum over all turns of
    P(c) sigma_S(m|c) sigma_R(a|m) U(c, m, a)."""
    _validate_sender(g, s)
    _validate_receiver(g, r)
    total = 0.0
    for cid in g.content_ids():
        p_c = g.prior[cid]
        if p_c == 0.0:
            continue
        for mid, p_m in s.row(cid).items():
            if p_m == 0.0:
                continue
            for aid, p_a in r.row(mid).items():
                if p_a == 0.0:
                    continue
                total += p_c * p_m * p_a * _utility_unchecked(g, cid, mid, aid, player)
    return total


def success_probability(g: MeaningGame, s: SenderStrategy, r: ReceiverStrategy) -> float:
    """Probability that the interpreted content equals the intended one."""
    _validate_sender(g, s)
    _validate_receiver(g, r)
    total = 0.0
    for cid in g.content_ids():
        p_c = g.prior[cid]
        if p_c == 0.0:
            continue
        for mid, p_m in s.row(cid).items():
            if p_m == 0.0:
                continue
            total += p_c * p_m * r.row(mid).get(cid, 0.0)
    return total


def equalize_utilities(g: MeaningGame) -> MeaningGame:
    """Turn the game common-interest: both players evaluate every turn as
    the mean of the two selfish utilities.

    Language use is a repeated game with the roles swapped half of the
    time, so averaging the selfish utilities is the stable joint choice.
    The cost tables are left untouched; only the evaluation rule and the
    bonuses change, which keeps the mean exact on every turn and makes the
    operation idempotent.
    """
    u = g.utility
    mean_bonus = (u.sender_bonus + u.receiver_bonus) / 2.0
    if u.shared and u.sender_bonus == u.receiver_bonus:
        return g
    return replace(
        g,
        utility=replace(
            u, shared=True, sender_bonus=mean_bonus, receiver_bonus=mean_bonus
        ),
    )


def is_cheap_talk(g: MeaningGame) -> bool:
    """True when no player's utility depends on the message sent.

    Checked directly on turns: for both players and every content pair
    (intended, interpreted), the utility must be constant across all
    messages grammatical for both sides of the turn.
    """
    for player in (SENDER, RECEIVER):
        for c in g.content_ids():
            for a in g.content_ids():
                values = [
                    _utility_unchecked(g, c, m, a, player)
                    for m in g.message_ids()
                    if (c, m) in g.edges and (a, m) in g.edges
                ]
                if values and max(values) - min(values) > TOL:
                    return False
    return True
