"""Compound meaning games: several games played in parallel.

A compound expression (a sentence with its noun phrases) is one turn of
several overlapping constituent games.  Players pick a combination of
strategies and maximize the expected utility of the whole compound, so the
compound is flattened into a single meaning game over joint contents and
joint messages, whose equilibria are searched over per-slot strategy
combinations only.

Flattening preserves utilities exactly: a joint turn earns each
constituent's success bonus independently (a turn can succeed in one slot
and fail in another), and costs add up weighted by constituent weight.
The flattened game records this through the utility model's bonus overlap
table.  Off-path beliefs are also kept consistent with the constituents:
a message unused in the joint play may still pin down some components via
Bayes on the induced marginal strategies, so the fallback factors through
components instead of dropping to the flat off-path rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Mapping

from .errors import InvalidGameError, NotApplicableError, SizeLimitError
from .equilibrium import (
    DEFAULT_CAP,
    BeliefSystem,
    OffPathRule,
    Prediction,
    Profile,
    _Compiled,
    _capped,
    _prediction,
    # Bound here for the benchmark's tracer, which wraps ``compound.predict``;
    # constituents are solved on the compound's own views.
    predict,  # noqa: F401
)
from .game import (
    TOL,
    Content,
    MeaningGame,
    Message,
    Player,
    Prior,
    SenderStrategy,
    UtilityModel,
    _turns,
    _utility_unchecked,
    _validate_sender,
)

JOINER = "|"


@dataclass(frozen=True)
class Slot:
    """A position in the compound expression (sentence frame, subject NP)."""

    id: str
    description: str = ""


@dataclass(frozen=True)
class ConstituentGame:
    slot: Slot
    game: MeaningGame
    weight: float = 1.0


@dataclass(frozen=True)
class CompatibilityRelation:
    """Joint message assignments (one message per slot) that are mutually
    realizable as a single compound expression."""

    feasible: frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class CompoundGame:
    """Constituent games plus joint feasibility on messages and contents.

    ``compat`` restricted to None means every combination of constituent
    messages is realizable; ``joint_contents`` None likewise allows every
    combination of constituent contents.
    """

    constituents: tuple[ConstituentGame, ...]
    compat: CompatibilityRelation | None = None
    joint_contents: frozenset[tuple[str, ...]] | None = None


@dataclass(frozen=True)
class Flattened:
    """A flattened compound: the composite game plus provenance maps."""

    game: MeaningGame
    compound: CompoundGame
    content_components: Mapping[str, tuple[str, ...]]
    message_components: Mapping[str, tuple[str, ...]]


def _joint_tuples(cg: CompoundGame) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    n = len(cg.constituents)
    if cg.joint_contents is not None:
        contents = sorted(cg.joint_contents)
        if any(len(t) != n for t in contents):
            raise InvalidGameError("joint content tuples must cover every slot")
    else:
        contents = list(
            itertools.product(*[c.game.content_ids() for c in cg.constituents])
        )
    if cg.compat is not None:
        messages = sorted(cg.compat.feasible)
        if not messages:
            raise InvalidGameError("compatibility relation is empty")
        if any(len(t) != n for t in messages):
            raise InvalidGameError("joint message tuples must cover every slot")
    else:
        messages = list(
            itertools.product(*[c.game.message_ids() for c in cg.constituents])
        )
    return contents, messages


def flatten(cg: CompoundGame, cap: int | None = None) -> Flattened:
    """Build the single meaning game the compound amounts to.

    Joint contents and messages are the feasible assignment tuples; the
    prior is the product of constituent priors renormalized over feasible
    joint contents; utilities are weight-summed componentwise, with each
    constituent's success bonus recorded in the overlap table so partial
    success is scored exactly; edges require componentwise grammaticality.
    """
    cap = DEFAULT_CAP if cap is None else cap
    if not cg.constituents:
        raise InvalidGameError("compound game has no constituents")
    shared_flags = {c.game.utility.shared for c in cg.constituents}
    if len(shared_flags) > 1:
        raise NotApplicableError(
            "constituents must agree on the shared-utility flag to flatten exactly"
        )
    if any(c.weight <= 0 for c in cg.constituents):
        raise InvalidGameError("constituent weights must be positive")
    for c in cg.constituents:
        for cid in c.game.content_ids() + c.game.message_ids():
            if JOINER in cid:
                raise InvalidGameError(
                    f"component id {cid!r} may not contain {JOINER!r}"
                )

    joint_contents, joint_messages = _joint_tuples(cg)
    if len(joint_contents) * len(joint_messages) > cap:
        raise SizeLimitError(
            f"{len(joint_contents)} joint contents x {len(joint_messages)} joint "
            f"messages exceed the cap of {cap}"
        )

    games = [c.game for c in cg.constituents]
    weights = [c.weight for c in cg.constituents]
    n = len(games)

    labels_c = [{c.id: c.label for c in g.contents} for g in games]
    labels_m = [{m.id: m.label for m in g.messages} for g in games]

    raw_prior = {}
    contents = []
    content_components = {}
    for tup in joint_contents:
        cid = JOINER.join(tup)
        contents.append(
            Content(cid, " + ".join(labels_c[k][tup[k]] for k in range(n)))
        )
        content_components[cid] = tup
        w = 1.0
        for k in range(n):
            w *= games[k].prior[tup[k]]
        raw_prior[cid] = w
    total = sum(raw_prior.values())
    if total <= 0:
        raise InvalidGameError("every feasible joint content has zero prior mass")
    prior = Prior({cid: w / total for cid, w in raw_prior.items()})

    messages = []
    message_components = {}
    for tup in joint_messages:
        mid = JOINER.join(tup)
        messages.append(
            Message(mid, " + ".join(labels_m[k][tup[k]] for k in range(n)))
        )
        message_components[mid] = tup

    sender_cost = {}
    receiver_cost = {}
    for cid, ctup in content_components.items():
        edges = len(sender_cost)
        for mid, mtup in message_components.items():
            if all((ctup[k], mtup[k]) in games[k].edges for k in range(n)):
                sender_cost[(cid, mid)] = sum(
                    weights[k] * games[k].utility.sender_cost[(ctup[k], mtup[k])]
                    for k in range(n)
                )
                receiver_cost[(mid, cid)] = sum(
                    weights[k] * games[k].utility.receiver_cost[(mtup[k], ctup[k])]
                    for k in range(n)
                )
        if len(sender_cost) == edges:
            raise InvalidGameError(
                f"joint content {cid!r} has no feasible grammatical message"
            )

    bonuses = [
        (w * g.utility.sender_bonus, w * g.utility.receiver_bonus)
        for w, g in zip(weights, games)
    ]
    # Each pair's bonuses add up in slot order from 0, as ``sum`` would.
    overlap = {}
    for cid, ctup in content_components.items():
        for aid, atup in content_components.items():
            bs = br = 0
            for (s, r), x, y in zip(bonuses, ctup, atup):
                if x == y:
                    bs += s
                    br += r
            overlap[(cid, aid)] = (bs, br)

    utility = UtilityModel(
        sender_bonus=sum(b for b, _ in bonuses),
        receiver_bonus=sum(b for _, b in bonuses),
        sender_cost=sender_cost,
        receiver_cost=receiver_cost,
        shared=shared_flags.pop(),
        bonus_overlap=overlap,
    )
    flat_game = MeaningGame(
        tuple(contents), tuple(messages), prior, utility, frozenset(sender_cost)
    )
    return Flattened(flat_game, cg, content_components, message_components)


class _Composite(_Compiled):
    """The compiled flat game of a compound, with off-path beliefs that
    factor through the constituents.

    At a message ``m`` no positive-prior content sends, slot ``k``'s
    component gets the Bayes posterior of the contents whose message shares
    ``m``'s slot-``k`` component, or the constituent's off-path row when
    there are none.  The joint belief is the product over the contents
    grammatical for ``m``, or the flat off-path row when that has no mass.
    """

    def __init__(self, flat: Flattened, rule: OffPathRule):
        super().__init__(flat.game, rule)
        # Per slot: the constituent's index of each flat content's and each
        # flat message's component, and the constituent's compiled view.
        self.slots = []
        for k, constituent in enumerate(flat.compound.constituents):
            sub = _Compiled(constituent.game, rule)
            c_index, m_index = sub.c_index, sub.m_index
            self.slots.append((
                [c_index[flat.content_components[cid][k]] for cid in self.cids],
                [m_index[flat.message_components[mid][k]] for mid in self.mids],
                sub,
            ))
        # The same indices per flat message, slot by slot.
        self.m_parts = list(zip(*(m_part for _, m_part, _ in self.slots)))

    @cached_property
    def reading_tables(self) -> list[tuple[list, dict]]:
        # A receiver combines one map per slot: each reading agrees, slot by
        # slot, with that of the first message sharing the slot's component.
        used, links = self.used, [[] for _ in self.used]
        for d, k, j in _slot_links([self.m_parts[m] for m in used]):
            links[d].append((used[j], self.slots[k][0]))
        tables: list[tuple[list, dict]] = [(link, {}) for link in links]
        for m, (link, table) in zip(used, tables):
            for a in self.contents_of[m]:
                table.setdefault(tuple([part[a] for _, part in link]), []).append(a)
        return tables

    @cached_property
    def sender_links(self) -> list[tuple[int, int, int]]:
        return _slot_links(list(zip(*(c_part for c_part, _, _ in self.slots))))

    def senders(self, *best_sets: list[int]):
        """The sender maps of ``product(*best_sets)`` that combine slot strategies."""
        if max(map(len, best_sets)) > 1:
            return _linked_products(best_sets, self.sender_links, self.m_parts)
        s, parts = next(zip(*best_sets)), self.m_parts
        for c, k, j in self.sender_links:
            if parts[s[c]][k] != parts[s[j]][k]:
                return ()
        return (s,)

    def induced_eus(self, s: tuple[int, ...], r: tuple[int, ...]) -> list[tuple[float, float]]:
        """Per slot, the sender's and receiver's expected utility in the
        constituent's own game under the pure profile ``(s, r)``: the sums
        of ``constituent_expected_utility``, term for term."""
        reading = dict(zip(self.used, r))
        eus = []
        for c_part, m_part, sub in self.slots:
            eu_sender = eu_receiver = 0.0
            for c in self.support:
                ck, mk, ak = c_part[c], m_part[s[c]], c_part[reading[s[c]]]
                eu_sender += self.prior[c] * sub.sender_u[ck][mk][ak]
                eu_receiver += self.prior[c] * sub.receiver_u[ck][mk][ak]
            eus.append((eu_sender, eu_receiver))
        return eus

    def off_path_key(self, m: int, s: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(c for c in self.support if m_part[s[c]] == m_part[m])
            for _, m_part, _ in self.slots
        )

    def off_path_row(self, m: int, key) -> list[tuple[int, float]]:
        # Slot masses add up in flat content order, totals in constituent
        # content order, and the joint product runs in slot order.
        beliefs = []
        for (c_part, m_part, sub), senders in zip(self.slots, key):
            mass = [0.0] * len(sub.cids)
            for c in senders:
                mass[c_part[c]] += self.prior[c]
            total = sum(mass)
            if total > 0.0:
                beliefs.append([w / total for w in mass])
            else:
                row = dict(sub.flat_off_path_row(m_part[m]))
                beliefs.append([row.get(c, 0.0) for c in range(len(sub.cids))])
        row = [
            (c, w)
            for c in self.contents_of[m]
            if (w := prod(b[part[c]] for (part, _, _), b in zip(self.slots, beliefs)))
        ]
        norm = sum(w for _, w in row)
        if norm > 0.0:
            return [(c, w / norm) for c, w in row]
        return self.flat_off_path_row(m)


def composite_belief_builder(flat: Flattened, rule: OffPathRule = "prior", *, _core=None):
    """Belief builder whose off-path fallback factors through components:
    the rows of ``_Composite``, which the compound search checks receivers
    against.  It takes pure senders only: an invalid sender raises
    ``InvalidGameError``, and one that mixes over messages for some content
    raises ``NotApplicableError``.  A compound solve passes its own view of
    ``flat`` under ``rule`` as ``_core``, so the game is not compiled again.
    """
    core = _Composite(flat, rule) if _core is None else _core

    def build(sender: SenderStrategy) -> BeliefSystem:
        _validate_sender(flat.game, sender)
        sent = [[m for m, q in sender.row(c).items() if q > 0.0] for c in core.cids]
        if any(len(mids) != 1 for mids in sent):
            raise NotApplicableError("composite beliefs need a pure sender")
        s = tuple(core.mids.index(mids[0]) for mids in sent)
        rows, on_path = {}, set()
        for m in core.used:
            preimage = tuple(c for c in core.support if s[c] == m)
            if preimage:
                on_path.add(core.mids[m])
            key = (m, preimage, None if preimage else core.off_path_key(m, s))
            rows[core.mids[m]] = {core.cids[c]: p for c, p in core.bayes_row(*key)}
        return BeliefSystem(rows, rule, frozenset(on_path))

    return build


def _slot_links(keys) -> list[tuple[int, int, int]]:
    """The triples ``(i, k, j)``, in order of ``i``, where ``j < i`` is the
    first position of ``keys`` (tuples of slot components) whose slot-``k``
    component is ``keys[i]``'s.

    A player of a compound game picks one strategy per constituent, not a
    joint map that cross-codes one slot's content into another slot's
    message.  A joint map combines one map per slot exactly when, for every
    triple, its values at ``i`` and ``j`` share their slot-``k`` component."""
    first: dict[tuple[int, int], int] = {}
    return [
        (i, k, j)
        for i, key in enumerate(keys)
        for k, part in enumerate(key)
        if (j := first.setdefault((k, part), i)) < i
    ]


def _linked_products(options, links, parts):
    """The tuples of ``itertools.product(*options)``, in its order, whose
    choices' slot components ``parts[x]`` agree on ``links``; a prefix is
    dropped as soon as its last choice disagrees."""
    chosen = [0] * len(options)

    def extend(i):
        if i == len(options):
            yield tuple(chosen)
            return
        for x in options[i]:
            if all(parts[x][k] == parts[chosen[j]][k] for h, k, j in links if h == i):
                chosen[i] = x
                yield from extend(i + 1)

    return extend(0)


def _factors(mapping: Mapping[str, str], key_parts, value_parts) -> bool:
    """Whether a string-keyed joint map combines one map per slot."""
    values = [value_parts[v] for v in mapping.values()]
    links = _slot_links([key_parts[k] for k in mapping])
    return all(values[i][k] == values[j][k] for i, k, j in links)


def product_sender_filter(flat: Flattened):
    """Admit only sender maps that factor through content components."""
    return lambda smap: _factors(smap, flat.content_components, flat.message_components)


def product_receiver_filter(flat: Flattened):
    """Admit only receiver maps that factor through message components."""
    return lambda rmap: _factors(rmap, flat.message_components, flat.content_components)


def enumerate_compound(
    flat: Flattened, rule: OffPathRule = "prior", cap: int | None = None
):
    """Pure equilibria of the flattened game over per-constituent strategy
    combinations, with component-consistent beliefs.

    Only receiver and sender maps that combine one strategy per slot are
    visited: a reading is tried only where it agrees, slot by slot, with the
    earlier readings its message is linked to, and a sender map only where
    it agrees on the contents' links; the flat game's profile count still
    has to pass the cap."""
    core = _Composite(flat, rule)
    pairs = _capped(core, cap).search()
    return core.reports(pairs, composite_belief_builder(flat, rule, _core=core))


def constituent_expected_utility(
    flat: Flattened, k: int, profile: Profile, player: Player
) -> float:
    """Expected utility one constituent earns under joint play.

    Marginalizes the joint outcome distribution onto constituent ``k`` and
    evaluates that constituent's own utility, unweighted.
    """
    sub = flat.compound.constituents[k].game
    contents, messages = flat.content_components, flat.message_components
    total = 0.0
    for cid, mid, aid, mass in _turns(flat.game, profile.sender, profile.receiver):
        ck, mk, ak = contents[cid][k], messages[mid][k], contents[aid][k]
        total += mass * _utility_unchecked(sub, ck, mk, ak, player)
    return total


@dataclass(frozen=True)
class ConstituentAnnotation:
    """Whether the global solution is also optimal for one constituent."""

    slot_id: str
    locally_optimal: bool
    induced_eu_sender: float
    induced_eu_receiver: float
    best_eu_sender: float
    best_eu_receiver: float


@dataclass(frozen=True)
class CompoundPrediction:
    flattened: Flattened
    prediction: Prediction
    annotations: tuple[tuple[ConstituentAnnotation, ...], ...]

    def slot_readings(self, report_index: int = 0) -> dict[str, dict[str, str]]:
        """Per-slot message-to-content readings of one surviving report."""
        report = self.prediction.reports[report_index]
        out: dict[str, dict[str, str]] = {
            c.slot.id: {} for c in self.flattened.compound.constituents
        }
        for mid, cid in report.receiver_map().items():
            mtup = self.flattened.message_components[mid]
            ctup = self.flattened.content_components[cid]
            for k, c in enumerate(self.flattened.compound.constituents):
                out[c.slot.id][mtup[k]] = ctup[k]
        return out


def predict_compound(
    cg: CompoundGame,
    rule: OffPathRule = "prior",
    cap: int | None = None,
) -> CompoundPrediction:
    """Flatten, predict globally, and annotate per-constituent optimality.

    A constituent is marked locally optimal when the expected utility it
    earns under the global solution is not beaten (for either player,
    beyond tolerance) by one of its own predicted equilibria.  A global
    solution routinely sacrifices a constituent: that is the point of
    playing the compound as a whole.
    """
    flat = flatten(cg, cap)
    core = _Composite(flat, rule)
    front = core.pareto(_capped(core, cap).search())
    survivors = core.reports(front, composite_belief_builder(flat, rule, _core=core))
    prediction = _prediction(flat.game, survivors)

    # Each constituent's own Pareto-optimal equilibria, from its view in
    # ``core``: the utility tables ``induced_eus`` reads are built once.
    own = [sub.reports(sub.pareto(_capped(sub, cap).search())) for *_, sub in core.slots]
    all_annotations = []
    for pair in front:
        annotations = []
        for k, (ind_s, ind_r) in enumerate(core.induced_eus(*pair)):
            constituent, own_reports = cg.constituents[k], own[k]
            if own_reports:
                optimal = any(
                    ind_s >= r.eu_sender - TOL and ind_r >= r.eu_receiver - TOL
                    for r in own_reports
                )
                best_s = max(r.eu_sender for r in own_reports)
                best_r = max(r.eu_receiver for r in own_reports)
            else:
                optimal, best_s, best_r = True, ind_s, ind_r
            annotations.append(
                ConstituentAnnotation(
                    constituent.slot.id, optimal, ind_s, ind_r, best_s, best_r
                )
            )
        all_annotations.append(tuple(annotations))
    return CompoundPrediction(flat, prediction, tuple(all_annotations))
