"""Discourse model: forward/backward-looking centers, salience, resolution.

Entities realized in an utterance are ranked by the grammatical function of
the realizing expression; that ranking drives a salience score, the
salience scores become the prior of a reference game, and lighter referring
expressions cost less than heavier ones.  Resolving an anaphoric slot then
amounts to predicting play in that game.  The pronoun rule of centering
falls out: with strict salience and strict lightness, the predicted play
sends the most salient candidate to the lightest expression, so whenever a
previously mentioned entity is realized by a pronoun, so is the
backward-looking center.

Cross-utterance effects are handled by accommodation (committed references
boost their referent's salience, the lighter the expression the more) and
by sentence-level compound games for parallelism and extralinguistic
context.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .compound import (
    CompatibilityRelation,
    CompoundGame,
    ConstituentGame,
    Slot,
    predict_compound,
)
from .errors import InvalidGameError, ScenarioError
from .game import TOL, Content, MeaningGame, Message, Prior, UtilityModel, _normalized
# ``predict`` stays bound here, though slots read ``_view_readings``: the
# benchmark's tracer wraps ``centering.predict`` to count NP-route predictions.
from .equilibrium import OffPathRule, _SharedView, _view_readings, predict  # noqa: F401


class GrammaticalFunction(enum.Enum):
    """Function of a realizing expression; the value is its salience rank."""

    SUBJECT = 1
    DIRECT_OBJECT = 2
    INDIRECT_OBJECT = 3
    OTHER_COMPLEMENT = 4
    ADJUNCT = 5

    @property
    def rank(self) -> int:
        return self.value

    @staticmethod
    def from_tag(tag: str) -> "GrammaticalFunction":
        try:
            return GrammaticalFunction[tag.upper()]
        except KeyError:
            raise ScenarioError(f"unknown grammatical function {tag!r}") from None


class FormKind(enum.Enum):
    PRONOUN = "pronoun"
    DEFINITE_NP = "definite_np"
    PROPER_NAME = "proper_name"

    @staticmethod
    def from_tag(tag: str) -> "FormKind":
        try:
            return FormKind(tag)
        except ValueError:
            raise ScenarioError(f"unknown expression form {tag!r}") from None


DEFAULT_FORM_COSTS = {
    FormKind.PRONOUN: 0.0,
    FormKind.DEFINITE_NP: 0.5,
    FormKind.PROPER_NAME: 0.7,
}


@dataclass(frozen=True)
class ExpressionForm:
    """A referring-expression category with its production cost."""

    kind: FormKind
    lightness_cost: float

    def __post_init__(self):
        if not math.isfinite(self.lightness_cost):
            raise ScenarioError(
                f"lightness cost must be finite, got {self.lightness_cost}"
            )
        if self.lightness_cost < 0:
            raise InvalidGameError("lightness cost must be nonnegative")


def validate_form_costs(costs: Mapping[FormKind, float]) -> None:
    """Pronouns must be strictly lighter than definites, definites at most
    as heavy as proper names."""
    for kind, cost in costs.items():
        if not math.isfinite(cost):
            raise ScenarioError(
                f"form cost of {kind.value} must be finite, got {cost}"
            )
    pro = costs[FormKind.PRONOUN]
    dnp = costs[FormKind.DEFINITE_NP]
    prn = costs[FormKind.PROPER_NAME]
    if not (pro < dnp <= prn):
        raise ScenarioError(
            f"form costs must satisfy pronoun < definite_np <= proper_name, "
            f"got {pro}, {dnp}, {prn}"
        )


@dataclass(frozen=True)
class Entity:
    id: str
    label: str = ""
    features: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.id)


@dataclass(frozen=True)
class Realization:
    """A resolved referring expression: which entity, how, and where."""

    entity: str
    function: GrammaticalFunction
    form: ExpressionForm
    surface: str


@dataclass(frozen=True)
class ExpressionOption:
    """One expression the speaker could have used for a slot."""

    surface: str
    form: ExpressionForm
    requires: Mapping[str, str] = field(default_factory=dict)

    def compatible(self, entity: Entity) -> bool:
        return all(entity.features.get(k) == v for k, v in self.requires.items())


@dataclass(frozen=True)
class ReferenceSlot:
    """An unresolved referring expression with its alternatives."""

    id: str
    function: GrammaticalFunction
    surface: str
    options: tuple[ExpressionOption, ...]
    candidates: tuple[str, ...]

    def used_option(self) -> ExpressionOption:
        for opt in self.options:
            if opt.surface == self.surface:
                return opt
        raise ScenarioError(
            f"slot {self.id!r}: used surface {self.surface!r} is not among its options"
        )


@dataclass(frozen=True)
class Utterance:
    index: int
    realizations: tuple[Realization | ReferenceSlot, ...]

    def __post_init__(self):
        functions = [r.function for r in self.realizations]
        if len(set(functions)) != len(functions):
            raise InvalidGameError(
                f"utterance {self.index}: at most one realization per "
                "grammatical-function slot"
            )
        slot_ids = [s.id for s in self.slots()]
        if len(set(slot_ids)) != len(slot_ids):
            raise InvalidGameError(f"utterance {self.index}: duplicate slot ids")

    def resolved(self) -> tuple[Realization, ...]:
        return tuple(r for r in self.realizations if isinstance(r, Realization))

    def slots(self) -> tuple[ReferenceSlot, ...]:
        return tuple(r for r in self.realizations if isinstance(r, ReferenceSlot))

    def is_resolved(self) -> bool:
        return not self.slots()


def cf(u: Utterance) -> tuple[str, ...]:
    """Forward-looking centers: entities of ``u`` ranked by grammatical
    function, ties broken by surface order, repeats collapsed to their
    highest-ranked occurrence."""
    ranked = sorted(
        ((r.function.rank, pos, r.entity) for pos, r in enumerate(u.resolved())),
    )
    seen = set()
    out = []
    for _, _, entity in ranked:
        if entity not in seen:
            seen.add(entity)
            out.append(entity)
    return tuple(out)


def cp(u: Utterance) -> str | None:
    """Preferred center: the highest-ranked forward-looking center."""
    centers = cf(u)
    return centers[0] if centers else None


def cb(current: Utterance, previous: Utterance | None) -> str | None:
    """Backward-looking center: the highest-ranked element of the previous
    utterance's centers that is realized in the current one."""
    if previous is None:
        return None
    realized = {r.entity for r in current.resolved()}
    for entity in cf(previous):
        if entity in realized:
            return entity
    return None


@dataclass(frozen=True)
class Rule1Violation:
    utterance_index: int
    backward_center: str
    center_form: FormKind
    pronoun_realized: tuple[str, ...]


def rule1_check(utterances: Sequence[Utterance]) -> list[Rule1Violation]:
    """The centering pronoun rule: if anything from the previous utterance's
    centers is realized by a pronoun, the backward-looking center is too."""
    for u in utterances:
        if not u.is_resolved():
            raise InvalidGameError(
                f"utterance {u.index} still has unresolved slots"
            )
    violations = []
    for prev, cur in zip(utterances, utterances[1:]):
        prev_centers = set(cf(prev))
        pronoun_entities = {
            r.entity
            for r in cur.resolved()
            if r.form.kind is FormKind.PRONOUN and r.entity in prev_centers
        }
        if not pronoun_entities:
            continue
        center = cb(cur, prev)
        if center is None or center in {
            r.entity for r in cur.resolved() if r.form.kind is FormKind.PRONOUN
        }:
            continue
        center_forms = [r.form.kind for r in cur.resolved() if r.entity == center]
        violations.append(
            Rule1Violation(
                cur.index, center, center_forms[0], tuple(sorted(pronoun_entities))
            )
        )
    return violations


@dataclass(frozen=True)
class ResolutionConfig:
    """All tunable parameters of the discourse-to-game mapping."""

    initial_salience: float = 1.0
    rank_weight: float = 0.5
    cb_bonus: float = 0.0
    success_bonus: float = 1.0
    boosts: Mapping[FormKind, float] = field(
        default_factory=lambda: {
            FormKind.PRONOUN: 1.5,
            FormKind.DEFINITE_NP: 1.1,
            FormKind.PROPER_NAME: 1.0,
        }
    )
    parallelism_penalty: float = 0.25
    off_path: OffPathRule = "prior"
    cap: int | None = None

    def __post_init__(self):
        numbers = {
            "initial salience": self.initial_salience,
            "rank weight": self.rank_weight,
            "cb bonus": self.cb_bonus,
            "success bonus": self.success_bonus,
            "parallelism penalty": self.parallelism_penalty,
        }
        numbers.update((f"{kind.value} boost", b) for kind, b in self.boosts.items())
        for name, value in numbers.items():
            if not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value}")
        if self.initial_salience <= 0:
            raise ScenarioError("initial salience must be positive")
        if not (0 < self.rank_weight <= 1):
            raise ScenarioError("rank weight must lie in (0, 1]")
        pro = self.boosts[FormKind.PRONOUN]
        dnp = self.boosts[FormKind.DEFINITE_NP]
        if not (pro >= dnp >= 1.0):
            raise ScenarioError(
                "accommodation boosts must satisfy pronoun >= definite_np >= 1"
            )
        if any(b <= 0 for b in self.boosts.values()):
            raise ScenarioError("accommodation boosts must be positive")
        if self.parallelism_penalty < 0:
            raise ScenarioError("parallelism penalty must be nonnegative")
        if self.success_bonus < 0:
            raise ScenarioError("success bonus must be nonnegative")
        if self.off_path not in ("prior", "uniform"):
            raise ScenarioError(
                f"off-path rule must be 'prior' or 'uniform', got {self.off_path!r}"
            )


@dataclass(frozen=True)
class DiscourseState:
    """Processed history plus the evolving salience scores."""

    history: tuple[Utterance, ...]
    salience: Mapping[str, float]

    @staticmethod
    def initial(entity_ids: Sequence[str], config: ResolutionConfig) -> "DiscourseState":
        return DiscourseState(
            (), {e: config.initial_salience for e in entity_ids}
        )

    def last_utterance(self) -> Utterance | None:
        return self.history[-1] if self.history else None


def ingest(state: DiscourseState, u: Utterance, config: ResolutionConfig) -> DiscourseState:
    """Append a resolved utterance: every realized entity gains a salience
    contribution of rank_weight ** rank for the function realizing it."""
    if not u.is_resolved():
        raise InvalidGameError(f"utterance {u.index} still has unresolved slots")
    salience = dict(state.salience)
    for r in u.resolved():
        if r.entity not in salience:
            raise InvalidGameError(f"unknown entity {r.entity!r} in utterance {u.index}")
        salience[r.entity] += config.rank_weight ** r.function.rank
    return DiscourseState(state.history + (u,), salience)


def accommodate(
    state: DiscourseState, reference: Realization, config: ResolutionConfig
) -> DiscourseState:
    """Boost the referent of a committed reference.

    A light expression presupposes a highly expectable referent, so using
    one raises the referent's salience for the next turn; the boost factor
    is largest for pronouns and never shrinks a score below zero.
    """
    factor = config.boosts[reference.form.kind]
    salience = dict(state.salience)
    salience[reference.entity] *= factor
    return replace(state, salience=salience)


def salience_priors(state: DiscourseState, candidates: Sequence[str]) -> Prior:
    """Salience scores restricted to the candidates and normalized."""
    if not candidates:
        raise InvalidGameError("candidate set is empty")
    missing = [c for c in candidates if c not in state.salience]
    if missing:
        raise InvalidGameError(f"candidates missing from salience domain: {missing}")
    return Prior.normalized({c: state.salience[c] for c in candidates})


def _np_parts(
    state: DiscourseState,
    slot: ReferenceSlot,
    entities: Mapping[str, Entity],
    config: ResolutionConfig,
) -> tuple[list[float], list[list[int]], int]:
    """The checked parts of a slot's reference game: its candidates'
    salience prior, per candidate the ascending indices of the options
    compatible with it, and the index of the used option."""
    for cid in slot.candidates:
        if cid not in entities:
            raise ScenarioError(f"slot {slot.id!r} names unknown candidate {cid!r}")
    if missing := [c for c in slot.candidates if c not in state.salience]:
        raise InvalidGameError(f"slot {slot.id!r} has no salience for {missing}")
    scores = {c: state.salience[c] for c in slot.candidates}
    if len(scores) != len(slot.candidates):
        raise InvalidGameError(f"slot {slot.id!r} has duplicate candidates")
    if config.cb_bonus > 0 and state.history:
        for entity in cf(state.history[-1]):
            if entity in scores:
                scores[entity] += config.cb_bonus
                break

    surfaces = [opt.surface for opt in slot.options]
    if len(set(surfaces)) != len(surfaces):
        raise ScenarioError(f"slot {slot.id!r} has duplicate expression options")
    compatible = []
    for cid in slot.candidates:
        entity = entities[cid]
        compatible.append([m for m, o in enumerate(slot.options) if o.compatible(entity)])
        if not compatible[-1]:
            raise InvalidGameError(
                f"candidate {cid!r} of slot {slot.id!r} has no grammatical expression"
            )

    used = surfaces.index(slot.used_option().surface)
    if not any(used in options for options in compatible):
        raise InvalidGameError(
            f"no candidate of slot {slot.id!r} is compatible with the used "
            f"expression {slot.surface!r}"
        )
    return _normalized(scores.values()), compatible, used


def build_np_game(
    state: DiscourseState,
    slot: ReferenceSlot,
    entities: Mapping[str, Entity],
    config: ResolutionConfig,
) -> MeaningGame:
    """The reference game of one noun-phrase slot.

    Contents are the candidate entities with salience priors; messages are
    the expression options priced by lightness; a feature mismatch between
    an entity and an expression removes the edge.  Both players face the
    same costs: reference games are common-interest.
    """
    prior, compatible, _ = _np_parts(state, slot, entities, config)
    sender_cost, receiver_cost = {}, {}
    for cid, options in zip(slot.candidates, compatible):
        for m in options:
            opt = slot.options[m]
            sender_cost[(cid, opt.surface)] = opt.form.lightness_cost
            receiver_cost[(opt.surface, cid)] = opt.form.lightness_cost

    return MeaningGame(
        tuple(Content(cid, entities[cid].label) for cid in slot.candidates),
        tuple(Message(opt.surface) for opt in slot.options),
        Prior(dict(zip(slot.candidates, prior))),
        UtilityModel(
            sender_bonus=config.success_bonus,
            receiver_bonus=config.success_bonus,
            sender_cost=sender_cost,
            receiver_cost=receiver_cost,
            shared=True,
        ),
        frozenset(sender_cost),  # both tables carry exactly the grammatical pairs
    )


@dataclass(frozen=True)
class SentenceOption:
    """One whole-sentence message and the slot expressions it contains."""

    id: str
    label: str
    parts: Mapping[str, str]  # slot id -> surface used in this sentence
    cost: float = 0.0


@dataclass(frozen=True)
class PropositionOption:
    """One sentence-level content and the slot referents it determines."""

    id: str
    label: str
    assigns: Mapping[str, str]  # slot id -> entity id
    prior: float = 1.0
    cost_overrides: Mapping[str, float] = field(default_factory=dict)  # sentence id -> cost


@dataclass(frozen=True)
class CompoundSection:
    """Sentence-level structure an utterance's slots participate in."""

    utterance_index: int
    slot_ids: tuple[str, ...]
    propositions: tuple[PropositionOption, ...]
    sentences: tuple[SentenceOption, ...]
    parallelism_penalty: float | None = None  # None defers to the config


def _parallelism_penalty(section: CompoundSection, config: ResolutionConfig) -> float:
    """The section's own penalty, or the config's when it sets none."""
    if section.parallelism_penalty is None:
        return config.parallelism_penalty
    return section.parallelism_penalty


def _alignment_penalty(
    prop: PropositionOption,
    slots: Mapping[str, ReferenceSlot],
    previous: Utterance | None,
    penalty: float,
) -> float:
    """Penalty units for entities whose grammatical function changed since
    the previous utterance; parallel realizations stay free."""
    if previous is None or penalty == 0:
        return 0.0
    prev_function = {r.entity: r.function for r in previous.resolved()}
    units = 0
    for slot_id, entity in prop.assigns.items():
        before = prev_function.get(entity)
        if before is not None and before is not slots[slot_id].function:
            units += 1
    return penalty * units


def build_sentence_game(
    state: DiscourseState,
    section: CompoundSection,
    slots: Mapping[str, ReferenceSlot],
    config: ResolutionConfig,
) -> MeaningGame:
    """The proposition-to-sentence constituent game of a compound section.

    Costs are the declared per-sentence base costs plus the parallelism
    penalty for every referent realized at a different grammatical function
    than in the previous utterance, plus any explicit overrides carried by
    the scenario (extralinguistic context enters here, as prior weights or
    cost overrides on particular pairs).
    """
    penalty = _parallelism_penalty(section, config)
    contents = tuple(Content(p.id, p.label) for p in section.propositions)
    messages = tuple(Message(s.id, s.label) for s in section.sentences)
    prior = Prior.normalized({p.id: p.prior for p in section.propositions})

    sender_cost = {}
    receiver_cost = {}
    previous = state.last_utterance()
    for prop in section.propositions:
        base = _alignment_penalty(prop, slots, previous, penalty)
        for sentence in section.sentences:
            cost = prop.cost_overrides.get(
                sentence.id, sentence.cost + base
            )
            sender_cost[(prop.id, sentence.id)] = cost
            receiver_cost[(sentence.id, prop.id)] = cost

    return MeaningGame(
        contents,
        messages,
        prior,
        UtilityModel(
            sender_bonus=config.success_bonus,
            receiver_bonus=config.success_bonus,
            sender_cost=sender_cost,
            receiver_cost=receiver_cost,
            shared=True,
        ),
    )


def sentence_game_informative(g: MeaningGame) -> bool:
    """True when the sentence level can influence interpretation at all:
    some message discriminates between contents by cost, or the prior does."""
    weights = list(g.prior.weights.values())
    if max(weights) - min(weights) > TOL:
        return True
    u = g.utility
    for m in g.message_ids():
        pairs = [
            (u.sender_cost[(c, m)], u.receiver_cost[(m, c)])
            for c in g.content_ids()
            if (c, m) in g.edges
        ]
        for costs in zip(*pairs):  # the sender's costs, then the receiver's
            if max(costs) - min(costs) > TOL:
                return True
    return False


def build_compound(
    state: DiscourseState,
    section: CompoundSection,
    slots: Mapping[str, ReferenceSlot],
    entities: Mapping[str, Entity],
    config: ResolutionConfig,
) -> CompoundGame:
    """Assemble the compound game for an utterance's sentence frame.

    The first constituent is the sentence game, followed by one NP game per
    slot.  The joint messages are the declared sentences that embed the
    expressions actually uttered (the frame plus one expression per slot),
    mirroring how an observed message biases the game toward the pairs
    consistent with it; the sentence constituent contains only those
    sentences, while the NP constituents keep their full expression sets,
    so local optimality is judged against the expressions the speaker
    could have chosen slot by slot.  Joint contents pair each proposition
    with the slot referents it assigns.
    """
    observed = {slot_id: slots[slot_id].surface for slot_id in section.slot_ids}
    kept = tuple(s for s in section.sentences if dict(s.parts) == observed)
    if not kept:
        raise ScenarioError(
            f"utterance {section.utterance_index}: no declared sentence matches "
            f"the observed expressions {observed}"
        )
    sentence_game = build_sentence_game(
        state, replace(section, sentences=kept), slots, config
    )
    constituents = [ConstituentGame(Slot("sentence", "sentence frame"), sentence_game)]
    for slot_id in section.slot_ids:
        slot = slots[slot_id]
        constituents.append(
            ConstituentGame(
                Slot(slot_id, slot.surface),
                build_np_game(state, slot, entities, config),
            )
        )

    feasible = frozenset(
        (sentence.id,) + tuple(sentence.parts[s] for s in section.slot_ids)
        for sentence in kept
    )
    joint_contents = frozenset(
        (prop.id,) + tuple(prop.assigns[s] for s in section.slot_ids)
        for prop in section.propositions
    )
    return CompoundGame(
        tuple(constituents), CompatibilityRelation(feasible), joint_contents
    )


@dataclass(frozen=True)
class SlotResolution:
    utterance_index: int
    slot_id: str
    surface: str
    entity: str | None
    alternatives: tuple[str, ...]
    via: str
    locally_suboptimal: tuple[str, ...] = ()

    @property
    def resolved(self) -> bool:
        return self.entity is not None


@dataclass(frozen=True)
class ResolveReport:
    utterances: tuple[Utterance, ...]
    resolutions: tuple[SlotResolution, ...]
    rule1: tuple[Rule1Violation, ...] | None
    state: DiscourseState

    @property
    def fully_resolved(self) -> bool:
        return all(r.resolved for r in self.resolutions)

    def assignment(self) -> dict[str, str]:
        """surface -> entity, for resolved slots (last commitment wins)."""
        return {r.surface: r.entity for r in self.resolutions if r.resolved}


@dataclass(frozen=True)
class Discourse:
    """A loaded discourse: entities, utterances, compound sections, config."""

    entities: Mapping[str, Entity]
    utterances: tuple[Utterance, ...]
    config: ResolutionConfig
    compounds: Mapping[int, CompoundSection] = field(default_factory=dict)


def _resolve_slot_by_game(
    state: DiscourseState,
    slot: ReferenceSlot,
    entities: Mapping[str, Entity],
    config: ResolutionConfig,
    utterance_index: int,
) -> SlotResolution:
    """The slot resolved in the game ``build_np_game`` builds, compiled
    straight from the slot's parts."""
    prior, compatible, used = _np_parts(state, slot, entities, config)
    costs = [opt.form.lightness_cost for opt in slot.options]
    core = _SharedView(
        slot.candidates, prior, compatible, costs, config.success_bonus, config.off_path
    )
    readings = sorted(_view_readings(core, config.cap, used))
    entity = readings.pop() if len(readings) == 1 else None
    return SlotResolution(
        utterance_index, slot.id, slot.surface, entity, tuple(readings), "np-game"
    )


def _resolve_by_compound(
    state: DiscourseState,
    section: CompoundSection,
    slots: Mapping[str, ReferenceSlot],
    entities: Mapping[str, Entity],
    config: ResolutionConfig,
) -> list[SlotResolution]:
    """The section's slots resolved jointly: a slot resolves only when
    exactly one joint reading of the uttered sentence survives; otherwise
    each lists the referents the surviving readings give it."""
    cg = build_compound(state, section, slots, entities, config)
    result = predict_compound(cg, config.off_path, config.cap)
    flat = result.flattened
    uttered = tuple(slots[s].surface for s in section.slot_ids)
    observed = [m for m, mtup in flat.message_components.items() if mtup[1:] == uttered]
    if not observed:
        raise ScenarioError("observed joint message missing from the flattened game")

    readings = sorted(result.prediction.readings_of(observed[0]))
    joint = [flat.content_components[r] for r in readings]
    unique = len(joint) == 1
    suboptimal = ()
    if unique:
        suboptimal = tuple(
            a.slot_id for a in result.annotations[0] if not a.locally_optimal
        )
    via = f"compound(parallelism={_parallelism_penalty(section, config)})"
    out = []
    for i, slot_id in enumerate(section.slot_ids, start=1):
        referents = sorted({ctup[i] for ctup in joint})
        entity = referents.pop() if unique else None
        out.append(
            SlotResolution(
                section.utterance_index, slot_id, slots[slot_id].surface, entity,
                tuple(referents), via, suboptimal,
            )
        )
    return out


def resolve(discourse: Discourse, config: ResolutionConfig | None = None) -> ResolveReport:
    """Resolve every anaphoric slot of the discourse, in order.

    Slots are resolved against the state before their utterance.  When an
    utterance carries a compound section whose sentence game is informative
    (parallelism or extralinguistic context in play), the section's slots
    are resolved jointly through the flattened compound, restricted to the
    sentence actually uttered; every other slot is its own reference game.
    Predictions that disagree about the used expression are reported as
    unresolved with their alternatives.  After an utterance resolves, its
    realizations update salience, and each committed reference is
    accommodated with the boost of its expression form.
    """
    config = config or discourse.config
    state = DiscourseState.initial(sorted(discourse.entities), config)
    resolved_utterances: list[Utterance] = []
    resolutions: list[SlotResolution] = []

    for u in discourse.utterances:
        slots = {s.id: s for s in u.slots()}
        by_slot: dict[str, SlotResolution] = {}
        section = discourse.compounds.get(u.index) if slots else None
        if section is not None:
            if set(section.slot_ids) - set(slots):
                raise ScenarioError(
                    f"compound section of utterance {u.index} references "
                    "slots the utterance does not contain"
                )
            if sentence_game_informative(
                build_sentence_game(state, section, slots, config)
            ):
                for r in _resolve_by_compound(
                    state, section, slots, discourse.entities, config
                ):
                    by_slot[r.slot_id] = r
        for slot in slots.values():
            if slot.id not in by_slot:
                by_slot[slot.id] = _resolve_slot_by_game(
                    state, slot, discourse.entities, config, u.index
                )
        resolutions.extend(by_slot[s] for s in slots)

        items: list[Realization | ReferenceSlot] = []
        committed: list[Realization] = []
        for item in u.realizations:
            if isinstance(item, ReferenceSlot) and by_slot[item.id].resolved:
                entity, form = by_slot[item.id].entity, item.used_option().form
                item = Realization(entity, item.function, form, item.surface)
                committed.append(item)
            items.append(item)
        ru = Utterance(u.index, tuple(items))
        resolved_utterances.append(ru)

        if ru.is_resolved():
            state = ingest(state, ru, config)
            for realization in committed:
                state = accommodate(state, realization, config)

    rule1 = None
    if all(ru.is_resolved() for ru in resolved_utterances):
        rule1 = tuple(rule1_check(resolved_utterances))
    return ResolveReport(
        tuple(resolved_utterances), tuple(resolutions), rule1, state
    )
