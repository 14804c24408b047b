"""File formats and report assembly.

One JSON-syntax format covers games, discourses, and machine-readable
reports.  Game files may price messages wholesale (a per-message cost that
expands into the pair tables at load time) or spell out the pair tables;
a pair is grammatical exactly when both tables carry it.  Discourse files
declare entities with features, utterances as realization lists with
unresolved slots, and optional sentence-level compound sections.
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .centering import (
    CompoundSection,
    Discourse,
    Entity,
    ExpressionForm,
    ExpressionOption,
    FormKind,
    GrammaticalFunction,
    PropositionOption,
    Realization,
    ReferenceSlot,
    ResolutionConfig,
    SentenceOption,
    Utterance,
    DEFAULT_FORM_COSTS,
    validate_form_costs,
)
from .errors import InvalidGameError, ScenarioError
from .game import (
    TOL,
    Content,
    MeaningGame,
    Message,
    Prior,
    UtilityModel,
    validate_game,
)


def _read_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read file: {exc}") from exc
    if not text.strip():
        raise ScenarioError(f"{path}: file is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an overlong integer, deep nesting
        raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return data


@contextmanager
def _schema_errors(path):
    """Report every load error as a ``ScenarioError`` naming the file: a missing
    key, a malformed value, and any ``ScenarioError`` or ``InvalidGameError``."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing required field {exc.args[0]!r}") from exc
    except (ScenarioError, InvalidGameError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ScenarioError(f"{path}: malformed field: {exc}") from exc


def _refused(value: Any, expected: str, where: str, at: tuple, field: str):
    """The error of a reader below that refused ``value``, naming its field by the
    path from the top of the file (as in ``utterances[1]: realizations[0]: cost``):
    ``where + field`` filled in with ``at``, so a good file pays for no formatting."""
    path = (where + field).format(*at)
    return ScenarioError(f"{path} must be {expected}, got {value!r}")


def _number(value: Any, where: str, at=(), field="", minimum=None) -> float:
    """``value`` as a float: a finite JSON number, not a bool, >= ``minimum``."""
    number = value
    if type(value) is int and abs(value) <= sys.float_info.max:  # else float() fails
        number = float(value)
    if type(number) is float and number - number == 0:  # not NaN or an infinity
        if minimum is None or number >= minimum:
            return number
    bound = "" if minimum is None else f" >= {minimum}"
    raise _refused(value, f"a finite number{bound}", where, at, field)


def _ident(value: Any, where: str, at=(), field="") -> str:
    """``value`` as a JSON string: an id, label, tag or feature value."""
    if type(value) is str:
        return value
    raise _refused(value, "a string", where, at, field)


def _array(value: Any, where: str, at=(), field="", of=None, length=None) -> tuple:
    """``value`` as a tuple: a JSON array, ``length`` long if given, whose
    items are all of type ``of`` (``str`` or ``dict``) if given."""
    if type(value) in (list, tuple) and (length is None or len(value) == length):
        for v in value:
            if of is not None and type(v) is not of:
                break
        else:
            return tuple(value)
    size = "" if length is None else f"{length} "
    items = {None: "values", str: "strings", dict: "objects"}[of]
    raise _refused(value, f"an array of {size}{items}", where, at, field)


def _object(value: Any, where: str, at=(), field="", of=None) -> dict:
    """``value`` as a dict: a JSON object.  With ``of`` set to ``str`` its
    values must be strings, and a copy is returned."""
    if type(value) is dict:
        if of is None:
            return value
        for v in value.values():
            if type(v) is not of:
                break
        else:
            return dict(value)
    what = "an object" if of is None else "an object of strings"
    raise _refused(value, what, where, at, field)


def _numbers(value: Any, where: str, at=(), field="", minimum=None) -> dict[str, float]:
    """``value`` as a dict: a JSON object of numbers, each read by ``_number``
    and named by its key, as in ``prior['fred']``."""
    key = field + "[{!r}]"
    numbers = _object(value, where, at, field)
    return {k: _number(v, where, at + (k,), key, minimum) for k, v in numbers.items()}


def _id_label(entry: Mapping, where: str, at: tuple) -> tuple[str, str]:
    """``entry``'s id, and its label, which defaults to the id."""
    eid = _ident(entry["id"], where, at, "id")
    return eid, _ident(entry.get("label", eid), where, at, "label")


def _check_cap(value: Any, where: str) -> int:
    """``value`` as a solver cap: a non-negative integer, not a bool."""
    if type(value) is not int or value < 0:
        raise ScenarioError(f"{where} must be a non-negative integer, got {value!r}")
    return value


@dataclass(frozen=True)
class GameSpec:
    """A parsed game file: the game plus solver defaults it carries."""

    game: MeaningGame
    off_path: str = "prior"
    cap: int | None = None
    warnings: tuple[str, ...] = ()


def parse_game(data: Mapping, path: str | Path = "<game>") -> GameSpec:
    with _schema_errors(path):
        spec, notes = _parse_game(data)
    for note in notes:
        warnings.warn(f"{path}: {note}")
    return spec


def _parse_game(data: Mapping) -> tuple[GameSpec, list[str]]:
    """The spec ``data`` describes, and notes on what loading changed."""
    contents = [
        Content(*_id_label(entry, "contents[{}]: ", (i,)))
        for i, entry in enumerate(_array(data["contents"], "contents", of=dict))
    ]
    messages = []
    per_message_cost = {}
    for i, entry in enumerate(_array(data["messages"], "messages", of=dict)):
        messages.append(Message(*_id_label(entry, "messages[{}]: ", (i,))))
        if "cost" in entry:
            cost = _number(entry["cost"], "messages[{}]: ", (i,), "cost")
            per_message_cost[messages[-1].id] = cost

    raw_prior = _numbers(data["prior"], "prior")
    notes = []
    total = sum(raw_prior.values())
    if total <= 0:
        raise ScenarioError("prior weights must have positive total mass")
    if abs(total - 1.0) > TOL:
        notes.append(f"prior weights sum to {total}; normalized")
        raw_prior = {k: v / total for k, v in raw_prior.items()}
    prior = Prior(raw_prior)

    bonus = data.get("success_bonus", 1.0)
    if isinstance(bonus, Mapping):
        sender_bonus = _number(bonus.get("sender", 1.0), "success_bonus: sender")
        receiver_bonus = _number(bonus.get("receiver", 1.0), "success_bonus: receiver")
    else:
        sender_bonus = receiver_bonus = _number(bonus, "success_bonus")

    excluded = {
        _array(pair, "exclude[{}]", (i,), of=str, length=2)
        for i, pair in enumerate(_array(data.get("exclude", []), "exclude"))
    }
    sender_cost: dict[tuple[str, str], float] = {}
    receiver_cost: dict[tuple[str, str], float] = {}
    for c in contents:
        for m in messages:
            if (c.id, m.id) not in excluded and m.id in per_message_cost:
                sender_cost[(c.id, m.id)] = per_message_cost[m.id]
                receiver_cost[(m.id, c.id)] = per_message_cost[m.id]
    for cid, row in _object(data.get("sender_costs", {}), "sender_costs").items():
        for mid, cost in _object(row, "sender_costs[{!r}]", (cid,)).items():
            cost = _number(cost, "sender_costs[{!r}][{!r}]", (cid, mid))
            if (cid, mid) not in excluded:
                sender_cost[(cid, mid)] = cost
    for mid, row in _object(data.get("receiver_costs", {}), "receiver_costs").items():
        for cid, cost in _object(row, "receiver_costs[{!r}]", (mid,)).items():
            cost = _number(cost, "receiver_costs[{!r}][{!r}]", (mid, cid))
            if (cid, mid) not in excluded:
                receiver_cost[(mid, cid)] = cost

    overlap = None
    if "bonus_overlap" in data:
        w, overlap = "bonus_overlap[{!r}][{!r}]", {}
        for a, row in _object(data["bonus_overlap"], "bonus_overlap").items():
            for b, pair in _object(row, "bonus_overlap[{!r}]", (a,)).items():
                s, r = _array(pair, w, (a, b), length=2)
                overlap[(a, b)] = _number(s, w, (a, b), "[0]"), _number(r, w, (a, b), "[1]")

    shared = data.get("shared", False)
    if not isinstance(shared, bool):
        raise ScenarioError(f"shared must be true or false, got {shared!r}")

    game = MeaningGame(
        tuple(contents),
        tuple(messages),
        prior,
        UtilityModel(
            sender_bonus=sender_bonus,
            receiver_bonus=receiver_bonus,
            sender_cost=sender_cost,
            receiver_cost=receiver_cost,
            shared=shared,
            bonus_overlap=overlap,
        ),
    )
    report = validate_game(game)
    if report.errors:
        raise ScenarioError("invalid game: " + "; ".join(report.errors))
    off_path = data.get("off_path", "prior")
    if off_path not in ("prior", "uniform"):
        raise ScenarioError("off_path must be 'prior' or 'uniform'")
    cap = _check_cap(data["cap"], "cap") if "cap" in data else None
    return GameSpec(game, off_path, cap, tuple(notes) + report.warnings), notes


def read_game_spec(path: str | Path) -> GameSpec:
    return parse_game(_read_json(path), path)


def load_game(path: str | Path) -> MeaningGame:
    """Load and validate a game file; per-message costs are expanded into
    the pair tables, unnormalized priors normalized with a warning."""
    return read_game_spec(path).game


def serialize_game(g: MeaningGame) -> dict:
    """Explicit JSON form of a game; loading it back reproduces the game
    field for field."""
    data: dict[str, Any] = {
        "contents": [{"id": c.id, "label": c.label} for c in g.contents],
        "messages": [{"id": m.id, "label": m.label} for m in g.messages],
        "prior": {c: g.prior[c] for c in g.content_ids()},
        "success_bonus": {
            "sender": g.utility.sender_bonus,
            "receiver": g.utility.receiver_bonus,
        },
        "shared": g.utility.shared,
        "sender_costs": {},
        "receiver_costs": {},
    }
    for (c, m), cost in sorted(g.utility.sender_cost.items()):
        data["sender_costs"].setdefault(c, {})[m] = cost
    for (m, c), cost in sorted(g.utility.receiver_cost.items()):
        data["receiver_costs"].setdefault(m, {})[c] = cost
    if g.utility.bonus_overlap is not None:
        data["bonus_overlap"] = {}
        for (a, b), pair in sorted(g.utility.bonus_overlap.items()):
            data["bonus_overlap"].setdefault(a, {})[b] = list(pair)
    return data


def _parse_config(data: Mapping) -> ResolutionConfig:
    """The config the file sets, on top of the ``ResolutionConfig`` defaults."""
    cfg = _object(data.get("config", {}), "config")
    names = "initial_salience rank_weight cb_bonus success_bonus parallelism_penalty"
    least = {"cb_bonus": 0}  # ``ResolutionConfig`` checks the others' ranges
    fields = {
        k: _number(cfg[k], "config: ", (), k, least.get(k)) for k in names.split() if k in cfg
    }
    if "off_path" in cfg:
        fields["off_path"] = _ident(cfg["off_path"], "config: off_path")
    if "cap" in cfg:
        fields["cap"] = _check_cap(cfg["cap"], "config: cap")
    if "boosts" in cfg:
        fields["boosts"] = boosts = dict(ResolutionConfig().boosts)
        for tag, boost in _numbers(cfg["boosts"], "config: boosts").items():
            boosts[FormKind.from_tag(tag)] = boost
    return ResolutionConfig(**fields)


def parse_discourse(data: Mapping, path: str | Path = "<discourse>") -> Discourse:
    with _schema_errors(path):
        return _parse_discourse(data)


def _parse_discourse(data: Mapping) -> Discourse:
    entities: dict[str, Entity] = {}
    for i, entry in enumerate(_array(data["entities"], "entities", of=dict)):
        at, where = (i,), "entities[{}]: "
        eid, label = _id_label(entry, where, at)
        if eid in entities:
            raise ScenarioError(f"duplicate entity id {eid!r}")
        features = entry.get("features", {})
        entities[eid] = Entity(eid, label, _object(features, where, at, "features", str))

    form_costs = dict(DEFAULT_FORM_COSTS)
    for tag, cost in _numbers(data.get("form_costs", {}), "form_costs").items():
        form_costs[FormKind.from_tag(tag)] = cost
    validate_form_costs(form_costs)
    config = _parse_config(data)
    forms = {kind: ExpressionForm(kind, cost) for kind, cost in form_costs.items()}

    def form_of(entry: Mapping, where: str, at: tuple) -> ExpressionForm:
        """The form ``entry`` names, at its own cost if it gives one."""
        kind = FormKind.from_tag(_ident(entry["form"], where, at, "form"))
        if "cost" not in entry:
            return forms[kind]
        return ExpressionForm(kind, _number(entry["cost"], where, at, "cost", 0))

    utterance = "utterances[{}]: "
    realization = "utterances[{}]: realizations[{}]: "
    option = "utterances[{}]: realizations[{}]: options[{}]: "
    utterances = []
    for u, entry in enumerate(_array(data["utterances"], "utterances", of=dict)):
        items: list[Realization | ReferenceSlot] = []
        entries = entry.get("realizations", [])
        for k, r in enumerate(_array(entries, utterance, (u,), "realizations", dict)):
            at = (u, k)
            tag = _ident(r["function"], realization, at, "function")
            function = GrammaticalFunction.from_tag(tag)
            surface = _ident(r["surface"], realization, at, "surface")
            if "entity" in r:
                eid = _ident(r["entity"], realization, at, "entity")
                if eid not in entities:
                    raise ScenarioError(
                        f"utterance {u + 1} references unknown entity {eid!r}"
                    )
                form = form_of(r, realization, at)
                items.append(Realization(eid, function, form, surface))
                continue
            sid = _ident(r["slot"], realization, at, "slot")
            candidates = _array(r["candidates"], realization, at, "candidates", str)
            options = []
            for n, o in enumerate(_array(r["options"], realization, at, "options", dict)):
                at = (u, k, n)
                used = _ident(o["surface"], option, at, "surface")
                requires = _object(o.get("requires", {}), option, at, "requires", str)
                options.append(ExpressionOption(used, form_of(o, option, at), requires))
            if not options or not candidates:
                raise ScenarioError(
                    f"slot {sid!r} needs at least one option and one candidate"
                )
            unknown = [c for c in candidates if c not in entities]
            if unknown:
                raise ScenarioError(f"slot {sid!r} names unknown candidates {unknown}")
            for cid in candidates:
                if not any(o.compatible(entities[cid]) for o in options):
                    raise ScenarioError(
                        f"slot {sid!r}: candidate {cid!r} is "
                        "compatible with no expression option"
                    )
            slot = ReferenceSlot(sid, function, surface, tuple(options), candidates)
            slot.used_option()  # surface must be among the options
            items.append(slot)
        utterances.append(Utterance(u + 1, tuple(items)))

    section = "compounds[{}]: "
    proposition = "compounds[{}]: propositions[{}]: "
    sentence = "compounds[{}]: sentences[{}]: "
    compounds = {}
    for i, entry in enumerate(_array(data.get("compounds", []), "compounds", of=dict)):
        index = entry["utterance"]
        if type(index) is not int or not 1 <= index <= len(utterances):
            raise ScenarioError(
                "compound utterance must be the integer index of a "
                f"listed utterance, got {index!r}"
            )
        if index in compounds:
            raise ScenarioError(f"more than one compound section for utterance {index}")
        slot_ids = _array(entry["slots"], section, (i,), "slots", str)
        listed = {s.id for s in utterances[index - 1].slots()}
        if len(set(slot_ids)) != len(slot_ids) or not listed.issuperset(slot_ids):
            raise ScenarioError(
                f"compound section of utterance {index} must name "
                f"distinct slots of that utterance, got {list(slot_ids)}"
            )
        entries = _array(entry["propositions"], section, (i,), "propositions", dict)
        propositions = tuple(
            PropositionOption(
                *_id_label(p, proposition, (i, n)),
                _object(p["assigns"], proposition, (i, n), "assigns", str),
                _number(p.get("prior", 1.0), proposition, (i, n), "prior", 0),
                _numbers(
                    p.get("cost_overrides", {}), proposition, (i, n), "cost_overrides", 0
                ),
            )
            for n, p in enumerate(entries)
        )
        entries = _array(entry["sentences"], section, (i,), "sentences", dict)
        sentences = tuple(
            SentenceOption(
                *_id_label(s, sentence, (i, n)),
                _object(s["parts"], sentence, (i, n), "parts", str),
                _number(s.get("cost", 0.0), sentence, (i, n), "cost", 0),
            )
            for n, s in enumerate(entries)
        )
        for p in propositions:
            if set(p.assigns) != set(slot_ids):
                raise ScenarioError(
                    f"proposition {p.id!r} must assign exactly the "
                    f"slots {list(slot_ids)}"
                )
        for s in sentences:
            if set(s.parts) != set(slot_ids):
                raise ScenarioError(
                    f"sentence {s.id!r} must cover exactly the slots {list(slot_ids)}"
                )
        penalty = entry.get("parallelism_penalty")
        if penalty is not None:
            penalty = _number(penalty, section, (i,), "parallelism_penalty", 0)
        compounds[index] = CompoundSection(
            index, slot_ids, propositions, sentences, penalty
        )

    return Discourse(entities, tuple(utterances), config, compounds)


def load_discourse(path: str | Path) -> Discourse:
    """Load and validate a discourse file."""
    return parse_discourse(_read_json(path), path)


# -- reports ---------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Everything a command produced, in one renderable value.

    The machine rendering is byte-stable for identical inputs; wall-clock
    timing therefore only appears in the human table.
    """

    command: str
    args: Mapping[str, Any]
    config_hash: str
    payload: Mapping[str, Any]
    elapsed_ms: float | None = None


def config_hash(command: str, args: Mapping[str, Any], files: Mapping[str, bytes]) -> str:
    digest = hashlib.sha256()
    digest.update(
        json.dumps(
            {
                "command": command,
                "args": {k: args[k] for k in sorted(args)},
                "files": {
                    name: hashlib.sha256(blob).hexdigest()
                    for name, blob in sorted(files.items())
                },
            },
            sort_keys=True,
        ).encode()
    )
    return digest.hexdigest()[:16]


def render_machine(report: RunReport) -> str:
    return json.dumps(
        {
            "command": report.command,
            "args": dict(report.args),
            "config_hash": report.config_hash,
            "payload": dict(report.payload),
        },
        sort_keys=True,
        indent=2,
    )


def _flatten_lines(value: Any, indent: str = "  ") -> list[str]:
    lines = []
    if isinstance(value, Mapping):
        for k in value:
            v = value[k]
            if isinstance(v, (Mapping, list, tuple)) and v:
                lines.append(f"{indent}{k}:")
                lines.extend(_flatten_lines(v, indent + "  "))
            elif isinstance(v, (Mapping, list, tuple)):
                lines.append(f"{indent}{k}: []")
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            if isinstance(v, (Mapping, list, tuple)):
                lines.append(f"{indent}- [{i}]")
                lines.extend(_flatten_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}- {v}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def render_table(report: RunReport) -> str:
    lines = [
        f"command: {report.command}",
        f"config hash: {report.config_hash}",
    ]
    for k in sorted(report.args):
        lines.append(f"  {k}: {report.args[k]}")
    lines.append("")
    lines.extend(_flatten_lines(report.payload, ""))
    if report.elapsed_ms is not None:
        lines.append("")
        lines.append(f"elapsed: {report.elapsed_ms:.1f} ms")
    return "\n".join(lines)
