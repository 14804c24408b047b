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
import math
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
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return data


def _require(data: Mapping, key: str, path) -> Any:
    if key not in data:
        raise ScenarioError(f"{path}: missing required field {key!r}")
    return data[key]


@contextmanager
def _schema_errors(path):
    """Report a missing key, or a value of the wrong type or form, as a
    ``ScenarioError`` naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing required field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ScenarioError(f"{path}: malformed field: {exc}") from exc


@contextmanager
def _named(path):
    """Prefix a ``ScenarioError`` raised by a check that does not know the
    file with the file's name."""
    try:
        yield
    except ScenarioError as exc:
        raise _prefixed(path, exc) from exc


def _from_tag(kind, tag: str, path):
    """``kind.from_tag(tag)``, with an unknown tag's error naming the file.
    Parsing calls this per realization, where a ``_named`` block would cost
    a generator each time."""
    try:
        return kind.from_tag(tag)
    except ScenarioError as exc:
        raise _prefixed(path, exc) from exc


def _prefixed(path, exc: ScenarioError) -> ScenarioError:
    """``exc``'s message prefixed with the file's name."""
    return ScenarioError(f"{path}: {exc}")


def _section_number(value: Any, name: str, path) -> float:
    """A compound section's ``value`` as a finite, non-negative float;
    anything else raises ``ScenarioError`` naming the file."""
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise ScenarioError(f"{path}: {name} must be finite and >= 0, got {value!r}")
    return number


def _check_cap(value: Any, source: str) -> int:
    """``value`` as a solver cap: a non-negative integer, not a bool.
    Anything else raises ``ScenarioError`` naming ``source``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError(f"{source}: cap must be a non-negative integer, got {value!r}")
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
        return _parse_game(data, path)


def _parse_game(data: Mapping, path) -> GameSpec:
    contents = []
    for entry in _require(data, "contents", path):
        contents.append(Content(str(entry["id"]), str(entry.get("label", ""))))
    messages = []
    per_message_cost = {}
    for entry in _require(data, "messages", path):
        mid = str(entry["id"])
        messages.append(Message(mid, str(entry.get("label", ""))))
        if "cost" in entry:
            per_message_cost[mid] = float(entry["cost"])

    raw_prior = {str(k): float(v) for k, v in _require(data, "prior", path).items()}
    notes = []
    total = sum(raw_prior.values())
    if total <= 0:
        raise ScenarioError(f"{path}: prior weights must have positive total mass")
    if abs(total - 1.0) > TOL:
        notes.append(f"prior weights sum to {total}; normalized")
        warnings.warn(f"{path}: {notes[-1]}")
        raw_prior = {k: v / total for k, v in raw_prior.items()}
    prior = Prior(raw_prior)

    bonus = data.get("success_bonus", 1.0)
    if isinstance(bonus, Mapping):
        sender_bonus = float(bonus.get("sender", 1.0))
        receiver_bonus = float(bonus.get("receiver", 1.0))
    else:
        sender_bonus = receiver_bonus = float(bonus)

    excluded = {(str(c), str(m)) for c, m in data.get("exclude", [])}
    sender_cost: dict[tuple[str, str], float] = {}
    receiver_cost: dict[tuple[str, str], float] = {}
    for c in contents:
        for m in messages:
            if (c.id, m.id) in excluded:
                continue
            if m.id in per_message_cost:
                sender_cost[(c.id, m.id)] = per_message_cost[m.id]
                receiver_cost[(m.id, c.id)] = per_message_cost[m.id]
    for cid, row in data.get("sender_costs", {}).items():
        for mid, cost in row.items():
            if (str(cid), str(mid)) not in excluded:
                sender_cost[(str(cid), str(mid))] = float(cost)
    for mid, row in data.get("receiver_costs", {}).items():
        for cid, cost in row.items():
            if (str(cid), str(mid)) not in excluded:
                receiver_cost[(str(mid), str(cid))] = float(cost)

    overlap = None
    if "bonus_overlap" in data:
        overlap = {}
        for intended, row in data["bonus_overlap"].items():
            for interpreted, pair in row.items():
                overlap[(str(intended), str(interpreted))] = (
                    float(pair[0]),
                    float(pair[1]),
                )

    shared = data.get("shared", False)
    if not isinstance(shared, bool):
        raise ScenarioError(f"{path}: shared must be true or false, got {shared!r}")

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
        raise ScenarioError(f"{path}: invalid game: " + "; ".join(report.errors))
    off_path = str(data.get("off_path", "prior"))
    if off_path not in ("prior", "uniform"):
        raise ScenarioError(f"{path}: off_path must be 'prior' or 'uniform'")
    cap = _check_cap(data["cap"], str(path)) if "cap" in data else None
    return GameSpec(game, off_path, cap, tuple(notes) + report.warnings)


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


def _parse_form_costs(data: Mapping, path) -> dict[FormKind, float]:
    costs = dict(DEFAULT_FORM_COSTS)
    with _named(path):
        for tag, value in data.get("form_costs", {}).items():
            costs[FormKind.from_tag(str(tag))] = float(value)
        validate_form_costs(costs)
    return costs


_CONFIG_FIELDS = {
    "initial_salience": float,
    "rank_weight": float,
    "cb_bonus": float,
    "success_bonus": float,
    "parallelism_penalty": float,
    "off_path": str,
}


def _parse_config(data: Mapping, path) -> ResolutionConfig:
    """The config the file sets, on top of the ``ResolutionConfig`` defaults."""
    cfg = data.get("config", {})
    fields = {k: parse(cfg[k]) for k, parse in _CONFIG_FIELDS.items() if k in cfg}
    if "cap" in cfg:
        fields["cap"] = _check_cap(cfg["cap"], f"{path}: config")
    with _named(path):
        if "boosts" in cfg:
            fields["boosts"] = dict(ResolutionConfig().boosts)
            for tag, value in cfg["boosts"].items():
                fields["boosts"][FormKind.from_tag(str(tag))] = float(value)
        return ResolutionConfig(**fields)


def parse_discourse(data: Mapping, path: str | Path = "<discourse>") -> Discourse:
    with _schema_errors(path):
        return _parse_discourse(data, path)


def _parse_discourse(data: Mapping, path) -> Discourse:
    entities: dict[str, Entity] = {}
    for entry in _require(data, "entities", path):
        eid = str(entry["id"])
        if eid in entities:
            raise ScenarioError(f"{path}: duplicate entity id {eid!r}")
        entities[eid] = Entity(
            eid,
            str(entry.get("label", "")),
            {str(k): str(v) for k, v in entry.get("features", {}).items()},
        )

    form_costs = _parse_form_costs(data, path)
    config = _parse_config(data, path)

    def form_of(tag: str, cost: float | None = None) -> ExpressionForm:
        kind = _from_tag(FormKind, tag, path)
        return ExpressionForm(kind, form_costs[kind] if cost is None else cost)

    utterances = []
    for index, entry in enumerate(_require(data, "utterances", path), start=1):
        items: list[Realization | ReferenceSlot] = []
        for r in entry.get("realizations", []):
            tag = str(_require(r, "function", path))
            function = _from_tag(GrammaticalFunction, tag, path)
            surface = str(_require(r, "surface", path))
            if "entity" in r:
                eid = str(r["entity"])
                if eid not in entities:
                    raise ScenarioError(
                        f"{path}: utterance {index} references unknown entity {eid!r}"
                    )
                items.append(
                    Realization(
                        eid,
                        function,
                        form_of(str(_require(r, "form", path)), r.get("cost")),
                        surface,
                    )
                )
                continue
            slot_id = str(_require(r, "slot", path))
            options = tuple(
                ExpressionOption(
                    str(_require(o, "surface", path)),
                    form_of(str(_require(o, "form", path)), o.get("cost")),
                    {str(k): str(v) for k, v in o.get("requires", {}).items()},
                )
                for o in _require(r, "options", path)
            )
            candidates = tuple(str(c) for c in _require(r, "candidates", path))
            if not options or not candidates:
                raise ScenarioError(
                    f"{path}: slot {slot_id!r} needs at least one option and "
                    "one candidate"
                )
            unknown = [c for c in candidates if c not in entities]
            if unknown:
                raise ScenarioError(
                    f"{path}: slot {slot_id!r} names unknown candidates {unknown}"
                )
            for cid in candidates:
                if not any(o.compatible(entities[cid]) for o in options):
                    raise ScenarioError(
                        f"{path}: slot {slot_id!r}: candidate {cid!r} is "
                        "compatible with no expression option"
                    )
            slot = ReferenceSlot(slot_id, function, surface, options, candidates)
            slot.used_option()  # surface must be among the options
            items.append(slot)
        try:
            utterances.append(Utterance(index, tuple(items)))
        except InvalidGameError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    compounds = {}
    for entry in data.get("compounds", []):
        index = _require(entry, "utterance", path)
        if type(index) is not int or not 1 <= index <= len(utterances):
            raise ScenarioError(
                f"{path}: compound utterance must be the integer index of a "
                f"listed utterance, got {index!r}"
            )
        if index in compounds:
            raise ScenarioError(
                f"{path}: more than one compound section for utterance {index}"
            )
        slot_ids = tuple(str(s) for s in _require(entry, "slots", path))
        listed = {s.id for s in utterances[index - 1].slots()}
        if len(set(slot_ids)) != len(slot_ids) or not listed.issuperset(slot_ids):
            raise ScenarioError(
                f"{path}: compound section of utterance {index} must name "
                f"distinct slots of that utterance, got {list(slot_ids)}"
            )
        propositions = tuple(
            PropositionOption(
                str(p["id"]),
                str(p.get("label", p["id"])),
                {str(k): str(v) for k, v in _require(p, "assigns", path).items()},
                _section_number(p.get("prior", 1.0), "prior", path),
                {
                    str(k): _section_number(v, "cost override", path)
                    for k, v in p.get("cost_overrides", {}).items()
                },
            )
            for p in _require(entry, "propositions", path)
        )
        sentences = tuple(
            SentenceOption(
                str(s["id"]),
                str(s.get("label", s["id"])),
                {str(k): str(v) for k, v in _require(s, "parts", path).items()},
                _section_number(s.get("cost", 0.0), "sentence cost", path),
            )
            for s in _require(entry, "sentences", path)
        )
        for p in propositions:
            if set(p.assigns) != set(slot_ids):
                raise ScenarioError(
                    f"{path}: proposition {p.id!r} must assign exactly the "
                    f"slots {list(slot_ids)}"
                )
        for s in sentences:
            if set(s.parts) != set(slot_ids):
                raise ScenarioError(
                    f"{path}: sentence {s.id!r} must cover exactly the "
                    f"slots {list(slot_ids)}"
                )
        penalty = entry.get("parallelism_penalty")
        if penalty is not None:
            penalty = _section_number(penalty, "parallelism penalty", path)
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
