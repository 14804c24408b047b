"""The four benchmark workloads: set-up, the timed op, answers and checks.

For each workload:

* ``setup(items, paths)`` turns generated JSON inputs into library objects
  (this is the part of ``setup_s`` after the import);
* ``op(obj)`` is the single timed call into the library's public API;
* ``answer(obj, result)`` is a canonical JSON-able form of the result,
  whose digest is compared with the seed commit's and between the traced
  and untraced runs;
* ``check(obj, result)`` returns the problems found in a result by checks
  that do not depend on earlier answers.

Every call into the library goes through a module attribute looked up at
call time (``equilibrium.predict``, ``cli.main`` ...), so the traced run's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

from meaning_games import centering, compound, equilibrium, scenario_io

DIGITS = 9  # floats in answers are compared to 1e-9, the solver's tolerance


def _round(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, DIGITS)
    if isinstance(value, dict):
        return {str(k): _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def digest(answer: Any) -> str:
    blob = json.dumps(_round(answer), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _report_answer(r) -> list:
    return [
        sorted(r.sender_map().items()),
        sorted(r.receiver_map().items()),
        r.kind,
        r.success,
        r.eu_sender,
        r.eu_receiver,
    ]


def _prediction_answer(p) -> dict:
    return {
        "reports": [_report_answer(r) for r in p.reports],
        "ambiguous": p.ambiguous,
        "interpretations": [list(i) for i in p.interpretations],
    }


def _factors(mapping: dict, left: dict, right: dict, k: int) -> bool:
    """True when ``mapping`` induces a function from component k of its
    keys to component k of its values."""
    induced: dict = {}
    for a, b in mapping.items():
        if induced.setdefault(left[a][k], right[b][k]) != right[b][k]:
            return False
    return True


# -- dense_predict -----------------------------------------------------------


def _dense_setup(items: list[dict], paths: list[str]) -> list:
    return [(item["kind"], scenario_io.parse_game(item["game"]).game) for item in items]


def _dense_op(obj):
    return equilibrium.predict(obj[1])


def _dense_check(obj, prediction) -> list[str]:
    kind, game = obj
    problems = []
    if kind == "strict":
        solution = equilibrium.assortative_solution(game)
        expected = sorted(
            (m, max(row, key=row.get)) for m, row in solution.receiver.rows.items()
        )
        if prediction.ambiguous or not prediction.reports:
            problems.append("strict-order game has no unambiguous prediction")
        elif sorted(prediction.interpretation().items()) != expected:
            problems.append("strict-order game does not match the assortative solution")
    for report in prediction.reports:
        if not equilibrium.is_equilibrium(game, report.profile):
            problems.append("surviving report is not an equilibrium")
    return problems


# -- compound_solve ------------------------------------------------------------


def _compound_setup(items: list[dict], paths: list[str]) -> list:
    games = []
    for item in items:
        constituents = tuple(
            compound.ConstituentGame(
                compound.Slot(k["slot"]), scenario_io.parse_game(k["game"]).game, k["weight"]
            )
            for k in item["constituents"]
        )
        compat = item["compat"]
        joint = item["joint_contents"]
        games.append(
            compound.CompoundGame(
                constituents,
                None if compat is None else compound.CompatibilityRelation(frozenset(map(tuple, compat))),
                None if joint is None else frozenset(map(tuple, joint)),
            )
        )
    return games


def _compound_op(cg):
    return compound.predict_compound(cg)


def _compound_answer(cg, result) -> dict:
    answer = _prediction_answer(result.prediction)
    answer["annotations"] = [
        [
            [a.slot_id, a.locally_optimal, a.induced_eu_sender, a.induced_eu_receiver,
             a.best_eu_sender, a.best_eu_receiver]
            for a in per_report
        ]
        for per_report in result.annotations
    ]
    return answer


def _compound_check(cg, result) -> list[str]:
    flat = result.flattened
    beliefs = compound.composite_belief_builder(flat)
    cc, mc = flat.content_components, flat.message_components
    problems = []
    for report in result.prediction.reports:
        for k in range(len(cg.constituents)):
            if not _factors(report.sender_map(), cc, mc, k):
                problems.append(f"sender map does not factor through slot {k}")
            if not _factors(report.receiver_map(), mc, cc, k):
                problems.append(f"receiver map does not factor through slot {k}")
        check = equilibrium.is_equilibrium(
            flat.game, report.profile, beliefs=beliefs(report.profile.sender)
        )
        if not check:
            problems.append("surviving report is not an equilibrium under composite beliefs")
    return problems


# -- discourse_resolve -----------------------------------------------------------


def _discourse_setup(items: list[dict], paths: list[str]) -> list:
    return [scenario_io.parse_discourse(item) for item in items]


def _discourse_op(discourse):
    return centering.resolve(discourse)


def _resolve_answer(discourse, report) -> dict:
    return {
        "resolutions": [
            [r.utterance_index, r.slot_id, r.surface, r.entity, list(r.alternatives),
             r.via, list(r.locally_suboptimal)]
            for r in report.resolutions
        ],
        "rule1": None
        if report.rule1 is None
        else [
            [v.utterance_index, v.backward_center, v.center_form.value, list(v.pronoun_realized)]
            for v in report.rule1
        ],
        "salience": sorted(report.state.salience.items()),
        "fully_resolved": report.fully_resolved,
    }


def _discourse_check(discourse, report) -> list[str]:
    slots = {(u.index, s.id): s for u in discourse.utterances for s in u.slots()}
    problems = []
    for r in report.resolutions:
        if r.entity is None:
            continue
        slot = slots[(r.utterance_index, r.slot_id)]
        if r.entity not in slot.candidates:
            problems.append(f"slot {r.slot_id} resolved to non-candidate {r.entity}")
        elif not slot.used_option().compatible(discourse.entities[r.entity]):
            problems.append(f"slot {r.slot_id} resolved to {r.entity}, incompatible with {r.surface!r}")
    return problems


# -- cli_files -----------------------------------------------------------------


@dataclass(frozen=True)
class CliCall:
    command: str
    path: str
    parsed: Any  # the library object the file parses to, for the checks

    def argv(self) -> list[str]:
        flag = "--game" if self.command in ("predict", "solve", "levelk") else "--discourse"
        return [self.command, flag, self.path, "--format", "machine"]


def _cli_setup(items: list[dict], paths: list[str]) -> list:
    from meaning_games import cli  # noqa: F401  (the CLI's import is part of set-up)

    calls = []
    for item, path in zip(items, paths):
        if item["kind"] == "game":
            parsed = scenario_io.parse_game(item["data"], path).game
        else:
            parsed = scenario_io.parse_discourse(item["data"], path)
        calls.append(CliCall(item["command"], path, parsed))
    return calls


def _cli_op(call: CliCall):
    from meaning_games import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(call.argv())
    return code, out.getvalue()


def _cli_answer(call: CliCall, result) -> list:
    code, text = result
    try:
        machine = json.loads(text)
    except json.JSONDecodeError:
        machine = text
    return [code, machine]


def _cli_check(call: CliCall, result) -> list[str]:
    code, text = result
    try:
        machine = json.loads(text)
    except json.JSONDecodeError:
        return [f"{call.command} {call.path}: exit {code}, output is not JSON"]
    payload = machine.get("payload", {})
    if call.command == "predict":
        prediction = equilibrium.predict(call.parsed)
        expected_code = 3 if prediction.ambiguous else 0
        if [dict(i) for i in prediction.interpretations] != payload.get("interpretations"):
            return [f"predict {call.path}: CLI and library interpretations differ"]
    elif call.command == "resolve":
        report = centering.resolve(call.parsed)
        expected_code = 0 if report.fully_resolved else 3
        entities = [r.entity for r in report.resolutions]
        if entities != [a["entity"] for a in payload.get("assignments", [])]:
            return [f"resolve {call.path}: CLI and library assignments differ"]
    elif call.command == "compound":
        ambiguous = any(s["ambiguous"] for s in payload.get("sections", {}).values())
        expected_code = 3 if ambiguous else 0
    else:
        expected_code = 0
    if code != expected_code:
        return [f"{call.command} {call.path}: exit code {code}, expected {expected_code}"]
    if not isinstance(machine.get("config_hash"), str):
        return [f"{call.command} {call.path}: machine output has no config_hash"]
    return []


@dataclass(frozen=True)
class Workload:
    setup: Callable[[list[dict], list[str]], list]
    op: Callable[[Any], Any]
    answer: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], list[str]]
    # The CLI workload's files are written once; later passes reuse them.
    reuses_pool: bool = False


WORKLOADS = {
    "dense_predict": Workload(
        _dense_setup, _dense_op, lambda obj, p: _prediction_answer(p), _dense_check
    ),
    "discourse_resolve": Workload(
        _discourse_setup, _discourse_op, _resolve_answer, _discourse_check
    ),
    "compound_solve": Workload(_compound_setup, _compound_op, _compound_answer, _compound_check),
    "cli_files": Workload(_cli_setup, _cli_op, _cli_answer, _cli_check, reuses_pool=True),
}
