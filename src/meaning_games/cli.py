"""Command-line interface.

Exit codes: 0 on success, 1 on parse/validation/size errors, 3 when a
prediction or resolution is ambiguous.  Machine output is byte-identical
across runs with the same inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from . import centering, scenario_io
from .beliefs import LevelKConfig, level_k_strategies
from .equilibrium import (
    EquilibriumReport,
    Profile,
    enumerate_pure_equilibria,
    explain_two_by_two,
    is_equilibrium,
    predict,
)
from .errors import MeaningGameError, ScenarioError
from .scenario_io import (
    RunReport,
    _check_cap,
    _decode_json,
    config_hash,
    parse_discourse,
    parse_game,
    render_machine,
    render_table,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AMBIGUOUS = 3

ENV_CAP = "MEANING_GAMES_CAP"


def _report_dict(r: EquilibriumReport) -> dict[str, Any]:
    return {
        "sender": r.sender_map(),
        "receiver": r.receiver_map(),
        "kind": r.kind,
        "success": r.success,
        "eu_sender": r.eu_sender,
        "eu_receiver": r.eu_receiver,
    }


def _cap_text(text: str, source: str) -> int:
    """The cap ``text`` spells; anything but a non-negative integer raises
    ``ScenarioError`` naming ``source``."""
    try:
        value = int(text)
    except ValueError:
        raise ScenarioError(f"{source}={text!r} is not an integer") from None
    return _check_cap(value, f"{source}={text!r}: cap")


def _effective_cap(args, spec_cap: int | None) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get(ENV_CAP)
    if env is not None:
        return _cap_text(env, ENV_CAP)
    return spec_cap


def _load(args, path, parse):
    """The input file ``path``, parsed by ``parse`` from the bytes ``main``
    read and hashed, so the answer and the hash describe the same contents."""
    return parse(_decode_json(args.files[str(path)], path), path)


def _game_inputs(args):
    spec = _load(args, args.game, parse_game)
    rule = args.off_path or spec.off_path
    cap = _effective_cap(args, spec.cap)
    return spec, rule, cap


def _cmd_validate(args) -> tuple[dict, int]:
    if args.game:
        # ``parse_game`` refuses a game with any validation error.
        spec = _load(args, args.game, parse_game)
        payload = {
            "target": str(args.game),
            "errors": [],
            "warnings": list(spec.warnings),
        }
        return payload, EXIT_OK
    discourse = _load(args, args.discourse, parse_discourse)
    payload = {
        "target": str(args.discourse),
        "entities": sorted(discourse.entities),
        "utterances": len(discourse.utterances),
        "unresolved_slots": [
            s.id for u in discourse.utterances for s in u.slots()
        ],
        "errors": [],
        "warnings": [],
    }
    return payload, EXIT_OK


def _cmd_solve(args) -> tuple[dict, int]:
    """Every pure equilibrium, or for ``pareto`` the Pareto-optimal ones."""
    spec, rule, cap = _game_inputs(args)
    if args.command == "pareto":
        reports = predict(spec.game, rule, cap).reports
    else:
        reports = enumerate_pure_equilibria(spec.game, rule, cap)
    return {
        "off_path": rule,
        "equilibria": [_report_dict(r) for r in reports],
        "count": len(reports),
    }, EXIT_OK


def _cmd_predict(args) -> tuple[dict, int]:
    spec, rule, cap = _game_inputs(args)
    prediction = predict(spec.game, rule, cap)
    payload = {
        "off_path": rule,
        "equilibria": [_report_dict(r) for r in prediction.reports],
        "ambiguous": prediction.ambiguous,
        "interpretations": [dict(m) for m in prediction.interpretations],
    }
    return payload, EXIT_AMBIGUOUS if prediction.ambiguous else EXIT_OK


def _discourse_config(args, discourse):
    config = discourse.config
    if args.off_path:
        config = replace(config, off_path=args.off_path)
    if args.parallelism is not None:
        config = replace(config, parallelism_penalty=args.parallelism)
    cap = _effective_cap(args, config.cap)
    if cap != config.cap:
        config = replace(config, cap=cap)
    return config


def _cmd_resolve(args) -> tuple[dict, int]:
    discourse = _load(args, args.discourse, parse_discourse)
    config = _discourse_config(args, discourse)
    report = centering.resolve(discourse, config)
    payload = {
        "assignments": [
            {
                "utterance": r.utterance_index,
                "slot": r.slot_id,
                "surface": r.surface,
                "entity": r.entity,
                "alternatives": list(r.alternatives),
                "via": r.via,
                "locally_suboptimal_constituents": list(r.locally_suboptimal),
            }
            for r in report.resolutions
        ],
        "rule1_violations": None
        if report.rule1 is None
        else [
            {
                "utterance": v.utterance_index,
                "backward_center": v.backward_center,
                "center_form": v.center_form.value,
                "pronoun_realized": list(v.pronoun_realized),
            }
            for v in report.rule1
        ],
        "salience": {k: report.state.salience[k] for k in sorted(report.state.salience)},
        "fully_resolved": report.fully_resolved,
    }
    return payload, EXIT_OK if report.fully_resolved else EXIT_AMBIGUOUS


def _cmd_compound(args) -> tuple[dict, int]:
    discourse = _load(args, args.discourse, parse_discourse)
    config = _discourse_config(args, discourse)
    if not discourse.compounds:
        raise MeaningGameError(f"{args.discourse}: no compound sections declared")
    sections = {}
    ambiguous = False
    state = centering.DiscourseState.initial(sorted(discourse.entities), config)
    for u in discourse.utterances:
        section = discourse.compounds.get(u.index)
        if section is not None:
            slots = {s.id: s for s in u.slots()}
            cg = centering.build_compound(
                state, section, slots, discourse.entities, config
            )
            result = centering.predict_compound(cg, config.off_path, config.cap)
            sections[str(u.index)] = {
                "equilibria": [_report_dict(r) for r in result.prediction.reports],
                "ambiguous": result.prediction.ambiguous,
                "slot_readings": [
                    result.slot_readings(i)
                    for i in range(len(result.prediction.reports))
                ],
                "constituents": [
                    [
                        {
                            "slot": a.slot_id,
                            "locally_optimal": a.locally_optimal,
                            "induced_eu_sender": a.induced_eu_sender,
                            "induced_eu_receiver": a.induced_eu_receiver,
                            "best_eu_sender": a.best_eu_sender,
                            "best_eu_receiver": a.best_eu_receiver,
                        }
                        for a in per_report
                    ]
                    for per_report in result.annotations
                ],
            }
            ambiguous = ambiguous or result.prediction.ambiguous
        if u.is_resolved():
            state = centering.ingest(state, u, config)
    return {"sections": sections}, EXIT_AMBIGUOUS if ambiguous else EXIT_OK


def _cmd_levelk(args) -> tuple[dict, int]:
    spec, rule, cap = _game_inputs(args)
    cfg = LevelKConfig(depth=args.depth, off_path=rule)
    result = level_k_strategies(spec.game, spec.game, cfg)
    levels = []
    for k, (s, r) in enumerate(result.levels):
        levels.append(
            {
                "level": k,
                "sender": {c: max(row, key=row.get) for c, row in s.rows.items()},
                "receiver": {m: max(row, key=row.get) for m, row in r.rows.items()},
            }
        )
    fixed_is_equilibrium = None
    if result.converged:
        s, r = result.fixed_profile()
        fixed_is_equilibrium = bool(is_equilibrium(spec.game, Profile(s, r), rule))
    return {
        "depth": args.depth,
        "levels": levels,
        "fixed_point_level": result.fixed_point_level,
        "fixed_profile_is_equilibrium": fixed_is_equilibrium,
        "oscillating": result.oscillating,
        "cycle_start": result.cycle_start,
        "cycle_period": result.cycle_period,
    }, EXIT_OK


def _cmd_explain(args) -> tuple[dict, int]:
    spec, rule, cap = _game_inputs(args)
    facts = explain_two_by_two(spec.game)
    lines = [
        f"matched play: {facts['content_high']} -> {facts['message_light']}, "
        f"{facts['content_low']} -> {facts['message_heavy']}",
        f"  expected message utility {facts['eu_matched']!r} = "
        f"{facts['p1']!r} * {facts['u1']!r} + {facts['p2']!r} * {facts['u2']!r}",
        f"crossed play: {facts['content_high']} -> {facts['message_heavy']}, "
        f"{facts['content_low']} -> {facts['message_light']}",
        f"  expected message utility {facts['eu_crossed']!r} = "
        f"{facts['p1']!r} * {facts['u2']!r} + {facts['p2']!r} * {facts['u1']!r}",
        f"gap = (P1 - P2) * (U1 - U2) = ({facts['p1']!r} - {facts['p2']!r}) * "
        f"({facts['u1']!r} - {facts['u2']!r}) = {facts['gap']!r}",
        "the matched play is Pareto superior"
        if facts["gap"] > 0
        else "the two plays are payoff-equivalent",
    ]
    return {"decomposition": facts, "summary": lines}, EXIT_OK


_COMMANDS = {
    "validate": (_cmd_validate, "check a game or discourse file"),
    "solve": (_cmd_solve, "enumerate all pure equilibria of a game"),
    "pareto": (_cmd_solve, "enumerate and keep the Pareto-optimal equilibria"),
    "predict": (_cmd_predict, "predict play (Pareto-optimal equilibria, ties kept)"),
    "resolve": (_cmd_resolve, "resolve a discourse's anaphoric slots"),
    "compound": (_cmd_compound, "analyze declared sentence-level compound games"),
    "levelk": (_cmd_levelk, "run truncated nested-belief best responses"),
    "explain": (_cmd_explain, "decompose the expected-utility gap of a 2x2 game"),
}

_NEEDS_GAME = {"solve", "pareto", "predict", "levelk", "explain"}
_NEEDS_DISCOURSE = {"resolve", "compound"}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first ``main`` call and reused by
    every later call in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="meaning-games",
        description="Solve meaning games and resolve discourse references.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--game", type=Path, help="game file (JSON)")
        p.add_argument("--discourse", type=Path, help="discourse file (JSON)")
        p.add_argument(
            "--off-path",
            choices=["prior", "uniform"],
            default=None,
            dest="off_path",
            help="belief rule for unused messages (default: file setting or prior)",
        )
        p.add_argument(
            "--format", choices=["table", "machine"], default="table", dest="format"
        )
        p.add_argument("--seed", type=int, default=None, help="seed echoed into reports")
        p.add_argument("--cap", default=None, help="profile enumeration cap")
        p.add_argument("--depth", type=int, default=4, help="level-k depth")
        p.add_argument("--out", type=Path, default=None, help="write machine output here")
        p.add_argument(
            "--parallelism",
            type=float,
            default=None,
            help="override the parallelism penalty of a discourse",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command in _NEEDS_GAME and not args.game:
        parser.error(f"{args.command} requires --game")
    if args.command in _NEEDS_DISCOURSE and not args.discourse:
        parser.error(f"{args.command} requires --discourse")
    if args.command == "validate" and not (args.game or args.discourse):
        parser.error("validate requires --game or --discourse")

    if args.cap is not None:
        try:
            args.cap = _cap_text(args.cap, "--cap")
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR

    args.files = files = {}
    for path in (args.game, args.discourse):
        if path is not None:
            try:
                files[str(path)] = Path(path).read_bytes()
            except OSError as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return EXIT_ERROR

    echo = {
        "game": str(args.game) if args.game else None,
        "discourse": str(args.discourse) if args.discourse else None,
        "off_path": args.off_path,
        "seed": args.seed,
        "cap": args.cap,
        "depth": args.depth,
        "parallelism": args.parallelism,
    }

    started = time.perf_counter()
    command_fn, _ = _COMMANDS[args.command]
    try:
        payload, code = command_fn(args)
    except MeaningGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    report = RunReport(
        command=args.command,
        args=echo,
        config_hash=config_hash(args.command, echo, files),
        payload=payload,
        elapsed_ms=elapsed_ms,
    )
    if args.format == "machine" or args.out is not None:
        machine = render_machine(report)
        if args.out is not None:
            try:
                Path(args.out).write_text(machine + "\n")
            except OSError as exc:
                print(f"error: {args.out}: {exc}", file=sys.stderr)
                return EXIT_ERROR
    if args.format == "machine":
        print(machine)
    else:
        print(render_table(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
