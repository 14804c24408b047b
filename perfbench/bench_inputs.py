"""Seeded input generators for the solver benchmark.

Every generator returns plain JSON-able dicts in the library's file formats
(the game and discourse schemas of ``meaning_games.scenario_io``), so the
library turns them into objects during set-up exactly as it would turn a
file into objects.  This module imports nothing from the library and
nothing from the repository's tests, so edits to either cannot shift the
benchmark's inputs.

An input is identified by (workload, seed, stream, batch, index); the same
identity always yields the same bytes.  Streams keep warm-up, timed and
golden inputs disjoint.
"""

from __future__ import annotations

import itertools
import json
import random

BATCH_SIZE = {
    "dense_predict": 24,
    "discourse_resolve": 8,
    "compound_solve": 32,
    "cli_files": 40,
}
WARMUP_COUNT = {
    "dense_predict": 4,
    "discourse_resolve": 2,
    "compound_solve": 6,
    "cli_files": 10,
}
GOLDEN_COUNT = {
    "dense_predict": 12,
    "discourse_resolve": 4,
    "compound_solve": 16,
    "cli_files": 20,
}
GOLDEN_SEED = 20030717


def rng_for(workload: str, seed: int, stream: str, batch: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so this is stable across
    # processes and interpreter versions, unlike hash().
    return random.Random(f"{workload}/{seed}/{stream}/{batch}/{index}")


def _normalized(weights: list[int]) -> list[float]:
    total = sum(weights)
    return [w / total for w in weights]


# -- dense_predict ---------------------------------------------------------


def strict_game(rng: random.Random, n: int) -> dict:
    """Complete n x n game with strictly ordered prior and per-message
    costs and a dominant bonus: the assortative pairing is the unique
    prediction."""
    weights = sorted(rng.sample(range(1, 60), n), reverse=True)
    prior = _normalized(weights)
    costs = []
    cost = round(rng.uniform(0.0, 0.2), 3)
    for _ in range(n):
        costs.append(cost)
        cost = round(cost + rng.uniform(0.05, 0.4), 3)
    bonus = round(costs[-1] - costs[0] + rng.uniform(0.1, 1.0), 3)
    return {
        "contents": [{"id": f"c{i}"} for i in range(n)],
        "messages": [{"id": f"m{j}", "cost": costs[j]} for j in range(n)],
        "prior": {f"c{i}": prior[i] for i in range(n)},
        "success_bonus": bonus,
        "shared": True,
    }


def pair_cost_game(rng: random.Random, n_contents: int, n_messages: int, prefix: str = "") -> dict:
    """Complete game with independent random pair costs for both players."""
    cids = [f"{prefix}c{i}" for i in range(n_contents)]
    mids = [f"{prefix}m{j}" for j in range(n_messages)]
    prior = _normalized([rng.randint(1, 20) for _ in cids])
    return {
        "contents": [{"id": c} for c in cids],
        "messages": [{"id": m} for m in mids],
        "prior": dict(zip(cids, prior)),
        "success_bonus": round(rng.uniform(0.2, 2.0), 3),
        "shared": rng.random() < 0.5,
        "sender_costs": {c: {m: round(rng.uniform(0.0, 1.5), 3) for m in mids} for c in cids},
        "receiver_costs": {m: {c: round(rng.uniform(0.0, 1.5), 3) for c in cids} for m in mids},
    }


def dense_predict_input(rng: random.Random, index: int) -> dict:
    # One game in three has strict orders, the rest random pair costs.  The
    # two kinds take different times; an even split would put the median
    # latency in the gap between the two clusters, where it jumps with the
    # slowest game of the faster kind.
    if index % 3 == 0:
        return {"kind": "strict", "game": strict_game(rng, 4)}
    return {"kind": "pair_costs", "game": pair_cost_game(rng, 4, 4)}


# -- compound_solve --------------------------------------------------------

COMPOUND_SHAPES = (((2, 2), (2, 3)), ((3, 2), (2, 2)))


def compound_input(rng: random.Random, index: int) -> dict:
    """Two-constituent compound with random pair costs; indices alternate
    between the two shapes, and every second pair is constrained."""
    shape = COMPOUND_SHAPES[index % 2]
    constrained = (index // 2) % 2 == 1
    shared = rng.random() < 0.5
    constituents = []
    for k, (nc, nm) in enumerate(shape):
        game = pair_cost_game(rng, nc, nm, prefix="ab"[k])
        game["shared"] = shared
        constituents.append(
            {"slot": f"slot{k}", "weight": round(rng.uniform(0.5, 1.5), 2), "game": game}
        )
    data: dict = {"constituents": constituents, "joint_contents": None, "compat": None}
    if constrained:
        all_contents = list(
            itertools.product(*[[c["id"] for c in k["game"]["contents"]] for k in constituents])
        )
        all_messages = list(
            itertools.product(*[[m["id"] for m in k["game"]["messages"]] for k in constituents])
        )
        data["joint_contents"] = sorted(
            list(t) for t in rng.sample(all_contents, rng.randint(2, len(all_contents)))
        )
        data["compat"] = sorted(
            list(t) for t in rng.sample(all_messages, rng.randint(2, len(all_messages)))
        )
    return data


# -- discourse_resolve -----------------------------------------------------

NAMES = ("ann", "bea", "carl", "dan", "eve")
FUNCTIONS = ("subject", "direct_object", "indirect_object", "other_complement", "adjunct")
PRONOUN = {"male": "he", "female": "she"}
DEFINITE = {"male": "the man", "female": "the woman"}


def _expression_pool(genders: dict[str, str]) -> list[dict]:
    pool = []
    for gender in ("male", "female"):
        if gender in genders.values():
            pool.append({"surface": PRONOUN[gender], "form": "pronoun", "requires": {"gender": gender}})
            pool.append(
                {"surface": DEFINITE[gender], "form": "definite_np", "requires": {"gender": gender}}
            )
    for name in NAMES:
        pool.append({"surface": name.title(), "form": "proper_name", "requires": {"name": name}})
    return pool


def _compatible(option: dict, entity: str, genders: dict[str, str]) -> bool:
    features = {"gender": genders[entity], "name": entity}
    return all(features.get(k) == v for k, v in option["requires"].items())


def _slot(rng: random.Random, slot_id: str, function: str, genders: dict[str, str]) -> dict:
    """A reference slot with 2-3 options over 2-4 candidates, each
    candidate compatible with some option and the used expression
    compatible with some candidate."""
    pool = _expression_pool(genders)
    while True:
        options = rng.sample(pool, rng.randint(2, 3))
        coverable = [e for e in NAMES if any(_compatible(o, e, genders) for o in options)]
        if len(coverable) < 2:
            continue
        candidates = sorted(rng.sample(coverable, rng.randint(2, min(4, len(coverable)))))
        usable = [o for o in options if any(_compatible(o, e, genders) for e in candidates)]
        used = rng.choice(usable)
        return {
            "slot": slot_id,
            "function": function,
            "surface": used["surface"],
            "options": options,
            "candidates": candidates,
        }


def _compound_section(
    rng: random.Random, index: int, slots: list[dict], genders: dict[str, str]
) -> dict | None:
    """An informative two-slot sentence frame: 2-3 propositions with
    distinct priors, each assigning referents compatible with the used
    expressions, and the observed sentence plus one alternative."""
    fits = []
    for s in slots:
        used = next(o for o in s["options"] if o["surface"] == s["surface"])
        fits.append([e for e in s["candidates"] if _compatible(used, e, genders)])
    pairs = [(a, b) for a in fits[0] for b in fits[1]]
    if len(pairs) < 2:
        return None
    chosen = rng.sample(pairs, min(len(pairs), rng.randint(2, 3)))
    priors = rng.sample(range(1, 10), len(chosen))
    ids = [s["slot"] for s in slots]
    propositions = [
        {
            "id": f"p{index}_{k}",
            "assigns": {ids[0]: a, ids[1]: b},
            "prior": float(w),
        }
        for k, ((a, b), w) in enumerate(zip(chosen, priors))
    ]
    observed = {s["slot"]: s["surface"] for s in slots}
    alternative = {s["slot"]: rng.choice(s["options"])["surface"] for s in slots}
    sentences = [{"id": f"s{index}_obs", "parts": observed, "cost": 0.0}]
    if alternative != observed:
        sentences.append({"id": f"s{index}_alt", "parts": alternative, "cost": 0.1})
    return {
        "utterance": index,
        "slots": ids,
        "propositions": propositions,
        "sentences": sentences,
    }


def discourse_input(rng: random.Random, index: int, length: int = 40) -> dict:
    """A discourse of ``length`` utterances over five gendered entities;
    named and anaphoric utterances alternate, and about one anaphoric
    utterance in four carries a two-slot compound section."""
    genders = {e: rng.choice(("male", "female")) for e in NAMES}
    entities = [
        {"id": e, "label": e.title(), "features": {"gender": genders[e], "name": e}}
        for e in NAMES
    ]
    utterances = []
    compounds = []
    slot_count = 0
    for u in range(1, length + 1):
        if u % 2 == 1:
            functions = rng.sample(FUNCTIONS, rng.randint(1, 3))
            realized = rng.sample(NAMES, len(functions))
            utterances.append(
                {
                    "realizations": [
                        {"entity": e, "function": f, "form": "proper_name", "surface": e.title()}
                        for e, f in zip(realized, functions)
                    ]
                }
            )
            continue
        with_compound = rng.random() < 0.25
        n_slots = 2 if with_compound else rng.randint(1, 3)
        functions = rng.sample(FUNCTIONS, n_slots)
        while True:
            slots = []
            for f in functions:
                slot_count += 1
                slots.append(_slot(rng, f"s{slot_count}", f, genders))
            section = _compound_section(rng, u, slots, genders) if with_compound else None
            if section is not None or not with_compound:
                break
        utterances.append({"realizations": slots})
        if section is not None:
            compounds.append(section)
    return {
        "entities": entities,
        "config": {"parallelism_penalty": 0.25},
        "utterances": utterances,
        "compounds": compounds,
    }


# -- cli_files ---------------------------------------------------------------

CLI_GAME_COMMANDS = ("predict", "solve", "levelk")
CLI_DISCOURSE_COMMANDS = ("resolve", "compound")
CLI_COMMANDS = CLI_GAME_COMMANDS + CLI_DISCOURSE_COMMANDS


def cli_input(rng: random.Random, index: int) -> dict:
    """One CLI invocation: the command cycles through all five, game
    commands get a 3x3 pair-cost game, discourse commands a short
    discourse with a compound section."""
    command = CLI_COMMANDS[index % len(CLI_COMMANDS)]
    if command in CLI_GAME_COMMANDS:
        return {"command": command, "kind": "game", "data": pair_cost_game(rng, 3, 3)}
    while True:
        data = discourse_input(rng, index, length=6)
        if data["compounds"]:
            return {"command": command, "kind": "discourse", "data": data}


GENERATORS = {
    "dense_predict": dense_predict_input,
    "discourse_resolve": discourse_input,
    "compound_solve": compound_input,
    "cli_files": cli_input,
}


def make_input(workload: str, seed: int, stream: str, batch: int, index: int) -> dict:
    return GENERATORS[workload](rng_for(workload, seed, stream, batch, index), index)


def make_batch(workload: str, seed: int, stream: str, batch: int, count: int | None = None) -> list[dict]:
    count = BATCH_SIZE[workload] if count is None else count
    return [make_input(workload, seed, stream, batch, i) for i in range(count)]


def warmup_inputs(workload: str, seed: int) -> list[dict]:
    return make_batch(workload, seed, "warmup", 0, WARMUP_COUNT[workload])


def golden_inputs(workload: str) -> list[dict]:
    return make_batch(workload, GOLDEN_SEED, "golden", 0, GOLDEN_COUNT[workload])


def encode(inputs: list[dict]) -> bytes:
    """Canonical bytes of a list of inputs (used to pin determinism)."""
    return json.dumps(inputs, sort_keys=True).encode()


# -- structure sharing --------------------------------------------------------


def _game_structure(game: dict) -> tuple:
    cids = [c["id"] for c in game["contents"]]
    mids = [m["id"] for m in game["messages"]]
    if "sender_costs" in game:
        edges = frozenset(
            (i, j)
            for i, c in enumerate(cids)
            for j, m in enumerate(mids)
            if m in game["sender_costs"].get(c, {})
        )
    else:
        edges = frozenset(itertools.product(range(len(cids)), range(len(mids))))
    return (len(cids), len(mids), edges)


def _slot_structure(slot: dict, genders: dict[str, str]) -> tuple:
    edges = frozenset(
        (i, j)
        for i, e in enumerate(slot["candidates"])
        for j, o in enumerate(slot["options"])
        if _compatible(o, e, genders)
    )
    return (len(slot["candidates"]), len(slot["options"]), edges)


def structures(workload: str, item: dict) -> list[tuple]:
    """Structure keys (shape and edge set) of the games an input poses."""
    if workload == "dense_predict":
        return [_game_structure(item["game"])]
    if workload == "compound_solve":
        return [
            (
                tuple(_game_structure(k["game"]) for k in item["constituents"]),
                None if item["joint_contents"] is None else tuple(map(tuple, item["joint_contents"])),
                None if item["compat"] is None else tuple(map(tuple, item["compat"])),
            )
        ]
    if workload == "cli_files" and item["kind"] == "game":
        return [_game_structure(item["data"])]
    data = item["data"] if workload == "cli_files" else item
    genders = {e["id"]: e["features"]["gender"] for e in data["entities"]}
    return [
        _slot_structure(r, genders)
        for u in data["utterances"]
        for r in u["realizations"]
        if "slot" in r
    ]


def shared_structure_share(workload: str, seed: int, batches: int = 4) -> tuple[float, int]:
    """Share of the games posed by the first ``batches`` timed batches whose
    structure equals that of another game in the sample, and the sample
    size."""
    keys = []
    for b in range(batches):
        for item in make_batch(workload, seed, "timed", b):
            keys.extend(structures(workload, item))
    counts: dict = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    shared = sum(1 for k in keys if counts[k] > 1)
    return shared / len(keys), len(keys)
