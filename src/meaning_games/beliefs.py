"""Bounded nested-belief reasoning for players without common knowledge.

Without common knowledge of the game, each player simulates the other's
reasoning, which unrolls into an infinite tree of embedded viewpoints.  The
artifact truncates it: explicit level-0 anchors (the sender picks her
cheapest grammatical message, the receiver the most probable grammatical
content) plus alternating best responses up to a configured depth.  The
same evaluation runs over explicit belief trees, where each node carries
its own estimate of the game, and an observed message then refutes every
node whose implied sender strategy could never have produced it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterator, Literal, Mapping

from .errors import InvalidGameError
from .equilibrium import OffPathRule, _Compiled
from .game import TOL, MeaningGame, Prior, ReceiverStrategy, SenderStrategy


MAX_DEPTH = 1000


@dataclass(frozen=True)
class LevelKConfig:
    depth: int = 4
    off_path: OffPathRule = "prior"

    def __post_init__(self):
        if not 0 <= self.depth <= MAX_DEPTH:
            raise InvalidGameError(f"depth must lie in 0..{MAX_DEPTH}")


def _choose(ids, options: list[int], values: list[float]) -> str:
    """The id of the option of highest value.  Values within TOL of the best
    tie, as in the search's best-reply sets, and the least id wins a tie."""
    best = max(values) - TOL
    return min(ids[o] for o, v in zip(options, values) if v >= best)


def _level0_sender_map(core: _Compiled) -> dict[str, str]:
    """Each content's cheapest grammatical message, by the game's cost table."""
    cost, mids = core.game.utility.sender_cost, core.mids
    return {
        cid: _choose(mids, options, [-cost[(cid, mids[m])] for m in options])
        for cid, options in zip(core.cids, core.messages_of)
    }


def _level0_receiver_map(core: _Compiled) -> dict[str, str]:
    """Each used message's most probable grammatical reading."""
    out = {}
    for m in core.used:
        readings = core.contents_of[m]
        out[core.mids[m]] = _choose(core.cids, readings, [core.prior[a] for a in readings])
    return out


def sender_best_reply(core: _Compiled, rmap: Mapping[str, str]) -> dict[str, str]:
    """Per content, the best grammatical message against a pure receiver.
    A message the receiver leaves unmapped, or maps to a reading that is
    unknown or ungrammatical here, is worth 0."""
    reading = [core.c_index.get(rmap.get(mid)) for mid in core.mids]
    out = {}
    for cid, options, row in zip(core.cids, core.messages_of, core.sender_u):
        values = [None if reading[m] is None else row[m][reading[m]] for m in options]
        out[cid] = _choose(core.mids, options, [0.0 if v is None else v for v in values])
    return out


def receiver_best_reply(core: _Compiled, smap: Mapping[str, str]) -> dict[str, str]:
    """Per used message, the best reading against Bayes beliefs about a
    pure sender."""
    sent = [smap.get(cid) for cid in core.cids]
    out = {}
    for m in core.used:
        mid, readings = core.mids[m], core.contents_of[m]
        preimage = tuple(c for c in readings if core.prior[c] > 0.0 and sent[c] == mid)
        values = core.receiver_values(m, core.bayes_row(m, preimage))
        out[mid] = _choose(core.cids, readings, values)
    return out


@dataclass(frozen=True)
class LevelKResult:
    """The alternating best-response sequence and how it ended."""

    levels: tuple[tuple[SenderStrategy, ReceiverStrategy], ...]
    fixed_point_level: int | None
    cycle_start: int | None
    cycle_period: int | None

    @property
    def converged(self) -> bool:
        return self.fixed_point_level is not None

    @property
    def oscillating(self) -> bool:
        return self.cycle_period is not None and self.cycle_period > 1

    def fixed_profile(self) -> tuple[SenderStrategy, ReceiverStrategy]:
        if self.fixed_point_level is None:
            raise InvalidGameError("sequence did not reach a fixed profile")
        return self.levels[self.fixed_point_level]


def level_k_strategies(
    g_sender: MeaningGame, g_receiver: MeaningGame, cfg: LevelKConfig | None = None
) -> LevelKResult:
    """Run the truncated mutual-simulation dynamic.

    Level 0 plays the anchors.  Level k+1's sender best-responds (under her
    own estimate of the game) to the level-k receiver, and the receiver
    symmetrically to the level-k sender.  Both sequences advance in
    lockstep, so the result records, per level, one profile.  A fixed
    profile means the two strategies are mutual best responses under the
    respective estimates; a revisited non-fixed profile is an oscillation.
    """
    cfg = cfg or LevelKConfig()
    if set(g_sender.content_ids()) != set(g_receiver.content_ids()) or set(
        g_sender.message_ids()
    ) != set(g_receiver.message_ids()):
        raise InvalidGameError("the two game estimates use different alphabets")

    sender_core = _Compiled(g_sender, cfg.off_path)
    receiver_core = _Compiled(g_receiver, cfg.off_path)
    # The two estimates may number their ids differently, so the levels
    # pass string-keyed maps between them.
    levels = [(_level0_sender_map(sender_core), _level0_receiver_map(receiver_core))]
    for _ in range(cfg.depth):
        prev_s, prev_r = levels[-1]
        levels.append(
            (sender_best_reply(sender_core, prev_r), receiver_best_reply(receiver_core, prev_s))
        )

    # Each level is a function of the one before it, so the first repeated
    # profile is a fixed point exactly when it repeats the level just before.
    fixed = cycle_start = cycle_period = None
    seen: dict[tuple, int] = {}
    for k, (s, r) in enumerate(levels):
        enc = (tuple(sorted(s.items())), tuple(sorted(r.items())))
        if enc in seen:
            if seen[enc] == k - 1:
                fixed = k - 1
            else:
                cycle_start, cycle_period = seen[enc], k - seen[enc]
            break
        seen[enc] = k

    return LevelKResult(
        tuple(
            (SenderStrategy.deterministic(s), ReceiverStrategy.deterministic(r))
            for s, r in levels
        ),
        fixed,
        cycle_start,
        cycle_period,
    )


@dataclass(frozen=True)
class BeliefNode:
    """One embedded viewpoint: a player plus her estimate of the game.

    ``role`` "S" nodes stand for the sender intending ``anchor`` (a content
    id); "R" nodes for the receiver interpreting ``anchor`` (a message id).
    Children are the other player's viewpoints this node simulates; a node
    without children falls back to the level-0 anchor behavior under its
    own estimate.
    """

    role: Literal["S", "R"]
    anchor: str
    game_estimate: MeaningGame
    children: tuple["BeliefNode", ...] = ()

    def walk(self) -> Iterator["BeliefNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class _Implied:
    sender: dict[str, str]
    receiver: dict[str, str]


def _evaluate_node(node: BeliefNode, memo: dict[int, _Implied]) -> _Implied:
    """The strategies a node implies; ``memo`` holds the nodes already
    evaluated in this check, keyed by identity, so each is solved once."""
    if id(node) in memo:
        return memo[id(node)]
    for child in node.children:
        if child.role == node.role:
            raise InvalidGameError("belief tree must alternate viewpoints")

    core = _Compiled(node.game_estimate, "prior")
    if node.role == "S":
        receiver = _level0_receiver_map(core)
        for child in node.children:
            receiver[child.anchor] = _evaluate_node(child, memo).receiver[child.anchor]
        implied = _Implied(sender_best_reply(core, receiver), receiver)
    else:
        sender = _level0_sender_map(core)
        for child in node.children:
            sender[child.anchor] = _evaluate_node(child, memo).sender[child.anchor]
        implied = _Implied(sender, receiver_best_reply(core, sender))
    memo[id(node)] = implied
    return implied


def consistency_check(tree: BeliefNode, observed_message: str) -> list[BeliefNode]:
    """Refute embedded beliefs against an observed message.

    Every node implies a sender strategy: an S node implies its own choice
    rule, an R node the sender model it best-responds to.  A node is
    refuted exactly when that strategy sends the observed message with
    probability zero for every content, which proves the embedded estimate
    wrong once the message is common knowledge.
    """
    if observed_message not in set(tree.game_estimate.message_ids()):
        raise InvalidGameError(
            f"observed message {observed_message!r} is outside the root alphabet"
        )
    refuted = []
    memo: dict[int, _Implied] = {}
    for node in tree.walk():
        implied = _evaluate_node(node, memo).sender
        if observed_message not in implied.values():
            refuted.append(node)
    return refuted


def prune_by_message(
    g: MeaningGame, observed_message: str, threshold: float = math.inf
) -> MeaningGame:
    """Restrict the game to what the observed message makes relevant.

    Association cost between neighbors is the mean of the two pair costs;
    a node's association with the observed message is its cheapest path
    cost in the bipartite graph.  Everything costlier than the threshold is
    excluded, so a finite threshold also restricts the game to the maximal
    connected subgraph containing the observed message.  An infinite
    threshold leaves the game unchanged.
    """
    if observed_message not in set(g.message_ids()):
        raise InvalidGameError(f"unknown message {observed_message!r}")
    if math.isinf(threshold):
        return g

    dist: dict[tuple[str, str], float] = {("m", observed_message): 0.0}
    frontier = [(0.0, "m", observed_message)]
    while frontier:
        d, kind, node = heapq.heappop(frontier)
        if d > dist.get((kind, node), math.inf):
            continue
        if kind == "m":
            neighbors = [
                (c, (g.utility.sender_cost[(c, node)] + g.utility.receiver_cost[(node, c)]) / 2.0)
                for c in g.contents_for(node)
            ]
            next_kind = "c"
        else:
            neighbors = [
                (m, (g.utility.sender_cost[(node, m)] + g.utility.receiver_cost[(m, node)]) / 2.0)
                for m in g.messages_for(node)
            ]
            next_kind = "m"
        for other, w in neighbors:
            nd = d + w
            if nd < dist.get((next_kind, other), math.inf):
                dist[(next_kind, other)] = nd
                heapq.heappush(frontier, (nd, next_kind, other))

    kept_c = [c for c in g.content_ids() if dist.get(("c", c), math.inf) <= threshold]
    kept_m = [m for m in g.message_ids() if dist.get(("m", m), math.inf) <= threshold]
    if not kept_c:
        raise InvalidGameError(
            f"threshold {threshold} prunes every content reachable from "
            f"{observed_message!r}"
        )

    kept_c_set, kept_m_set = set(kept_c), set(kept_m)
    u = g.utility
    sender_cost = {
        (c, m): v
        for (c, m), v in u.sender_cost.items()
        if c in kept_c_set and m in kept_m_set and (c, m) in g.edges
    }
    receiver_cost = {
        (m, c): v
        for (m, c), v in u.receiver_cost.items()
        if c in kept_c_set and m in kept_m_set and (c, m) in g.edges
    }
    overlap = None
    if u.bonus_overlap is not None:
        overlap = {
            (a, b): v
            for (a, b), v in u.bonus_overlap.items()
            if a in kept_c_set and b in kept_c_set
        }
    return MeaningGame(
        tuple(c for c in g.contents if c.id in kept_c_set),
        tuple(m for m in g.messages if m.id in kept_m_set),
        Prior.normalized({c: g.prior[c] for c in kept_c}),
        replace(
            u, sender_cost=sender_cost, receiver_cost=receiver_cost, bonus_overlap=overlap
        ),
    )
