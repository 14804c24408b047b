"""Equilibrium analysis for meaning games.

Enumerates pure-strategy equilibria of the one-shot signaling game, checks
arbitrary profiles for mutual best response under explicit belief systems,
filters by Pareto dominance, and predicts play: games are expected to be
played at a Pareto-optimal equilibrium, and all maximal equilibria are
surfaced when several remain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, partial
from math import inf, isfinite, prod
from typing import Callable, Mapping

from .errors import InvalidGameError, NotApplicableError, SizeLimitError
from .game import (
    SENDER,
    TOL,
    MeaningGame,
    Player,
    ReceiverStrategy,
    SenderStrategy,
    _validate_receiver,
    _validate_sender,
)

DEFAULT_CAP = 10_000_000

OffPathRule = str  # "prior" | "uniform"

BeliefBuilder = Callable[[SenderStrategy], "BeliefSystem"]


@dataclass(frozen=True)
class Profile:
    """A sender strategy paired with a receiver strategy."""

    sender: SenderStrategy
    receiver: ReceiverStrategy

    @staticmethod
    def from_maps(smap: Mapping[str, str], rmap: Mapping[str, str]) -> "Profile":
        return Profile(
            SenderStrategy.deterministic(dict(smap)),
            ReceiverStrategy.deterministic(dict(rmap)),
        )


@dataclass(frozen=True)
class BeliefSystem:
    """Receiver posteriors per message, with the off-path rule recorded.

    On-path messages carry the Bayes posterior induced by the prior and the
    sender strategy.  Off-path messages fall back to the rule: the prior or
    the uniform distribution, restricted to contents grammatical for the
    message.
    """

    posterior: Mapping[str, Mapping[str, float]]
    off_path_rule: OffPathRule
    on_path: frozenset[str] = frozenset()

    def at(self, mid: str) -> Mapping[str, float]:
        return self.posterior[mid]


@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral deviation witnessing non-equilibrium."""

    player: Player
    at: str  # content id for the sender, message id for the receiver
    current: str
    better: str
    gain: float


@dataclass(frozen=True)
class EquilibriumCheck:
    ok: bool
    witness: Deviation | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class EquilibriumReport:
    profile: Profile
    beliefs: BeliefSystem
    success: float
    eu_sender: float
    eu_receiver: float
    kind: str  # "separating" | "pooling" | "partial"

    def sender_map(self) -> dict[str, str]:
        """Modal message per content (exact for deterministic profiles)."""
        return {c: max(row, key=row.get) for c, row in self.profile.sender.rows.items()}

    def receiver_map(self) -> dict[str, str]:
        rows = self.profile.receiver.rows
        return {m: max(row, key=row.get) for m, row in rows.items()}


def _check_rule(rule: OffPathRule) -> None:
    if rule not in ("prior", "uniform"):
        raise InvalidGameError(f"unknown off-path rule {rule!r}")


def _off_path_row(g: MeaningGame, mid: str, rule: OffPathRule) -> dict[str, float]:
    eligible = g.contents_for(mid)
    if rule == "uniform":
        return {c: 1.0 / len(eligible) for c in eligible}
    mass = {c: g.prior[c] for c in eligible}
    total = sum(mass.values())
    if total <= 0.0:
        # All grammatical contents have zero prior; nothing to restrict to.
        return {c: 1.0 / len(eligible) for c in eligible}
    return {c: w / total for c, w in mass.items()}


class _Compiled:
    """Integer-indexed view of a game, built once per solver call.

    Contents and messages are numbered in game order.  ``sender_u[c][m][a]``
    and ``receiver_u[c][m][a]`` hold each player's utility of intending
    ``c``, sending ``m`` and reading ``a``; entries for ungrammatical pairs
    are None.  One builder fills both from the view's index-keyed costs and
    bonuses (``cells``), each table on first use, so a caller that needs
    one player's payoffs does not pay for the other's, and a common-interest
    game, whose two players value every turn alike, builds one table for
    both.  Sums run in content order with the same zero-mass guards as the
    string-keyed definitions in ``game``, so values are bit-identical.
    """

    def __init__(self, g: MeaningGame, rule: OffPathRule):
        self.game = g
        u, cids, mids = g.utility, g.content_ids(), g.message_ids()
        self.c_index = c_index = {c: i for i, c in enumerate(cids)}
        # Edges naming an id outside the game (a stray cost entry) are ignored.
        self.m_index = m_index = {mid: m for m, mid in enumerate(mids)}
        messages_of = [[] for _ in cids]
        sender_cost = [[None] * len(mids) for _ in cids]
        receiver_cost = [[None] * len(mids) for _ in cids]
        # A game built in code may skip ``validate_game``: refuse bad numbers.
        for cid, mid in g.edges:
            if cid in c_index and mid in m_index:
                c, m = c_index[cid], m_index[mid]
                messages_of[c].append(m)
                sc = sender_cost[c][m] = u.sender_cost[(cid, mid)]
                rc = receiver_cost[c][m] = u.receiver_cost[(mid, cid)]
                if not (isfinite(sc) and isfinite(rc)):
                    raise InvalidGameError(f"a cost of ({cid!r}, {mid!r}) is not finite")
        for options in messages_of:
            options.sort()
        hit, bonuses, overlap = (u.sender_bonus, u.receiver_bonus), None, u.bonus_overlap
        if overlap is not None:
            bonuses = [[overlap.get((cid, x), (0.0, 0.0)) for x in cids] for cid in cids]
        flat = itertools.chain.from_iterable
        if not all(map(isfinite, hit if bonuses is None else flat(flat(bonuses)))):
            raise InvalidGameError("a success bonus is not finite")
        prior = [g.prior[c] for c in cids]
        for cid, p in zip(cids, prior):
            if not 0.0 <= p < inf:
                raise InvalidGameError(f"prior weight {p!r} of {cid!r} is negative or not finite")
        cells = (sender_cost, receiver_cost, hit, bonuses)
        self._set_parts(cids, mids, prior, messages_of, rule, u.shared, cells)

    def _set_parts(
        self, cids, mids, prior: list[float], messages_of: list[list[int]], rule, shared, cells
    ):
        # Per content: its prior and its grammatical messages, ascending.
        # ``cells``: the sender's cost ``[c][m]`` and the receiver's ``[a][m]``
        # on grammatical pairs, the bonus pair of a hit, and the bonus pair
        # ``[c][a]`` of every turn instead when bonuses overlap (else None).
        self.rule, self.cids, self.mids, self.prior = rule, cids, mids, prior
        self.shared, self.cells = shared, cells
        self.support = [c for c, p in enumerate(prior) if p > 0.0]
        self.messages_of = messages_of
        self.contents_of = [[] for _ in mids]
        for c, options in enumerate(messages_of):
            for m in options:
                self.contents_of[m].append(c)
        self.used = [m for m, options in enumerate(self.contents_of) if options]
        _check_rule(rule)
        self._flat_rows: dict[int, list[tuple[int, float]]] = {}

    # -- beliefs -----------------------------------------------------------

    def bayes_row(
        self, m: int, preimage: tuple[int, ...], off_key=None
    ) -> list[tuple[int, float]]:
        """Posterior at ``m`` of a pure sender whose positive-prior contents
        sending ``m`` are ``preimage``; when it is empty, the off-path row
        for ``off_key``."""
        if not preimage:
            return self.off_path_row(m, off_key)
        prior = self.prior
        denom = sum(prior[c] for c in preimage)
        return [(c, prior[c] / denom) for c in preimage]

    def off_path_key(self, m: int, s: tuple[int, ...]):
        """The memo key of the belief at ``m`` when no positive-prior
        content sends ``m`` under the pure sender ``s``.  The flat off-path
        rule's row depends on ``m`` alone, so the key is None."""
        return None

    def off_path_row(self, m: int, key) -> list[tuple[int, float]]:
        return self.flat_off_path_row(m)

    def flat_off_path_row(self, m: int) -> list[tuple[int, float]]:
        """The off-path rule's row at ``m``, built on first read with the
        sums and order of the string-keyed ``_off_path_row``."""
        row = self._flat_rows.get(m)
        if row is None:
            eligible, prior = self.contents_of[m], self.prior
            total = sum(prior[c] for c in eligible) if self.rule == "prior" else 0.0
            if total > 0.0:
                row = [(c, prior[c] / total) for c in eligible]
            else:
                row = [(c, 1.0 / len(eligible)) for c in eligible]
            self._flat_rows[m] = row
        return row

    # -- payoffs -----------------------------------------------------------

    @cached_property
    def sender_u(self) -> list[list[list[float | None] | None]]:
        return self._utility_table("S")

    @cached_property
    def receiver_u(self) -> list[list[list[float | None] | None]]:
        if self.shared:
            return self.sender_u
        return self._utility_table("R")

    def _utility_table(self, player: Player) -> list[list[list[float | None] | None]]:
        # The cells of ``_utility_unchecked``, with its expressions.
        scost, rcost, hit, bonuses = self.cells
        shared, i, n = self.shared, 0 if player == SENDER else 1, len(self.cids)
        table = [[None] * len(self.mids) for _ in self.cids]
        for m, readings in enumerate(self.contents_of):
            costs = []
            for a in readings:  # cheaper than a comprehension on tiny games
                costs.append(rcost[a][m])
            for c in readings:
                sc, row = scost[c][m], [None] * n
                for a, rc in zip(readings, costs):
                    bs, br = (hit if a == c else (0.0, 0.0)) if bonuses is None else bonuses[c][a]
                    if shared:
                        row[a] = (bs + br) / 2.0 - (sc + rc) / 2.0
                    else:
                        row[a] = br - rc if i else bs - sc
                table[c][m] = row
        return table

    def sender_value(self, c: int, m: int, receiver_row: Mapping[str, float]) -> float:
        u = self.sender_u[c][m]
        return sum(p * u[self.c_index[a]] for a, p in receiver_row.items() if p > 0.0)

    def receiver_values(self, m: int, row: list[tuple[int, float]]) -> list[float]:
        """Belief-expected receiver utility of each grammatical reading of
        ``m``, in content order, against a belief row of (content, mass).
        Each value adds the row's terms in row order, from 0.0."""
        u = self.receiver_u
        values = []
        for a in self.contents_of[m]:
            v = 0.0
            for c, p in row:
                if p > 0.0:
                    v += p * u[c][m][a]
            values.append(v)
        return values

    def receiver_best_set(self, m: int, row: list[tuple[int, float]]) -> set[int]:
        values = self.receiver_values(m, row)
        best = max(values)
        return {a for a, v in zip(self.contents_of[m], values) if v >= best - TOL}

    # -- search ------------------------------------------------------------

    # Per depth of ``used``, ``(link, table)``: the depth's readings are
    # ``table.get(tuple(part[reading[x]] for x, part in link), ())``, given
    # the readings above it.  A plain game allows every reading: no tables.
    reading_tables: list[tuple[list, dict]] | None = None
    # The sender maps drawn from the best-reply sets: a plain game's are all.
    senders = staticmethod(itertools.product)

    def search(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The pure profiles that are mutual best responses, as sorted
        ``(sender, receiver)`` index tuples.

        The receiver maps are walked depth first, one message of ``used``
        per depth, in ``itertools.product`` order over the readings the
        view's ``reading_tables`` allow, looked up when the walk enters a
        depth.  Per content the walk carries the best sender value met so
        far and the messages that were within TOL of it when met: the
        running best never exceeds the final one, so no best reply is
        passed over.  Each content's best-reply set is its candidates
        within TOL of its final best.  At the last depth those sets are
        filtered once per parent node, and a leaf (a receiver map) filters
        again only for the contents that can send the last message and
        come within TOL of their running best there.  The view's
        ``senders(*best_sets)`` yields the sender maps to check against the
        leaf's receiver.  A message with one reading always passes; at the
        others the receiver's best replies are memoized per message, keyed
        by the bit mask of the positive-prior contents that send it, or off
        the path by the view's ``off_path_key``.
        """
        used, support, tables = self.used, self.support, self.reading_tables
        sender_u, off_path_key, senders = self.sender_u, self.off_path_key, self.senders
        options = [self.contents_of[m] for m in used]
        allowed = options[:]  # the readings to try at each depth
        last = len(used) - 1
        m_last = used[last]
        movers = [(c, sender_u[c][m_last]) for c in options[last]]
        checked = [x for x in used if len(self.contents_of[x]) > 1]
        bits = [(c, 1 << c) for c in support]
        best_replies: list[dict] = [{} for _ in self.mids]
        found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        reading = [None] * len(self.mids)
        # Per depth: the running bests and candidate messages before that
        # depth's message is read, and the next option.
        bests = [[float("-inf")] * len(self.cids)] + [None] * last
        cands: list = [[()] * len(self.cids)] + [None] * last
        nxt = [0] * (last + 1)
        d = 0
        while d >= 0:
            i = nxt[d]
            opts = allowed[d]
            if i == len(opts):
                nxt[d] = 0
                d -= 1
                continue
            nxt[d] = i + 1
            a = opts[i]
            m = used[d]
            reading[m] = a

            if d < last:
                best, cand = bests[d][:], cands[d][:]
                for c in options[d]:
                    v = sender_u[c][m][a]
                    if v >= best[c] - TOL:
                        cand[c] += (m,)
                        if v > best[c]:
                            best[c] = v
                d += 1
                bests[d], cands[d] = best, cand
                if tables is not None:
                    link, table = tables[d]
                    allowed[d] = table.get(tuple([p[reading[x]] for x, p in link]), ())
                continue

            best, cand = bests[d], cands[d]
            if i == 0:
                # The sets of a leaf whose last message is no candidate.
                held = []
                for b, x_cand, row in zip(best, cand, sender_u):
                    if len(x_cand) > 1:
                        b -= TOL
                        x_cand = [x for x in x_cand if row[x][reading[x]] >= b]
                    held.append(x_cand)
            best_sets = held[:]
            for c, u in movers:
                v, b = u[a], best[c]
                if v >= b - TOL:
                    x_cand = cand[c] + (m,)
                    if len(x_cand) > 1:
                        if v > b:
                            b = v
                        b -= TOL
                        row = sender_u[c]
                        x_cand = [x for x in x_cand if row[x][reading[x]] >= b]
                    best_sets[c] = x_cand

            for s in senders(*best_sets):
                # A pure sender's posterior at x depends only on which
                # positive-prior contents send x, and off the path only on
                # the view's off-path key.
                masks = [0] * len(reading)
                for c, bit in bits:
                    masks[s[c]] |= bit
                for x in checked:
                    mask = masks[x]
                    key = mask if mask else off_path_key(x, s)
                    replies = best_replies[x].get(key)
                    if replies is None:
                        preimage = tuple(c for c, bit in bits if mask & bit)
                        replies = self.receiver_best_set(x, self.bayes_row(x, preimage, key))
                        best_replies[x][key] = replies
                    if reading[x] not in replies:
                        break
                else:
                    found.append((s, tuple(reading[x] for x in used)))

        found.sort()
        return found

    # -- reports -----------------------------------------------------------

    def payoffs(
        self, s: tuple[int, ...], r: tuple[int, ...]
    ) -> tuple[float, float, float]:
        """Success probability and the sender's and receiver's expected
        utility of the pure profile ``(s, r)``, summed in content order.
        When both players read one table, one sum serves both."""
        reading = dict(zip(self.used, r))
        sender_u, receiver_u = self.sender_u, self.receiver_u
        shared = receiver_u is sender_u
        success = eu_sender = eu_receiver = 0.0
        for c, p in enumerate(self.prior):
            if p == 0.0:
                continue
            m = s[c]
            a = reading[m]
            if a == c:
                success += p
            eu_sender += p * sender_u[c][m][a]
            if not shared:
                eu_receiver += p * receiver_u[c][m][a]
        return success, eu_sender, eu_sender if shared else eu_receiver

    def pareto(
        self, pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The profiles of ``pairs``, in order, whose expected utilities no
        other profile's Pareto-dominate."""
        front = _pareto_front([self.payoffs(s, r)[1:] for s, r in pairs])
        return [pair for pair, keep in zip(pairs, front) if keep]

    def reports(
        self,
        pairs: list[tuple[tuple[int, ...], tuple[int, ...]]],
        beliefs: BeliefBuilder | None = None,
    ) -> list[EquilibriumReport]:
        """Reports of the profiles ``pairs``, in order.  ``beliefs`` gives
        the beliefs each report carries; by default the public
        ``posterior_beliefs``."""
        if beliefs is None:
            beliefs = partial(posterior_beliefs, self.game, rule=self.rule)
        return [self.report(s, r, beliefs) for s, r in pairs]

    def prediction(
        self,
        pairs: list[tuple[tuple[int, ...], tuple[int, ...]]],
        beliefs: BeliefBuilder | None = None,
    ) -> Prediction:
        """The prediction made by the Pareto-optimal profiles ``pairs``:
        their reports, and each distinct reading of the messages sent on
        the prior's support, as sorted id pairs in order of appearance."""
        cids, mids, used = self.cids, self.mids, self.used
        maps = []
        for s, r in pairs:
            reading = dict(zip(used, r))
            sent = {s[c] for c in self.support}
            interp = tuple(sorted((mids[m], cids[reading[m]]) for m in sent))
            if interp not in maps:
                maps.append(interp)
        return Prediction(tuple(self.reports(pairs, beliefs)), len(maps) > 1, tuple(maps))

    def report(
        self, s: tuple[int, ...], r: tuple[int, ...], beliefs: BeliefBuilder
    ) -> EquilibriumReport:
        """The report of the pure profile sending ``s[c]`` for content ``c``
        and reading ``r[i]`` for the ``i``-th message with an edge."""
        cids, mids = self.cids, self.mids
        smap = {cid: mids[m] for cid, m in zip(cids, s)}
        sender = SenderStrategy.deterministic(smap)
        receiver = ReceiverStrategy(
            {mids[m]: {cids[a]: 1.0} for m, a in zip(self.used, r)}
        )
        success, eu_sender, eu_receiver = self.payoffs(s, r)
        sent = len({s[c] for c in self.support})  # judged on the prior's support
        kind = "separating" if sent == len(self.support) else "pooling" if sent == 1 else "partial"
        return EquilibriumReport(
            profile=Profile(sender, receiver),
            beliefs=beliefs(sender),
            success=success,
            eu_sender=eu_sender,
            eu_receiver=eu_receiver,
            kind=kind,
        )


class _SharedView(_Compiled):
    """A common-interest view given by its parts, with no game behind it:
    contents ``cids`` with ``prior`` and their grammatical messages in
    ascending order, message ``m`` costing both players ``costs[m]`` on
    every reading, and the success bonus.  It builds no reports."""

    def __init__(self, cids, prior, messages_of, costs: list[float], bonus: float, rule):
        rows = [costs] * len(cids)
        cells = (rows, rows, (bonus, bonus), None)
        self._set_parts(cids, range(len(costs)), prior, messages_of, rule, True, cells)


def posterior_beliefs(
    g: MeaningGame, s: SenderStrategy, rule: OffPathRule = "prior"
) -> BeliefSystem:
    """Bayes posteriors over contents for every message with an edge."""
    _check_rule(rule)
    _validate_sender(g, s)
    posterior: dict[str, dict[str, float]] = {}
    on_path = set()
    cids, edges = g.content_ids(), g.edges
    for m in g.message_ids():
        if not any((c, m) in edges for c in cids):
            continue
        joint = {c: g.prior[c] * s.row(c).get(m, 0.0) for c in cids}
        denom = sum(joint.values())
        if denom > 0.0:
            posterior[m] = {c: w / denom for c, w in joint.items() if w > 0.0}
            on_path.add(m)
        else:
            posterior[m] = _off_path_row(g, m, rule)
    return BeliefSystem(posterior, rule, frozenset(on_path))


def is_equilibrium(
    g: MeaningGame,
    p: Profile,
    rule: OffPathRule = "prior",
    beliefs: BeliefSystem | None = None,
) -> EquilibriumCheck:
    """Mutual best response check with a profitable-deviation witness.

    The sender condition requires every message in the support of each
    content's row to maximize expected utility against the receiver among
    that content's grammatical messages.  The receiver condition requires
    every content in the support of each message's row to maximize
    belief-expected utility among the message's grammatical contents;
    beliefs default to the Bayes posterior with the given off-path rule.
    Comparisons tolerate ties within 1e-9.
    """
    _validate_sender(g, p.sender)
    _validate_receiver(g, p.receiver)
    core = _Compiled(g, rule)
    if beliefs is None:
        beliefs = posterior_beliefs(g, p.sender, rule)
    cids, mids = core.cids, core.mids

    for c, cid in enumerate(cids):
        values = {
            mids[m]: core.sender_value(c, m, p.receiver.row(mids[m]))
            for m in core.messages_of[c]
        }
        best_m = max(values, key=values.get)
        best = values[best_m]
        for mid, prob in p.sender.row(cid).items():
            if prob > 0.0 and values[mid] < best - TOL:
                return EquilibriumCheck(
                    False, Deviation("S", cid, mid, best_m, best - values[mid])
                )

    for m in core.used:
        mid = mids[m]
        row = [(core.c_index[c], q) for c, q in beliefs.at(mid).items() if q > 0.0]
        values = dict(
            zip([cids[a] for a in core.contents_of[m]], core.receiver_values(m, row))
        )
        best_a = max(values, key=values.get)
        best = values[best_a]
        for aid, prob in p.receiver.row(mid).items():
            if prob > 0.0 and values[aid] < best - TOL:
                return EquilibriumCheck(
                    False, Deviation("R", mid, aid, best_a, best - values[aid])
                )

    return EquilibriumCheck(True)


def _capped(core: _Compiled, cap: int | None) -> _Compiled:
    """The view ``core``, refused when its count of deterministic profiles,
    the product of every content's and every used message's options,
    exceeds the cap."""
    cap = DEFAULT_CAP if cap is None else cap
    total = prod(map(len, core.messages_of)) * prod(
        len(core.contents_of[m]) for m in core.used
    )
    if total > cap:
        raise SizeLimitError(
            f"{total} deterministic profiles exceed the cap of {cap}; "
            "flatten compound structure coarsely, prune the game by the "
            "observed message, or raise the cap"
        )
    return core


def enumerate_pure_equilibria(
    g: MeaningGame, rule: OffPathRule = "prior", cap: int | None = None
) -> list[EquilibriumReport]:
    """All deterministic profiles that are mutual best responses.

    Output order is lexicographic in the profile encoding: the tuple of
    chosen message indices per content (game order) followed by the chosen
    content indices per message.  The game is compiled into
    integer-indexed utility tables once per call.  The search walks the
    pure receivers depth first, one message per depth, carrying each
    content's best sender value so far and the messages within tolerance
    of it when met; at each receiver map (a leaf) those candidates, kept
    within tolerance of the final best, are the content's best-reply set,
    and only senders drawn from those sets can pass, so the full profile
    product is never materialized.  Compounds use the same walk over the
    readings their per-depth tables allow (see ``enumerate_compound``).
    The receiver's best replies at a message with more than one reading
    are memoized for the call per message, by the bit mask of the
    positive-prior contents that send it (off the path, by the off-path
    rule's key).  Reports are built only for the profiles that pass.
    """
    core = _Compiled(g, rule)
    return core.reports(_capped(core, cap).search())


def _dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Pareto dominance of the (sender, receiver) payoff pair ``a`` over
    ``b``: weakly better for both players, strictly for one."""
    weakly = a[0] >= b[0] - TOL and a[1] >= b[1] - TOL
    strictly = a[0] > b[0] + TOL or a[1] > b[1] + TOL
    return weakly and strictly


def _pareto_front(points: list[tuple[float, float]]) -> list[bool]:
    """Per payoff pair, whether no other pair dominates it.  When every
    pair is (x, x), as in a common-interest game, (x, x) dominates (y, y)
    exactly when x > y + TOL, so a pair survives unless the best one beats
    it by more than TOL.  Otherwise, since dominance within the tolerance
    is not transitive, every pair is checked against every other; equal
    pairs never dominate each other, so each distinct pair is checked once."""
    distinct = set(points)
    if distinct and all(x == y for x, y in distinct):
        top = max(x for x, _ in distinct)
        return [not top > x + TOL for x, _ in points]
    dominated = {b for b in distinct if any(_dominates(a, b) for a in distinct)}
    return [p not in dominated for p in points]


def pareto_filter(reports: list[EquilibriumReport]) -> list[EquilibriumReport]:
    """Keep only equilibria no other equilibrium is Pareto superior to."""
    front = _pareto_front([(r.eu_sender, r.eu_receiver) for r in reports])
    return [r for r, keep in zip(reports, front) if keep]


@dataclass(frozen=True)
class Prediction:
    """Pareto-optimal equilibria of a game, with ambiguity made explicit.

    ``ambiguous`` is set when the surviving equilibria disagree about how
    on-path messages are interpreted; payoff ties that agree on
    interpretation are not flagged.
    """

    reports: tuple[EquilibriumReport, ...]
    ambiguous: bool
    interpretations: tuple[tuple[tuple[str, str], ...], ...]

    def interpretation(self) -> dict[str, str]:
        if self.ambiguous:
            raise NotApplicableError("prediction is ambiguous")
        if not self.reports:
            raise NotApplicableError("no equilibrium found")
        return dict(self.interpretations[0])

    def readings_of(self, mid: str) -> set[str]:
        """All interpretations the surviving equilibria assign a message."""
        maps = [r.receiver_map() for r in self.reports]
        return {rmap[mid] for rmap in maps if mid in rmap}


def predict(
    g: MeaningGame, rule: OffPathRule = "prior", cap: int | None = None
) -> Prediction:
    """Pareto filter over the pure equilibria; ties all returned.  Only
    the survivors' reports are built."""
    core = _Compiled(g, rule)
    return core.prediction(core.pareto(_capped(core, cap).search()))


def _view_readings(core: _Compiled, cap: int | None, m: int) -> set[str]:
    """The readings the Pareto-optimal pure equilibria of the view ``core``
    give message ``m``, which some content can send, once the cap admits
    the view.  In a common-interest game whose every content has a
    message, the profile of highest expected utility (with best replies off
    the path) is a Pareto-optimal equilibrium, so a message with one
    reading is read that way: no search is needed."""
    _capped(core, cap)
    readings = core.contents_of[m]
    if core.shared and len(readings) == 1 and all(core.messages_of):
        return {core.cids[readings[0]]}
    i = core.used.index(m)
    return {core.cids[r[i]] for _, r in core.pareto(core.search())}


def _per_message_cost(
    g: MeaningGame, costs: Mapping[tuple[str, str], float], sender_side: bool
) -> dict[str, float]:
    out = {}
    for m in g.message_ids():
        values = [
            costs[(c, m)] if sender_side else costs[(m, c)] for c in g.content_ids()
        ]
        if max(values) - min(values) > TOL:
            raise NotApplicableError(
                f"message {m!r} has content-dependent costs; no per-message cost"
            )
        out[m] = values[0]
    return out


def assortative_solution(g: MeaningGame) -> Profile:
    """Pair the i-th most probable content with the i-th lightest message.

    Requires a complete game with as many messages as contents, a strictly
    ordered prior, and strictly ordered per-message costs that both players
    rank the same way.  This is the closed form of the prediction that a
    more salient content is referred to by a lighter message.
    """
    if not g.is_complete():
        raise NotApplicableError("assortative solution needs a complete game")
    if len(g.contents) != len(g.messages):
        raise NotApplicableError("assortative solution needs |contents| == |messages|")

    sc = _per_message_cost(g, g.utility.sender_cost, sender_side=True)
    rc = _per_message_cost(g, g.utility.receiver_cost, sender_side=False)
    by_cost = sorted(g.message_ids(), key=lambda m: sc[m])
    for a, b in zip(by_cost, by_cost[1:]):
        if sc[b] - sc[a] <= TOL:
            raise NotApplicableError("per-message sender costs are not strictly ordered")
        if rc[b] - rc[a] <= TOL:
            raise NotApplicableError(
                "receiver costs do not rank messages the same strict way"
            )

    by_prior = sorted(g.content_ids(), key=lambda c: -g.prior[c])
    for a, b in zip(by_prior, by_prior[1:]):
        if g.prior[a] - g.prior[b] <= TOL:
            raise NotApplicableError("prior weights are not strictly ordered")

    smap = dict(zip(by_prior, by_cost))
    rmap = dict(zip(by_cost, by_prior))
    return Profile.from_maps(smap, rmap)


def explain_two_by_two(g: MeaningGame) -> dict[str, float | str]:
    """Numeric decomposition of the expected-utility gap for 2x2 games.

    For a complete two-content, two-message game with per-message costs,
    the two full-success separating profiles differ in expected utility by
    exactly (P1 - P2) * (U1 - U2), where P1 >= P2 are the prior weights and
    U1 >= U2 are the per-message utilities (negated costs).  Returns all
    the named quantities for reporting.
    """
    if len(g.contents) != 2 or len(g.messages) != 2 or not g.is_complete():
        raise NotApplicableError("expected-utility decomposition needs a complete 2x2 game")
    sc = _per_message_cost(g, g.utility.sender_cost, sender_side=True)
    rc = _per_message_cost(g, g.utility.receiver_cost, sender_side=False)
    eff = {m: (sc[m] + rc[m]) / 2.0 if g.utility.shared else sc[m] for m in sc}

    c1, c2 = sorted(g.content_ids(), key=lambda c: -g.prior[c])
    m1, m2 = sorted(g.message_ids(), key=lambda m: eff[m])
    p1, p2 = g.prior[c1], g.prior[c2]
    u1, u2 = -eff[m1], -eff[m2]
    return {
        "content_high": c1,
        "content_low": c2,
        "message_light": m1,
        "message_heavy": m2,
        "p1": p1,
        "p2": p2,
        "u1": u1,
        "u2": u2,
        "eu_matched": p1 * u1 + p2 * u2,
        "eu_crossed": p1 * u2 + p2 * u1,
        "gap": (p1 - p2) * (u1 - u2),
    }


def bonus_free(g: MeaningGame) -> MeaningGame:
    """The same game with success worth nothing; isolates message costs."""
    overlap = None
    if g.utility.bonus_overlap is not None:
        overlap = {pair: (0.0, 0.0) for pair in g.utility.bonus_overlap}
    return replace(
        g,
        utility=replace(
            g.utility, sender_bonus=0.0, receiver_bonus=0.0, bonus_overlap=overlap
        ),
    )
