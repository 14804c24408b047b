"""Independent brute-force checks the solver is verified against.

Everything here recomputes utilities, beliefs, and best responses directly
from the raw cost tables with plain dictionary arithmetic, without calling
the solver's equilibrium code, so agreement is meaningful.
"""

from __future__ import annotations

import itertools

from meaning_games.game import _utility_unchecked

TOL = 1e-9


def turn_utility(g, intended, sent, interpreted, player):
    u = g.utility
    if u.bonus_overlap is not None:
        bonus_s, bonus_r = u.bonus_overlap.get((intended, interpreted), (0.0, 0.0))
    elif intended == interpreted:
        bonus_s, bonus_r = u.sender_bonus, u.receiver_bonus
    else:
        bonus_s, bonus_r = 0.0, 0.0
    sc = u.sender_cost[(intended, sent)]
    rc = u.receiver_cost[(sent, interpreted)]
    if u.shared:
        return (bonus_s + bonus_r) / 2.0 - (sc + rc) / 2.0
    return bonus_s - sc if player == "S" else bonus_r - rc


def _edge(g, c, m):
    return (c, m) in g.edges


def utility_table(g, player):
    """The compiled table layout, ``[c][m][a]`` in game order, filled cell by
    cell from the string-keyed ``_utility_unchecked``: None where ``c``
    cannot send ``m``, and at each reading ``a`` that ``m`` cannot carry."""
    cids, mids = g.content_ids(), g.message_ids()
    return [
        [
            [
                _utility_unchecked(g, c, m, a, player) if _edge(g, a, m) else None
                for a in cids
            ]
            if _edge(g, c, m)
            else None
            for m in mids
        ]
        for c in cids
    ]


def _off_path(g, m, rule):
    eligible = [c for c in g.content_ids() if _edge(g, c, m)]
    if rule == "prior":
        mass = {c: g.prior[c] for c in eligible}
        total = sum(mass.values())
        if total > 0:
            return {c: w / total for c, w in mass.items()}
    return {c: 1.0 / len(eligible) for c in eligible}


def _beliefs(g, smap, rule):
    out = {}
    for m in g.message_ids():
        if not any(_edge(g, c, m) for c in g.content_ids()):
            continue
        joint = {c: g.prior[c] for c in g.content_ids() if smap[c] == m}
        denom = sum(joint.values())
        if denom > 0:
            out[m] = {c: w / denom for c, w in joint.items()}
        else:
            out[m] = _off_path(g, m, rule)
    return out


def composite_beliefs(flat, smap, rule="prior"):
    """Component-consistent beliefs about a pure sender of a flattened
    compound, per message with an edge.

    A message some positive-prior joint content sends gets the Bayes
    posterior.  At any other message m, each slot k is judged alone: the
    joint contents whose message shares m's slot-k component give the
    slot-k contents a Bayes posterior, and with no mass there the
    constituent's own off-path rule applies.  The joint belief is the
    product over the joint contents grammatical for m, normalized; with no
    mass at all, the flat game's off-path rule applies.
    """
    g = flat.game
    games = [c.game for c in flat.compound.constituents]
    parts_c, parts_m = flat.content_components, flat.message_components
    out = _beliefs(g, smap, rule)
    for m in out:
        if any(smap[c] == m and g.prior[c] > 0 for c in g.content_ids()):
            continue
        factors = []
        for k, sub in enumerate(games):
            mass = {}
            for c in g.content_ids():
                if parts_m[smap[c]][k] == parts_m[m][k]:
                    ck = parts_c[c][k]
                    mass[ck] = mass.get(ck, 0.0) + g.prior[c]
            total = sum(mass.values())
            if total > 0:
                factors.append({ck: w / total for ck, w in mass.items()})
            else:
                factors.append(_off_path(sub, parts_m[m][k], rule))
        row = {}
        for c in g.content_ids():
            if _edge(g, c, m):
                w = 1.0
                for k, factor in enumerate(factors):
                    w *= factor.get(parts_c[c][k], 0.0)
                row[c] = w
        total = sum(row.values())
        if total > 0:
            out[m] = {c: w / total for c, w in row.items()}
    return out


def deviation_check(g, smap, rmap, rule="prior"):
    """Exhaustive unilateral-deviation test of one pure profile.

    Returns True when no sender type and no receiver message has a strictly
    profitable deviation (beyond tolerance), with receiver payoffs taken
    against Bayes beliefs and the off-path rule.
    """
    for c in g.content_ids():
        cur = turn_utility(g, c, smap[c], rmap[smap[c]], "S")
        for m in g.message_ids():
            if _edge(g, c, m) and turn_utility(g, c, m, rmap[m], "S") > cur + TOL:
                return False
    beliefs = _beliefs(g, smap, rule)
    for m, belief in beliefs.items():
        options = [a for a in g.content_ids() if _edge(g, a, m)]
        cur = sum(p * turn_utility(g, c, m, rmap[m], "R") for c, p in belief.items())
        for a in options:
            val = sum(p * turn_utility(g, c, m, a, "R") for c, p in belief.items())
            if val > cur + TOL:
                return False
    return True


def all_profiles(g):
    """Every deterministic profile as a pair of assignment dicts."""
    cids = list(g.content_ids())
    mids = [m for m in g.message_ids() if any(_edge(g, c, m) for c in cids)]
    sender_options = [[m for m in g.message_ids() if _edge(g, c, m)] for c in cids]
    receiver_options = [[c for c in cids if _edge(g, c, m)] for m in mids]
    for s_combo in itertools.product(*sender_options):
        smap = dict(zip(cids, s_combo))
        for r_combo in itertools.product(*receiver_options):
            yield smap, dict(zip(mids, r_combo))


def enumerate_equilibria(g, rule="prior"):
    """Profile maps of every pure equilibrium, found the slow exhaustive way."""
    found = set()
    for smap, rmap in all_profiles(g):
        if deviation_check(g, smap, rmap, rule):
            found.add(
                (tuple(sorted(smap.items())), tuple(sorted(rmap.items())))
            )
    return found


def enumerate_equilibria_fast(g, rule="prior"):
    """Same exhaustive sweep, but with utility tables precomputed per game
    and belief work shared across receiver maps, so 4x4 games stay cheap."""
    cids = list(g.content_ids())
    mids = [m for m in g.message_ids() if any(_edge(g, c, m) for c in cids)]
    table = {}
    for c in cids:
        for m in g.message_ids():
            if not _edge(g, c, m):
                continue
            for a in cids:
                if _edge(g, a, m):
                    table[(c, m, a, "S")] = turn_utility(g, c, m, a, "S")
                    table[(c, m, a, "R")] = turn_utility(g, c, m, a, "R")

    sender_options = {c: [m for m in g.message_ids() if _edge(g, c, m)] for c in cids}
    receiver_options = [[c for c in cids if _edge(g, c, m)] for m in mids]
    found = set()
    for s_combo in itertools.product(*[sender_options[c] for c in cids]):
        smap = dict(zip(cids, s_combo))
        beliefs = _beliefs(g, smap, rule)
        receiver_values = {}
        receiver_best = {}
        for m in mids:
            belief = beliefs[m]
            vals = {
                a: sum(p * table[(c, m, a, "R")] for c, p in belief.items())
                for a in g.content_ids()
                if _edge(g, a, m)
            }
            receiver_values[m] = vals
            receiver_best[m] = max(vals.values())
        for r_combo in itertools.product(*receiver_options):
            rmap = dict(zip(mids, r_combo))
            ok = all(
                receiver_values[m][rmap[m]] >= receiver_best[m] - TOL for m in mids
            )
            if not ok:
                continue
            for c in cids:
                cur = table[(c, smap[c], rmap[smap[c]], "S")]
                for m in sender_options[c]:
                    if table[(c, m, rmap[m], "S")] > cur + TOL:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(
                    (tuple(sorted(smap.items())), tuple(sorted(rmap.items())))
                )
    return found


def pareto_maps(g, equilibria):
    """Sender maps of the Pareto-undominated equilibria among the given
    profile maps, judged by directly computed expected utilities."""
    scored = []
    for smap_items, rmap_items in equilibria:
        smap, rmap = dict(smap_items), dict(rmap_items)
        scored.append(
            (
                smap_items,
                expected_utility(g, smap, rmap, "S"),
                expected_utility(g, smap, rmap, "R"),
            )
        )
    kept = set()
    for smap_items, es, er in scored:
        dominated = any(
            (oes >= es - TOL and oer >= er - TOL)
            and (oes > es + TOL or oer > er + TOL)
            for _, oes, oer in scored
        )
        if not dominated:
            kept.add(smap_items)
    return kept


def expected_utility(g, smap, rmap, player):
    """Expected utility of a pure profile, summed directly."""
    total = 0.0
    for c in g.content_ids():
        m = smap[c]
        total += g.prior[c] * turn_utility(g, c, m, rmap[m], player)
    return total
