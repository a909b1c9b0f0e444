"""Independent step-by-step interpreter of the setup-phase rules.

This is the reference the golden-trace tests check the implementation
against. It re-derives every election and relocation from the documented
draw order using plain dicts and explicit loops, sharing no protocol code
with the package (only the RandomStream, whose output is itself pinned by
known-answer tests).
"""

import math


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def window_of(p):
    return int(1.0 / p) if p > 0 else 0


def threshold_of(p, round_no, window):
    if p <= 0:
        return 0.0
    if window <= 0:
        return p
    denom = 1.0 - p * (round_no % window)
    if denom <= 0:
        return 1.0
    return min(p / denom, 1.0)


def pick_nearest(candidates, src, pos):
    best, best_d = None, None
    for c in sorted(candidates):
        d = dist(pos[src], pos[c])
        if best_d is None or d < best_d:
            best, best_d = c, d
    return best, best_d


def election(stream, eligible, threshold, fallback_pool):
    for _ in range(100):
        winners = []
        for i in eligible:
            if stream.random() < threshold:
                winners.append(i)
        if winners:
            return winners
    return [fallback_pool[stream.next_u64() % len(fallback_pool)]]


def leach_trace(pos, alive, last_ch, params, round_no, stream):
    """Returns (parent map, messages, head list). pos maps id -> (x, y); 0 is the BS."""
    w = window_of(params.p_ch)
    eligible = [
        i for i in sorted(alive)
        if last_ch.get(i) is None or round_no - last_ch[i] > w
    ]
    t = threshold_of(params.p_ch, round_no, w)
    heads = sorted(election(stream, eligible, t, eligible or sorted(alive)))
    for h in heads:
        last_ch[h] = round_no
    parent = {}
    messages = []
    for h in heads:
        parent[h] = 0
        reach = max((dist(pos[h], pos[j]) for j in alive if j != h), default=0.0)
        messages.append(("ch_announce", h, reach, 1))
    for m in sorted(alive):
        if m in heads:
            continue
        target, d = pick_nearest(heads, m, pos)
        parent[m] = target
        messages.append(("join_request", m, d, 1))
    return parent, messages, heads


def least_round_trace(pos, alive, last_hn, parent, params, round_no, stream):
    """One tree round on an existing parent map; mutates nothing it is given."""
    parent = dict(parent)
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    for p in children:
        children[p].sort()
    first_level = sorted(children.get(0, []))

    # host-node election
    w = params.hn_window if params.hn_window is not None else window_of(params.p_hn)
    eligible = [
        i for i in sorted(alive)
        if i not in first_level
        and (last_hn.get(i) is None or round_no - last_hn[i] > w)
    ]
    assert eligible, "oracle fixture must not stall"
    t = threshold_of(params.p_hn, round_no, w)
    hosts = sorted(election(stream, eligible, t, eligible))
    messages = []
    for h in hosts:
        last_hn[h] = round_no
        messages.append(("hn_announce_to_bs", h, dist(pos[h], pos[0]), 1))
    bs_reach = max((dist(pos[0], pos[f]) for f in first_level), default=0.0)
    messages.append(("bs_notify_first_level", 0, bs_reach, 1))

    # heir election
    heirs = {}
    for f in first_level:
        kids = children.get(f, [])
        if not kids:
            continue
        picked = []
        for c in kids:
            if stream.random() < params.p_h:
                picked.append(c)
        if not picked:
            picked = [kids[stream.next_u64() % len(kids)]]
        heirs[f] = picked
        for e in picked:
            sibs = [c for c in kids if c != e]
            messages.append(("heir_notify_parent", e, dist(pos[e], pos[f]), 1))
            messages.append(("heir_relay_to_bs", f, dist(pos[f], pos[0]), 1))
            reach = max((dist(pos[e], pos[s]) for s in sibs), default=0.0)
            messages.append(("heir_announce_siblings", e, reach, 1 if sibs else 0))

    # relocation, computed from the old map; every move is silent
    for f in first_level:
        for e in heirs.get(f, []):
            parent[e] = 0
    for f in first_level:
        own = heirs.get(f, [])
        for c in children.get(f, []):
            if c in own:
                continue
            parent[c], _ = pick_nearest(own, c, pos)
    for f in first_level:
        parent[f], _ = pick_nearest(hosts, f, pos)
    return parent, messages, hosts, heirs


def charge_trace(pos, energy, messages, eps):
    """Apply a message log to an id -> Joules map; returns total charged."""
    total = 0.0
    for kind, sender, d, packets in messages:
        if sender == 0 or energy[sender] <= 0.0:
            continue
        cost = eps * d * d * packets
        spent = min(cost, energy[sender])
        energy[sender] -= spent
        total += spent
    return total


def steady_trace(pos, energy, parent, senders, packets, eps):
    """Hop-by-hop forwarding; returns (total charged, packets delivered)."""
    total = 0.0
    delivered = 0
    for s in senders:
        if energy[s] <= 0.0:
            continue
        node, ok = s, True
        while node != 0:
            nxt = parent[node]
            if energy[node] <= 0.0:
                ok = False
                break
            d = dist(pos[node], pos[nxt])
            cost = eps * d * d * packets  # the package's operand order, bit for bit
            spent = min(cost, energy[node])
            energy[node] -= spent
            total += spent
            if spent < cost:  # died mid-transmission
                ok = False
                break
            node = nxt
        if ok:
            delivered += packets
    return total, delivered
