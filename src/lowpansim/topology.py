"""Network layout: site plans, distance based link quality, route trees.

A site plan is a dict of node positions, {node id: (x, y, z)}. A topology
is the subset of nodes admitted to the network plus a routing tree toward
the sink and a link quality map. Members are picked by a breadth first
sampling walk from the sink, the plan's node SINK (0): each visited node
draws one to three unvisited nodes from the 2.2 m to 6.6 m ring around it
(the sink draws exactly two) until MEMBER_TARGET (50) members exist.
find_topology keeps the first of TRIES (10,000) sampling seeds whose tree
has a bottleneck forwarder and is MAX_HOPS (6) deep. Links shorter than
2.2 m never become tree edges but still carry traffic and interference at
perfect delivery.
"""

import math
import random
from collections import deque

GATE_NEAR_M = 2.2
GATE_FAR_M = 6.6
PDR_FAR = 0.975
SINK = 0
MEMBER_TARGET = 50
MAX_HOPS = 6
TRIES = 10_000


class GenerationError(RuntimeError):
    """The plan could not yield an acceptable topology; try another seed."""


class TopologyFileError(ValueError):
    pass


def link_pdr(distance_m):
    """Per-frame delivery ratio as a function of link length."""
    if distance_m <= GATE_NEAR_M:
        return 1.0
    if distance_m > GATE_FAR_M:
        return 0.0
    frac = (distance_m - GATE_NEAR_M) / (GATE_FAR_M - GATE_NEAR_M)
    return 1.0 - (1.0 - PDR_FAR) * frac


def grid_office_plan(seed=0):
    """Synthetic floor: a dense 7x7 instrument room plus a strip of
    offices with desk pairs marching away from it."""
    rng = random.Random(seed)
    plan = {}
    for gy in range(7):
        for gx in range(7):
            x = gx * 3.0 + rng.uniform(-0.3, 0.3)
            y = gy * 3.0 + rng.uniform(-0.3, 0.3)
            plan[len(plan)] = (round(x, 3), round(y, 3), 0.0)
    for k in range(10):
        bx = 21.0 + k * 5.8
        by = 9.0 + rng.uniform(-1.0, 1.0)
        plan[len(plan)] = (round(bx, 3), round(by, 3), 0.0)
        # desk mate: inside interference range, never a tree child
        plan[len(plan)] = (round(bx + 1.2, 3), round(by + 0.5, 3), 0.0)
    return plan


def _hop_distances(sink, routes):
    depth = {sink: 0}
    for nid in routes:
        path = []
        cur = nid
        while cur not in depth:
            if cur in path:
                raise ValueError("route cycle through node %d" % cur)
            path.append(cur)
            cur = routes[cur]
        base = depth[cur]
        for i, hop in enumerate(reversed(path), start=1):
            depth[hop] = base + i
    return depth


class Topology:
    """Admitted members, their positions, routes child->parent, links."""

    __slots__ = ("sink", "positions", "routes", "links", "hop_distance",
                 "members")

    def __init__(self, sink, positions, routes, links):
        self.sink = sink
        self.positions = dict(positions)
        self.routes = dict(routes)
        self.links = dict(links)
        if sink not in self.positions:
            raise ValueError("sink %d is not a member" % sink)
        for nid, pos in self.positions.items():
            if nid < 0:
                raise ValueError("negative node id %d" % nid)
            if not all(math.isfinite(c) for c in pos):
                raise ValueError("non-finite coordinate for node %d" % nid)
        ids = set(self.positions)
        if set(self.routes) != ids - {sink}:
            raise ValueError("routes must cover every member but the sink")
        for child, parent in self.routes.items():
            if parent not in ids:
                raise ValueError("route %d -> %d leaves the member set"
                                 % (child, parent))
            pair = (min(child, parent), max(child, parent))
            if pair not in self.links:
                raise ValueError("route edge %d -> %d has no link"
                                 % (child, parent))
        for (a, b), pdr in self.links.items():
            if a >= b or a not in ids or b not in ids:
                raise ValueError("bad link pair (%r, %r)" % (a, b))
            if not 0.0 < pdr <= 1.0:
                raise ValueError("link (%d, %d) pdr %r out of range"
                                 % (a, b, pdr))
            if math.dist(self.positions[a], self.positions[b]) > GATE_FAR_M + 1e-9:
                raise ValueError("link (%d, %d) longer than %.1f m"
                                 % (a, b, GATE_FAR_M))
        self.hop_distance = _hop_distances(sink, self.routes)
        self.members = tuple(sorted(ids))

    def senders(self):
        """Members two or more hops from the sink, in member order."""
        return tuple(n for n in self.members if self.hop_distance[n] >= 2)


def _member_links(positions):
    links = {}
    ids = sorted(positions)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = math.dist(positions[a], positions[b])
            if d <= GATE_FAR_M:
                links[(a, b)] = link_pdr(d)
    return links


def build_topology(plan, seed):
    """Sample a routing tree from the plan by the breadth first walk."""
    rng = random.Random(seed)
    visited = {SINK}
    routes = {}
    queue = deque([SINK])
    while queue and len(visited) < MEMBER_TARGET:
        head = queue.popleft()
        hx = plan[head]
        cands = sorted(n for n, pos in plan.items()
                       if n not in visited
                       and GATE_NEAR_M <= math.dist(hx, pos) <= GATE_FAR_M)
        if head == SINK:
            if len(cands) < 2:
                raise GenerationError("sink needs two neighbors, found %d"
                                      % len(cands))
            take = 2
        else:
            take = rng.randint(1, 3)
        for child in sorted(rng.sample(cands, min(take, len(cands)))):
            if len(visited) >= MEMBER_TARGET:
                break
            visited.add(child)
            routes[child] = head
            queue.append(child)
    if len(visited) < MEMBER_TARGET:
        raise GenerationError("plan exhausted at %d of %d members"
                              % (len(visited), MEMBER_TARGET))
    positions = {n: plan[n] for n in visited}
    return Topology(SINK, positions, routes, _member_links(positions))


def has_bottleneck(topo):
    """True when some forwarder other than the sink has two+ children."""
    kids = {}
    for child, parent in topo.routes.items():
        kids[parent] = kids.get(parent, 0) + 1
    return any(n >= 2 for parent, n in kids.items() if parent != topo.sink)


def find_topology(plan, start_seed=0):
    """Return (topology, seed) for the first of TRIES seeds from start_seed
    whose tree has a bottleneck forwarder and a depth of MAX_HOPS."""
    for seed in range(start_seed, start_seed + TRIES):
        try:
            topo = build_topology(plan, seed)
        except GenerationError:
            continue
        depth = max(topo.hop_distance.values())
        if depth == MAX_HOPS and has_bottleneck(topo):
            return topo, seed
    raise GenerationError("no acceptable topology in %d seeds" % TRIES)


def save_topology(topo, path):
    lines = ["topology v1", "sink %d" % topo.sink]
    for nid in topo.members:
        x, y, z = topo.positions[nid]
        lines.append("node %d %r %r %r" % (nid, x, y, z))
    for child in sorted(topo.routes):
        lines.append("route %d %d" % (child, topo.routes[child]))
    for a, b in sorted(topo.links):
        lines.append("link %d %d %r" % (a, b, topo.links[(a, b)]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_topology(path):
    sink = None
    positions = {}
    routes = {}
    links = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as err:
        raise TopologyFileError("%s: not ASCII: %s" % (path, err)) from None
    if not raw or raw[0].strip() != "topology v1":
        raise TopologyFileError("line 1: expected header 'topology v1'")
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            kind = parts[0]
            if kind == "sink" and len(parts) == 2:
                if sink is not None:
                    raise ValueError("second sink line")
                sink = int(parts[1])
            elif kind == "node" and len(parts) == 5:
                nid = int(parts[1])
                if nid in positions:
                    raise ValueError("duplicate node %d" % nid)
                positions[nid] = tuple(float(v) for v in parts[2:5])
            elif kind == "route" and len(parts) == 3:
                child, parent = int(parts[1]), int(parts[2])
                if child in routes:
                    raise ValueError("duplicate route for %d" % child)
                routes[child] = parent
            elif kind == "link" and len(parts) == 4:
                a, b = int(parts[1]), int(parts[2])
                if (a, b) in links:
                    raise ValueError("duplicate link %d %d" % (a, b))
                links[(a, b)] = float(parts[3])
            else:
                raise ValueError("unrecognized line %r" % line)
        except ValueError as err:
            raise TopologyFileError("line %d: %s" % (lineno, err)) from None
    if sink is None:
        raise TopologyFileError("file has no sink line")
    try:
        return Topology(sink, positions, routes, links)
    except ValueError as err:
        raise TopologyFileError("%s: %s" % (path, err)) from None
