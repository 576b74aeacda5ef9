"""Network layout: site plans, distance based link quality, route trees.

A site plan is just node positions. A topology is the subset of nodes
admitted to the network plus a routing tree toward the sink and a link
quality map. Members are picked by a breadth first sampling walk: each
visited node draws one to three unvisited nodes from the 2.2 m to 6.6 m
ring around it (the sink draws exactly two) until fifty members exist.
Links shorter than 2.2 m never become tree edges but still carry
traffic and interference at perfect delivery.
"""

import math
import random
from collections import deque

GATE_NEAR_M = 2.2
GATE_FAR_M = 6.6
PDR_FAR = 0.975
MEMBER_TARGET = 50


class GenerationError(RuntimeError):
    """The plan could not yield an acceptable topology; try another seed."""


class TopologyRequestError(ValueError):
    """A sink or member target that no seed of the plan can satisfy."""


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


class SitePlan:
    """Candidate node positions on a floor, keyed by integer id."""

    __slots__ = ("positions",)

    def __init__(self, nodes):
        positions = {}
        for nid, x, y, z in nodes:
            nid = int(nid)
            if nid < 0 or nid in positions:
                raise ValueError("bad or duplicate node id %r" % (nid,))
            pos = (float(x), float(y), float(z))
            if not all(math.isfinite(c) for c in pos):
                raise ValueError("non-finite coordinate for node %d" % nid)
            positions[nid] = pos
        if not positions:
            raise ValueError("empty site plan")
        self.positions = positions


def grid_office_plan(seed=0):
    """Synthetic floor: a dense 7x7 instrument room plus a strip of
    offices with desk pairs marching away from it."""
    rng = random.Random(seed)
    nodes = []
    nid = 0
    for gy in range(7):
        for gx in range(7):
            x = gx * 3.0 + rng.uniform(-0.3, 0.3)
            y = gy * 3.0 + rng.uniform(-0.3, 0.3)
            nodes.append((nid, round(x, 3), round(y, 3), 0.0))
            nid += 1
    for k in range(10):
        bx = 21.0 + k * 5.8
        by = 9.0 + rng.uniform(-1.0, 1.0)
        nodes.append((nid, round(bx, 3), round(by, 3), 0.0))
        nid += 1
        # desk mate: inside interference range, never a tree child
        nodes.append((nid, round(bx + 1.2, 3), round(by + 0.5, 3), 0.0))
        nid += 1
    return SitePlan(nodes)


def _hop_distances(sink, routes, members):
    depth = {sink: 0}
    for nid in members:
        path = []
        cur = nid
        while cur not in depth:
            if cur in path:
                raise ValueError("route cycle through node %d" % cur)
            path.append(cur)
            if cur not in routes:
                raise ValueError("node %d has no route to the sink" % cur)
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
        self.hop_distance = _hop_distances(sink, self.routes, self.routes)
        self.members = tuple(sorted(ids))

    def sink_children(self):
        return sorted(c for c, p in self.routes.items() if p == self.sink)

    def senders(self):
        skip = set(self.sink_children())
        skip.add(self.sink)
        return tuple(n for n in self.members if n not in skip)


def _member_links(positions):
    links = {}
    ids = sorted(positions)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = math.dist(positions[a], positions[b])
            if d <= GATE_FAR_M:
                links[(a, b)] = link_pdr(d)
    return links


def build_topology(plan, sink, seed, member_target=MEMBER_TARGET):
    """Sample a routing tree from the plan by the breadth first walk."""
    if sink not in plan.positions:
        raise TopologyRequestError("sink %d not in plan" % sink)
    if member_target < 3:
        raise TopologyRequestError("member target %d cannot fit the sink and "
                                   "its two picks" % member_target)
    rng = random.Random(seed)
    visited = {sink}
    routes = {}
    queue = deque([sink])
    while queue and len(visited) < member_target:
        head = queue.popleft()
        hx = plan.positions[head]
        cands = sorted(n for n, pos in plan.positions.items()
                       if n not in visited
                       and GATE_NEAR_M <= math.dist(hx, pos) <= GATE_FAR_M)
        if head == sink:
            if len(cands) < 2:
                raise GenerationError("sink needs two neighbors, found %d"
                                      % len(cands))
            take = 2
        else:
            take = rng.randint(1, 3)
        for child in sorted(rng.sample(cands, min(take, len(cands)))):
            if len(visited) >= member_target:
                break
            visited.add(child)
            routes[child] = head
            queue.append(child)
    if len(visited) < member_target:
        raise GenerationError("plan exhausted at %d of %d members"
                              % (len(visited), member_target))
    positions = {n: plan.positions[n] for n in visited}
    return Topology(sink, positions, routes, _member_links(positions))


def has_bottleneck(topo):
    """True when some forwarder other than the sink has two+ children."""
    kids = {}
    for child, parent in topo.routes.items():
        kids[parent] = kids.get(parent, 0) + 1
    return any(n >= 2 for parent, n in kids.items() if parent != topo.sink)


def find_topology(plan, sink, start_seed=0, member_target=MEMBER_TARGET,
                  max_hops=None, tries=10000):
    """Scan seeds until the sampled tree has the wanted shape.

    Acceptance needs a bottleneck forwarder and, when max_hops is given,
    that exact tree depth. Returns (topology, seed).
    """
    for seed in range(start_seed, start_seed + tries):
        try:
            topo = build_topology(plan, sink, seed, member_target)
        except GenerationError:
            continue
        if not has_bottleneck(topo):
            continue
        if max_hops is not None and max(topo.hop_distance.values()) != max_hops:
            continue
        return topo, seed
    raise GenerationError("no acceptable topology in %d seeds" % tries)


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


def _parse_error(lineno, text):
    return TopologyFileError("line %d: %s" % (lineno, text))


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
                    raise _parse_error(lineno, "second sink line")
                sink = int(parts[1])
            elif kind == "node" and len(parts) == 5:
                nid = int(parts[1])
                if nid in positions:
                    raise _parse_error(lineno, "duplicate node %d" % nid)
                positions[nid] = tuple(float(v) for v in parts[2:5])
            elif kind == "route" and len(parts) == 3:
                child, parent = int(parts[1]), int(parts[2])
                if child in routes:
                    raise _parse_error(lineno, "duplicate route for %d" % child)
                routes[child] = parent
            elif kind == "link" and len(parts) == 4:
                a, b = int(parts[1]), int(parts[2])
                if (a, b) in links:
                    raise _parse_error(lineno, "duplicate link %d %d" % (a, b))
                links[(a, b)] = float(parts[3])
            else:
                raise _parse_error(lineno, "unrecognized line %r" % line)
        except ValueError as err:
            if isinstance(err, TopologyFileError):
                raise
            raise _parse_error(lineno, str(err)) from None
    if sink is None:
        raise TopologyFileError("file has no sink line")
    try:
        return Topology(sink, positions, routes, links)
    except ValueError as err:
        raise TopologyFileError("%s: %s" % (path, err)) from None
