#!/usr/bin/env python3
"""Replay-validate a leosim network-state trace from the files alone.

A trace directory holds two JSONL files written by `leosim_cli trace`
or any study run with `--trace-net-out=DIR`:

  netstate.jsonl   leosim.netstate/1  — per-slot full network state
  netevents.jsonl  leosim.netevents/1 — per-slot deltas + study events

This tool proves the replay invariant independently of the C++
validator: starting from the earliest netstate keyframe, applying each
slot's event batch (link_up / link_down / weight, plus the sat_ecef /
air_ecef position replacements) must reproduce every subsequent
netstate line *bit-identically* — floats are compared by their IEEE-754
bit patterns (struct.pack), never by epsilon.

Usage:
  trace_check.py DIR
  trace_check.py NETSTATE.jsonl NETEVENTS.jsonl

Exit codes:
  0  replay reproduces every full-state slot (or the trace is empty /
     has a single keyframe — vacuously consistent, noted on stdout)
  1  replay diverges from a stored slot, or the event stream has a gap
  2  a file is missing, unparseable, or carries the wrong schema, or a
     field has the wrong type or range: slots and node ids are integers
     (ids inside the slot's node range), coordinates, times, delays,
     capacities and RTTs are finite numbers, kinds and link types are
     known strings, and every array has its fixed arity
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys

NETSTATE_SCHEMA = "leosim.netstate/1"
NETEVENTS_SCHEMA = "leosim.netevents/1"
NODE_KINDS = ("sat", "city", "relay", "air")
LINK_TYPES = ("radio", "isl")
# Event kind -> arity (kind included).
EVENT_ARITY = {"link_down": 3, "link_up": 6, "weight": 4, "route_change": 4,
               "reachable": 3, "unreachable": 2, "handover": 3}


class TraceFormatError(Exception):
    """Garbled input: wrong schema, bad JSON, missing required keys."""


class ReplayDivergence(Exception):
    """Well-formed trace whose replay does not match a stored slot."""


def bits(value):
    """IEEE-754 bit pattern of a JSON number, for exact comparison."""
    return struct.pack("<d", float(value))


def load_jsonl(path, schema):
    """Parses a JSONL trace file into {slot: line-object}.

    Raises TraceFormatError with the filename, line number, and a
    snippet of the offending line on any malformed input.
    """
    lines = {}
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise TraceFormatError(f"{path}: cannot read: {e}") from e
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        snippet = line[:80].decode("utf-8", "replace")
        try:
            doc = json.loads(line)
        except ValueError as e:  # JSONDecodeError and bad UTF-8 alike
            raise TraceFormatError(
                f"{path}:{lineno}: not JSON ({e}): {snippet!r}") from e
        if not isinstance(doc, dict) or doc.get("schema") != schema:
            raise TraceFormatError(
                f"{path}:{lineno}: expected schema {schema!r}, "
                f"got: {snippet!r}")
        if "slot" not in doc:
            raise TraceFormatError(
                f"{path}:{lineno}: missing 'slot': {snippet!r}")
        slot = doc["slot"]
        if not is_int(slot) or slot < 0:
            raise TraceFormatError(
                f"{path}:{lineno}: slot must be an integer >= 0: {snippet!r}")
        if slot in lines:
            raise TraceFormatError(
                f"{path}:{lineno}: duplicate slot {slot}: {snippet!r}")
        lines[slot] = doc
    return lines


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


class Fields:
    """Type and range checks on one trace line's fields.

    Every failure is a TraceFormatError naming the file, the slot and
    the field, so the replay below only ever sees well-typed input.
    """

    def __init__(self, path, slot):
        self.path = path
        self.slot = slot

    def fail(self, what, value):
        shown = repr(value)
        if len(shown) > 40:
            shown = shown[:37] + "..."
        raise TraceFormatError(f"{self.path}: slot {self.slot}: {what}, "
                               f"got {shown}")

    def array(self, value, what, arity=None):
        if not isinstance(value, list):
            self.fail(f"{what} must be an array", value)
        if arity is not None and len(value) != arity:
            self.fail(f"{what} must have {arity} entries", value)
        return value

    def index(self, value, what, limit=None):
        """An integer >= 0, and below `limit` when one is given."""
        if not is_int(value) or value < 0 or (limit is not None
                                              and value >= limit):
            bound = "" if limit is None else f" below {limit}"
            self.fail(f"{what} must be an integer >= 0{bound}", value)
        return value

    def finite(self, value, what):
        if not is_finite(value):
            self.fail(f"{what} must be a finite number", value)
        return value

    def xyz(self, value, what):
        for x in self.array(value, what, 3):
            self.finite(x, what)

    def link(self, a, b, what, limit, num_sats, link_type=None):
        """Endpoints a < b in the node range; a known link type whose
        endpoint classes match (ISL: two satellites; radio: a satellite
        and a ground node, satellites numbered first)."""
        self.index(a, f"{what} endpoint", limit)
        self.index(b, f"{what} endpoint", limit)
        if a >= b:
            self.fail(f"{what} endpoints must be ordered a < b", [a, b])
        if link_type is None:
            return
        if link_type not in LINK_TYPES:
            self.fail(f"{what} type must be one of {LINK_TYPES}", link_type)
        if num_sats is not None and (a >= num_sats or (b < num_sats) !=
                                     (link_type == "isl")):
            self.fail(f"{what} endpoints do not fit a {link_type} link",
                      [a, b])


def check_state_fields(path, slot, doc):
    """Types and ranges of a netstate line: counts, nodes, links."""
    f = Fields(path, slot)
    f.finite(doc["t"], "t")
    counts = f.array(doc["counts"], "counts", 4)
    for c in counts:
        f.index(c, "counts entry")
    num_sats = counts[0]
    bounds = [sum(counts[:k + 1]) for k in range(4)]
    nodes = f.array(doc["nodes"], "nodes", bounds[-1])
    for i, node in enumerate(nodes):
        f.array(node, f"node {i}", 4)
        kind = NODE_KINDS[next(k for k in range(4) if i < bounds[k])]
        if node[0] != kind:
            f.fail(f"node {i} must be a {kind!r} node", node[0])
        f.xyz(node[1:], f"node {i} position")
    for link in f.array(doc["links"], "links"):
        a, b, delay, cap, link_type = f.array(link, "link", 5)
        f.link(a, b, "link", bounds[-1], num_sats, link_type)
        f.finite(delay, "link delay")
        f.finite(cap, "link capacity")


def check_event_fields(path, slot, doc, static, states):
    """Types and ranges of a netevents line. `static` is (num_sats,
    satellites + cities + relays) from the first keyframe, or None for
    an event-only trace. Node ids are positional within a slot (the
    aircraft come and go), so a link_down names the previous slot's
    nodes and every other event the current slot's; a slot without a
    known node count leaves its range open."""
    f = Fields(path, slot)
    f.finite(doc.get("t"), "t")
    num_sats = None if static is None else static[0]
    limit, prev_limit = (len(states[s]["nodes"]) if s in states else None
                         for s in (slot, slot - 1))
    if "sat_ecef" in doc or "air_ecef" in doc:
        for key in ("sat_ecef", "air_ecef"):
            for pos in f.array(doc.get(key), key):
                f.xyz(pos, f"{key} entry")
        if static is not None:
            limit = static[1] + len(doc["air_ecef"])
    for event in f.array(doc.get("events"), "events"):
        f.array(event, "event")
        kind = event[0] if event else None
        if not isinstance(kind, str) or kind not in EVENT_ARITY:
            f.fail(f"event kind must be one of {tuple(EVENT_ARITY)}", kind)
        f.array(event, f"{kind} event", EVENT_ARITY[kind])
        if kind in ("link_down", "link_up", "weight"):
            f.link(event[1], event[2], kind,
                   prev_limit if kind == "link_down" else limit,
                   num_sats, event[5] if kind == "link_up" else None)
            for x in event[3:5]:
                f.finite(x, f"{kind} delay/capacity")
        elif kind == "handover":
            for ids in event[1:]:
                for sat in f.array(ids, "handover satellites"):
                    f.index(sat, "handover satellite", limit)
        else:
            f.index(event[1], f"{kind} pair index")
            if kind != "unreachable":
                f.finite(event[2], f"{kind} rtt")
            if kind == "route_change":
                for n in f.array(event[3], "route_change path"):
                    f.index(n, "route_change path node", limit)


class NetState:
    """Replayed network state: node positions plus the two link maps."""

    def __init__(self, state_doc):
        counts = state_doc["counts"]
        self.num_sats, self.num_cities, self.num_relays, self.num_air = counts
        nodes = state_doc["nodes"]
        self.sat_ecef = [n[1:4] for n in nodes[: self.num_sats]]
        ground_end = self.num_sats + self.num_cities + self.num_relays
        self.ground = nodes[self.num_sats: ground_end]  # static (kind, x, y, z)
        self.air_ecef = [n[1:4] for n in nodes[ground_end:]]
        # Link maps keyed by (a, b) -> [delay_ms, capacity_gbps]. Radio
        # links always have one ground endpoint (b >= num_sats), ISLs
        # have two satellite endpoints, so the two key spaces are
        # disjoint and a type-less link_down / weight event is
        # unambiguous.
        self.radio = {}
        self.isl = {}
        for a, b, delay, cap, kind in state_doc["links"]:
            target = self.radio if kind == "radio" else self.isl
            target[(a, b)] = [delay, cap]

    def link_map(self, a, b):
        return self.isl if b < self.num_sats else self.radio

    def apply_events(self, event_doc):
        self.sat_ecef = event_doc["sat_ecef"]
        self.air_ecef = event_doc["air_ecef"]
        self.num_air = len(self.air_ecef)
        for event in event_doc["events"]:
            kind = event[0]
            if kind == "link_down":
                _, a, b = event
                links = self.link_map(a, b)
                if (a, b) not in links:
                    raise ReplayDivergence(
                        f"link_down ({a},{b}) but that link is not up")
                del links[(a, b)]
            elif kind == "link_up":
                _, a, b, delay, cap, link_type = event
                links = self.radio if link_type == "radio" else self.isl
                if (a, b) in links:
                    raise ReplayDivergence(
                        f"link_up ({a},{b}) but that link is already up")
                links[(a, b)] = [delay, cap]
            elif kind == "weight":
                _, a, b, delay = event
                links = self.link_map(a, b)
                if (a, b) not in links:
                    raise ReplayDivergence(
                        f"weight event for ({a},{b}) but that link is not up")
                links[(a, b)][0] = delay
            # route_change / reachable / unreachable / handover are
            # study-level annotations; they do not alter topology.

    def diff_against(self, state_doc):
        """First field where this replayed state diverges, or None."""
        counts = state_doc["counts"]
        mine = [self.num_sats, self.num_cities, self.num_relays, self.num_air]
        if mine != counts:
            return f"counts: replayed {mine} vs stored {counts}"
        nodes = state_doc["nodes"]
        expected_nodes = len(self.sat_ecef) + len(self.ground) + len(self.air_ecef)
        if len(nodes) != expected_nodes:
            return f"node count: replayed {expected_nodes} vs stored {len(nodes)}"
        for i, pos in enumerate(self.sat_ecef):
            stored = nodes[i]
            if stored[0] != "sat" or any(
                    bits(x) != bits(y) for x, y in zip(pos, stored[1:4])):
                return f"node {i} (sat): replayed {pos} vs stored {stored}"
        base = len(self.sat_ecef)
        for i, node in enumerate(self.ground):
            stored = nodes[base + i]
            if stored[0] != node[0] or any(
                    bits(x) != bits(y) for x, y in zip(node[1:4], stored[1:4])):
                return (f"node {base + i} ({node[0]}): static ground node "
                        f"moved: {node} vs stored {stored}")
        base += len(self.ground)
        for i, pos in enumerate(self.air_ecef):
            stored = nodes[base + i]
            if stored[0] != "air" or any(
                    bits(x) != bits(y) for x, y in zip(pos, stored[1:4])):
                return f"node {base + i} (air): replayed {pos} vs stored {stored}"
        # Stored order: radio links sorted by (a, b), then ISLs sorted.
        replayed = [
            (a, b, delay, cap, "radio")
            for (a, b), (delay, cap) in sorted(self.radio.items())
        ] + [
            (a, b, delay, cap, "isl")
            for (a, b), (delay, cap) in sorted(self.isl.items())
        ]
        stored_links = state_doc["links"]
        if len(replayed) != len(stored_links):
            return (f"link count: replayed {len(replayed)} vs stored "
                    f"{len(stored_links)}")
        for i, (mine_l, stored) in enumerate(zip(replayed, stored_links)):
            a, b, delay, cap, kind = mine_l
            if (a != stored[0] or b != stored[1] or kind != stored[4]
                    or bits(delay) != bits(stored[2])
                    or bits(cap) != bits(stored[3])):
                return f"link {i}: replayed {mine_l} vs stored {stored}"
        return None


def check_trace(netstate_path, netevents_path):
    """Replays the trace; raises on divergence or format problems."""
    states = load_jsonl(netstate_path, NETSTATE_SCHEMA)
    events = load_jsonl(netevents_path, NETEVENTS_SCHEMA)
    for slot, doc in states.items():
        for key in ("t", "counts", "nodes", "links"):
            if key not in doc:
                raise TraceFormatError(
                    f"{netstate_path}: slot {slot} missing {key!r}")
        check_state_fields(netstate_path, slot, doc)
    static = None
    if states:
        counts = states[min(states)]["counts"]
        static = (counts[0], sum(counts[:3]))
    for slot, doc in events.items():
        check_event_fields(netevents_path, slot, doc, static, states)
    if not states:
        return 0, "netstate is empty (event-only trace): vacuously consistent"
    first = min(states)
    last = max(states)
    state = NetState(states[first])
    checked = 0
    for slot in range(first + 1, last + 1):
        event_doc = events.get(slot)
        if event_doc is None or "sat_ecef" not in event_doc:
            raise ReplayDivergence(
                f"{netevents_path}: slot {slot} has no delta "
                f"(gap in the event stream)")
        try:
            state.apply_events(event_doc)
        except ReplayDivergence as e:
            raise ReplayDivergence(f"slot {slot}: {e}") from e
        if slot not in states:
            raise ReplayDivergence(
                f"{netstate_path}: slot {slot} missing from the full-state "
                f"trace")
        mismatch = state.diff_against(states[slot])
        if mismatch is not None:
            raise ReplayDivergence(f"first divergence at slot {slot}: {mismatch}")
        checked += 1
    if checked == 0:
        return 0, "single keyframe, no events to replay: vacuously consistent"
    return checked, (f"replayed {checked} slots over the slot-{first} keyframe:"
                     f" all bit-identical")


def main(argv):
    if len(argv) == 2:
        netstate = os.path.join(argv[1], "netstate.jsonl")
        netevents = os.path.join(argv[1], "netevents.jsonl")
    elif len(argv) == 3:
        netstate, netevents = argv[1], argv[2]
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        _, message = check_trace(netstate, netevents)
    except TraceFormatError as e:
        print(f"trace_check: FORMAT ERROR: {e}", file=sys.stderr)
        return 2
    except ReplayDivergence as e:
        print(f"trace_check: REPLAY FAILED: {e}", file=sys.stderr)
        return 1
    print(f"trace_check: OK: {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
