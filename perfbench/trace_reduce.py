#!/usr/bin/env python3
"""Reduce a merged COSMOS Chrome trace to per-module self times and bytes.

A traced run writes one Chrome trace-event JSON (driver lanes at pid 0,
federated worker i at pid i+1). This reducer computes:

  self_s[side][name]  self time of each span name, where side is "driver"
                      (pid 0) or "workers" (pid >= 1). A span's self time is
                      its duration minus the part its direct child spans on
                      the same thread cover.
  cat_self_s[side][cat]  the same, summed by span category.
  wire_bytes[type]    bytes of every frame sent, by frame type, from the
                      `wire_send` spans (name = frame type, args.v = bytes).
  wire_frames         number of `wire_send` spans.
  spans               number of complete ("X") spans read.

Usage:
  python3 trace_reduce.py TRACE.json     print the reduction as JSON
  python3 trace_reduce.py --self-test    check the reducer on a hand-built trace
"""
import json
import sys
from collections import defaultdict


def side_of(pid):
    return "driver" if pid == 0 else "workers"


def reduce_events(events):
    """Reduces a list of trace events (dicts) as described above."""
    lanes = defaultdict(list)
    wire_bytes = defaultdict(float)
    wire_frames = 0
    for ev in events:
        if ev.get("ph") != "X":
            continue
        lanes[(ev.get("pid", 0), ev.get("tid", 0))].append(ev)
        if ev.get("cat") == "wire_send":
            wire_bytes[ev["name"]] += float(ev.get("args", {}).get("v", 0))
            wire_frames += 1

    self_s = {"driver": defaultdict(float), "workers": defaultdict(float)}
    cat_self_s = {"driver": defaultdict(float), "workers": defaultdict(float)}
    spans = 0
    for (pid, _tid), lane in lanes.items():
        # Parents first: earlier start, then longer duration.
        lane.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
        selfs = [float(e.get("dur", 0.0)) for e in lane]
        stack = []  # indices of open spans, innermost last
        for i, ev in enumerate(lane):
            start = ev["ts"]
            end = start + ev.get("dur", 0.0)
            while stack:
                top = lane[stack[-1]]
                if start >= top["ts"] + top.get("dur", 0.0):
                    stack.pop()
                else:
                    break
            if stack:
                parent = stack[-1]
                top = lane[parent]
                # Clip a child that overhangs its parent (microsecond
                # rounding) to the parent's interval.
                overlap = min(end, top["ts"] + top.get("dur", 0.0)) - start
                selfs[parent] -= max(0.0, overlap)
            stack.append(i)
        side = side_of(pid)
        for ev, s in zip(lane, selfs):
            seconds = max(0.0, s) * 1e-6  # trace times are microseconds
            self_s[side][ev["name"]] += seconds
            cat_self_s[side][ev.get("cat", "-")] += seconds
            spans += 1

    return {
        "self_s": {k: dict(v) for k, v in self_s.items()},
        "cat_self_s": {k: dict(v) for k, v in cat_self_s.items()},
        "wire_bytes": dict(wire_bytes),
        "wire_frames": wire_frames,
        "spans": spans,
    }


def reduce_file(path):
    with open(path) as f:
        return reduce_events(json.load(f)["traceEvents"])


def self_test():
    """Checks nesting, lane separation, pid sides and wire accounting."""
    x = lambda name, cat, pid, tid, ts, dur, v=0: {
        "ph": "X", "name": name, "cat": cat, "pid": pid, "tid": tid,
        "ts": ts, "dur": dur, "args": {"v": v}}
    events = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": "driver"}},
        # Driver thread 1: route [0,100) holds deliver [10,40) which holds
        # a wire_send [20,25); then a sibling dispatch [50,70).
        x("route", "driver", 0, 1, 0.0, 100.0),
        x("deliver", "driver", 0, 1, 10.0, 30.0),
        x("Execute", "wire_send", 0, 1, 20.0, 5.0, 1000),
        x("dispatch", "driver", 0, 1, 50.0, 20.0),
        # A span on another driver thread overlapping in time is not a child.
        x("Result", "wire_send", 0, 2, 15.0, 50.0, 300),
        # Worker 1: task [0,40) with a match inside that overhangs by 1us.
        x("task", "shard", 1, 1, 0.0, 40.0),
        x("match", "shard", 1, 1, 30.0, 11.0),
        # Worker 2: one bare task; instants are ignored.
        x("task", "shard", 2, 1, 5.0, 10.0),
        {"ph": "i", "name": "Result", "cat": "wire_recv", "pid": 0,
         "tid": 3, "ts": 1.0, "s": "t", "args": {"v": 7}},
    ]
    r = reduce_events(events)
    us = 1e-6
    close = lambda a, b: abs(a - b) < 1e-12
    d, w = r["self_s"]["driver"], r["self_s"]["workers"]
    checks = [
        ("route self", close(d["route"], 50 * us)),      # 100 - 30 - 20
        ("deliver self", close(d["deliver"], 25 * us)),  # 30 - 5
        ("execute self", close(d["Execute"], 5 * us)),
        ("dispatch self", close(d["dispatch"], 20 * us)),
        ("other thread not nested", close(d["Result"], 50 * us)),
        ("task self clipped", close(w["task"], (30 + 10) * us)),
        ("match self", close(w["match"], 11 * us)),
        ("wire bytes", r["wire_bytes"] == {"Execute": 1000.0, "Result": 300.0}),
        ("wire frames", r["wire_frames"] == 2),
        ("spans", r["spans"] == 8),
        ("cat self", close(r["cat_self_s"]["driver"]["wire_send"], 55 * us)),
    ]
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print("FAIL:", name, file=sys.stderr)
    print("trace_reduce self-test: %d/%d passed" %
          (len(checks) - len(failed), len(checks)))
    return 1 if failed else 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(reduce_file(argv[1]), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
