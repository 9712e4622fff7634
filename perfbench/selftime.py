"""Self times of the benchmark's spans, read from a Chrome trace.

A span's self time is its duration minus the part of its interval that its
direct child spans cover. Children are spans of the same category on the
same thread (track) that start inside the parent; a child that overruns
its parent (microsecond rounding) is clipped to the parent's end.
Library-internal spans (other categories) never count as children, so a
layer span's time includes everything the program did inside the call.
"""

import json
import statistics

CATEGORY = "perfbench"


def load_events(path):
    """Complete ("ph": "X") events of a Chrome trace file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]


def _covered(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def self_times(events, category=CATEGORY):
    """Returns [(event, self_us)] for every event of `category`."""
    by_track = {}
    for e in events:
        if e.get("cat") == category:
            by_track.setdefault(e.get("tid"), []).append(e)
    result = []
    for track in by_track.values():
        # Parents before children: earlier start first, longer first on ties.
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, end, child intervals]
        done = []
        for e in track:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and start >= stack[-1][1]:
                done.append(stack.pop())
            if stack:
                parent_end = stack[-1][1]
                stack[-1][2].append((start, min(end, parent_end)))
                end = min(end, parent_end)
            stack.append([e, end, []])
        done.extend(stack)
        for e, _, children in done:
            result.append((e, e["dur"] - _covered(children)))
    return result


class SpanStats:
    """Durations and self times, in microseconds, grouped by span name."""

    def __init__(self, events, category=CATEGORY):
        self.durations = {}
        self.selfs = {}
        for e, self_us in self_times(events, category):
            self.durations.setdefault(e["name"], []).append(e["dur"])
            self.selfs.setdefault(e["name"], []).append(self_us)

    def has(self, name):
        return name in self.durations

    def median(self, name):
        return statistics.median(self.durations[name])

    def mean(self, name):
        return statistics.fmean(self.durations[name])

    def self_median(self, name):
        return statistics.median(self.selfs[name])

    def mean_of(self, names):
        values = [d for n in names for d in self.durations.get(n, [])]
        return statistics.fmean(values)
