"""Self-time computation on a synthetic span set."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import selftime  # noqa: E402


def span(name, ts, dur, tid=1, cat=selftime.CATEGORY):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "tid": tid}


class SelfTimeTest(unittest.TestCase):
    def selfs(self, events):
        return {e["name"]: s for e, s in selftime.self_times(events)}

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self.selfs([span("a", 0, 10)]), {"a": 10})

    def test_direct_children_are_subtracted_once(self):
        # pass [0,100) holds build [10,40) and save [50,70); save holds
        # crc [55,60), which belongs to save, not to pass.
        got = self.selfs([span("pass", 0, 100), span("build", 10, 30),
                          span("save", 50, 20), span("crc", 55, 5)])
        self.assertEqual(got, {"pass": 50, "build": 30, "save": 15, "crc": 5})

    def test_other_tracks_and_categories_are_not_children(self):
        got = self.selfs([span("pass", 0, 100),
                          span("worker", 10, 50, tid=2),
                          span("library", 10, 50, cat="ipscope")])
        self.assertEqual(got["pass"], 100)
        self.assertEqual(got["worker"], 50)
        self.assertNotIn("library", got)

    def test_overrunning_child_is_clipped_to_parent(self):
        got = self.selfs([span("p", 0, 10), span("c", 5, 7)])
        self.assertEqual(got["p"], 5)

    def test_sequential_spans_are_siblings(self):
        got = self.selfs([span("a", 0, 10), span("b", 10, 10)])
        self.assertEqual(got, {"a": 10, "b": 10})

    def test_identical_start_puts_the_longer_span_outside(self):
        got = self.selfs([span("inner", 0, 4), span("outer", 0, 10)])
        self.assertEqual(got, {"outer": 6, "inner": 4})

    def test_stats_group_by_name(self):
        stats = selftime.SpanStats([span("x", 0, 10), span("x", 20, 30),
                                    span("y", 21, 5)])
        self.assertEqual(stats.median("x"), 20)
        self.assertEqual(stats.self_median("x"), (10 + 25) / 2)
        self.assertEqual(stats.mean_of(["x", "y"]), 15)


if __name__ == "__main__":
    unittest.main()
