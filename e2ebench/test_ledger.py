"""Tests of the benchmark's own arithmetic (ledger.py) and of the metric
tables run.py reports against BENCHMARK.json.

Run from the repository root:

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import unittest

import ledger
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def campaign(pass_, name, wall_ms, outcome=None, traced=False, cpu_ms=None):
    return {"pass": pass_, "i": 0, "name": name, "traced": traced,
            "wall_ms": wall_ms,
            "cpu_ms": wall_ms if cpu_ms is None else cpu_ms,
            "outcome": outcome or {}, "counters": {}}


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 100))  # 99 samples: rank 90, 9 beyond
        with self.assertRaises(ledger.LedgerError):
            ledger.percentile(values, 0.9)

    def test_hundred_samples_suffice(self):
        values = list(range(1, 101))
        self.assertEqual(ledger.percentile(values, 0.9), 90)

    def test_nearest_rank_ignores_input_order(self):
        values = list(range(200, 0, -1))
        self.assertEqual(ledger.percentile(values, 0.9), 180)
        self.assertEqual(ledger.percentile(values, 0.5), 100)

    def test_rejects_quantile_outside_unit_interval(self):
        with self.assertRaises(ValueError):
            ledger.percentile([1.0] * 1000, 1.0)


class WholePassTest(unittest.TestCase):
    def test_partial_pass_is_dropped(self):
        campaigns = [campaign(0, "a", 1), campaign(0, "b", 2),
                     campaign(1, "a", 3), campaign(1, "b", 4),
                     campaign(2, "a", 5)]  # pass 2 was cut
        passes = [{"pass": 0}, {"pass": 1}]
        kept = ledger.whole_passes(campaigns, passes)
        self.assertEqual([c["wall_ms"] for c in kept], [1, 2, 3, 4])

    def test_no_whole_pass_reports_error(self):
        kept = ledger.whole_passes([campaign(0, "a", 1)], [])
        self.assertEqual(kept, [])
        with self.assertRaises(ledger.LedgerError):
            ledger.end_to_end([{"setup_s": 1.0}], kept,
                              {"peak_rss_mb": 1.0}, 0)

    def test_slower_half_keeps_the_slow_passes(self):
        walls = {0: 5, 1: 9, 2: 7, 3: 9, 4: 1}  # pass -> campaign time
        campaigns = [campaign(p, n, w) for p, w in walls.items()
                     for n in ("a", "b")]
        kept = ledger.slower_half(campaigns)
        self.assertEqual(sorted({c["pass"] for c in kept}), [1, 2, 3])
        self.assertEqual(len(kept), 6)

    def test_timings_ignore_the_fast_passes(self):
        # Two campaigns a pass: a slow half at 10 ms, with one outlier
        # pass at 500 ms, and a fast half at 5 ms.
        campaigns = []
        for p in range(201):
            w = 5 if p % 2 else (500 if p == 100 else 10)
            campaigns += [campaign(p, "a", w), campaign(p, "b", w)]
        m = ledger.end_to_end([{"setup_s": 2.0}, {"setup_s": 1.0},
                               {"setup_s": 9.0}], campaigns,
                              {"peak_rss_mb": 5.0}, len(campaigns) - 3)
        self.assertEqual(m["campaign_ms_p50"], 10)
        self.assertEqual(m["campaign_ms_p90"], 10)
        self.assertAlmostEqual(m["campaigns_per_s"], 100.0)
        self.assertAlmostEqual(m["cpu_ms_per_campaign"], 10.0)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["ok_ratio"], 399 / 402)


class ReferenceTest(unittest.TestCase):
    OUT = {"diagnosed": True, "failure_attempts": 10, "ranking": "ab",
           "steps": 1000}

    def setup_rec(self, outcomes):
        return {"campaigns": {str(i): {"name": n, "outcome": o}
                              for i, (n, o) in enumerate(outcomes)}}

    def test_every_field_must_match(self):
        refs = {"a": self.OUT}
        self.assertEqual(ledger.count_ok([campaign(0, "a", 1, self.OUT)],
                                         refs), 1)
        for key, value in (("failure_attempts", 11), ("ranking", "ac"),
                           ("steps", 1001), ("diagnosed", False)):
            got = dict(self.OUT, **{key: value})
            self.assertEqual(ledger.count_ok([campaign(0, "a", 1, got)],
                                             refs), 0, key)
        fewer = dict(self.OUT)
        del fewer["steps"]
        for got in (fewer, dict(self.OUT, x=1)):
            self.assertEqual(ledger.count_ok([campaign(0, "a", 1, got)],
                                             refs), 0)

    def test_checked_in_reference_wins_over_warm_up(self):
        bad = dict(self.OUT, failure_attempts=12)
        setups = [self.setup_rec([("a", bad), ("b", self.OUT)])]
        checked_in = [{"name": "a", "outcome": self.OUT}]
        refs, mismatches = ledger.references(setups, checked_in)
        self.assertEqual(refs["a"], self.OUT)
        self.assertEqual(refs["b"], self.OUT)
        self.assertEqual(mismatches, 1)

    def test_warm_up_is_reference_for_names_the_file_lacks(self):
        other = dict(self.OUT, ranking="cd")
        setups = [self.setup_rec([("a", self.OUT)]),
                  self.setup_rec([("a", other)])]
        refs, mismatches = ledger.references(setups, [])
        self.assertEqual(refs["a"], self.OUT)
        self.assertEqual(mismatches, 1)

    def test_ok_ratio_counts_matching_campaigns(self):
        refs = {"a": self.OUT, "b": self.OUT}
        campaigns = [campaign(0, "a", 1, self.OUT),
                     campaign(0, "b", 1, dict(self.OUT, ranking="x")),
                     campaign(1, "a", 1, self.OUT),
                     campaign(1, "b", 1, self.OUT),
                     campaign(1, "unknown", 1, self.OUT)]
        self.assertEqual(ledger.count_ok(campaigns, refs), 3)


class ReferenceFileTest(unittest.TestCase):
    """run.check_outcomes against the checked-in lbra-seq file.

    The check takes no seed: a run at seed 2 whose campaigns
    deterministically reproduce a wrong outcome, in the warm-up and in
    every timed pass alike, still fails against the file.
    """

    def setUp(self):
        with open(run.reference_path("lbra-seq")) as f:
            self.file = json.load(f)["campaigns"]

    def run_with(self, outcome_of):
        setups = [{"campaigns": {
            str(i): {"name": c["name"], "outcome": outcome_of(c)}
            for i, c in enumerate(self.file)}}]
        campaigns = [campaign(p, c["name"], 1.0, outcome_of(c))
                     for p in range(2) for c in self.file]
        return run.check_outcomes("lbra-seq", setups, campaigns), campaigns

    def test_matching_run_is_all_ok(self):
        (ok, mismatches, covered), campaigns = self.run_with(
            lambda c: c["outcome"])
        self.assertEqual(ok, len(campaigns))
        self.assertEqual(mismatches, 0)
        self.assertEqual(covered, len(self.file))

    def test_differing_run_fails_at_any_seed(self):
        wrong = self.file[0]["name"]

        def outcome_of(c):
            if c["name"] != wrong:
                return c["outcome"]
            return dict(c["outcome"], steps=c["outcome"]["steps"] + 1)

        (ok, mismatches, _), campaigns = self.run_with(outcome_of)
        self.assertEqual(ok, len(campaigns) - 2)
        self.assertEqual(mismatches, 1)


class OverheadTest(unittest.TestCase):
    def test_matched_by_campaign(self):
        campaigns = [campaign(0, "a", 10), campaign(0, "b", 100),
                     campaign(1, "a", 11, traced=True),
                     campaign(1, "b", 110, traced=True)]
        self.assertAlmostEqual(ledger.tracing_overhead_pct(campaigns), 10.0)

    def test_zero_without_both_sides(self):
        self.assertEqual(ledger.tracing_overhead_pct(
            [campaign(0, "a", 10)]), 0.0)


class MetricTableTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))

    def test_per_layer_reports_every_metric(self):
        counters = {k: 1 for k in (
            "vm.runs", "vm.steps", "vm.wall_micros", "vm.mem_accesses",
            "vm.mem_fast_hits", "vm.cache_lookups", "vm.cache_mru_hits",
            "vm.fused_pairs", "exec.runs", "exec.runs_discarded",
            "exec.busy_micros", "exec.capacity_micros", "decode.hits",
            "decode.misses")}
        c = campaign(0, "a", 1.0)
        c["counters"] = counters
        values = ledger.per_layer("lbra", [{"build_ms": 1.0}], [c],
                                  [{"pass": 0}])
        self.assertEqual(set(values), set(run.PER_LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
