"""Arithmetic of the end-to-end benchmark: sampling rules, reference
comparison and the metric ledger.

The campaign driver (driver.cc) prints raw JSON records; everything
that turns them into numbers lives here, so the rules can be tested
without building anything (test_ledger.py).

Sampling rules:
  * only whole passes count: campaigns of a pass that the deadline cut
    short are dropped (``whole_passes``);
  * timings come from the slower half of those passes
    (``slower_half``): on a shared host, outside load comes and goes,
    and the passes that ran while it paused are the fast outliers;
  * a percentile is reported only when at least ``MIN_BEYOND`` samples
    lie beyond it (``percentile``);
  * set-up (corpus or pool build plus the untimed warm-up) is reported
    as the median over the run's set-ups and never enters the timed
    window.
"""

import math
import statistics

MIN_BEYOND = 10


class LedgerError(Exception):
    """The records cannot support a metric (too few samples, no passes)."""


def whole_passes(campaigns, passes):
    """Campaign records that belong to a completed pass.

    ``passes`` are the driver's ``pass`` records, printed only when a
    pass ran every campaign of the list.
    """
    done = {p["pass"] for p in passes}
    return [c for c in campaigns if c["pass"] in done]


def slower_half(campaigns):
    """Campaigns of the slower half of the passes, by pass wall time.

    Every pass runs the same campaigns, so pass time tracks the host's
    speed at that moment. A shared host is mostly under outside load
    and runs up to ~2x faster while that load pauses; how often it
    pauses varies from run to run, so the median over all passes does
    too. The slower half is the loaded state every run samples. With an
    odd pass count the middle pass is kept.
    """
    totals = {}
    for c in campaigns:
        totals[c["pass"]] = totals.get(c["pass"], 0.0) + c["wall_ms"]
    ordered = sorted(totals, key=lambda p: (totals[p], p))
    keep = set(ordered[len(ordered) // 2:])
    return [c for c in campaigns if c["pass"] in keep]


def percentile(values, q):
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    Raises LedgerError unless at least MIN_BEYOND samples lie strictly
    after the chosen rank, i.e. the tail the percentile describes is
    itself sampled.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise LedgerError(
            "p%g needs %d samples beyond it, have %d of %d"
            % (q * 100, MIN_BEYOND, beyond, n))
    return ordered[rank - 1]


def references(setups, checked_in):
    """Reference outcome per campaign name, and the set-up mismatches.

    A campaign named in ``checked_in`` (the workload's reference file,
    a list of {"name", "outcome"} computed at one worker) takes that
    outcome as its reference, whatever the run's seed; any other
    campaign (a fleet campaign seed the file lacks) takes its outcome
    in the first set-up's warm-up. Every set-up's warm-up must then
    reproduce the references; ``mismatches`` counts the warm-up
    campaigns that do not.
    """
    if not setups:
        raise LedgerError("no set-up records")
    refs = {c["name"]: c["outcome"] for c in checked_in}
    for c in setups[0]["campaigns"].values():
        refs.setdefault(c["name"], c["outcome"])
    mismatches = sum(refs.get(c["name"]) != c["outcome"]
                     for setup in setups
                     for c in setup["campaigns"].values())
    return refs, mismatches


def count_ok(campaigns, refs):
    """Campaigns whose outcome equals the reference of their name, field
    by field (``steps`` included: every workload runs at one worker)."""
    return sum(refs.get(c["name"]) == c["outcome"] for c in campaigns)


def _sum(campaigns, key):
    return sum(c["counters"][key] for c in campaigns)


def _ratio(num, den):
    return num / den if den else 0.0


def pass_totals(campaigns, key):
    """Per-pass sums of ``key``, one value per pass present."""
    totals = {}
    for c in campaigns:
        totals[c["pass"]] = totals.get(c["pass"], 0.0) + c[key]
    return list(totals.values())


def end_to_end(setups, campaigns, end, ok):
    """The end-to-end metrics of one run (values only).

    ``campaigns`` are the whole-pass campaigns; ``ok`` of them matched
    their reference. Timings come from their slower half of passes;
    throughput and CPU are medians over those passes (every pass runs
    the same campaigns).
    """
    if not campaigns:
        raise LedgerError("no whole pass completed")
    timed = slower_half(campaigns)
    walls = [c["wall_ms"] for c in timed]
    per_pass = len(timed) / len({c["pass"] for c in timed})
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "campaign_ms_p50": statistics.median(walls),
        "campaign_ms_p90": percentile(walls, 0.9),
        "campaigns_per_s": per_pass / (
            statistics.median(pass_totals(timed, "wall_ms")) / 1e3),
        "cpu_ms_per_campaign": statistics.median(
            pass_totals(timed, "cpu_ms")) / per_pass,
        "peak_rss_mb": end["peak_rss_mb"],
        "ok_ratio": ok / len(campaigns),
    }


def tracing_overhead_pct(campaigns):
    """Traced vs untraced campaign time, matched by campaign name.

    Sums, over the campaign list, the median wall time of each
    campaign's traced and untraced runs, and reports the traced excess
    in percent (0 when one side is missing).
    """
    traced, untraced = {}, {}
    for c in campaigns:
        (traced if c["traced"] else untraced).setdefault(
            c["name"], []).append(c["wall_ms"])
    common = sorted(set(traced) & set(untraced))
    if not common:
        return 0.0
    t = sum(statistics.median(traced[i]) for i in common)
    u = sum(statistics.median(untraced[i]) for i in common)
    return (t / u - 1.0) * 100.0


def per_layer(kind, setups, campaigns, passes):
    """The per-layer metrics of one traced run (values only).

    Counts are per campaign over every whole-pass campaign; times
    measured inside the program come from the untraced campaigns, and
    span and probe times from the traced ones. A layer the workload
    bypasses reads 0.
    """
    if not campaigns:
        raise LedgerError("no whole pass completed")
    n = len(campaigns)
    plain = [c for c in campaigns if not c["traced"]] or campaigns
    traced = [c for c in campaigns if c["traced"]]

    def mean_of(records, section, key):
        vals = [r[section][key] for r in records
                if section in r and key in r[section]]
        return sum(vals) / len(vals) if vals else 0.0

    def outcome_mean(key):
        return sum(c["outcome"].get(key, 0) for c in campaigns) / n

    build_ms = statistics.median(s["build_ms"] for s in setups)
    steps = _sum(campaigns, "vm.steps")
    runs = _sum(campaigns, "vm.runs")
    plain_busy_us = _sum(plain, "vm.wall_micros")
    plain_runs = _sum(plain, "vm.runs")
    plain_wall_us = sum(c["wall_ms"] for c in plain) * 1e3
    exec_runs = _sum(campaigns, "exec.runs")
    discarded = _sum(campaigns, "exec.runs_discarded")
    diag = kind == "lbra"
    fleet = kind == "fleet"
    plain_wall_s = sum(c["wall_ms"] for c in plain) / 1e3

    return {
        "corpus.build_ms": 0.0 if fleet else build_ms,
        "fleet.capture_ms": build_ms if fleet else 0.0,
        "program.instrument_us": mean_of(traced, "probe", "instrument_us"),
        "program.fingerprint_us": mean_of(traced, "probe", "fingerprint_us"),
        "vm.steps": steps / n,
        "vm.runs": runs / n,
        "vm.busy_ms": plain_busy_us / 1e3 / len(plain),
        "vm.ns_per_step": _ratio(plain_busy_us * 1e3,
                                 _sum(plain, "vm.steps")),
        "vm.us_per_run": _ratio(plain_busy_us, plain_runs),
        "vm.outside_run_us_per_run": _ratio(plain_wall_us - plain_busy_us,
                                            plain_runs),
        "vm.super_hit_rate": _ratio(2 * _sum(campaigns, "vm.fused_pairs"),
                                    steps),
        "vm.mem_fast_rate": _ratio(_sum(campaigns, "vm.mem_fast_hits"),
                                   _sum(campaigns, "vm.mem_accesses")),
        "vm.decode_cache.hits": _sum(campaigns, "decode.hits") / n,
        "vm.decode_cache.misses": _sum(campaigns, "decode.misses") / n,
        "cache.lookups": _sum(campaigns, "vm.cache_lookups") / n,
        "cache.mru_hit_rate": _ratio(_sum(campaigns, "vm.cache_mru_hits"),
                                     _sum(campaigns, "vm.cache_lookups")),
        "exec.runs": exec_runs / n,
        "exec.runs_discarded": discarded / n,
        "exec.waste_ratio": _ratio(discarded, exec_runs),
        "exec.utilization": _ratio(_sum(campaigns, "exec.busy_micros"),
                                   _sum(campaigns, "exec.capacity_micros")),
        "diag.failure_attempts": outcome_mean("failure_attempts")
        if diag else 0.0,
        "diag.success_attempts": outcome_mean("success_attempts")
        if diag else 0.0,
        "diag.pin_search_ms": mean_of(traced, "spans", "pin_search_ms"),
        "diag.collect_ms": mean_of(traced, "spans", "collect_ms"),
        "diag.rank_ms": mean_of(traced, "spans", "rank_ms"),
        "fleet.reports": outcome_mean("merged_reports"),
        "fleet.frames_sent": outcome_mean("frames_sent"),
        "fleet.wal_bytes": outcome_mean("wal_bytes"),
        "fleet.snapshot_bytes": outcome_mean("snapshot_bytes"),
        "fleet.reports_per_s": _ratio(
            sum(c["outcome"].get("merged_reports", 0) for c in plain),
            plain_wall_s),
        "fleet.merge_ms": mean_of(traced, "probe", "merge_ms")
        if fleet else 0.0,
        "fleet.rank_ms": mean_of(traced, "probe", "rank_ms"),
        "fleet.drain_ms": mean_of(traced, "spans", "drain_ms"),
        "fleet.rescore_ms": mean_of(traced, "spans", "rescore_ms"),
        "trace.overhead_pct": tracing_overhead_pct(campaigns),
        "trace.dropped_events": sum(
            c.get("spans", {}).get("dropped_events", 0) for c in traced),
        "bench.campaigns": float(n),
        "bench.passes": float(len(passes)),
    }
