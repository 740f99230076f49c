#!/usr/bin/env python3
"""End-to-end campaign benchmark: build, run one workload, report.

Run from the repository root:

    python3 e2ebench/run.py --workload lbra-seq --seed 1 --seconds 50 --trace 0

Builds the campaign driver (e2ebench/CMakeLists.txt, which compiles the
program from ../src) into .bench_build/e2ebench, runs one workload in
one process, checks every campaign's outcome against its reference,
and prints as the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ledger. The line before it records host and configuration.

    python3 e2ebench/run.py --workload NAME --write-reference

regenerates the checked-in reference outcomes (e2ebench/reference/
NAME.json) from the default seed's warm-up, computed at one worker.
Every run checks against them, whatever its seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-work")
DRIVER = os.path.join(BUILD_DIR, "e2e_driver")
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170

WORKLOADS = ("lbra-seq", "fleet-durable")

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_ms_p50": "ms",
    "campaign_ms_p90": "ms",
    "campaigns_per_s": "1/s",
    "cpu_ms_per_campaign": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "corpus.build_ms": "ms",
    "fleet.capture_ms": "ms",
    "program.instrument_us": "us",
    "program.fingerprint_us": "us",
    "vm.steps": "count",
    "vm.runs": "count",
    "vm.busy_ms": "ms",
    "vm.ns_per_step": "ns",
    "vm.us_per_run": "us",
    "vm.outside_run_us_per_run": "us",
    "vm.super_hit_rate": "ratio",
    "vm.mem_fast_rate": "ratio",
    "vm.decode_cache.hits": "count",
    "vm.decode_cache.misses": "count",
    "cache.lookups": "count",
    "cache.mru_hit_rate": "ratio",
    "exec.runs": "count",
    "exec.runs_discarded": "count",
    "exec.waste_ratio": "ratio",
    "exec.utilization": "ratio",
    "diag.failure_attempts": "count",
    "diag.success_attempts": "count",
    "diag.pin_search_ms": "ms",
    "diag.collect_ms": "ms",
    "diag.rank_ms": "ms",
    "fleet.reports": "count",
    "fleet.frames_sent": "count",
    "fleet.wal_bytes": "bytes",
    "fleet.snapshot_bytes": "bytes",
    "fleet.reports_per_s": "1/s",
    "fleet.merge_ms": "ms",
    "fleet.rank_ms": "ms",
    "fleet.drain_ms": "ms",
    "fleet.rescore_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.dropped_events": "count",
    "bench.campaigns": "count",
    "bench.passes": "count",
}


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to e2ebench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator +
                     ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_driver(args, warmup_only=False):
    """Run the driver; return its parsed JSON records."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    if warmup_only:
        cmd.append("--warmup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def by_kind(records, kind):
    return [r for r in records if r["kind"] == kind]


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def check_outcomes(workload, setups, campaigns):
    """Compare a run's outcomes with the workload's reference file.

    The file is the reference under every seed: the LBRA campaigns are
    the same at every seed, so each is checked against it; a fleet
    campaign seed the file lacks is checked against the run's first
    warm-up. Returns (campaigns ok, set-up mismatches, campaign names
    the file covers).
    """
    with open(reference_path(workload)) as f:
        checked_in = json.load(f)["campaigns"]
    refs, mismatches = ledger.references(setups, checked_in)
    names = {c["name"] for c in setups[0]["campaigns"].values()}
    covered = len(names & {c["name"] for c in checked_in})
    return ledger.count_ok(campaigns, refs), mismatches, covered


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_reference(args):
    args.seed = DEFAULT_SEED
    records = run_driver(args, warmup_only=True)
    warm = by_kind(records, "setup")[0]["campaigns"].values()
    refs = sorted(warm, key=lambda c: c["name"])
    with open(reference_path(args.workload), "w") as f:
        json.dump({"workload": args.workload, "seed": DEFAULT_SEED,
                   "jobs": 1, "campaigns": refs}, f, indent=1)
        f.write("\n")
    print("wrote %d reference outcomes to %s"
          % (len(refs), reference_path(args.workload)))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if args.seed < 1:
        p.error("--seed must be at least 1")

    build()
    if args.write_reference:
        write_reference(args)
        return

    records = run_driver(args)
    config = by_kind(records, "config")[0]
    setup_recs = by_kind(records, "setup")
    passes = by_kind(records, "pass")
    end = by_kind(records, "end")[0]
    campaigns = ledger.whole_passes(by_kind(records, "campaign"), passes)

    try:
        ok, setup_mismatches, covered = check_outcomes(
            args.workload, setup_recs, campaigns)
        if args.trace:
            values = ledger.per_layer(config["campaign"], setup_recs,
                                      campaigns, passes)
            units = PER_LAYER_UNITS
        else:
            values = ledger.end_to_end(setup_recs, campaigns, end, ok)
            units = END_TO_END_UNITS
    except ledger.LedgerError as e:
        fail(str(e))

    host = dict(config)
    del host["kind"]
    host.update({
        "git_sha": git_sha(),
        "setups": len(setup_recs),
        "reference_file_campaigns": covered,
        "setup_mismatches": setup_mismatches,
        "campaigns_per_pass": len(setup_recs[0]["campaigns"]),
        "whole_passes": len(passes),
        "p90_samples": len(ledger.slower_half(campaigns)),
    })
    print(json.dumps({"host": host}))
    result = {
        "correct": ok == len(campaigns) and setup_mismatches == 0,
        "attempted": len(campaigns),
        "failed": len(campaigns) - ok,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
