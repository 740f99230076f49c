/**
 * @file
 * Checkpoint/replay benchmark: O(√T) seeks and campaign re-profiling.
 *
 * Two measurements:
 *
 *  1. Seek latency. A deterministic T-step run is re-entered at a
 *     random step N two ways: a scratch boot interpreting N steps
 *     (O(T) expected over uniform N), and a SnapshotStore seek
 *     resuming from the nearest √T-spaced checkpoint (O(√T)). The
 *     sweep scales T by decades and reports the median of both
 *     latencies plus the one-time timeline-recording overhead — the
 *     classic time-travel-debugging tradeoff, quantified on this VM.
 *
 *  2. Campaign replay cost. The verify-mode run cache re-executes
 *     every cache hit to prove bit-identity — O(T) per hit from
 *     scratch, O(√T) when the hit resumes from the newest recorded
 *     checkpoint. An LBRA campaign mix is populated into a verify
 *     cache and re-traversed both ways; the same harness also times
 *     the checkpointed reactive re-profile (scratch harvest vs
 *     checkpoint harvest of the pinning seed's post-pin profile).
 *
 * Output: a table on stdout plus BENCH_snapshot.json (--out FILE).
 * For CI perf smoke, --check-floor N exits non-zero when the seek
 * speedup at the largest T drops below N.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/snapshot_store.hh"
#include "program/builder.hh"
#include "program/fingerprint.hh"
#include "support/random.hh"
#include "table_util.hh"
#include "vm/machine.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A compute loop whose step count scales linearly with @p iters. */
ProgramPtr
spinProgram(std::uint64_t iters)
{
    using namespace regs;
    ProgramBuilder b("spin");
    b.global("acc", 1, {1}, false);
    b.func("main");
    b.movi(r1, 0);
    b.movi(r2, static_cast<Word>(iters));
    b.loadg(r3, "acc");
    b.beginWhile(Cond::Lt, r1, r2);
    {
        b.movi(r4, 6364136223846793005ULL);
        b.mul(r3, r3, r4);
        b.addi(r3, r3, 1442695040888963407LL);
        b.addi(r1, r1, 1);
    }
    b.endWhile();
    b.storeg("acc", 0, r3, r5);
    b.out(r3);
    b.halt();
    return b.build();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

struct SweepRow
{
    std::uint64_t steps = 0;     //!< T: total steps of the run
    std::uint64_t interval = 0;  //!< checkpoint spacing (√T)
    std::size_t checkpoints = 0; //!< timeline length after recording
    double recordOverhead = 0;   //!< recording run / plain run - 1
    double scratchMs = 0;        //!< median scratch seek
    double ckptMs = 0;           //!< median checkpointed seek
    double speedup = 0;          //!< scratchMs / ckptMs
};

/** Measure one T: record a timeline, then race the two seek paths. */
SweepRow
measureSweepPoint(std::uint64_t iters, Pcg32 &rng)
{
    ProgramPtr prog = spinProgram(iters);
    MachineOptions opts;
    opts.sched.seed = 42;

    Machine plain(prog, opts);
    double t0 = now();
    plain.run();
    double plainSec = now() - t0;
    std::uint64_t total = plain.steps();
    opts.maxSteps = total + 1000;

    SweepRow row;
    row.steps = total;

    SnapshotStore store; // default budget, √T spacing
    row.interval =
        store.intervalFor(opts.maxSteps, opts.sched.quantum);
    RunKey key{fingerprintProgram(*prog, Instrumentation{}),
               fingerprintMachineOptions(opts), opts.sched.seed};

    Machine recorder(prog, opts);
    store.arm(recorder, key);
    t0 = now();
    recorder.run();
    double recordSec = now() - t0;
    row.checkpoints = store.timelineLength(key);
    row.recordOverhead =
        plainSec > 0 ? recordSec / plainSec - 1.0 : 0.0;

    // The same uniform seek targets for both paths.
    constexpr int kSeeks = 15;
    std::vector<std::uint64_t> targets;
    for (int i = 0; i < kSeeks; ++i)
        targets.push_back(
            1 + rng.nextBounded(static_cast<std::uint32_t>(total - 1)));

    std::vector<double> scratchMs, ckptMs;
    for (std::uint64_t target : targets) {
        t0 = now();
        Machine machine(prog, opts);
        if (!machine.runToStep(target))
            std::abort();
        scratchMs.push_back((now() - t0) * 1e3);
    }
    for (std::uint64_t target : targets) {
        t0 = now();
        if (!store.replayToStep(prog, nullptr, key, opts, target))
            std::abort();
        ckptMs.push_back((now() - t0) * 1e3);
    }
    row.scratchMs = median(scratchMs);
    row.ckptMs = median(ckptMs);
    row.speedup = row.ckptMs > 0 ? row.scratchMs / row.ckptMs : 0.0;
    return row;
}

/** One timed traversal of the LBRA campaign mix. */
double
runCampaignMix()
{
    double t0 = now();
    for (const char *id : {"cp", "sort", "tac"}) {
        BugSpec bug = corpus::bugById(id);
        AutoDiagResult result =
            runLbra(bug.program, bug.failing, bug.succeeding);
        if (!result.diagnosed)
            std::abort();
    }
    return now() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "BENCH_snapshot.json";
    double floor = 0.0;
    parseFlags(argc, argv,
               {textFlag("--out", &outPath, "FILE",
                         "JSON report (default BENCH_snapshot.json)"),
                numberFlag("--check-floor",
                           "exit 1 when the seek speedup is below N",
                           0, UINT64_MAX, [&floor](std::uint64_t n) {
                               floor = static_cast<double>(n);
                           })});

    std::cout << "Checkpointed O(√T) seek vs scratch replay\n\n"
              << "  " << cell("T (steps)", 12) << cell("interval", 10)
              << cell("ckpts", 7) << cell("rec ovh", 9)
              << cell("scratch", 11) << cell("ckpt seek", 11)
              << "speedup\n";

    Pcg32 rng(0x5eed);
    std::vector<SweepRow> sweep;
    for (std::uint64_t iters : {2500ull, 25000ull, 250000ull}) {
        SweepRow row = measureSweepPoint(iters, rng);
        sweep.push_back(row);
        std::ostringstream ovh, sms, cms, spd;
        ovh << std::fixed << std::setprecision(1)
            << row.recordOverhead * 100 << "%";
        sms << std::fixed << std::setprecision(3) << row.scratchMs
            << " ms";
        cms << std::fixed << std::setprecision(3) << row.ckptMs
            << " ms";
        spd << std::fixed << std::setprecision(1) << row.speedup
            << "x";
        std::cout << "  " << cell(std::to_string(row.steps), 12)
                  << cell(std::to_string(row.interval), 10)
                  << cell(std::to_string(row.checkpoints), 7)
                  << cell(ovh.str(), 9) << cell(sms.str(), 11)
                  << cell(cms.str(), 11) << spd.str() << "\n";
    }
    double finalSpeedup = sweep.back().speedup;

    // Verify-mode replays: populate the cache once, then time the
    // all-hit traversal whose every hit is re-executed and compared.
    std::cout << "\nLBRA campaign (cp+sort+tac), verify-mode replays\n";
    configureRunCache(RunCacheMode::Verify);
    configureSnapshotStore(false);
    double populateOffSec = runCampaignMix();
    double verifyScratchSec = runCampaignMix();

    configureRunCache(RunCacheMode::Verify); // fresh cache
    configureSnapshotStore(true);
    double populateOnSec = runCampaignMix();
    double verifyCkptSec = runCampaignMix();
    double recordOverhead = populateOffSec > 0
                                ? populateOnSec / populateOffSec - 1.0
                                : 0.0;
    double verifySpeedup =
        verifyCkptSec > 0 ? verifyScratchSec / verifyCkptSec : 0.0;
    std::cout << "  " << cell("populate (no ckpts)", 24) << std::fixed
              << std::setprecision(3) << populateOffSec << " s\n"
              << "  " << cell("verify from scratch", 24)
              << verifyScratchSec << " s\n"
              << "  " << cell("populate + record", 24) << populateOnSec
              << " s  (" << std::setprecision(0)
              << recordOverhead * 100 << "% record overhead)\n"
              << "  " << cell("verify from checkpoints", 24)
              << std::setprecision(3) << verifyCkptSec << " s\n"
              << "  verify speedup: " << std::setprecision(2)
              << verifySpeedup << "x\n";

    std::ofstream os(outPath);
    os << std::fixed << std::setprecision(6);
    os << "{\n  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepRow &row = sweep[i];
        os << "    {\"steps\": " << row.steps
           << ", \"interval\": " << row.interval
           << ", \"checkpoints\": " << row.checkpoints
           << ", \"record_overhead\": " << row.recordOverhead
           << ", \"scratch_seek_ms\": " << row.scratchMs
           << ", \"ckpt_seek_ms\": " << row.ckptMs
           << ", \"speedup\": " << row.speedup << "}"
           << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"seek_speedup_at_max_t\": " << finalSpeedup << ",\n"
       << "  \"campaign\": {\n"
       << "    \"populate_sec\": " << populateOffSec << ",\n"
       << "    \"populate_record_sec\": " << populateOnSec << ",\n"
       << "    \"record_overhead\": " << recordOverhead << ",\n"
       << "    \"verify_scratch_sec\": " << verifyScratchSec << ",\n"
       << "    \"verify_ckpt_sec\": " << verifyCkptSec << ",\n"
       << "    \"verify_speedup\": " << verifySpeedup << "\n"
       << "  }\n}\n";
    std::cout << "  (written to " << outPath << ")\n";

    if (floor > 0.0) {
        std::cout << "  floor check: seek speedup at T="
                  << sweep.back().steps << " is " << std::fixed
                  << std::setprecision(1) << finalSpeedup
                  << "x (fail below " << floor << "x)\n";
        if (finalSpeedup < floor) {
            std::cerr << "FAIL: checkpointed seek speedup below the "
                         "required floor\n";
            return 1;
        }
    }
    return 0;
}
