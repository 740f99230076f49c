/**
 * @file
 * Reproduces the diagnosis-latency comparison of Sections 7.2/7.3:
 * how many times a failure must occur before each tool identifies the
 * root cause.
 *
 *  - LBRA vs CBI on a sequential failure (cp): LBRA diagnoses from a
 *    handful of failure profiles; CBI's 1/100 sampling needs the
 *    failure hundreds-to-a-thousand times (the paper found CBI useless
 *    at 500 failing runs for 10/15 programs).
 *  - LCRA vs PBI and CCI on a concurrency failure (Mozilla-JS3):
 *    same story, which matters double for races that manifest rarely.
 *
 * The bench also measures wall-clock throughput of the run-execution
 * engine on a >= 1000-run CBI campaign, serial vs parallel, and emits
 * the numbers as machine-readable JSON (BENCH_latency.json) so future
 * changes have a perf trajectory to track.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "baseline/cbi.hh"
#include "baseline/cci.hh"
#include "baseline/pbi.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/run_pool.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

struct ThroughputSample
{
    unsigned jobs = 1;
    std::uint64_t runs = 0;
    double wallSec = 0.0;
    double runsPerSec = 0.0;
    double utilization = 0.0;
};

/** Time one 1000+1000-run CBI campaign at the given worker count. */
ThroughputSample
timeCbiCampaign(const BugSpec &bug, unsigned jobs)
{
    CbiOptions opts;
    opts.failureRuns = 1000;
    opts.successRuns = 1000;
    opts.jobs = jobs;
    resetExecStats();
    auto start = std::chrono::steady_clock::now();
    CbiResult r = runCbi(bug.program, bug.failing, bug.succeeding,
                         opts);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    ThroughputSample sample;
    sample.jobs = jobs;
    sample.runs = execStats().value("runs");
    sample.wallSec = elapsed.count();
    sample.runsPerSec = execRunsPerSecond();
    sample.utilization = execUtilization();
    if (!r.completed)
        std::cout << "  (campaign incomplete?!)\n";
    return sample;
}

void
printSample(const char *label, const ThroughputSample &s)
{
    std::cout << "  " << cell(label, 10) << s.runs << " runs in "
              << std::fixed << std::setprecision(3) << s.wallSec
              << " s  (" << std::setprecision(0) << s.runsPerSec
              << " runs/sec, " << s.jobs << " jobs, "
              << std::setprecision(0) << s.utilization * 100.0
              << "% utilization)\n"
              << std::defaultfloat << std::setprecision(6);
}

void
writeJson(const ThroughputSample &serial,
          const ThroughputSample &parallel, unsigned hw_cores,
          bool speedup_checked)
{
    std::ofstream os("BENCH_latency.json");
    double speedup = parallel.wallSec > 0.0
                         ? serial.wallSec / parallel.wallSec
                         : 0.0;
    os << std::fixed << std::setprecision(6);
    os << "{\n"
       << "  \"workload\": \"cbi-cp-1000+1000\",\n"
       << "  \"hardware_concurrency\": " << hw_cores << ",\n"
       << "  \"serial\": {\"jobs\": " << serial.jobs
       << ", \"runs\": " << serial.runs
       << ", \"wall_sec\": " << serial.wallSec
       << ", \"runs_per_sec\": " << serial.runsPerSec << "},\n"
       << "  \"parallel\": {\"jobs\": " << parallel.jobs
       << ", \"runs\": " << parallel.runs
       << ", \"wall_sec\": " << parallel.wallSec
       << ", \"runs_per_sec\": " << parallel.runsPerSec
       << ", \"utilization\": " << parallel.utilization << "},\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"speedup_checked\": "
       << (speedup_checked ? "true" : "false") << "\n"
       << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout << "Diagnosis latency: failing runs needed before the "
                 "root cause ranks first\n\n";

    // ---- sequential: LBRA vs CBI on cp -----------------------------------
    {
        BugSpec bug = corpus::bugById("cp");
        EventKey rootCause = EventKey::sourceBranch(
            bug.truth.rootCauseBranch, bug.truth.rootCauseOutcome);

        std::cout << "cp (sequential, semantic):\n";
        for (std::uint32_t n : {1u, 2u, 5u, 10u}) {
            AutoDiagOptions opts;
            opts.failureProfiles = n;
            opts.successProfiles = n;
            AutoDiagResult r =
                runLbra(bug.program, bug.failing, bug.succeeding,
                        opts);
            std::size_t rank =
                r.diagnosed ? r.positionOf(rootCause) : 0;
            std::cout << "  LBRA with " << cell(std::to_string(n), 5)
                      << "failure profiles: rank "
                      << position(static_cast<long>(rank)) << '\n';
        }
        for (std::uint32_t n : {10u, 100u, 500u, 1000u}) {
            CbiOptions opts;
            opts.failureRuns = n;
            opts.successRuns = n;
            CbiResult r =
                runCbi(bug.program, bug.failing, bug.succeeding,
                       opts);
            std::size_t rank =
                r.completed
                    ? r.positionOfBranch(bug.truth.rootCauseBranch)
                    : 0;
            std::cout << "  CBI with  " << cell(std::to_string(n), 5)
                      << "failing runs:     rank "
                      << position(static_cast<long>(rank)) << '\n';
        }
    }

    // ---- concurrency: LCRA vs PBI vs CCI on Mozilla-JS3 -----------------
    {
        BugSpec bug = corpus::bugById("mozilla-js3");
        EventKey fpe = EventKey::coherence(
            layout::codeAddr(bug.truth.fpeInstr), bug.truth.fpeState,
            bug.truth.fpeStore);

        std::cout << "\nMozilla-JS3 (concurrency, WWR atomicity "
                     "violation):\n";
        for (std::uint32_t n : {1u, 2u, 5u, 10u}) {
            AutoDiagOptions opts;
            opts.failureProfiles = n;
            opts.successProfiles = n;
            opts.absencePredicates = true;
            AutoDiagResult r =
                runLcra(bug.program, bug.failing, bug.succeeding,
                        opts);
            std::size_t rank =
                r.diagnosed ? r.positionOf(fpe) : 0;
            std::cout << "  LCRA with " << cell(std::to_string(n), 5)
                      << "failure profiles: rank "
                      << position(static_cast<long>(rank))
                      << "  (" << r.failureAttempts
                      << " runs attempted)\n";
        }
        for (std::uint32_t n : {10u, 100u, 500u, 1000u}) {
            PbiOptions opts;
            // Short simulated runs need a shortened overflow
            // period or the counter never fires; 8 keeps roughly one
            // jittered sample per run, like production-scale PBI.
            opts.period = 5;
            opts.failureRuns = n;
            opts.successRuns = n;
            PbiResult r =
                runPbi(bug.program, bug.failing, bug.succeeding,
                       opts);
            std::size_t rank =
                r.completed
                    ? r.positionOf(bug.truth.fpeInstr,
                                   bug.truth.fpeState,
                                   bug.truth.fpeStore)
                    : 0;
            std::cout << "  PBI with  " << cell(std::to_string(n), 5)
                      << "failing runs:     rank "
                      << position(static_cast<long>(rank)) << '\n';
        }
        for (std::uint32_t n : {10u, 100u, 500u, 1000u}) {
            CciOptions opts;
            opts.failureRuns = n;
            opts.successRuns = n;
            CciResult r =
                runCci(bug.program, bug.failing, bug.succeeding,
                       opts);
            std::size_t rank =
                r.completed
                    ? r.positionOf(bug.truth.fpeInstr, true)
                    : 0;
            std::cout << "  CCI with  " << cell(std::to_string(n), 5)
                      << "failing runs:     rank "
                      << position(static_cast<long>(rank)) << '\n';
        }
    }
    std::cout << "\n(paper: LBRA/LCRA use 10 failure profiles; CBI "
                 "needs ~1000 failing runs and fails at 500 for 10 "
                 "of 15 programs; PBI/CCI need hundreds to "
                 "thousands)\n";

    // ---- execution-engine throughput: serial vs parallel ----------------
    {
        BugSpec bug = corpus::bugById("cp");
        unsigned jobs = defaultJobs();
        unsigned hwCores = std::thread::hardware_concurrency();
        std::cout << "\nRun-execution throughput (CBI 1000+1000 on "
                     "cp):\n";
        ThroughputSample serial = timeCbiCampaign(bug, 1);
        printSample("serial", serial);
        ThroughputSample parallel = timeCbiCampaign(bug, jobs);
        printSample("parallel", parallel);
        double speedup = parallel.wallSec > 0.0
                             ? serial.wallSec / parallel.wallSec
                             : 0.0;
        std::cout << "  speedup   " << std::fixed
                  << std::setprecision(2) << speedup << "x at "
                  << jobs << " jobs (" << hwCores
                  << " hardware cores)\n"
                  << std::defaultfloat << std::setprecision(6);
        // A parallel run that is not faster than serial is only a
        // regression when there are cores to spend: with one core (or
        // one job) the pool degenerates to the serial loop and the
        // delta is pure noise.
        bool checkSpeedup = hwCores >= 2 && jobs >= 2;
        writeJson(serial, parallel, hwCores, checkSpeedup);
        std::cout << "  (written to BENCH_latency.json)\n";
        if (checkSpeedup && speedup < 1.0) {
            std::cout << "FAIL: parallel (" << jobs
                      << " jobs) slower than serial on " << hwCores
                      << " cores (speedup " << std::fixed
                      << std::setprecision(2) << speedup << "x)\n";
            return 1;
        }
        if (!checkSpeedup) {
            std::cout << "  speedup assertion skipped ("
                      << (hwCores < 2 ? "single hardware core"
                                      : "jobs <= 1")
                      << ")\n";
        }
    }
    return 0;
}
