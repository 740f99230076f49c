/**
 * @file
 * Campaign driver of the end-to-end benchmark (see README.md).
 *
 * Runs one workload's diagnosis campaigns closed-loop from one
 * process — one campaign in flight — through the public campaign
 * entry points (runLbra, fleet::runDurableCampaign),
 * and prints one JSON record per line: the configuration, each
 * set-up, the reference outcome of every campaign, every timed
 * campaign with its layer-counter deltas, and every completed pass.
 * run.py turns the records into metrics; this file does no
 * statistics.
 *
 * Usage:
 *   e2e_driver --workload NAME --seed N --seconds S [--trace 0|1]
 *              [--workdir DIR] [--warmup-only]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "exec/snapshot_store.hh"
#include "fleet/durable/campaign.hh"
#include "obs/trace.hh"
#include "obs/trace_io.hh"
#include "program/cfg.hh"
#include "program/fingerprint.hh"
#include "support/checksum.hh"
#include "vm/decode_cache.hh"
#include "vm/vm_stats.hh"

using namespace stm;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

/** Process user+sys CPU time, all threads, in milliseconds. */
double
cpuMs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

/** splitmix64: the driver's only seed derivation. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

/** One flat JSON object, written field by field in insertion order. */
class Record
{
  public:
    Record &
    add(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Record &
    add(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Record &
    add(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    Record &
    add(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + jsonEscape(v) + "\"");
    }
    Record &
    add(const std::string &key, const char *v)
    {
        return add(key, std::string(v));
    }
    Record &
    add(const std::string &key, const Record &v)
    {
        return raw(key, v.str());
    }
    Record &
    raw(const std::string &key, const std::string &json)
    {
        body_ += body_.empty() ? "" : ", ";
        body_ += "\"" + jsonEscape(key) + "\": " + json;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }
    void print() const { std::cout << str() << '\n'; }

  private:
    std::string body_;
};

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Running FNV-1a digest over plain values. */
class Digest
{
  public:
    template <typename T>
    Digest &
    put(const T &v)
    {
        std::uint8_t bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        h_ = fnv1a(bytes, sizeof(T), h_);
        return *this;
    }
    Digest &
    bytes(const std::vector<std::uint8_t> &data)
    {
        h_ = fnv1a(data.data(), data.size(), h_);
        return *this;
    }
    std::string str() const { return hex(h_); }

  private:
    std::uint64_t h_ = kFnv1aBasis;
};

std::string
rankingDigest(const std::vector<RankedEvent> &ranking)
{
    Digest d;
    for (const RankedEvent &r : ranking) {
        d.put(static_cast<std::uint8_t>(r.event.type))
            .put(r.event.a)
            .put(r.event.b)
            .put(r.absence)
            .put(r.failureRuns)
            .put(r.successRuns)
            .put(r.score);
    }
    return d.str();
}

// ---- layer counters ------------------------------------------------------

/** Every public layer counter the driver reads around a campaign. */
struct Counters
{
    std::map<std::string, std::uint64_t> v;

    static Counters
    read()
    {
        Counters c;
        const StatGroup &vm = vmStats();
        for (const char *k :
             {"runs", "steps", "wall_micros", "mem_accesses",
              "mem_fast_hits", "cache_lookups", "cache_mru_hits",
              "fused_pairs"}) {
            c.v[std::string("vm.") + k] = vm.value(k);
        }
        const StatGroup &ex = execStats();
        for (const char *k : {"runs", "runs_discarded", "busy_micros",
                              "capacity_micros"}) {
            c.v[std::string("exec.") + k] = ex.value(k);
        }
        StatGroup dc = globalDecodeCache().statsSnapshot();
        c.v["decode.hits"] = dc.value("hits");
        c.v["decode.misses"] = dc.value("misses");
        return c;
    }

    Record
    minus(const Counters &before) const
    {
        Record r;
        for (const auto &[k, value] : v)
            r.add(k, value - before.v.at(k));
        return r;
    }

    std::uint64_t
    delta(const Counters &before, const std::string &k) const
    {
        return v.at(k) - before.v.at(k);
    }
};

// ---- obs spans -------------------------------------------------------------

/**
 * Total duration (ms) of the Diag and Fleet spans over one campaign's
 * trace, plus the number of events lost to ring overwrite.
 */
Record
spanTotals(const std::vector<obs::TraceEvent> &events,
           std::uint64_t recorded)
{
    std::map<obs::TraceId, double> totalMs;
    for (const obs::TraceIdStats &st : obs::summarizeTrace(events))
        totalMs[st.id] = static_cast<double>(st.totalNanos) / 1e6;
    auto ms = [&](obs::TraceId id) {
        auto it = totalMs.find(id);
        return it == totalMs.end() ? 0.0 : it->second;
    };
    Record r;
    r.add("pin_search_ms", ms(obs::TraceId::DiagPinSearch));
    r.add("collect_ms", ms(obs::TraceId::DiagFailureCollect) +
                            ms(obs::TraceId::DiagSuccessCollect));
    r.add("rank_ms", ms(obs::TraceId::DiagRank));
    r.add("drain_ms", ms(obs::TraceId::FleetDrain));
    r.add("rescore_ms", ms(obs::TraceId::FleetRescore));
    r.add("dropped_events",
          recorded > events.size() ? recorded - events.size()
                                   : std::uint64_t{0});
    return r;
}

// ---- workloads -------------------------------------------------------------

enum class Kind { Lbra, Fleet };

struct WorkloadSpec
{
    const char *name;
    Kind kind;
    const char *campaign; //!< the kind, as run.py names it
    unsigned jobs;        //!< worker threads in the timed loop
    unsigned setups;      //!< set-ups per run (setup_s is their median)
};

// Set-ups per run follow their cost: lbra-seq's takes ~0.15 s,
// fleet-durable's ~1.2 s.
constexpr WorkloadSpec kWorkloads[] = {
    {"lbra-seq", Kind::Lbra, "lbra", 1, 7},
    {"fleet-durable", Kind::Fleet, "fleet", 1, 3},
};

/**
 * Least campaigns in the whole passes of a run: run.py times the
 * slower half of the passes, whose nearest-rank p90 then has 10
 * samples beyond it.
 */
constexpr std::size_t kMinCampaigns = 200;

/** Campaign seeds in the fixed fleet cycle (one pass). */
constexpr std::size_t kFleetCycle = 8;

/** The inputs of one workload, built from the benchmark seed. */
class CampaignSet
{
  public:
    CampaignSet(const WorkloadSpec &spec, std::uint64_t seed,
                std::string workdir)
        : spec_(spec), seed_(seed), workdir_(std::move(workdir))
    {
    }

    /**
     * Build the campaign inputs: the corpus programs (VM workloads)
     * or the capture pools (fleet). Returns the elapsed ms.
     */
    double
    build()
    {
        auto t0 = Clock::now();
        bugs_.clear();
        switch (spec_.kind) {
          case Kind::Lbra:
            bugs_ = corpus::sequentialBugs();
            break;
          case Kind::Fleet: {
            fleet::FleetOptions opts;
            opts.jobs = 1;
            pools_ = fleet::buildCampaignPools(corpus::bugById("cp"),
                                               opts);
            if (!pools_.valid) {
                std::cerr << "e2e_driver: could not build fleet pools\n";
                std::exit(1);
            }
            fleetSeeds_.clear();
            for (std::size_t k = 0; k < kFleetCycle; ++k)
                fleetSeeds_.push_back(mix64(seed_ * kFleetCycle + k));
            break;
          }
        }
        // The benchmark seed fixes the campaign order of a pass. The
        // LBRA campaigns keep the corpus's own scheduler seeds (the
        // Table 6 runs): those seeds set how many attempts a
        // campaign needs, so moving them would change the work, not
        // just its order.
        std::uint64_t state = seed_;
        for (std::size_t i = bugs_.size(); i > 1; --i) {
            state = mix64(state);
            std::swap(bugs_[i - 1], bugs_[state % i]);
        }
        return msSince(t0, Clock::now());
    }

    std::size_t
    size() const
    {
        return spec_.kind == Kind::Fleet ? fleetSeeds_.size()
                                         : bugs_.size();
    }

    std::string
    name(std::size_t i) const
    {
        if (spec_.kind == Kind::Fleet)
            return "seed-" + hex(fleetSeeds_[i]);
        return bugs_[i].id;
    }

    /** Fresh per-campaign directory (fleet only), made untimed. */
    std::string
    prepare(std::size_t i) const
    {
        if (spec_.kind != Kind::Fleet)
            return {};
        std::string dir = workdir_ + "/campaign-" + std::to_string(i);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir;
    }

    /** Run campaign @p i with @p jobs workers; returns its outcome. */
    Record
    run(std::size_t i, unsigned jobs, const std::string &dir) const
    {
        switch (spec_.kind) {
          case Kind::Lbra:
            return runLbraCampaign(bugs_[i], jobs);
          case Kind::Fleet:
            return runFleet(i, dir);
        }
        return {};
    }

    /**
     * Untimed layer probes after campaign @p i: re-time the public
     * transform-overlay and fingerprint calls the campaign makes, and
     * (fleet) the coordinator merge of its directory and the ranking
     * of the merged snapshot.
     */
    Record
    probe(std::size_t i, const std::string &dir) const
    {
        Record r;
        if (spec_.kind == Kind::Fleet) {
            auto t0 = Clock::now();
            fleet::MergeResult merged = fleet::mergeSnapshotDir(dir);
            auto t1 = Clock::now();
            std::vector<RankedEvent> ranking =
                merged.merged.rank(pools_.goldenAbsence);
            r.add("merge_ms", msSince(t0, t1));
            r.add("rank_ms", msSince(t1, Clock::now()));
            r.add("ranked", static_cast<std::uint64_t>(ranking.size()));
            return r;
        }
        const BugSpec &bug = bugs_[i];
        const Program &prog = *bug.program;
        Instrumentation plan;
        auto t0 = Clock::now();
        transform::LbrLogPlan logPlan;
        logPlan.lbrSelectMask = LogEnhanceOptions{}.lbrSelect;
        transform::applyLbrLog(prog, plan, logPlan);
        // The campaign covers the site it pinned; one site's walk
        // costs the same, so the probe covers log site 0.
        Cfg cfg(prog);
        LogSiteId site = prog.logSites.empty() ? kSegfaultSite : 0;
        transform::applySuccessSites(
            prog, plan, cfg, /*lbr=*/true,
            transform::SuccessSiteScheme::Reactive, site, std::uint32_t{0});
        auto t1 = Clock::now();
        std::uint64_t fp = combineFingerprints(
            fingerprintProgramBase(prog),
            fingerprintInstrumentation(plan));
        auto t2 = Clock::now();
        r.add("instrument_us", msSince(t0, t1) * 1e3);
        r.add("fingerprint_us", msSince(t1, t2) * 1e3);
        r.add("fingerprint", hex(fp));
        return r;
    }

  private:
    Record
    runLbraCampaign(const BugSpec &bug, unsigned jobs) const
    {
        AutoDiagOptions opts;
        opts.jobs = jobs;
        AutoDiagResult res =
            runLbra(bug.program, bug.failing, bug.succeeding, opts);
        std::size_t rank = 0;
        if (bug.truth.rootCauseBranch != kNoSourceBranch) {
            rank = res.positionOf(EventKey::sourceBranch(
                bug.truth.rootCauseBranch, bug.truth.rootCauseOutcome));
        }
        if (rank == 0 && bug.truth.relatedBranch != kNoSourceBranch) {
            rank = res.positionOf(EventKey::sourceBranch(
                bug.truth.relatedBranch, bug.truth.relatedOutcome));
        }
        Record r;
        r.add("diagnosed", res.diagnosed)
            .add("site", static_cast<std::uint64_t>(res.site))
            .add("failure_attempts", res.failureAttempts)
            .add("failure_runs_used", res.failureRunsUsed)
            .add("success_attempts", res.successAttempts)
            .add("success_runs_used", res.successRunsUsed)
            .add("truth_rank", static_cast<std::uint64_t>(rank))
            .add("ranked", static_cast<std::uint64_t>(res.ranking.size()))
            .add("ranking", rankingDigest(res.ranking));
        return r;
    }

    Record
    runFleet(std::size_t i, const std::string &dir) const
    {
        fleet::CampaignOptions opts;
        opts.machines = 1000000;
        opts.collectors = 2;
        opts.dir = dir;
        opts.scheme = transform::SuccessSiteScheme::Proactive;
        opts.failureProbability = 1e-3;
        opts.successSampleEvery = 100;
        opts.seed = fleetSeeds_[i];
        fleet::CampaignResult res =
            fleet::runDurableCampaign(pools_, opts);
        Record r;
        r.add("diagnosed", res.diagnosed)
            .add("rounds", static_cast<std::uint64_t>(res.rounds))
            .add("pin_round", static_cast<std::uint64_t>(res.pinRound))
            .add("failure_reports", res.failureReports)
            .add("success_reports", res.successReports)
            .add("merged_reports", res.mergedReports)
            .add("frames_sent", res.framesSent)
            .add("duplicates", res.duplicates)
            .add("wal_bytes", res.walBytes)
            .add("snapshot_bytes", res.snapshotBytes)
            .add("ranking", rankingDigest(res.ranking));
        return r;
    }

    WorkloadSpec spec_;
    std::uint64_t seed_;
    std::string workdir_;
    std::vector<BugSpec> bugs_;
    fleet::CampaignPools pools_;
    std::vector<std::uint64_t> fleetSeeds_;
};

/** Digest of the merged snapshot a fleet campaign left in @p dir. */
std::string
mergedSnapshotDigest(const std::string &dir)
{
    return Digest()
        .bytes(fleet::mergeSnapshotDir(dir).merged.serialize())
        .str();
}

/**
 * One campaign with its bookkeeping: counters, CPU and wall time
 * around the call, then (untimed) the fleet snapshot digest. vm.steps
 * joins the outcome: the steps the campaign executed are part of its
 * reference. The caller removes the fleet directory.
 */
struct CampaignRun
{
    Record outcome;
    Record counters;
    double wallMs = 0;
    double cpuMs = 0;
    std::string dir;
};

CampaignRun
runOne(const CampaignSet &w, std::size_t i, unsigned jobs)
{
    CampaignRun out;
    out.dir = w.prepare(i);
    Counters before = Counters::read();
    double cpu0 = cpuMs();
    auto t0 = Clock::now();
    out.outcome = w.run(i, jobs, out.dir);
    auto t1 = Clock::now();
    out.cpuMs = cpuMs() - cpu0;
    Counters after = Counters::read();
    out.wallMs = msSince(t0, t1);
    out.counters = after.minus(before);
    out.outcome.add("steps", after.delta(before, "vm.steps"));
    if (!out.dir.empty())
        out.outcome.add("snapshot", mergedSnapshotDigest(out.dir));
    return out;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".bench_build/e2ebench-work";
    bool warmupOnly = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "e2e_driver: " << msg
              << "\nusage: e2e_driver --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--workdir DIR] "
                 "[--warmup-only]\n";
    std::exit(2);
}

std::uint64_t
parseUint(const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end)
        usage("invalid numeric option value");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--warmup-only") {
            a.warmupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUint(v);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseUint(v));
        else if (flag == "--trace")
            a.trace = parseUint(v) != 0;
        else if (flag == "--workdir")
            a.workdir = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    return a;
}

/** Names of STM_* variables in the environment (they must not matter). */
std::string
stmEnvironment()
{
    std::string names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "STM_", 4) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        std::string name(*e, eq ? eq - *e : std::strlen(*e));
        names += (names.empty() ? "" : ",") + name;
    }
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : kWorkloads) {
        if (args.workload == s.name)
            spec = &s;
    }
    if (!spec)
        usage(("unknown workload '" + args.workload + "'").c_str());

    // Pin every process-wide knob a STM_* variable could otherwise
    // set: no run cache, no snapshot store, a default-sized decode
    // cache. Worker counts come from the campaign options.
    configureRunCache(RunCacheMode::Off);
    configureSnapshotStore(false);
    // One campaign's events must fit the (main-thread) ring.
    obs::setTraceCapacity(std::size_t{1} << 21);

    Record config;
    config.add("kind", "config")
        .add("workload", spec->name)
        .add("campaign", spec->campaign)
        .add("seed", args.seed)
        .add("jobs", static_cast<std::uint64_t>(spec->jobs))
        .add("run_cache", "off")
        .add("snapshot_store", "off")
        .add("decode_cache_mb",
             static_cast<std::uint64_t>(
                 DecodeCache::Options{}.maxBytes >> 20))
        .add("threaded_dispatch", STM_THREADED_DISPATCH != 0)
        .add("build_type", E2E_BUILD_TYPE)
        .add("compiler", E2E_COMPILER)
        .add("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
        .add("obs_spans", args.trace)
        .add("stm_env", stmEnvironment());
    config.print();

    // ---- set-up, several times: cold decode cache, build, warm-up --------
    CampaignSet workload(*spec, args.seed, args.workdir);
    const unsigned setups = args.warmupOnly ? 1 : spec->setups;
    for (unsigned s = 0; s < setups; ++s) {
        auto t0 = Clock::now();
        configureDecodeCache();
        double buildMs = workload.build();
        Record refs;
        for (std::size_t i = 0; i < workload.size(); ++i) {
            CampaignRun warm = runOne(workload, i, 1);
            if (!warm.dir.empty())
                std::filesystem::remove_all(warm.dir);
            Record ref;
            ref.add("name", workload.name(i)).add("outcome", warm.outcome);
            refs.add(std::to_string(i), ref);
        }
        double setupS = msSince(t0, Clock::now()) / 1e3;
        StatGroup dc = globalDecodeCache().statsSnapshot();
        Record rec;
        rec.add("kind", "setup")
            .add("setup_s", setupS)
            .add("build_ms", buildMs)
            .add("decode_misses", dc.value("misses"))
            .add("campaigns", refs);
        rec.print();
    }
    std::cout.flush();
    if (args.warmupOnly) {
        std::filesystem::remove_all(args.workdir);
        return 0;
    }

    // ---- timed loop: whole round-robin passes until the deadline --------
    const std::size_t n = workload.size();
    const auto start = Clock::now();
    std::size_t wholeCampaigns = 0;
    // The deadline is checked before every campaign, so the last pass
    // may stop part-way; run.py keeps only the passes that completed.
    // A run also continues until its whole passes hold kMinCampaigns.
    auto done = [&] {
        return msSince(start, Clock::now()) / 1e3 >= args.seconds &&
               wholeCampaigns >= kMinCampaigns;
    };
    for (std::uint64_t pass = 0; !done(); ++pass) {
        // In a traced run odd passes carry the obs recorder and the
        // layer probes; even passes stay untraced, so one run yields
        // both sides of the tracing overhead.
        const bool traced = args.trace && pass % 2 == 1;
        std::size_t i = 0;
        for (; i < n && !done(); ++i) {
            if (traced) {
                obs::clearTrace();
                obs::setTracingEnabled(true);
            }
            CampaignRun run = runOne(workload, i, spec->jobs);
            Record rec;
            rec.add("kind", "campaign")
                .add("pass", pass)
                .add("i", static_cast<std::uint64_t>(i))
                .add("name", workload.name(i))
                .add("traced", traced)
                .add("wall_ms", run.wallMs)
                .add("cpu_ms", run.cpuMs)
                .add("outcome", run.outcome)
                .add("counters", run.counters);
            if (traced) {
                obs::setTracingEnabled(false);
                std::uint64_t recorded = obs::traceEventsRecorded();
                rec.add("spans", spanTotals(obs::collectTrace(), recorded));
                obs::clearTrace();
            }
            if (traced)
                rec.add("probe", workload.probe(i, run.dir));
            if (!run.dir.empty())
                std::filesystem::remove_all(run.dir);
            rec.print();
        }
        if (i < n)
            break;
        wholeCampaigns += n;
        Record().add("kind", "pass").add("pass", pass).print();
    }
    std::filesystem::remove_all(args.workdir);

    Record().add("kind", "end").add("peak_rss_mb", peakRssMb()).print();
    return 0;
}
