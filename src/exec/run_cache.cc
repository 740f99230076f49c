#include "exec/run_cache.hh"

#include "exec/snapshot_store.hh"
#include "obs/trace.hh"
#include "program/fingerprint.hh"
#include "support/logging.hh"

namespace stm
{

std::uint64_t
RunKeyHash::operator()(const RunKey &key) const
{
    FingerprintHasher f;
    f.u64(key.programFp);
    f.u64(key.optionsFp);
    f.u64(key.seed);
    return f.value();
}

namespace
{

std::size_t
profileBytes(const ProfileRecord &p)
{
    return sizeof(ProfileRecord) +
           p.lbr.capacity() * sizeof(BranchRecord) +
           p.lcr.capacity() * sizeof(LcrRecord);
}

/** Rough per-node overhead of the std::map-based sample tables. */
constexpr std::size_t kMapNodeOverhead = 48;

} // namespace

std::size_t
approxRunResultBytes(const RunResult &result)
{
    std::size_t bytes = sizeof(RunResult);
    if (result.failure)
        bytes += result.failure->message.capacity();
    bytes += result.output.capacity() * sizeof(Word);
    for (const auto &p : result.profiles)
        bytes += profileBytes(p);
    bytes += result.btsTrace.capacity() * sizeof(BtsEntry);
    std::size_t nodes = result.cbiCounts.size() +
                        result.cbiSiteSamples.size() +
                        result.cciCounts.size() +
                        result.cciSiteSamples.size() +
                        result.pbiSamples.size();
    bytes += nodes * kMapNodeOverhead;
    return bytes;
}

RunCache::RunCache() : RunCache(Options{}) {}

RunCache::RunCache(Options opts)
    : opts_(opts),
      lru_("exec.run_cache", opts.maxBytes,
           opts.shards == 0 ? 1 : opts.shards)
{
}

bool
RunCache::lookup(const RunKey &key, RunResult &out)
{
    if (lru_.lookup(key, out)) {
        obs::traceInstant(obs::TraceCategory::Exec,
                          obs::TraceId::ExecCacheHit, key.seed);
        return true;
    }
    obs::traceInstant(obs::TraceCategory::Exec,
                      obs::TraceId::ExecCacheMiss, key.seed);
    return false;
}

void
RunCache::insert(const RunKey &key, const RunResult &result)
{
    std::size_t bytes = approxRunResultBytes(result);
    LruOutcome outcome = lru_.insert(key, result, bytes);
    if (outcome.evicted > 0) {
        obs::traceInstant(obs::TraceCategory::Exec,
                          obs::TraceId::ExecCacheEvict,
                          outcome.evictedBytes);
    }
}

std::size_t
RunCache::size() const
{
    return lru_.size();
}

std::size_t
RunCache::bytes() const
{
    return lru_.bytes();
}

void
RunCache::clear()
{
    lru_.clear();
}

void
RunCache::noteVerified()
{
    lru_.bumpCounter("verified");
}

StatGroup
RunCache::statsSnapshot() const
{
    return lru_.statsSnapshot("exec.run_cache",
                              {"hits", "misses", "inserts", "evictions",
                               "verified", "oversize"});
}

double
RunCache::hitRate() const
{
    std::uint64_t hits = lru_.counterValue("hits");
    std::uint64_t misses = lru_.counterValue("misses");
    if (hits + misses == 0)
        return 0.0;
    return static_cast<double>(hits) /
           static_cast<double>(hits + misses);
}

namespace
{

std::unique_ptr<RunCache> &
globalCacheSlot()
{
    static std::unique_ptr<RunCache> cache;
    return cache;
}

} // namespace

void
configureRunCache(RunCacheMode mode, std::size_t maxBytes)
{
    std::unique_ptr<RunCache> &cache = globalCacheSlot();
    if (mode == RunCacheMode::Off) {
        cache.reset();
        return;
    }
    RunCache::Options opts;
    opts.verify = mode == RunCacheMode::Verify;
    if (maxBytes > 0)
        opts.maxBytes = maxBytes;
    cache = std::make_unique<RunCache>(opts);
}

RunCache *
globalRunCache()
{
    return globalCacheSlot().get();
}

RunResult
memoizedRun(const ProgramPtr &prog,
            const std::shared_ptr<const Instrumentation> &overlay,
            std::uint64_t programFp, std::uint64_t optionsFp,
            const MachineOptions &opts)
{
    RunKey key{programFp, optionsFp, opts.sched.seed};
    RunCache *cache = globalRunCache();
    SnapshotStore *snapshots = globalSnapshotStore();

    // Fresh execution; with the snapshot store on, the run records
    // its √T-spaced checkpoint timeline as it goes.
    auto execute = [&] {
        Machine machine(prog, opts, overlay);
        if (snapshots)
            snapshots->arm(machine, key);
        return machine.run();
    };

    if (!cache)
        return execute();

    RunResult cached;
    if (cache->lookup(key, cached)) {
        if (cache->verifyMode()) {
            // Prefer resuming the replay from the newest recorded
            // checkpoint: the suffix must still bit-match, and the
            // comparison below covers the checkpoint-carried prefix
            // (RunResult accumulates from step 0 through the
            // checkpoint into the resumed run).
            RunResult replay;
            MachineCheckpointPtr resume =
                snapshots ? snapshots->latestAtOrBefore(
                                key, ~std::uint64_t{0})
                          : nullptr;
            if (resume) {
                snapshots->noteRestore(resume);
                Machine machine(prog, opts, overlay, resume);
                replay = machine.run();
            } else {
                replay = execute();
            }
            if (!(replay == cached)) {
                fatal("run cache verify mismatch: program fp {}, "
                      "options fp {}, seed {} — cached RunResult is "
                      "not bit-identical to a replay{}",
                      key.programFp, key.optionsFp, key.seed,
                      resume ? " resumed from a checkpoint" : "");
            }
            cache->noteVerified();
        }
        return cached;
    }

    RunResult result = execute();
    cache->insert(key, result);
    return result;
}

} // namespace stm
