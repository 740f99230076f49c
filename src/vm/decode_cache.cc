#include "vm/decode_cache.hh"

#include <mutex>
#include <utility>

#include "obs/trace.hh"
#include "program/fingerprint.hh"

namespace stm
{

std::uint64_t
DecodeKeyHash::operator()(const DecodeKey &key) const
{
    FingerprintHasher f;
    f.u64(key.baseFp);
    f.u64(key.hookFp);
    f.boolean(key.fused);
    return f.value();
}

DecodeCache::DecodeCache() : DecodeCache(Options{}) {}

DecodeCache::DecodeCache(Options opts)
    : lru_("vm.decode_cache", opts.maxBytes,
           opts.shards == 0 ? 1 : opts.shards)
{
}

DecodedProgramPtr
DecodeCache::acquire(const Program &prog, const Instrumentation &instr,
                     bool fuse)
{
    DecodeKey key;
    key.baseFp = memoizedProgramBaseFingerprint(prog);
    key.hookFp = fingerprintHookTables(instr);
    key.fused = fuse;

    // Build under the shard lock: predecode is O(program) and rare,
    // and holding the lock guarantees concurrent campaigns over one
    // program build the stream exactly once (asserted in
    // test_decode_cache's TSan lane).
    auto [decoded, outcome] = lru_.acquire(key, [&] {
        DecodedProgramPtr built = predecode(prog, instr, fuse);
        return std::pair{built, built->approxBytes()};
    });
    if (outcome.hit) {
        obs::traceInstant(obs::TraceCategory::Vm,
                          obs::TraceId::VmDecodeHit,
                          decoded->ops.size());
        return decoded;
    }
    obs::traceInstant(obs::TraceCategory::Vm, obs::TraceId::VmDecodeMiss,
                      decoded->ops.size());
    if (outcome.evicted > 0) {
        obs::traceInstant(obs::TraceCategory::Vm,
                          obs::TraceId::VmDecodeEvict,
                          outcome.evictedBytes);
    }
    return decoded;
}

std::size_t
DecodeCache::size() const
{
    return lru_.size();
}

std::size_t
DecodeCache::bytes() const
{
    return lru_.bytes();
}

void
DecodeCache::clear()
{
    lru_.clear();
}

StatGroup
DecodeCache::statsSnapshot() const
{
    return lru_.statsSnapshot(
        "vm.decode_cache", {"hits", "misses", "evictions", "oversize"});
}

namespace
{

struct GlobalDecodeState
{
    std::mutex mu;
    std::unique_ptr<DecodeCache> cache;
};

GlobalDecodeState &
globalState()
{
    static GlobalDecodeState *state = new GlobalDecodeState;
    return *state;
}

} // namespace

DecodeCache &
globalDecodeCache()
{
    GlobalDecodeState &state = globalState();
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.cache)
        state.cache = std::make_unique<DecodeCache>();
    return *state.cache;
}

void
configureDecodeCache(std::size_t maxBytes, unsigned shards)
{
    DecodeCache::Options opts;
    if (maxBytes > 0)
        opts.maxBytes = maxBytes;
    if (shards > 0)
        opts.shards = shards;
    GlobalDecodeState &state = globalState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.cache = std::make_unique<DecodeCache>(opts);
}

} // namespace stm
