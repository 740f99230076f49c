#include "fleet/collector.hh"

#include <chrono>
#include <cstring>

#include "obs/trace.hh"
#include "support/logging.hh"

namespace stm::fleet
{

namespace
{

/** Source of globally unique collector ids (never reused, so a stale
 * thread-local producer cache can never alias a new collector that
 * happens to land at the same address). */
std::atomic<std::uint64_t> nextCollectorId{1};

} // namespace

Collector::Collector(const CollectorOptions &opts)
    : shardCount_(opts.shards == 0 ? 1 : opts.shards),
      overflow_(opts.overflow),
      arenaBytes_(opts.arenaBytes == 0 ? std::size_t{1} << 20
                                       : opts.arenaBytes),
      id_(nextCollectorId.fetch_add(1, std::memory_order_relaxed)),
      stats_("fleet.collector")
{
    std::size_t capacity =
        opts.shardCapacity == 0 ? 1 : opts.shardCapacity;
    shards_.reserve(shardCount_);
    for (unsigned s = 0; s < shardCount_; ++s) {
        shards_.push_back(std::make_unique<Shard>(
            strfmt("fleet.shard{}", s), capacity));
    }
}

Collector::~Collector()
{
    // Frames still queued at destruction: arena frames die with their
    // arenas, heap-owned frames must be reclaimed here.
    FrameDesc desc;
    for (auto &shardPtr : shards_)
        while (shardPtr->ring.tryPop(&desc))
            if (desc.arena == nullptr)
                delete[] desc.data;
}

Collector::ProducerState &
Collector::localProducer()
{
    // Single-entry cache: the common shape is one live collector per
    // producer thread, and a hit is two loads — no lock, no atomics.
    struct Cache
    {
        std::uint64_t collector = 0;
        ProducerState *state = nullptr;
    };
    thread_local Cache cache;
    if (cache.collector == id_)
        return *cache.state;

    std::lock_guard<std::mutex> lock(producersMu_);
    for (auto &prod : producers_) {
        if (prod->owner == std::this_thread::get_id()) {
            cache = {id_, prod.get()};
            return *cache.state;
        }
    }
    producers_.push_back(std::make_unique<ProducerState>(
        arenaBytes_, std::this_thread::get_id()));
    cache = {id_, producers_.back().get()};
    return *cache.state;
}

Collector::FrameDesc
Collector::acquireFrame(ProducerState &prod, std::size_t size)
{
    FrameDesc desc;
    desc.len = static_cast<std::uint32_t>(size);
    if (std::uint8_t *p = prod.arena.reserve(size)) {
        desc.data = p;
        desc.arena = &prod.arena;
        return desc;
    }
    // Arena saturated (consumer behind) or frame larger than a
    // region: fall back to an owned heap frame rather than invent a
    // third overflow condition — the ring alone decides the policy.
    desc.data = new std::uint8_t[size];
    desc.arena = nullptr;
    return desc;
}

void
Collector::releaseFrame(const FrameDesc &desc)
{
    if (desc.arena) {
        desc.arena->unreserve(const_cast<std::uint8_t *>(desc.data),
                              desc.len);
    } else {
        delete[] desc.data;
    }
}

void
Collector::countDuplicate(Shard &shard, std::uint64_t print)
{
    obs::traceInstant(obs::TraceCategory::Fleet,
                      obs::TraceId::FleetDuplicate, print);
    shard.duplicates.fetch_add(1, std::memory_order_relaxed);
    duplicates_.fetch_add(1, std::memory_order_relaxed);
}

IngestStatus
Collector::refuse(FrameStatus status)
{
    obs::traceInstant(obs::TraceCategory::Fleet,
                      obs::TraceId::FleetDecodeError,
                      static_cast<std::uint64_t>(status));
    decodeErrors_.fetch_add(1, std::memory_order_relaxed);
    decodeErrorBy_[static_cast<std::uint8_t>(status)].fetch_add(
        1, std::memory_order_relaxed);
    return IngestStatus::DecodeError;
}

IngestStatus
Collector::ingest(const std::uint8_t *data, std::size_t size)
{
    received_.fetch_add(1, std::memory_order_relaxed);
    if (closed_.load(std::memory_order_acquire))
        return IngestStatus::Closed;

    FrameStatus ws = validateFrame(data, size);
    if (ws != FrameStatus::Ok)
        return refuse(ws);

    // The canonical fingerprint is FNV over the payload encoding, and
    // a validated frame *is* that encoding — hash the bytes in place
    // instead of decoding and re-encoding.
    std::uint64_t print = fingerprintPayload(data + kFrameHeaderSize,
                                             size - kFrameHeaderSize);
    unsigned shardIndex =
        static_cast<unsigned>(print % shardCount_);
    Shard &shard = *shards_[shardIndex];
    if (!shard.seen.insert(print)) {
        countDuplicate(shard, print);
        return IngestStatus::Duplicate;
    }

    ProducerState &prod = localProducer();
    FrameDesc desc = acquireFrame(prod, size);
    std::memcpy(const_cast<std::uint8_t *>(desc.data), data, size);
    desc.print = print;
    return commit(shard, shardIndex, desc);
}

IngestStatus
Collector::submit(const RunProfile &profile)
{
    received_.fetch_add(1, std::memory_order_relaxed);
    if (closed_.load(std::memory_order_acquire))
        return IngestStatus::Closed;

    // One encoding pass: serialize straight into the arena, then
    // fingerprint the contiguous payload bytes just written (FNV over
    // the payload encoding — identical to fingerprint(profile), which
    // would walk the profile a second time). A duplicate rolls the
    // reservation back (LIFO, same thread, no intervening reserve).
    ProducerState &prod = localProducer();
    std::size_t frameSize = encodedFrameSize(profile);
    // The cap ingest() enforces: the drain refuses longer frames.
    if (frameSize - kFrameHeaderSize > kWireMaxPayload)
        return refuse(FrameStatus::Malformed);
    FrameDesc desc = acquireFrame(prod, frameSize);
    serializeInto(profile, const_cast<std::uint8_t *>(desc.data));
    std::uint64_t print = fingerprintPayload(
        desc.data + kFrameHeaderSize, frameSize - kFrameHeaderSize);

    unsigned shardIndex =
        static_cast<unsigned>(print % shardCount_);
    Shard &shard = *shards_[shardIndex];
    if (!shard.seen.insert(print)) {
        releaseFrame(desc);
        countDuplicate(shard, print);
        return IngestStatus::Duplicate;
    }
    desc.print = print;
    return commit(shard, shardIndex, desc);
}

IngestStatus
Collector::commit(Shard &shard, unsigned shard_index,
                  const FrameDesc &desc)
{
    std::uint64_t print = desc.print;
    bool waited = false;
    if (!shard.ring.tryPush(desc)) {
        if (overflow_ == OverflowPolicy::Drop) {
            // The fingerprint stays in `seen`: a shed report's
            // retransmission is still a duplicate, matching a lossy
            // UDP-style intake where the agent resends blindly.
            releaseFrame(desc);
            obs::traceInstant(obs::TraceCategory::Fleet,
                              obs::TraceId::FleetDrop, print);
            shard.dropped.fetch_add(1, std::memory_order_relaxed);
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return IngestStatus::Dropped;
        }
        // Block: bounded condvar fallback, entered only behind a full
        // ring. Timed waits sidestep the lost-wakeup window between a
        // failed push and the wait (the consumer only notifies when
        // it sees waiters).
        waited = true;
        for (;;) {
            if (shard.ring.tryPush(desc))
                break; // space appeared; accept even if closing
            if (closed_.load(std::memory_order_acquire)) {
                releaseFrame(desc);
                shard.seen.erase(print);
                return IngestStatus::Closed;
            }
            std::unique_lock<std::mutex> lock(spaceMu_);
            waiters_.fetch_add(1, std::memory_order_relaxed);
            spaceCv_.wait_for(lock, std::chrono::milliseconds(1));
            waiters_.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    obs::traceInstant(obs::TraceCategory::Fleet,
                      obs::TraceId::FleetSqDoorbell, shard_index);
    obs::traceInstant(obs::TraceCategory::Fleet,
                      obs::TraceId::FleetIngest, print);
    shard.accepted.fetch_add(1, std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (waited)
        blocked_.fetch_add(1, std::memory_order_relaxed);
    // Ring-depth high-water mark: how close ingest came to the shard
    // capacity (and hence to blocking or shedding). size() is a racy
    // estimate, which is fine for a gauge.
    std::uint64_t depth = shard.ring.size();
    atomicMax(shard.highWater, depth);
    atomicMax(highWater_, depth);
    return IngestStatus::Accepted;
}

std::vector<RunProfile>
Collector::drain()
{
    std::vector<RunProfile> out;
    drainInto([&](RunProfile &&p) { out.push_back(std::move(p)); });
    return out;
}

std::size_t
Collector::drainInto(const std::function<void(RunProfile &&)> &sink)
{
    return drainViews([&](const RunProfileView &v, std::uint64_t) {
        sink(v.materialize());
    });
}

std::size_t
Collector::drainViews(const ViewSink &sink)
{
    obs::TraceSpan drainSpan(obs::TraceCategory::Fleet,
                             obs::TraceId::FleetDrain);
    std::lock_guard<std::mutex> consumer(consumerMu_);
    std::size_t delivered = 0;
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        std::size_t batch = 0;
        FrameDesc desc;
        while (shard.ring.tryPop(&desc)) {
            // Frames were validated (or produced by our own encoder)
            // before they crossed the ring, so the structural walk
            // can skip the CRC and enum passes.
            RunProfileView view;
            FrameStatus ws =
                decodeFrameView(desc.data, desc.len, &view, true);
            if (ws == FrameStatus::Ok)
                sink(view, desc.print);
            // Completion doorbell: the frame's bytes are free to be
            // recycled the moment the callback returns.
            if (desc.arena)
                desc.arena->complete(desc.data, desc.len);
            else
                delete[] desc.data;
            ++batch;
        }
        if (batch != 0) {
            shard.drained.fetch_add(batch,
                                    std::memory_order_relaxed);
            obs::traceInstant(obs::TraceCategory::Fleet,
                              obs::TraceId::FleetCqDoorbell, batch);
            if (waiters_.load(std::memory_order_relaxed) != 0)
                spaceCv_.notify_all();
        }
        delivered += batch;
    }
    drainSpan.setArg(delivered);
    drained_.fetch_add(delivered, std::memory_order_relaxed);
    return delivered;
}

void
Collector::close()
{
    closed_.store(true, std::memory_order_release);
    // Lock/unlock pairs the store with waiters between their failed
    // push and their wait.
    { std::lock_guard<std::mutex> lock(spaceMu_); }
    spaceCv_.notify_all();
}

std::size_t
Collector::queued() const
{
    std::size_t total = 0;
    for (const auto &shardPtr : shards_)
        total += shardPtr->ring.size();
    return total;
}

void
Collector::publishAggregateLocked() const
{
    auto publish = [&](const std::string &name, std::uint64_t v) {
        Counter &c = stats_.counter(name);
        c.reset();
        c += v;
    };
    publish("received", received_.load(std::memory_order_relaxed));
    publish("accepted", accepted_.load(std::memory_order_relaxed));
    publish("duplicates",
            duplicates_.load(std::memory_order_relaxed));
    publish("decode_errors",
            decodeErrors_.load(std::memory_order_relaxed));
    publish("dropped", dropped_.load(std::memory_order_relaxed));
    publish("blocked", blocked_.load(std::memory_order_relaxed));
    publish("drained", drained_.load(std::memory_order_relaxed));
    for (std::uint8_t s = 0; s < kFrameStatusCount; ++s) {
        std::uint64_t n =
            decodeErrorBy_[s].load(std::memory_order_relaxed);
        if (n != 0) {
            publish(strfmt("decode_error.{}",
                           frameStatusName(
                               static_cast<FrameStatus>(s))),
                    n);
        }
    }
    stats_.gauge("queue_high_water")
        .set(static_cast<double>(
            highWater_.load(std::memory_order_relaxed)));
}

void
Collector::publishShardLocked(const Shard &s) const
{
    auto publish = [&](const std::string &name, std::uint64_t v) {
        Counter &c = s.stats.counter(name);
        c.reset();
        c += v;
    };
    publish("accepted", s.accepted.load(std::memory_order_relaxed));
    publish("duplicates",
            s.duplicates.load(std::memory_order_relaxed));
    publish("dropped", s.dropped.load(std::memory_order_relaxed));
    publish("drained", s.drained.load(std::memory_order_relaxed));
    s.stats.gauge("queue_high_water")
        .set(static_cast<double>(
            s.highWater.load(std::memory_order_relaxed)));
    s.stats.gauge("queue_depth")
        .set(static_cast<double>(s.ring.size()));
}

const StatGroup &
Collector::stats() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    publishAggregateLocked();
    return stats_;
}

const StatGroup &
Collector::shardStats(unsigned shard) const
{
    if (shard >= shardCount_)
        panic("shardStats({}) with {} shards", shard, shardCount_);
    const Shard &s = *shards_[shard];
    std::lock_guard<std::mutex> lock(statsMu_);
    publishShardLocked(s);
    return s.stats;
}

void
Collector::publishAll() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    publishAggregateLocked();
    for (const auto &shardPtr : shards_)
        publishShardLocked(*shardPtr);
}

bool
Collector::preseed(std::uint64_t print)
{
    Shard &shard = *shards_[print % shardCount_];
    return shard.seen.insert(print);
}

} // namespace stm::fleet
