#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "support/ring_buffer.hh"

namespace stm::obs
{

namespace detail
{
std::atomic<bool> traceEnabled{false};
} // namespace detail

namespace
{

std::atomic<std::size_t> ringCapacity{65536};

/** Trace epoch: all tsc values are relative to the first use. */
std::uint64_t
nowNanos()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

/**
 * One thread's ring. Owned jointly by the thread (thread_local
 * shared_ptr, written on record) and the registry (drained by the
 * harness); single-writer, so the record path takes no lock.
 */
struct ThreadRing
{
    explicit ThreadRing(std::uint32_t tid_, std::size_t capacity)
        : tid(tid_), ring(capacity)
    {
    }

    std::uint32_t tid;
    RingBuffer<TraceEvent> ring;
    std::uint64_t recorded = 0; //!< pushes, including evicted
};

struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<ThreadRing>> rings;
    std::uint32_t nextTid = 0;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: threads may record
                                       // during static destruction
    return *r;
}

ThreadRing &
currentRing()
{
    thread_local std::shared_ptr<ThreadRing> ring = [] {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        auto r = std::make_shared<ThreadRing>(
            reg.nextTid++,
            ringCapacity.load(std::memory_order_relaxed));
        reg.rings.push_back(r);
        return r;
    }();
    return *ring;
}

} // namespace

namespace detail
{

void
record(TraceCategory category, TracePhase phase, TraceId id,
       std::uint64_t arg)
{
    ThreadRing &tr = currentRing();
    TraceEvent event;
    event.tsc = nowNanos();
    event.tid = tr.tid;
    event.category = category;
    event.phase = phase;
    event.id = id;
    event.arg = arg;
    tr.ring.push(event);
    ++tr.recorded;
}

} // namespace detail

void
setTracingEnabled(bool enabled)
{
    detail::traceEnabled.store(enabled, std::memory_order_relaxed);
}

void
setTraceCapacity(std::size_t events)
{
    ringCapacity.store(events < 16 ? 16 : events,
                       std::memory_order_relaxed);
}

std::size_t
traceCapacity()
{
    return ringCapacity.load(std::memory_order_relaxed);
}

std::vector<TraceEvent>
collectTrace()
{
    Registry &reg = registry();
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        for (const auto &ring : reg.rings) {
            std::vector<TraceEvent> events =
                ring->ring.snapshotOldestFirst();
            out.insert(out.end(), events.begin(), events.end());
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.tsc != b.tsc)
                             return a.tsc < b.tsc;
                         return a.tid < b.tid;
                     });
    return out;
}

void
clearTrace()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto &ring : reg.rings) {
        ring->ring.clear();
        ring->recorded = 0;
    }
}

std::uint64_t
traceEventsRecorded()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::uint64_t total = 0;
    for (const auto &ring : reg.rings)
        total += ring->recorded;
    return total;
}

std::size_t
traceThreadCount()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    return reg.rings.size();
}

std::string
traceCategoryName(TraceCategory category)
{
    switch (category) {
      case TraceCategory::Vm:
        return "vm";
      case TraceCategory::Exec:
        return "exec";
      case TraceCategory::Fleet:
        return "fleet";
      case TraceCategory::Diag:
        return "diag";
    }
    return "unknown";
}

std::string
traceIdName(TraceId id)
{
    switch (id) {
      case TraceId::VmRun:
        return "vm.run";
      case TraceId::VmQuantum:
        return "vm.quantum";
      case TraceId::ExecBatch:
        return "exec.batch";
      case TraceId::ExecTaskClaim:
        return "exec.task_claim";
      case TraceId::ExecTask:
        return "exec.task";
      case TraceId::ExecTaskFinish:
        return "exec.task_finish";
      case TraceId::ExecTaskDiscard:
        return "exec.task_discard";
      case TraceId::FleetIngest:
        return "fleet.ingest";
      case TraceId::FleetDuplicate:
        return "fleet.duplicate";
      case TraceId::FleetDrop:
        return "fleet.drop";
      case TraceId::FleetDecodeError:
        return "fleet.decode_error";
      case TraceId::FleetDrain:
        return "fleet.drain";
      case TraceId::FleetRescore:
        return "fleet.rescore";
      case TraceId::DiagPinSearch:
        return "diag.pin_search";
      case TraceId::DiagReinstrument:
        return "diag.reinstrument";
      case TraceId::DiagFailureCollect:
        return "diag.failure_collect";
      case TraceId::DiagSuccessCollect:
        return "diag.success_collect";
      case TraceId::DiagRank:
        return "diag.rank";
      case TraceId::ExecCacheHit:
        return "exec.cache_hit";
      case TraceId::ExecCacheMiss:
        return "exec.cache_miss";
      case TraceId::ExecCacheEvict:
        return "exec.cache_evict";
      case TraceId::FleetSqDoorbell:
        return "fleet.sq_doorbell";
      case TraceId::FleetCqDoorbell:
        return "fleet.cq_doorbell";
      case TraceId::VmDecodeHit:
        return "vm.decode_hit";
      case TraceId::VmDecodeMiss:
        return "vm.decode_miss";
      case TraceId::VmDecodeEvict:
        return "vm.decode_evict";
      case TraceId::ExecCkptSave:
        return "exec.ckpt_save";
      case TraceId::ExecCkptRestore:
        return "exec.ckpt_restore";
      case TraceId::ExecCkptEvict:
        return "exec.ckpt_evict";
    }
    return "unknown";
}

} // namespace stm::obs
