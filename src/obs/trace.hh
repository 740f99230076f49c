/**
 * @file
 * Low-overhead trace-event observability: the software analogue of the
 * hardware short-term memory this repository reproduces.
 *
 * The paper's thesis is that a tiny ring of recent hardware events
 * (LBR/LCR) is enough to diagnose a failure. A diagnosis *run* of this
 * reproduction has the same shape of problem — "where did the time go
 * between the failure and the ranking?" — so the recorder mirrors the
 * LBR deliberately: each thread owns a fixed-capacity ring of the most
 * recent trace events, new events overwrite the oldest, and nothing is
 * ever allocated or locked on the record path. Draining the rings at
 * the end of a diagnosis is the DRIVER_READ_* ioctl of this layer.
 *
 * Overhead discipline:
 *  - **Runtime gate.** Disabled (the default), every instrumentation
 *    point is one relaxed atomic load and a branch.
 *  - **Record path.** Enabled, a record is a timestamp read plus a few
 *    stores into the calling thread's own ring: single-writer, so no
 *    locks, no CAS, no false sharing with other recording threads.
 *
 * Thread rings register themselves in a process-wide registry on
 * first use and outlive their thread (a worker that exits before the
 * harness drains loses nothing). Reading the rings while threads are
 * still recording is the caller's race to avoid: collect after the
 * RunPool batch quiesces.
 */

#ifndef STM_OBS_TRACE_HH
#define STM_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace stm::obs
{

/** Which subsystem emitted an event (maps to a Chrome "cat"). */
enum class TraceCategory : std::uint8_t {
    Vm,    //!< single-run interpreter (Machine)
    Exec,  //!< RunPool execution engine
    Fleet, //!< collector / ranker rescore
    Diag,  //!< LBRA/LCRA pipeline phases
};
constexpr std::uint8_t kTraceCategoryCount = 4;

/** Chrome trace_event phase: duration begin/end or instant. */
enum class TracePhase : std::uint8_t {
    Instant,
    Begin,
    End,
};
constexpr std::uint8_t kTracePhaseCount = 3;

/** What happened. One id per instrumented seam. */
enum class TraceId : std::uint16_t {
    // vm
    VmRun,     //!< one Machine::run, begin..end; arg = outcome
    VmQuantum, //!< retired: no longer emitted
    // exec
    ExecBatch,       //!< one RunPool::runOrdered; arg = max runs
    ExecTaskClaim,   //!< worker claimed attempt i; arg = i
    ExecTask,        //!< attempt i executing, begin..end; arg = i
    ExecTaskFinish,  //!< result i delivered to the consumer; arg = i
    ExecTaskDiscard, //!< speculative result i discarded; arg = i
    // fleet
    FleetIngest,      //!< one frame accepted; arg = fingerprint
    FleetDuplicate,   //!< fingerprint already seen; arg = fingerprint
    FleetDrop,        //!< retired: no longer emitted
    FleetDecodeError, //!< frame failed wire validation; arg = status
    FleetDrain,       //!< retired: no longer emitted
    FleetRescore,     //!< one Ranker::rank() call; arg = events
    // diag
    DiagPinSearch,      //!< failure-site pin search, begin..end
    DiagReinstrument,   //!< reactive success-site re-instrumentation
    DiagFailureCollect, //!< post-pin failure-profile collection
    DiagSuccessCollect, //!< success-profile collection
    DiagRank,           //!< statistical ranking; arg = events ranked
    // exec run cache (appended: dump ids above must stay stable)
    ExecCacheHit,   //!< memoized result served; arg = seed
    ExecCacheMiss,  //!< executed and inserted; arg = seed
    ExecCacheEvict, //!< LRU entry evicted for space; arg = bytes freed
    // fleet ring transport, retired: no longer emitted (appended:
    // dump ids above must stay stable)
    FleetSqDoorbell,
    FleetCqDoorbell,
    // vm predecode cache (appended: dump ids above must stay stable)
    VmDecodeHit,   //!< predecoded program served from cache; arg = pcs
    VmDecodeMiss,  //!< predecode built on miss; arg = pcs
    VmDecodeEvict, //!< LRU predecode evicted for space; arg = bytes freed
    // exec snapshot store (appended: dump ids above must stay stable)
    ExecCkptSave,    //!< checkpoint recorded; arg = step
    ExecCkptRestore, //!< seek resumed from a checkpoint; arg = step
    ExecCkptEvict,   //!< timeline evicted for space; arg = bytes freed
};
constexpr std::uint16_t kTraceIdCount = 29;

/** Human-readable names (used by the Chrome exporter and stats). */
std::string traceCategoryName(TraceCategory category);
std::string traceIdName(TraceId id);

/** One recorded event: 24 bytes, the ring's record type. */
struct TraceEvent
{
    /** Nanoseconds since process trace epoch (the "tsc"). */
    std::uint64_t tsc = 0;
    /** Dense per-process recorder thread index. */
    std::uint32_t tid = 0;
    TraceCategory category = TraceCategory::Vm;
    TracePhase phase = TracePhase::Instant;
    TraceId id = TraceId::VmRun;
    /** Event payload (attempt index, status code, count, ...). */
    std::uint64_t arg = 0;

    bool operator==(const TraceEvent &) const = default;
};

namespace detail
{
/** The runtime gate; read with a relaxed load on every record. */
extern std::atomic<bool> traceEnabled;

/** Out-of-line record into the calling thread's ring. */
void record(TraceCategory category, TracePhase phase, TraceId id,
            std::uint64_t arg);
} // namespace detail

/** True when events are being recorded. */
inline bool
tracingEnabled()
{
    return detail::traceEnabled.load(std::memory_order_relaxed);
}

/**
 * Flip the runtime gate. Enabling does not clear previously recorded
 * events (clearTrace() does).
 */
void setTracingEnabled(bool enabled);

/**
 * Per-thread ring capacity (events) for rings created after the call.
 * Existing rings keep their size. Clamped to at least 16.
 */
void setTraceCapacity(std::size_t events);
std::size_t traceCapacity();

/**
 * Record one event. The disabled path is the single tracingEnabled()
 * branch; use this (or TraceSpan) at every instrumentation seam.
 */
inline void
traceEvent(TraceCategory category, TracePhase phase, TraceId id,
           std::uint64_t arg = 0)
{
    if (!tracingEnabled()) [[likely]]
        return;
    detail::record(category, phase, id, arg);
}

/** Record an instant event. */
inline void
traceInstant(TraceCategory category, TraceId id, std::uint64_t arg = 0)
{
    traceEvent(category, TracePhase::Instant, id, arg);
}

/**
 * RAII duration scope: Begin on construction, End on destruction.
 * The gate is sampled once at construction so a span never emits an
 * unmatched End when tracing is toggled mid-scope. setArg() replaces
 * the End event's payload (e.g. "how many items this phase handled").
 */
class TraceSpan
{
  public:
    TraceSpan(TraceCategory category, TraceId id, std::uint64_t arg = 0)
        : category_(category), id_(id), arg_(arg),
          armed_(tracingEnabled())
    {
        if (armed_) [[unlikely]]
            detail::record(category_, TracePhase::Begin, id_, arg_);
    }

    ~TraceSpan()
    {
        if (armed_) [[unlikely]]
            detail::record(category_, TracePhase::End, id_, arg_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Payload for the End event (defaults to the Begin payload). */
    void setArg(std::uint64_t arg) { arg_ = arg; }

  private:
    TraceCategory category_;
    TraceId id_;
    std::uint64_t arg_;
    bool armed_;
};

/**
 * Snapshot every thread's ring, merged and sorted by (tsc, tid).
 * Within one thread events come out oldest-first (ring eviction means
 * the oldest retained, exactly like an LBR read-out). Call after the
 * recording threads quiesce.
 */
std::vector<TraceEvent> collectTrace();

/** Discard every ring's contents (the DRIVER_CLEAN_* of this layer). */
void clearTrace();

/** Total events recorded since the last clearTrace (incl. evicted). */
std::uint64_t traceEventsRecorded();

/** Number of thread rings registered since the last clearTrace. */
std::size_t traceThreadCount();

} // namespace stm::obs

#endif // STM_OBS_TRACE_HH
