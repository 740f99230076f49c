#include "exec/snapshot_store.hh"

#include <algorithm>
#include <cmath>

#include "obs/trace.hh"

namespace stm
{

namespace
{

/** Worst-case retained bytes of one timeline (CoW sharing ignored). */
std::size_t
timelineBytes(const std::vector<TimelineEntry> &timeline)
{
    std::size_t bytes = sizeof(std::vector<TimelineEntry>) +
                        timeline.capacity() * sizeof(TimelineEntry);
    for (const TimelineEntry &entry : timeline)
        bytes += entry.priceBytes;
    return bytes;
}

/** First checkpoint with step > @p step (timeline is step-sorted). */
std::vector<TimelineEntry>::const_iterator
firstAfter(const std::vector<TimelineEntry> &timeline,
           std::uint64_t step)
{
    return std::upper_bound(
        timeline.begin(), timeline.end(), step,
        [](std::uint64_t s, const TimelineEntry &entry) {
            return s < entry.ckpt->step;
        });
}

} // namespace

SnapshotStore::SnapshotStore() : SnapshotStore(Options{}) {}

SnapshotStore::SnapshotStore(Options opts)
    : opts_(opts),
      lru_("exec.snapshot_store", opts.maxBytes,
           opts.shards == 0 ? 1 : opts.shards)
{
}

void
SnapshotStore::record(const RunKey &key, MachineCheckpointPtr ckpt)
{
    if (!ckpt)
        return;
    std::uint64_t step = ckpt->step;
    TimelineEntry entry{nullptr, ckpt->approxStateBytes() +
                                     approxRunResultBytes(ckpt->result)};
    entry.ckpt = std::move(ckpt);

    // Copy-extend-swap: the resident timeline is immutable, so build
    // the extended vector outside the lock and replace it whole.
    auto next = std::make_shared<std::vector<TimelineEntry>>();
    lru_.peek(key, [&](const SnapshotTimeline &timeline) {
        *next = *timeline;
    });
    auto pos = std::lower_bound(
        next->begin(), next->end(), step,
        [](const TimelineEntry &e, std::uint64_t s) {
            return e.ckpt->step < s;
        });
    if (pos != next->end() && pos->ckpt->step == step)
        *pos = std::move(entry);
    else
        next->insert(pos, std::move(entry));

    std::size_t bytes = timelineBytes(*next);
    LruOutcome outcome = lru_.insert(
        key, SnapshotTimeline(std::move(next)), bytes,
        /*replaceExisting=*/true);
    lru_.bumpCounter("saves");
    obs::traceInstant(obs::TraceCategory::Exec,
                      obs::TraceId::ExecCkptSave, step);
    if (outcome.evicted > 0) {
        obs::traceInstant(obs::TraceCategory::Exec,
                          obs::TraceId::ExecCkptEvict,
                          outcome.evictedBytes);
    }
}

MachineCheckpointPtr
SnapshotStore::latestAtOrBefore(const RunKey &key,
                                std::uint64_t step) const
{
    SnapshotTimeline timeline;
    if (!lru_.lookup(key, timeline))
        return nullptr;
    auto it = firstAfter(*timeline, step);
    if (it == timeline->begin())
        return nullptr;
    return (it - 1)->ckpt;
}

std::uint64_t
SnapshotStore::intervalFor(std::uint64_t maxSteps,
                           std::uint32_t quantum) const
{
    if (opts_.everySteps != 0)
        return opts_.everySteps;
    return defaultCheckpointInterval(maxSteps, quantum);
}

void
SnapshotStore::arm(Machine &machine, const RunKey &key)
{
    std::uint64_t every = intervalFor(machine.options().maxSteps,
                                      machine.options().sched.quantum);
    machine.enableCheckpoints(
        every, [this, key](MachineCheckpointPtr ckpt) {
            record(key, std::move(ckpt));
        });
}

void
SnapshotStore::noteRestore(const MachineCheckpointPtr &base)
{
    obs::traceInstant(obs::TraceCategory::Exec,
                      obs::TraceId::ExecCkptRestore, base->step);
    lru_.bumpCounter("restores");
}

MachineCheckpointPtr
SnapshotStore::replayToStep(
    const ProgramPtr &prog,
    const std::shared_ptr<const Instrumentation> &overlay,
    const RunKey &key, const MachineOptions &opts, std::uint64_t step)
{
    MachineCheckpointPtr base = latestAtOrBefore(key, step);
    std::unique_ptr<Machine> machine;
    if (base) {
        noteRestore(base);
        machine =
            std::make_unique<Machine>(prog, opts, overlay, base);
    } else {
        machine = std::make_unique<Machine>(prog, opts, overlay);
    }
    MachineCheckpointPtr reached = machine->runToStep(step);
    if (reached)
        record(key, reached);
    return reached;
}

std::size_t
SnapshotStore::size() const
{
    return lru_.size();
}

std::size_t
SnapshotStore::bytes() const
{
    return lru_.bytes();
}

std::size_t
SnapshotStore::timelineLength(const RunKey &key) const
{
    std::size_t length = 0;
    lru_.peek(key, [&](const SnapshotTimeline &timeline) {
        length = timeline->size();
    });
    return length;
}

void
SnapshotStore::clear()
{
    lru_.clear();
}

StatGroup
SnapshotStore::statsSnapshot() const
{
    StatGroup snap = lru_.statsSnapshot(
        "exec.snapshot_store",
        {"hits", "misses", "inserts", "evictions", "oversize", "saves",
         "restores"});
    snap.gauge("checkpoint_bytes")
        .set(static_cast<double>(bytes()));
    return snap;
}

std::uint64_t
defaultCheckpointInterval(std::uint64_t maxSteps, std::uint32_t quantum)
{
    if (quantum == 0)
        quantum = 1;
    // √T rounded UP to a quantum multiple: captures only happen at
    // quantum boundaries, so a finer interval would not change where
    // checkpoints land, only how often the arming check runs.
    double root = std::sqrt(static_cast<double>(maxSteps));
    auto steps = static_cast<std::uint64_t>(std::ceil(root));
    if (steps == 0)
        steps = 1;
    std::uint64_t q = quantum;
    return (steps + q - 1) / q * q;
}

namespace
{

std::unique_ptr<SnapshotStore> &
globalStoreSlot()
{
    static std::unique_ptr<SnapshotStore> store;
    return store;
}

} // namespace

void
configureSnapshotStore(bool enabled, std::uint64_t everySteps,
                       std::size_t maxBytes)
{
    std::unique_ptr<SnapshotStore> &store = globalStoreSlot();
    if (!enabled) {
        store.reset();
        return;
    }
    SnapshotStore::Options opts;
    opts.everySteps = everySteps;
    if (maxBytes > 0)
        opts.maxBytes = maxBytes;
    store = std::make_unique<SnapshotStore>(opts);
}

SnapshotStore *
globalSnapshotStore()
{
    return globalStoreSlot().get();
}

} // namespace stm
