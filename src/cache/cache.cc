#include "cache/cache.hh"

#include "support/logging.hh"

namespace stm
{

namespace
{

bool
isPowerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::uint32_t
log2u32(std::uint32_t v)
{
    std::uint32_t shift = 0;
    while ((std::uint32_t{1} << shift) < v)
        ++shift;
    return shift;
}

} // namespace

L1Cache::L1Cache(std::uint32_t core_id, const CacheGeometry &geometry)
    : coreId_(core_id),
      geometry_(geometry),
      numSets_(0),
      blockShift_(0),
      setMask_(0),
      setsArePow2_(false),
      tick_(0),
      stats_("l1d" + std::to_string(core_id))
{
    if (!isPowerOfTwo(geometry.blockBytes) ||
        !isPowerOfTwo(geometry.sizeBytes) || geometry.assoc == 0) {
        fatal("invalid cache geometry: size={} assoc={} block={}",
              geometry.sizeBytes, geometry.assoc, geometry.blockBytes);
    }
    std::uint32_t blocks = geometry.sizeBytes / geometry.blockBytes;
    if (blocks % geometry.assoc != 0)
        fatal("cache associativity {} does not divide {} blocks",
              geometry.assoc, blocks);
    numSets_ = blocks / geometry.assoc;
    blockShift_ = log2u32(geometry.blockBytes);
    setsArePow2_ = isPowerOfTwo(numSets_);
    setMask_ = setsArePow2_ ? numSets_ - 1 : 0;
    lines_.resize(blocks);
    fills_ = &stats_.counter("fills");
    evictions_ = &stats_.counter("evictions");
    writebacks_ = &stats_.counter("writebacks");
    invalidationsReceived_ = &stats_.counter("invalidations_received");
}

MesiState
L1Cache::stateOf(Addr addr) const
{
    const Line *line = findLine(blockOf(addr));
    return line ? line->state : MesiState::Invalid;
}

bool
L1Cache::fill(Addr block, MesiState state)
{
    if (state == MesiState::Invalid)
        panic("fill with Invalid state");
    Line *base = &lines_[std::size_t{setIndex(block)} * geometry_.assoc];
    Line *victim = nullptr;
    // Prefer an invalid way; otherwise evict true-LRU.
    for (std::uint32_t w = 0; w < geometry_.assoc; ++w) {
        Line &line = base[w];
        if (line.state == MesiState::Invalid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    bool writeback = false;
    if (victim->state != MesiState::Invalid) {
        ++*evictions_;
        if (victim->state == MesiState::Modified) {
            writeback = true;
            ++*writebacks_;
        }
    }
    victim->tag = block;
    victim->state = state;
    victim->lastUse = ++tick_;
    ++*fills_;
    return writeback;
}

void
L1Cache::setState(Addr block, MesiState state)
{
    Line *line = findLine(block);
    if (!line)
        panic("setState on non-resident block {}", block);
    line->state = state;
}

void
L1Cache::touch(Addr block)
{
    Line *line = findLine(block);
    if (line)
        line->lastUse = ++tick_;
}

void
L1Cache::snoopRead(Addr block)
{
    Line *line = findLine(block);
    if (!line)
        return;
    if (line->state == MesiState::Modified) {
        ++*writebacks_;
        line->state = MesiState::Shared;
    } else if (line->state == MesiState::Exclusive) {
        line->state = MesiState::Shared;
    }
}

void
L1Cache::snoopWrite(Addr block)
{
    Line *line = findLine(block);
    if (!line)
        return;
    if (line->state == MesiState::Modified)
        ++*writebacks_;
    line->state = MesiState::Invalid;
    ++*invalidationsReceived_;
}

void
L1Cache::reset()
{
    for (auto &line : lines_)
        line = Line{};
    tick_ = 0;
}

L1Cache::Snapshot
L1Cache::snapshotState() const
{
    Snapshot snap;
    snap.lines = lines_;
    snap.tick = tick_;
    snap.lookups = lookups_;
    snap.fills = fills_->value();
    snap.evictions = evictions_->value();
    snap.writebacks = writebacks_->value();
    snap.invalidationsReceived = invalidationsReceived_->value();
    return snap;
}

void
L1Cache::restoreState(const Snapshot &snap)
{
    if (snap.lines.size() != lines_.size()) {
        panic("cache snapshot geometry mismatch: {} lines vs {}",
              snap.lines.size(), lines_.size());
    }
    lines_ = snap.lines;
    tick_ = snap.tick;
    lookups_ = snap.lookups;
    auto restoreCounter = [](Counter *c, std::uint64_t v) {
        c->reset();
        *c += v;
    };
    restoreCounter(fills_, snap.fills);
    restoreCounter(evictions_, snap.evictions);
    restoreCounter(writebacks_, snap.writebacks);
    restoreCounter(invalidationsReceived_, snap.invalidationsReceived);
}

} // namespace stm
