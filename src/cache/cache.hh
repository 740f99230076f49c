/**
 * @file
 * A per-core L1 data cache with MESI metadata.
 *
 * Matches the paper's LCR simulator configuration (Section 6): 2-way
 * set associative, 64-byte blocks, 64 KB total, per core. The cache
 * tracks coherence metadata only — data values live in the VM's
 * memory image — which is exactly what is needed to report the
 * pre-access coherence state for every load and store.
 *
 * Hot-path notes: block and set extraction are shift/mask (the
 * geometry checks guarantee power-of-two block size, and set counts
 * are power-of-two for power-of-two associativities); a lookup scans
 * the set's ways in order, which at the paper's 2-way geometry is at
 * most two tag compares. The per-event stat counters are resolved to
 * `Counter *` once at construction instead of by string on every
 * access; the counters stay inside the StatGroup so `stats().value()`
 * keeps reading live values.
 */

#ifndef STM_CACHE_CACHE_HH
#define STM_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/mesi.hh"
#include "isa/types.hh"
#include "support/stats.hh"

namespace stm
{

/** Cache geometry; defaults mirror the paper's simulator. */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t blockBytes = 64;
};

/**
 * One core's L1-D cache. Accesses are driven through the Bus, which
 * coordinates the MESI transitions across caches; the cache itself
 * owns lookup, fill, LRU eviction, and snoop state changes.
 */
class L1Cache
{
  public:
    struct Line
    {
        Addr tag = 0;
        MesiState state = MesiState::Invalid;
        std::uint64_t lastUse = 0;
    };

    /**
     * The complete per-cache state a resumed run needs: every line's
     * tag/MESI/LRU stamp, the LRU tick, and the
     * cumulative event counters (which feed cache-geometry RunResult
     * invariants and the vm throughput gauges).
     */
    struct Snapshot
    {
        std::vector<Line> lines;
        std::uint64_t tick = 0;
        std::uint64_t lookups = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t invalidationsReceived = 0;

        std::size_t
        approxBytes() const
        {
            return sizeof(Snapshot) + lines.capacity() * sizeof(Line);
        }
    };

    L1Cache(std::uint32_t core_id, const CacheGeometry &geometry);

    /** Block (line) address of @p addr. */
    Addr blockOf(Addr addr) const { return addr >> blockShift_; }

    /** Current MESI state of the line holding @p addr. */
    MesiState stateOf(Addr addr) const;

    /**
     * Install @p block with state @p state, evicting the set's LRU
     * victim if necessary. @return true if a modified victim was
     * written back.
     */
    bool fill(Addr block, MesiState state);

    /** Set the state of a resident line (hit-path transitions). */
    void setState(Addr block, MesiState state);

    /** Mark the line holding @p block most recently used. */
    void touch(Addr block);

    /** Snoop: another core reads the block (M/E -> S). */
    void snoopRead(Addr block);

    /** Snoop: another core writes the block (any -> I). */
    void snoopWrite(Addr block);

    /** Drop every line (used between simulated runs). */
    void reset();

    /** Capture the full mutable state (geometry is construction-fixed). */
    Snapshot snapshotState() const;
    /** Adopt @p snap; the geometry must match the construction one. */
    void restoreState(const Snapshot &snap);

    std::uint32_t coreId() const { return coreId_; }
    const CacheGeometry &geometry() const { return geometry_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Tag lookups performed (throughput instrumentation). */
    std::uint64_t lookups() const { return lookups_; }

  private:
    friend class Bus; //!< single-lookup access path in Bus::access

    std::uint32_t
    setIndex(Addr block) const
    {
        return setsArePow2_
                   ? static_cast<std::uint32_t>(block) & setMask_
                   : static_cast<std::uint32_t>(block % numSets_);
    }

    /**
     * Tag lookup. Inline: this is the single hottest cache routine —
     * every access, snoop, and state change funnels through it.
     */
    Line *
    findLine(Addr block)
    {
        ++lookups_;
        Line *base = &lines_[std::size_t{setIndex(block)} *
                             geometry_.assoc];
        for (std::uint32_t w = 0; w < geometry_.assoc; ++w) {
            Line &line = base[w];
            if (line.state != MesiState::Invalid && line.tag == block)
                return &line;
        }
        return nullptr;
    }

    const Line *
    findLine(Addr block) const
    {
        return const_cast<L1Cache *>(this)->findLine(block);
    }

    std::uint32_t coreId_;
    CacheGeometry geometry_;
    std::uint32_t numSets_;
    std::uint32_t blockShift_; //!< log2(blockBytes)
    std::uint32_t setMask_;    //!< numSets_ - 1 when power of two
    bool setsArePow2_;
    std::vector<Line> lines_;     //!< numSets_ * assoc, set-major
    std::uint64_t tick_;
    std::uint64_t lookups_ = 0;
    StatGroup stats_;
    // Event counters resolved once; they live inside stats_.
    Counter *fills_;
    Counter *evictions_;
    Counter *writebacks_;
    Counter *invalidationsReceived_;
};

} // namespace stm

#endif // STM_CACHE_CACHE_HH
