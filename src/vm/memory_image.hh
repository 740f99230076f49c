/**
 * @file
 * The flat paged data-memory image of one simulated machine, with
 * copy-on-write page sharing for O(dirty-pages) checkpointing.
 *
 * Replaces the seed's `unordered_map<Addr, Word>` with a direct-mapped
 * page table over the fixed address-space layout (isa/types.hh): one
 * table per segment (globals, heap, stacks), indexed by
 * `(addr - segment base) >> kPageShift`. Pages are zero-filled and
 * materialized on first touch, which preserves the map's semantics
 * exactly — a never-written valid word reads as 0 — while making
 * every access a segment compare, a shift and an indexed load.
 *
 * Pages are refcounted (`shared_ptr<Word[]>`). fork() snapshots the
 * whole image by copying the page *tables* — O(pages), bumping every
 * page's refcount — so a checkpoint costs nothing per untouched page.
 * A store privatizes its page first when the refcount shows another
 * owner (checkpoint or forked sibling): copy the 4 KiB once, then
 * write in place forever after. Fork cost is therefore O(pages
 * touched since the last fork), not O(memory).
 *
 * Every access takes the same route: pick the segment by address
 * range, index its page table, and touch the word. There is no
 * translation cache in front of it; a one-entry last-page cache was
 * measured on the end-to-end `lbra-seq` campaign and did not beat
 * run-to-run noise (EXPERIMENTS.md, "Interpreter throughput").
 *
 * *Validity* is not this class's job: the Machine checks segment
 * bounds (globals end, heap brk, live stack spans) before touching the
 * image, exactly as the seed interpreter did, so segfault behavior is
 * bit-identical. The image only requires that accessed addresses lie
 * in some segment.
 */

#ifndef STM_VM_MEMORY_IMAGE_HH
#define STM_VM_MEMORY_IMAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/types.hh"

namespace stm
{

/**
 * An immutable snapshot of one MemoryImage: the three segments' page
 * tables with every page co-owned. Cheap to copy (vector of
 * refcounted pointers); the pages themselves are frozen by the CoW
 * discipline — any writer privatizes before touching them.
 */
struct MemorySnapshot
{
    std::vector<std::shared_ptr<Word[]>> globals;
    std::vector<std::shared_ptr<Word[]>> heap;
    std::vector<std::shared_ptr<Word[]>> stacks;
    std::uint64_t accesses = 0;

    /** Materialized pages across all three segments. */
    std::size_t pageCount() const;
    /** Retained bytes if this snapshot were the sole page owner. */
    std::size_t approxBytes() const;
};

/** Paged data memory for one Machine (word-granular, 8-byte cells). */
class MemoryImage
{
  public:
    static constexpr Addr kPageShift = 12; //!< 4 KiB pages
    static constexpr Addr kPageBytes = Addr{1} << kPageShift;
    static constexpr Addr kPageMask = kPageBytes - 1;
    static constexpr std::size_t kPageWords = kPageBytes / 8;

    MemoryImage();

    MemoryImage(const MemoryImage &) = delete;
    MemoryImage &operator=(const MemoryImage &) = delete;

    /** Load the word cell containing @p addr (0 if never written). */
    Word load(Addr addr);

    /**
     * Store @p value into the word cell containing @p addr,
     * privatizing its page first if a snapshot co-owns it.
     */
    void store(Addr addr, Word value);

    /**
     * Snapshot the image by sharing every materialized page
     * (O(pages) pointer copies — no page data moves). Every page is
     * co-owned afterwards, so the next store to each privatizes it.
     */
    MemorySnapshot fork();

    /**
     * Adopt @p snap's pages, discarding the current contents. The
     * snapshot stays valid (pages are co-owned until written).
     */
    void restore(const MemorySnapshot &snap);

    /** Total accesses routed through the image. */
    std::uint64_t accesses() const { return accesses_; }

  private:
    /** One segment's direct-mapped page table. */
    struct Segment
    {
        Addr base = 0;
        std::vector<std::shared_ptr<Word[]>> pages;
    };

    Segment &segmentFor(Addr addr);
    std::shared_ptr<Word[]> &materialize(Addr addr);

    Segment globals_;
    Segment heap_;
    Segment stacks_;

    std::uint64_t accesses_ = 0;
};

} // namespace stm

#endif // STM_VM_MEMORY_IMAGE_HH
