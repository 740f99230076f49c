#include "vm/memory_image.hh"

#include <cstring>

#include "support/logging.hh"

namespace stm
{

namespace
{

std::size_t
segmentPageCount(const std::vector<std::shared_ptr<Word[]>> &pages)
{
    std::size_t n = 0;
    for (const auto &page : pages) {
        if (page)
            ++n;
    }
    return n;
}

} // namespace

std::size_t
MemorySnapshot::pageCount() const
{
    return segmentPageCount(globals) + segmentPageCount(heap) +
           segmentPageCount(stacks);
}

std::size_t
MemorySnapshot::approxBytes() const
{
    return pageCount() * MemoryImage::kPageBytes +
           (globals.capacity() + heap.capacity() + stacks.capacity()) *
               sizeof(std::shared_ptr<Word[]>);
}

MemoryImage::MemoryImage()
{
    globals_.base = layout::kGlobalBase;
    heap_.base = layout::kHeapBase;
    stacks_.base = layout::kStackBase;
}

MemoryImage::Segment &
MemoryImage::segmentFor(Addr addr)
{
    if (addr >= layout::kStackBase)
        return stacks_;
    if (addr >= layout::kHeapBase)
        return heap_;
    if (addr >= layout::kGlobalBase)
        return globals_;
    panic("memory image access outside any data segment: 0x{}", addr);
}

std::shared_ptr<Word[]> &
MemoryImage::materialize(Addr addr)
{
    Segment &seg = segmentFor(addr);
    std::size_t index =
        static_cast<std::size_t>((addr - seg.base) >> kPageShift);
    if (index >= seg.pages.size())
        seg.pages.resize(index + 1);
    if (!seg.pages[index]) {
        // Zero-filled materialization: a never-written word reads 0,
        // exactly like the seed's absent hash-map entry.
        seg.pages[index] = std::make_shared<Word[]>(kPageWords);
    }
    return seg.pages[index];
}

Word
MemoryImage::load(Addr addr)
{
    ++accesses_;
    return materialize(addr)[(addr & kPageMask) >> 3];
}

void
MemoryImage::store(Addr addr, Word value)
{
    ++accesses_;
    std::shared_ptr<Word[]> &slot = materialize(addr);
    if (slot.use_count() > 1) {
        // Privatize: another owner (a checkpoint) holds this page.
        auto copy = std::make_shared<Word[]>(kPageWords);
        std::memcpy(copy.get(), slot.get(), kPageBytes);
        slot = std::move(copy);
    }
    slot[(addr & kPageMask) >> 3] = value;
}

MemorySnapshot
MemoryImage::fork()
{
    MemorySnapshot snap;
    snap.globals = globals_.pages;
    snap.heap = heap_.pages;
    snap.stacks = stacks_.pages;
    snap.accesses = accesses_;
    return snap;
}

void
MemoryImage::restore(const MemorySnapshot &snap)
{
    globals_.pages = snap.globals;
    heap_.pages = snap.heap;
    stacks_.pages = snap.stacks;
    accesses_ = snap.accesses;
}

} // namespace stm
