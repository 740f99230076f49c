/**
 * @file
 * Edge-case tests for the paged flat memory image (vm/memory_image)
 * as driven through the Machine: segment boundaries, unmapped-address
 * segfaults, page-boundary crossings, heap brk growth via the Alloc
 * syscall, zero-fill semantics, and global overrides.
 *
 * The paged image replaced the seed's `unordered_map<Addr, Word>`;
 * these tests pin the contract that made that swap invisible: a valid
 * never-written cell reads 0, and validity (segment bounds, heap brk,
 * live stack span) is enforced exactly as before.
 */

#include <gtest/gtest.h>

#include <map>

#include "isa/types.hh"
#include "program/builder.hh"
#include "support/random.hh"
#include "test_util.hh"
#include "vm/machine.hh"
#include "vm/memory_image.hh"

namespace stm
{
namespace
{

using namespace regs;

RunResult
runProgram(ProgramPtr prog, MachineOptions opts = {})
{
    Machine machine(std::move(prog), std::move(opts));
    return machine.run();
}

// ---- segment boundaries ---------------------------------------------------

TEST(MemoryImage, LastGlobalWordIsValidOnePastIsNot)
{
    // One 8-word global: [kGlobalBase, kGlobalBase + 64) is mapped.
    ProgramBuilder ok("t");
    ok.global("g", 8);
    ok.func("main");
    ok.loadg(r1, "g", 7 * 8); // last valid word
    ok.out(r1);
    ok.halt();
    RunResult fine = runProgram(ok.build());
    EXPECT_EQ(fine.outcome, RunOutcome::Completed);
    EXPECT_EQ(fine.output, (std::vector<Word>{0}));

    ProgramBuilder bad("t");
    bad.global("g", 8);
    bad.func("main");
    bad.loadg(r1, "g", 8 * 8); // one word past the segment end
    bad.halt();
    RunResult fault = runProgram(bad.build());
    EXPECT_EQ(fault.outcome, RunOutcome::SegFault);
    ASSERT_TRUE(fault.failure.has_value());
}

TEST(MemoryImage, AddressBelowGlobalSegmentSegfaults)
{
    ProgramBuilder b("t");
    b.global("g", 4);
    b.func("main");
    b.movi(r1, static_cast<std::int64_t>(layout::kGlobalBase - 8));
    b.load(r2, r1);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::SegFault);
}

TEST(MemoryImage, GapBetweenHeapAndStackSegfaults)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, static_cast<std::int64_t>(layout::kStackBase - 8));
    b.load(r2, r1);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::SegFault);
}

TEST(MemoryImage, UnspawnedThreadStackIsUnmapped)
{
    // Only main is live, so the stack span covers one kStackSize
    // window; thread 1's would-be stack is invalid until spawned.
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, static_cast<std::int64_t>(layout::stackBase(1) + 64));
    b.load(r2, r1);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::SegFault);
}

TEST(MemoryImage, OwnStackIsReadableAndZeroFilled)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, static_cast<std::int64_t>(layout::stackBase(0)));
    b.load(r2, r1); // never-written stack word reads 0
    b.out(r2);
    b.movi(r3, 77);
    b.store(r1, 0, r3);
    b.load(r4, r1);
    b.out(r4);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{0, 77}));
}

// ---- page boundaries ------------------------------------------------------

TEST(MemoryImage, GlobalSpanningPageBoundaryRoundTrips)
{
    // 4 KiB pages hold 512 words; a 600-word global straddles the
    // first page boundary of the globals segment.
    ProgramBuilder b("t");
    b.global("big", 600);
    b.func("main");
    b.movi(r1, 41);
    b.movi(r2, 42);
    b.storeg("big", 511 * 8, r1, r10); // last word of page 0
    b.storeg("big", 512 * 8, r2, r10); // first word of page 1
    b.loadg(r3, "big", 511 * 8);
    b.loadg(r4, "big", 512 * 8);
    b.out(r3);
    b.out(r4);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{41, 42}));
}

TEST(MemoryImage, AlternatingPagesKeepDistinctContents)
{
    // Ping-pong stores across a page boundary: the one-entry
    // translation cache must never serve a stale page.
    ProgramBuilder b("t");
    b.global("big", 1024);
    b.func("main");
    b.movi(r1, 1);
    b.movi(r2, 2);
    b.storeg("big", 0, r1, r10);       // page 0
    b.storeg("big", 512 * 8, r2, r10); // page 1
    b.loadg(r3, "big", 0);         // back to page 0
    b.loadg(r4, "big", 512 * 8);   // page 1 again
    b.out(r3);
    b.out(r4);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{1, 2}));
}

// ---- heap brk growth ------------------------------------------------------

TEST(MemoryImage, AllocGrowsHeapAndZeroFills)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 64); // bytes
    b.syscall(SyscallNo::Alloc, r1, r2);
    b.out(r2);      // the returned base: first alloc starts at brk 0
    b.load(r3, r2, 56); // last word of the allocation, never written
    b.out(r3);
    b.movi(r4, 9);
    b.store(r2, 56, r4);
    b.load(r5, r2, 56);
    b.out(r5);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output,
              (std::vector<Word>{
                  static_cast<Word>(layout::kHeapBase), 0, 9}));
}

TEST(MemoryImage, AccessBeyondBrkSegfaults)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 64);
    b.syscall(SyscallNo::Alloc, r1, r2);
    b.load(r3, r2, 64); // one word past the allocation
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::SegFault);
}

TEST(MemoryImage, SecondAllocExtendsTheSameSegment)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 4096); // a full page
    b.syscall(SyscallNo::Alloc, r1, r2);
    b.syscall(SyscallNo::Alloc, r1, r3);
    b.movi(r4, 5);
    b.store(r3, 4088, r4); // deep inside the second allocation
    b.load(r5, r3, 4088);
    b.out(r5);
    b.sub(r6, r3, r2); // second base - first base == 4096
    b.out(r6);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{5, 4096}));
}

// ---- zero fill and overrides ---------------------------------------------

TEST(MemoryImage, UninitializedGlobalTailReadsZero)
{
    // init covers 1 of 4 words; the tail must read 0 (the hash-map
    // semantics the paged image preserves).
    ProgramBuilder b("t");
    b.global("g", 4, {123});
    b.func("main");
    b.loadg(r1, "g", 0);
    b.loadg(r2, "g", 8);
    b.loadg(r3, "g", 24);
    b.out(r1);
    b.out(r2);
    b.out(r3);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.output, (std::vector<Word>{123, 0, 0}));
}

TEST(MemoryImage, GlobalOverridesLandInPagedMemory)
{
    ProgramBuilder b("t");
    b.global("cfg", 3, {1, 2, 3});
    b.func("main");
    b.loadg(r1, "cfg", 0);
    b.loadg(r2, "cfg", 8);
    b.loadg(r3, "cfg", 16);
    b.out(r1);
    b.out(r2);
    b.out(r3);
    b.halt();
    MachineOptions opts;
    opts.globalOverrides = {{"cfg", {10, 20}}}; // partial override
    RunResult result = runProgram(b.build(), opts);
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{10, 20, 3}));
}

// ---- model-based property test --------------------------------------------

/**
 * Adversarial address generator for the paged image: addresses spread
 * over all three segments (a bounded number of pages each), biased
 * toward page boundaries (the shift/mask edge cases) and toward
 * alternating neighbour pages (a page switch on as many accesses as
 * possible).
 */
class AddressGen
{
  public:
    explicit AddressGen(Pcg32 &rng) : rng_(rng) {}

    Addr
    next()
    {
        static constexpr Addr bases[] = {
            layout::kGlobalBase, layout::kHeapBase,
            layout::kStackBase};
        constexpr Addr pageBytes = MemoryImage::kPageBytes;
        constexpr Addr pages = 64; // bounded footprint per segment

        Addr page;
        if (rng_.nextBool(0.4) && last_ != 0) {
            // Neighbour bias: hop to the adjacent page of the
            // previous access, then right back next call.
            page = (last_ & ~MemoryImage::kPageMask) ^ pageBytes;
        } else {
            page = bases[rng_.nextBounded(3)] +
                   pageBytes * rng_.nextBounded(pages);
        }

        Addr offset;
        if (rng_.nextBool(0.5)) {
            // Page-boundary bias: the first or last two cells.
            constexpr Addr edge[] = {0, 8, pageBytes - 16,
                                     pageBytes - 8};
            offset = edge[rng_.nextBounded(4)];
        } else {
            offset = 8 * rng_.nextBounded(
                             static_cast<std::uint32_t>(
                                 MemoryImage::kPageWords));
        }
        last_ = page + offset;
        return last_;
    }

  private:
    Pcg32 &rng_;
    Addr last_ = 0;
};

TEST(MemoryImageModel, AgreesWithMapReferenceOver100kOps)
{
    Pcg32 rng(test::testSeed(), 31);
    AddressGen gen(rng);
    MemoryImage image;
    std::map<Addr, Word> model; // keyed by cell address

    auto cellOf = [](Addr addr) { return addr & ~Addr{7}; };
    auto modelLoad = [&](Addr addr) -> Word {
        auto it = model.find(cellOf(addr));
        return it == model.end() ? 0 : it->second;
    };

    constexpr int kOps = 100000;
    std::uint64_t stores = 0, loads = 0, fills = 0;
    std::uint64_t expectedAccesses = 0;
    for (int op = 0; op < kOps; ++op) {
        std::uint32_t kind = rng.nextBounded(10);
        if (kind < 4) {
            // Load: a never-written cell must read 0, a written cell
            // its last store; sub-cell offsets alias the same cell.
            Addr addr = gen.next() + rng.nextBounded(8);
            ++loads;
            ++expectedAccesses;
            ASSERT_EQ(image.load(addr), modelLoad(addr))
                << "load 0x" << std::hex << addr << " at op " << op;
        } else if (kind < 9) {
            Addr addr = gen.next();
            Word value = (static_cast<Word>(rng.next()) << 32) |
                         rng.next();
            ++stores;
            ++expectedAccesses;
            image.store(addr, value);
            model[cellOf(addr)] = value;
        } else {
            // Fill: a short run of sequential stores, the pattern
            // that crosses page boundaries mid-run.
            Addr addr = gen.next();
            std::uint32_t run = 1 + rng.nextBounded(64);
            Word value = rng.next();
            ++fills;
            expectedAccesses += run;
            for (std::uint32_t i = 0; i < run; ++i) {
                image.store(addr + 8 * i, value + i);
                model[cellOf(addr + 8 * i)] = value + i;
            }
        }
    }
    EXPECT_EQ(image.accesses(), expectedAccesses);

    // Closing sweep: every cell the model knows must match, so a
    // store misrouted to a page the random loads never revisited
    // still fails the test.
    for (const auto &[addr, value] : model)
        ASSERT_EQ(image.load(addr), value)
            << "sweep 0x" << std::hex << addr;

    EXPECT_GT(stores, 0u);
    EXPECT_GT(loads, 0u);
    EXPECT_GT(fills, 0u);
}

TEST(MemoryImageModel, AdjacentPagesStayApartUnderPingPong)
{
    // Two cells on adjacent pages, touched alternately: every access
    // switches page. Values must be unaffected.
    MemoryImage image;
    Addr a = layout::kHeapBase + 8;
    Addr b = a + MemoryImage::kPageBytes;
    for (Word i = 0; i < 1000; ++i) {
        image.store(a, i);
        image.store(b, ~i);
        ASSERT_EQ(image.load(a), i);
        ASSERT_EQ(image.load(b), ~i);
    }
    EXPECT_EQ(image.accesses(), 4000u);
}

} // namespace
} // namespace stm
