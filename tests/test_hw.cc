/**
 * @file
 * Unit tests for the hardware monitoring units: LBR (ring semantics,
 * Table 1 filter masks, enable/disable), LCR (Table 2 event masks,
 * per-thread rings, the two paper configurations), and performance
 * counters (selection, overflow sampling).
 */

#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

#include "hw/bts.hh"
#include "hw/lbr.hh"
#include "hw/lcr.hh"
#include "hw/msr.hh"
#include "hw/perf_counter.hh"
#include "hw/pmu.hh"
#include "program/builder.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

BranchRecord
record(BranchKind kind, bool kernel = false)
{
    BranchRecord r;
    r.fromIp = 0x400000;
    r.toIp = 0x400010;
    r.kind = kind;
    r.kernel = kernel;
    return r;
}

// ---- LBR --------------------------------------------------------------------

TEST(Lbr, DisabledByDefault)
{
    LastBranchRecord lbr(16);
    EXPECT_FALSE(lbr.enabled());
    lbr.retire(record(BranchKind::Conditional));
    EXPECT_EQ(lbr.size(), 0u);
}

TEST(Lbr, EnableViaDebugCtlValue)
{
    LastBranchRecord lbr(16);
    lbr.writeDebugCtl(msr::kDebugCtlEnableLbr);
    EXPECT_TRUE(lbr.enabled());
    lbr.retire(record(BranchKind::Conditional));
    EXPECT_EQ(lbr.size(), 1u);
    lbr.writeDebugCtl(msr::kDebugCtlDisableLbr);
    lbr.retire(record(BranchKind::Conditional));
    EXPECT_EQ(lbr.size(), 1u); // frozen while disabled
}

TEST(Lbr, CapacityMatchesConstruction)
{
    for (std::size_t n : {4u, 8u, 16u}) {
        LastBranchRecord lbr(n);
        lbr.writeDebugCtl(msr::kDebugCtlEnableLbr);
        for (int i = 0; i < 50; ++i)
            lbr.retire(record(BranchKind::Conditional));
        EXPECT_EQ(lbr.size(), n);
    }
}

TEST(Lbr, NewestFirstSnapshot)
{
    LastBranchRecord lbr(4);
    lbr.writeDebugCtl(msr::kDebugCtlEnableLbr);
    for (Addr ip = 1; ip <= 6; ++ip) {
        BranchRecord r = record(BranchKind::Conditional);
        r.fromIp = ip;
        lbr.retire(r);
    }
    auto snap = lbr.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap[0].fromIp, 6u);
    EXPECT_EQ(snap[3].fromIp, 3u);
}

TEST(Lbr, ClearEmptiesTheRing)
{
    LastBranchRecord lbr(4);
    lbr.writeDebugCtl(msr::kDebugCtlEnableLbr);
    lbr.retire(record(BranchKind::Conditional));
    lbr.clear();
    EXPECT_EQ(lbr.size(), 0u);
}

TEST(Lbr, PaperMaskKeepsCondAndRelJumpOnly)
{
    LastBranchRecord lbr(16);
    lbr.writeSelect(msr::kPaperLbrSelect);
    lbr.writeDebugCtl(msr::kDebugCtlEnableLbr);
    lbr.retire(record(BranchKind::Conditional));
    lbr.retire(record(BranchKind::NearRelativeJump));
    lbr.retire(record(BranchKind::NearRelativeCall));
    lbr.retire(record(BranchKind::NearIndirectCall));
    lbr.retire(record(BranchKind::NearReturn));
    lbr.retire(record(BranchKind::NearIndirectJump));
    lbr.retire(record(BranchKind::FarBranch));
    lbr.retire(record(BranchKind::Conditional, /*kernel=*/true));
    EXPECT_EQ(lbr.size(), 2u);
}

/** Table 1 filter sweep: each set bit suppresses exactly its class. */
struct FilterCase
{
    std::uint64_t mask;
    BranchKind kind;
    bool kernel;
    bool suppressed;
};

/**
 * Print a case as gtest's byte dump of a copy whose padding is zeroed.
 * gtest_discover_tests names each case after this text, so without it
 * the name carries whatever the padding held and changes run to run.
 */
void
PrintTo(const FilterCase &c, std::ostream *os)
{
    FilterCase clean;
    std::memset(&clean, 0, sizeof clean);
    clean.mask = c.mask;
    clean.kind = c.kind;
    clean.kernel = c.kernel;
    clean.suppressed = c.suppressed;
    ::testing::internal::PrintBytesInObjectTo(
        reinterpret_cast<const unsigned char *>(&clean), sizeof clean, os);
}

class LbrFilterSweep : public ::testing::TestWithParam<FilterCase>
{
};

TEST_P(LbrFilterSweep, MaskBitSuppressesItsClass)
{
    const FilterCase &c = GetParam();
    LastBranchRecord lbr(16);
    lbr.writeSelect(c.mask);
    lbr.writeDebugCtl(msr::kDebugCtlEnableLbr);
    lbr.retire(record(c.kind, c.kernel));
    EXPECT_EQ(lbr.size(), c.suppressed ? 0u : 1u);
    EXPECT_EQ(lbr.filteredOut(record(c.kind, c.kernel)),
              c.suppressed);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, LbrFilterSweep,
    ::testing::Values(
        FilterCase{msr::kLbrFilterRing0, BranchKind::Conditional,
                   true, true},
        FilterCase{msr::kLbrFilterRing0, BranchKind::Conditional,
                   false, false},
        FilterCase{msr::kLbrFilterOtherRings,
                   BranchKind::Conditional, false, true},
        FilterCase{msr::kLbrFilterConditional,
                   BranchKind::Conditional, false, true},
        FilterCase{msr::kLbrFilterConditional,
                   BranchKind::NearRelativeJump, false, false},
        FilterCase{msr::kLbrFilterNearRelCall,
                   BranchKind::NearRelativeCall, false, true},
        FilterCase{msr::kLbrFilterNearIndCall,
                   BranchKind::NearIndirectCall, false, true},
        FilterCase{msr::kLbrFilterNearRet, BranchKind::NearReturn,
                   false, true},
        FilterCase{msr::kLbrFilterNearIndJmp,
                   BranchKind::NearIndirectJump, false, true},
        FilterCase{msr::kLbrFilterNearRelJmp,
                   BranchKind::NearRelativeJump, false, true},
        FilterCase{msr::kLbrFilterFar, BranchKind::FarBranch, false,
                   true},
        FilterCase{0, BranchKind::FarBranch, false, false}));

TEST(Lbr, Table1Encodings)
{
    EXPECT_EQ(msr::kIa32DebugCtl, 0x1d9u);
    EXPECT_EQ(msr::kLbrSelect, 0x1c8u);
    EXPECT_EQ(msr::kDebugCtlEnableLbr, 0x801u);
    EXPECT_EQ(msr::kLbrFilterRing0, 0x1u);
    EXPECT_EQ(msr::kLbrFilterConditional, 0x4u);
    EXPECT_EQ(msr::kLbrFilterNearRelCall, 0x8u);
    EXPECT_EQ(msr::kLbrFilterNearIndCall, 0x10u);
    EXPECT_EQ(msr::kLbrFilterNearRet, 0x20u);
    EXPECT_EQ(msr::kLbrFilterNearIndJmp, 0x40u);
    EXPECT_EQ(msr::kLbrFilterNearRelJmp, 0x80u);
    EXPECT_EQ(msr::kLbrFilterFar, 0x100u);
    // The paper's starred rows.
    EXPECT_EQ(msr::kPaperLbrSelect, 0x179u);
}

// ---- LCR --------------------------------------------------------------------

CoherenceEvent
event(MesiState state, bool store = false, bool kernel = false)
{
    CoherenceEvent e;
    e.pc = 0x400100;
    e.observed = state;
    e.store = store;
    e.kernel = kernel;
    return e;
}

TEST(LcrConfig, PackUnpackRoundTrip)
{
    for (std::uint8_t load = 0; load < 16; ++load) {
        for (std::uint8_t st = 0; st < 16; ++st) {
            LcrConfig config;
            config.loadMask = load;
            config.storeMask = st;
            config.filterKernel = (load & 1) != 0;
            config.filterUser = (st & 1) != 0;
            EXPECT_EQ(LcrConfig::unpack(config.pack()), config);
        }
    }
}

TEST(LcrConfig, PaperConfigurations)
{
    LcrConfig conf2 = lcrConfSpaceConsuming();
    EXPECT_TRUE(conf2.matches(event(MesiState::Invalid)));
    EXPECT_TRUE(conf2.matches(event(MesiState::Exclusive)));
    EXPECT_TRUE(conf2.matches(event(MesiState::Invalid, true)));
    EXPECT_FALSE(conf2.matches(event(MesiState::Shared)));
    EXPECT_FALSE(conf2.matches(event(MesiState::Modified)));
    EXPECT_FALSE(conf2.matches(event(MesiState::Exclusive, true)));

    LcrConfig conf1 = lcrConfSpaceSaving();
    EXPECT_TRUE(conf1.matches(event(MesiState::Invalid)));
    EXPECT_TRUE(conf1.matches(event(MesiState::Shared)));
    EXPECT_TRUE(conf1.matches(event(MesiState::Invalid, true)));
    EXPECT_FALSE(conf1.matches(event(MesiState::Exclusive)));
}

TEST(LcrConfig, KernelFiltering)
{
    LcrConfig config = lcrConfSpaceConsuming();
    EXPECT_FALSE(
        config.matches(event(MesiState::Invalid, false, true)));
    config.filterKernel = false;
    EXPECT_TRUE(
        config.matches(event(MesiState::Invalid, false, true)));
}

TEST(LcrDomain, RecordsOnlyWhenEnabled)
{
    LcrDomain lcr(16);
    lcr.configure(lcrConfSpaceConsuming());
    lcr.retire(0, event(MesiState::Invalid));
    EXPECT_TRUE(lcr.snapshot(0).empty());
    lcr.enable();
    lcr.retire(0, event(MesiState::Invalid));
    EXPECT_EQ(lcr.snapshot(0).size(), 1u);
    lcr.disable();
    lcr.retire(0, event(MesiState::Invalid));
    EXPECT_EQ(lcr.snapshot(0).size(), 1u); // frozen
}

TEST(LcrDomain, PerThreadRingsAreIndependent)
{
    LcrDomain lcr(16);
    lcr.configure(lcrConfSpaceConsuming());
    lcr.enable();
    lcr.retire(0, event(MesiState::Invalid));
    lcr.retire(1, event(MesiState::Exclusive));
    ASSERT_EQ(lcr.snapshot(0).size(), 1u);
    ASSERT_EQ(lcr.snapshot(1).size(), 1u);
    EXPECT_EQ(lcr.snapshot(0)[0].observed, MesiState::Invalid);
    EXPECT_EQ(lcr.snapshot(1)[0].observed, MesiState::Exclusive);
    EXPECT_TRUE(lcr.snapshot(7).empty());
}

TEST(LcrDomain, CapacityBoundsEachThread)
{
    LcrDomain lcr(4);
    lcr.configure(lcrConfSpaceConsuming());
    lcr.enable();
    for (int i = 0; i < 10; ++i)
        lcr.retire(0, event(MesiState::Invalid));
    EXPECT_EQ(lcr.snapshot(0).size(), 4u);
}

TEST(LcrDomain, ConfigurationFiltersEvents)
{
    LcrDomain lcr(16);
    lcr.configure(lcrConfSpaceConsuming());
    lcr.enable();
    lcr.retire(0, event(MesiState::Modified));         // filtered
    lcr.retire(0, event(MesiState::Shared));           // filtered
    lcr.retire(0, event(MesiState::Exclusive, true));  // filtered
    lcr.retire(0, event(MesiState::Exclusive, false)); // recorded
    EXPECT_EQ(lcr.snapshot(0).size(), 1u);
}

TEST(LcrDomain, CleanDropsAllThreads)
{
    LcrDomain lcr(16);
    lcr.configure(lcrConfSpaceConsuming());
    lcr.enable();
    lcr.retire(0, event(MesiState::Invalid));
    lcr.retire(1, event(MesiState::Invalid));
    lcr.clean();
    EXPECT_TRUE(lcr.snapshot(0).empty());
    EXPECT_TRUE(lcr.snapshot(1).empty());
}

TEST(LcrDomain, RecordsPcNotAddress)
{
    // Footnote 2: memory addresses are not recorded (privacy).
    LcrDomain lcr(16);
    lcr.configure(lcrConfSpaceConsuming());
    lcr.enable();
    lcr.retire(0, event(MesiState::Invalid));
    LcrRecord rec = lcr.snapshot(0)[0];
    EXPECT_EQ(rec.pc, 0x400100u);
    // LcrRecord has no address field by design; this is a
    // compile-time property, asserted by construction.
}

// ---- performance counters -------------------------------------------------

TEST(PerfCounter, CountsMatchingEventsOnly)
{
    PerfCounter counter;
    counter.configure(msr::kEventLoad, msr::kUmaskInvalid, false,
                      true);
    counter.enable();
    counter.observe(event(MesiState::Invalid));        // +1
    counter.observe(event(MesiState::Exclusive));      // no
    counter.observe(event(MesiState::Invalid, true));  // store: no
    counter.observe(event(MesiState::Invalid, false, true)); // kernel
    EXPECT_EQ(counter.count(), 1u);
}

TEST(PerfCounter, DisabledCountsNothing)
{
    PerfCounter counter;
    counter.configure(msr::kEventLoad, msr::kUmaskInvalid, false,
                      true);
    counter.observe(event(MesiState::Invalid));
    EXPECT_EQ(counter.count(), 0u);
}

TEST(PerfCounter, UnitMaskCombinations)
{
    PerfCounter counter;
    counter.configure(msr::kEventLoad,
                      msr::kUmaskInvalid | msr::kUmaskExclusive,
                      false, true);
    counter.enable();
    counter.observe(event(MesiState::Invalid));
    counter.observe(event(MesiState::Exclusive));
    counter.observe(event(MesiState::Shared));
    EXPECT_EQ(counter.count(), 2u);
}

TEST(PerfCounter, OverflowSamplingFiresAboutEveryPeriod)
{
    PerfCounter counter;
    counter.configure(msr::kEventLoad, msr::kUmaskInvalid, false,
                      true);
    int interrupts = 0;
    counter.setSampling(3, [&](const CoherenceEvent &) {
        ++interrupts;
    });
    counter.enable();
    for (int i = 0; i < 100; ++i)
        counter.observe(event(MesiState::Invalid));
    // The period is jittered into [1, 4] around 3 (PEBS-style
    // randomization): roughly 25-70 interrupts over 100 events.
    EXPECT_GE(interrupts, 25);
    EXPECT_LE(interrupts, 70);
    EXPECT_EQ(counter.count(), 100u);
}

TEST(PerfCounter, PeriodOneSamplesEveryEvent)
{
    PerfCounter counter;
    counter.configure(msr::kEventLoad, msr::kUmaskInvalid, false,
                      true);
    int interrupts = 0;
    counter.setSampling(1, [&](const CoherenceEvent &) {
        ++interrupts;
    });
    counter.enable();
    for (int i = 0; i < 10; ++i)
        counter.observe(event(MesiState::Invalid));
    EXPECT_EQ(interrupts, 10);
}

TEST(Pmu, FansAccessesToAllCounters)
{
    Pmu pmu(16);
    pmu.counter(0).configure(msr::kEventLoad, msr::kUmaskInvalid,
                             false, true);
    pmu.counter(0).enable();
    pmu.counter(1).configure(msr::kEventStore, msr::kUmaskInvalid,
                             false, true);
    pmu.counter(1).enable();
    pmu.observeAccess(event(MesiState::Invalid, false));
    pmu.observeAccess(event(MesiState::Invalid, true));
    EXPECT_EQ(pmu.counter(0).count(), 1u);
    EXPECT_EQ(pmu.counter(1).count(), 1u);
}

TEST(Pmu, RetireBranchFeedsLbr)
{
    Pmu pmu(8);
    pmu.lbr().writeDebugCtl(msr::kDebugCtlEnableLbr);
    pmu.retireBranch(record(BranchKind::Conditional));
    EXPECT_EQ(pmu.lbr().size(), 1u);
}

// ---- BTS --------------------------------------------------------------------

TEST(Bts, DisabledRecordsNothingAndCostsNothing)
{
    BranchTraceStore bts;
    EXPECT_EQ(bts.retire(0, record(BranchKind::Conditional)), 0u);
    EXPECT_EQ(bts.size(), 0u);
}

TEST(Bts, EnabledAppendsWithoutEviction)
{
    BranchTraceStore bts;
    bts.enable();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(bts.retire(0, record(BranchKind::Conditional)),
                  BranchTraceStore::kPerRecordCost);
    }
    EXPECT_EQ(bts.size(), 1000u); // no 16-entry horizon
}

TEST(Bts, SharesLbrClassFiltering)
{
    BranchTraceStore bts;
    bts.enable();
    bts.writeSelect(msr::kPaperLbrSelect);
    EXPECT_EQ(bts.retire(0, record(BranchKind::NearReturn)), 0u);
    EXPECT_GT(bts.retire(0, record(BranchKind::Conditional)), 0u);
    EXPECT_EQ(bts.size(), 1u);
}

TEST(Bts, PositionOfBranchIsPerThreadFromTheTail)
{
    BranchTraceStore bts;
    bts.enable();
    BranchRecord a = record(BranchKind::Conditional);
    a.srcBranch = 1;
    BranchRecord other = record(BranchKind::Conditional);
    other.srcBranch = 2;
    bts.retire(0, a);
    bts.retire(1, other); // another thread: invisible to thread 0
    bts.retire(0, other);
    EXPECT_EQ(bts.positionOfBranch(0, 1), 2u);
    EXPECT_EQ(bts.positionOfBranch(0, 2), 1u);
    EXPECT_EQ(bts.positionOfBranch(1, 2), 1u);
    EXPECT_EQ(bts.positionOfBranch(0, 9), 0u);
}

// ---- exhaustive LBR_SELECT sweep -------------------------------------------

namespace
{

/**
 * A program that retires every branch class in both rings: user and
 * kernel conditionals, relative jumps, relative and indirect calls,
 * returns, indirect jumps, and the far branches of the syscall
 * boundary. The sweep below checks the machine's LBR against the
 * naive reference filter on exactly this stream.
 */
ProgramPtr
kernelNoiseProgram()
{
    using namespace regs;
    ProgramBuilder b("lbr-select-sweep");

    b.func("main");
    b.movi(r4, 0);
    b.movi(r5, 4);
    b.beginWhile(Cond::Lt, r4, r5, "user loop");
    {
        b.movi(r6, 2);
        // Both outcomes across the four iterations.
        b.beginIf(Cond::Lt, r4, r6, "user conditional");
        b.endIf();
        b.call("leaf");
        b.leaFunction(r7, "leaf");
        b.icall(r7);
        b.sysEnter("sys_noise");
        b.addi(r4, r4, 1);
    }
    b.endWhile();
    b.leaFunction(r8, "finish");
    b.ijmp(r8);

    b.func("leaf");
    b.ret();

    b.func("finish");
    b.halt();

    b.kernelMode(true);
    b.func("sys_noise");
    b.movi(r16, 0);
    b.movi(r17, 3);
    b.beginWhile(Cond::Lt, r16, r17, "kernel loop");
    {
        b.movi(r18, 1);
        b.beginIf(Cond::Lt, r16, r18, "kernel conditional");
        b.endIf();
        b.addi(r16, r16, 1);
    }
    b.endWhile();
    b.call("kleaf");
    b.leaFunction(r19, "kleaf");
    b.icall(r19);
    b.leaFunction(r20, "kfinish");
    b.ijmp(r20);

    b.func("kleaf");
    b.ret();

    b.func("kfinish");
    b.sysRet();
    b.kernelMode(false);

    return b.build();
}

} // namespace

/**
 * Property test over the full LBR_SELECT space: for each of the 512
 * combinations of the nine Table 1 filter bits, the machine's
 * 16-entry LBR at end of run must equal the naive reference — filter
 * the complete retired-branch stream (captured once via BTS with a
 * record-everything select) through lbrClassFilteredOut and keep the
 * newest 16.
 */
TEST(Lbr, SelectSweepMatchesNaiveFilterOverKernelNoise)
{
    // Reference stream: BTS with select 0 appends every retired
    // taken branch in order, kernel-stamped exactly as the LBR runs
    // will see them.
    ProgramPtr prog = kernelNoiseProgram();
    auto refPlan = std::make_shared<Instrumentation>();
    refPlan->btsEnabled = true;
    refPlan->btsSelectMask = 0;
    RunResult refRun = Machine(prog, {}, refPlan).run();
    ASSERT_EQ(refRun.outcome, RunOutcome::Completed);

    // The stream must actually exercise every (class, ring) pair, or
    // the sweep proves less than it claims.
    auto seen = [&](BranchKind k, bool kernel) {
        for (const auto &e : refRun.btsTrace)
            if (e.record.kind == k && e.record.kernel == kernel)
                return true;
        return false;
    };
    for (BranchKind k :
         {BranchKind::Conditional, BranchKind::NearRelativeJump,
          BranchKind::NearRelativeCall, BranchKind::NearIndirectCall,
          BranchKind::NearReturn, BranchKind::NearIndirectJump,
          BranchKind::FarBranch}) {
        EXPECT_TRUE(seen(k, false)) << static_cast<int>(k);
        EXPECT_TRUE(seen(k, true)) << static_cast<int>(k);
    }

    std::uint32_t haltIdx = 0;
    for (std::uint32_t i = 0; i < prog->code.size(); ++i)
        if (prog->code[i].op == Opcode::Halt)
            haltIdx = i;
    for (std::uint64_t select = 0; select < 512; ++select) {
        auto plan = std::make_shared<Instrumentation>();
        plan->enableLbrAtMain = true;
        plan->lbrSelectMask = select;
        plan->before[haltIdx].push_back(
            Hook{HookAction::ProfileLbr, 0, false});

        RunResult run = Machine(prog, {}, plan).run();
        ASSERT_EQ(run.outcome, RunOutcome::Completed);
        ASSERT_EQ(run.profiles.size(), 1u) << "select=" << select;

        std::vector<BranchRecord> kept;
        for (const auto &e : refRun.btsTrace)
            if (!lbrClassFilteredOut(select, e.record))
                kept.push_back(e.record);
        std::vector<BranchRecord> expect; // newest first, depth 16
        for (auto it = kept.rbegin();
             it != kept.rend() && expect.size() < 16; ++it)
            expect.push_back(*it);

        EXPECT_EQ(run.profiles[0].lbr, expect)
            << "select=" << select;
    }
}

} // namespace
} // namespace stm
