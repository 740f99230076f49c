/**
 * @file
 * Unit and property tests for the MESI cache substrate: single-core
 * state transitions, cross-core snooping, LRU eviction, writebacks,
 * false sharing — the machinery whose "state observed prior to the
 * access" output feeds the proposed LCR.
 */

#include <gtest/gtest.h>

#include "cache/bus.hh"
#include "cache/cache.hh"
#include "cache/mesi.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace stm
{
namespace
{

constexpr Addr kA = 0x600000;
constexpr Addr kB = 0x600040; // different line (64-byte blocks)
constexpr Addr kSameLineAsA = 0x600008;

TEST(Mesi, NamesAndUnitMasks)
{
    EXPECT_EQ(mesiName(MesiState::Invalid), "I");
    EXPECT_EQ(mesiName(MesiState::Modified), "M");
    EXPECT_EQ(mesiUnitMask(MesiState::Invalid), 0x01);
    EXPECT_EQ(mesiUnitMask(MesiState::Shared), 0x02);
    EXPECT_EQ(mesiUnitMask(MesiState::Exclusive), 0x04);
    EXPECT_EQ(mesiUnitMask(MesiState::Modified), 0x08);
}

TEST(Bus, ColdLoadObservesInvalidFillsExclusive)
{
    Bus bus;
    bus.addCore(0);
    EXPECT_EQ(bus.access(0, kA, false), MesiState::Invalid);
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Exclusive);
}

TEST(Bus, ExclusiveLoadHitStaysExclusive)
{
    Bus bus;
    bus.addCore(0);
    bus.access(0, kA, false);
    EXPECT_EQ(bus.access(0, kA, false), MesiState::Exclusive);
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Exclusive);
}

TEST(Bus, StoreToExclusiveSilentlyUpgrades)
{
    Bus bus;
    bus.addCore(0);
    bus.access(0, kA, false);
    EXPECT_EQ(bus.access(0, kA, true), MesiState::Exclusive);
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Modified);
    EXPECT_EQ(bus.stats().value("bus_upgrades"), 0u);
}

TEST(Bus, ColdStoreObservesInvalidFillsModified)
{
    Bus bus;
    bus.addCore(0);
    EXPECT_EQ(bus.access(0, kA, true), MesiState::Invalid);
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Modified);
}

TEST(Bus, RemoteReadDowngradesExclusiveToShared)
{
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    bus.access(0, kA, false); // core0: E
    EXPECT_EQ(bus.access(1, kA, false), MesiState::Invalid);
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Shared);
    EXPECT_EQ(bus.cache(1).stateOf(kA), MesiState::Shared);
}

TEST(Bus, RemoteReadOfModifiedCausesWriteback)
{
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    bus.access(0, kA, true); // core0: M
    bus.access(1, kA, false);
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Shared);
    EXPECT_EQ(bus.cache(0).stats().value("writebacks"), 1u);
}

TEST(Bus, SharedStoreUpgradesAndInvalidatesOthers)
{
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    bus.access(0, kA, false);
    bus.access(1, kA, false); // both S
    EXPECT_EQ(bus.access(0, kA, true), MesiState::Shared);
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Modified);
    EXPECT_EQ(bus.cache(1).stateOf(kA), MesiState::Invalid);
    EXPECT_EQ(bus.stats().value("bus_upgrades"), 1u);
}

TEST(Bus, RemoteWriteInvalidates)
{
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    bus.access(0, kA, false); // core0: E
    bus.access(1, kA, true);  // core1 writes
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Invalid);
    // The invalid read after a remote write: the LCR's bread and
    // butter (Table 3's FPEs).
    EXPECT_EQ(bus.access(0, kA, false), MesiState::Invalid);
}

TEST(Bus, FalseSharingIsLineGranular)
{
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    bus.access(0, kA, false);          // core0 reads word 0
    bus.access(1, kSameLineAsA, true); // core1 writes word 1
    // Same 64-byte line: core0 loses its copy (Section 5.3's
    // false-sharing limitation).
    EXPECT_EQ(bus.access(0, kA, false), MesiState::Invalid);
}

TEST(Bus, DistinctLinesDoNotInterfere)
{
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    bus.access(0, kA, false);
    bus.access(1, kB, true);
    EXPECT_EQ(bus.access(0, kA, false), MesiState::Exclusive);
}

TEST(Bus, OtherSharersReflectsOccupancy)
{
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    Addr block = bus.cache(0).blockOf(kA);
    EXPECT_FALSE(bus.otherSharers(0, block));
    bus.access(1, kA, false);
    EXPECT_TRUE(bus.otherSharers(0, block));
}

TEST(Bus, ResetDropsAllState)
{
    Bus bus;
    bus.addCore(0);
    bus.access(0, kA, true);
    bus.reset();
    EXPECT_EQ(bus.cache(0).stateOf(kA), MesiState::Invalid);
}

TEST(Bus, DenseCoreIdsEnforced)
{
    Bus bus;
    bus.addCore(0);
    EXPECT_THROW(bus.addCore(2), PanicError);
    EXPECT_THROW(bus.cache(5), PanicError);
}

// ---- geometry / eviction ---------------------------------------------------

TEST(L1Cache, GeometryValidation)
{
    CacheGeometry bad;
    bad.blockBytes = 48; // not a power of two
    EXPECT_THROW(L1Cache(0, bad), FatalError);
    CacheGeometry zeroAssoc;
    zeroAssoc.assoc = 0;
    EXPECT_THROW(L1Cache(0, zeroAssoc), FatalError);
}

TEST(L1Cache, EvictionIsLruWithinSet)
{
    // Tiny cache: 2 sets x 2 ways x 64B blocks = 256 bytes.
    CacheGeometry geo;
    geo.sizeBytes = 256;
    geo.assoc = 2;
    geo.blockBytes = 64;
    Bus bus(geo);
    bus.addCore(0);

    // Three blocks mapping to the same set (stride = 2 blocks).
    Addr a = 0x600000, b = 0x600080, c = 0x600100;
    bus.access(0, a, false);
    bus.access(0, b, false);
    bus.access(0, a, false); // a is now MRU
    bus.access(0, c, false); // evicts b (LRU)
    EXPECT_EQ(bus.cache(0).stateOf(a), MesiState::Exclusive);
    EXPECT_EQ(bus.cache(0).stateOf(b), MesiState::Invalid);
    EXPECT_EQ(bus.cache(0).stateOf(c), MesiState::Exclusive);
    EXPECT_EQ(bus.cache(0).stats().value("evictions"), 1u);
}

TEST(L1Cache, EvictingModifiedLineWritesBack)
{
    CacheGeometry geo;
    geo.sizeBytes = 128; // 2 sets x 1 way
    geo.assoc = 1;
    geo.blockBytes = 64;
    Bus bus(geo);
    bus.addCore(0);
    bus.access(0, 0x600000, true);  // M
    bus.access(0, 0x600080, false); // same set: evicts the M line
    EXPECT_EQ(bus.cache(0).stats().value("writebacks"), 1u);
    // Re-access observes Invalid: "invalid states could be caused by
    // both cache eviction and remote writes" (Section 5.3).
    EXPECT_EQ(bus.access(0, 0x600000, false), MesiState::Invalid);
}

/**
 * Property sweep: from every (initial state, operation) pair, the
 * requester observes the initial state and lands in the MESI-mandated
 * next state.
 */
struct MesiTransition
{
    MesiState initial;
    bool store;
    MesiState nextState;
};

class MesiTransitionSweep
    : public ::testing::TestWithParam<MesiTransition>
{
  protected:
    /** Drive core 0's line at kA into @p state. */
    void
    prepare(Bus &bus, MesiState state)
    {
        switch (state) {
          case MesiState::Invalid:
            break;
          case MesiState::Exclusive:
            bus.access(0, kA, false);
            break;
          case MesiState::Modified:
            bus.access(0, kA, true);
            break;
          case MesiState::Shared:
            bus.access(0, kA, false);
            bus.access(1, kA, false);
            break;
        }
        ASSERT_EQ(bus.cache(0).stateOf(kA), state);
    }
};

TEST_P(MesiTransitionSweep, ObservesInitialLandsInNext)
{
    const MesiTransition &t = GetParam();
    Bus bus;
    bus.addCore(0);
    bus.addCore(1);
    prepare(bus, t.initial);
    EXPECT_EQ(bus.access(0, kA, t.store), t.initial);
    EXPECT_EQ(bus.cache(0).stateOf(kA), t.nextState);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransitions, MesiTransitionSweep,
    ::testing::Values(
        MesiTransition{MesiState::Invalid, false,
                       MesiState::Exclusive},
        MesiTransition{MesiState::Invalid, true,
                       MesiState::Modified},
        MesiTransition{MesiState::Exclusive, false,
                       MesiState::Exclusive},
        MesiTransition{MesiState::Exclusive, true,
                       MesiState::Modified},
        MesiTransition{MesiState::Modified, false,
                       MesiState::Modified},
        MesiTransition{MesiState::Modified, true,
                       MesiState::Modified},
        MesiTransition{MesiState::Shared, false, MesiState::Shared},
        MesiTransition{MesiState::Shared, true,
                       MesiState::Modified}));

/**
 * Coherence invariant: after any random access sequence, at most one
 * core holds a given line in M or E, and M/E never coexists with
 * copies elsewhere.
 */
TEST(Bus, SingleWriterInvariantUnderRandomTraffic)
{
    Bus bus;
    for (std::uint32_t c = 0; c < 3; ++c)
        bus.addCore(c);
    Pcg32 rng(123);
    const Addr blocks[] = {0x600000, 0x600040, 0x600080};
    for (int step = 0; step < 2000; ++step) {
        std::uint32_t core = rng.nextBounded(3);
        Addr addr = blocks[rng.nextBounded(3)];
        bus.access(core, addr, rng.nextBool(0.5));
        for (Addr a : blocks) {
            int owners = 0, holders = 0;
            for (std::uint32_t c = 0; c < 3; ++c) {
                MesiState s = bus.cache(c).stateOf(a);
                if (s != MesiState::Invalid)
                    ++holders;
                if (s == MesiState::Modified ||
                    s == MesiState::Exclusive) {
                    ++owners;
                }
            }
            ASSERT_LE(owners, 1);
            if (owners == 1) {
                ASSERT_EQ(holders, 1);
            }
        }
    }
}

} // namespace
} // namespace stm
