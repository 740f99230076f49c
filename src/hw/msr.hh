/**
 * @file
 * Machine-specific register and event encodings, straight from the
 * paper's Table 1 (LBR) and Table 2 (L1-D cache-coherence events on
 * Intel Nehalem).
 */

#ifndef STM_HW_MSR_HH
#define STM_HW_MSR_HH

#include <cstddef>
#include <cstdint>

namespace stm::msr
{

/**
 * Deepest LBR/LCR ring a tool lets a user configure. Real parts have
 * 4 to 32 LBR entries (Section 2.1); the bound keeps a mistyped depth
 * from sizing each ring's slot vector into an allocation failure.
 */
constexpr std::size_t kMaxRecordEntries = 1024;

// ---- Table 1: LBR-related machine specific registers -------------------

/** IA32_DEBUGCTL register id. */
constexpr std::uint32_t kIa32DebugCtl = 0x1d9;
/** Value enabling LBR recording. */
constexpr std::uint64_t kDebugCtlEnableLbr = 0x801;
/** Value disabling LBR recording. */
constexpr std::uint64_t kDebugCtlDisableLbr = 0x0;

/** LBR_SELECT register id. */
constexpr std::uint32_t kLbrSelect = 0x1c8;

/**
 * LBR_SELECT filter bits. A set bit *suppresses* the corresponding
 * class of branches from being recorded.
 */
constexpr std::uint64_t kLbrFilterRing0 = 0x1;
constexpr std::uint64_t kLbrFilterOtherRings = 0x2;
constexpr std::uint64_t kLbrFilterConditional = 0x4;
constexpr std::uint64_t kLbrFilterNearRelCall = 0x8;
constexpr std::uint64_t kLbrFilterNearIndCall = 0x10;
constexpr std::uint64_t kLbrFilterNearRet = 0x20;
constexpr std::uint64_t kLbrFilterNearIndJmp = 0x40;
constexpr std::uint64_t kLbrFilterNearRelJmp = 0x80;
constexpr std::uint64_t kLbrFilterFar = 0x100;

/**
 * The mask used throughout the paper (the starred rows of Table 1):
 * suppress ring-0 branches, calls, returns, indirect jumps, and far
 * branches — keeping conditional branches and near unconditional
 * relative jumps, which together resolve the outcomes of source-level
 * conditional branches.
 */
constexpr std::uint64_t kPaperLbrSelect =
    kLbrFilterRing0 | kLbrFilterNearRelCall | kLbrFilterNearIndCall |
    kLbrFilterNearRet | kLbrFilterNearIndJmp | kLbrFilterFar;

/**
 * The ring-swapped counterpart used to diagnose driver/kernel-side
 * root causes: suppress ring-3 branches instead of ring-0, keeping
 * the same branch-class bits, so the LBR retains only kernel
 * conditional branches and their fall-through normalization jumps.
 */
constexpr std::uint64_t kKernelLbrSelect =
    kLbrFilterOtherRings | kLbrFilterNearRelCall |
    kLbrFilterNearIndCall | kLbrFilterNearRet | kLbrFilterNearIndJmp |
    kLbrFilterFar;

// ---- Table 2: L1-D cache-coherence events -------------------------------

/** Event code: loads observing a given pre-access state. */
constexpr std::uint8_t kEventLoad = 0x40;
/** Event code: stores observing a given pre-access state. */
constexpr std::uint8_t kEventStore = 0x41;

/** Unit masks: observe the given state prior to a cache access. */
constexpr std::uint8_t kUmaskInvalid = 0x01;
constexpr std::uint8_t kUmaskShared = 0x02;
constexpr std::uint8_t kUmaskExclusive = 0x04;
constexpr std::uint8_t kUmaskModified = 0x08;

} // namespace stm::msr

#endif // STM_HW_MSR_HH
