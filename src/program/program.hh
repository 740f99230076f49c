/**
 * @file
 * The MiniVM program representation.
 *
 * A Program is the unit the whole reproduction pipeline operates on:
 * the bug corpus builds Programs, the instrumentation transforms
 * build profiling-hook plans over them (the analogue of the paper's
 * source-to-source transformer, Section 5.1), the static analyzer
 * walks their control-flow graphs (Table 5), and the VM executes them
 * under those plans.
 */

#ifndef STM_PROGRAM_PROGRAM_HH
#define STM_PROGRAM_PROGRAM_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hh"
#include "isa/types.hh"

namespace stm
{

/** A global data object in the program image. */
struct Symbol
{
    std::string name;
    std::uint64_t sizeWords = 0;
    Addr addr = 0;              //!< assigned by the builder at build()
    std::vector<Word> init;     //!< initial values (zero-filled if short)
};

/** A function: a named contiguous range [entry, end) of instructions. */
struct Function
{
    std::string name;
    std::uint32_t entry = 0;
    std::uint32_t end = 0;
};

/** Metadata for one source-level conditional branch. */
struct SourceBranchInfo
{
    SourceBranchId id = 0;
    SourceLoc loc;
    std::string note;          //!< e.g. "i + num_merged < nfiles"
    std::uint32_t brIndex = 0; //!< instruction index of the Br
};

/** Metadata for one logging call site. */
struct LogSiteInfo
{
    LogSiteId id = 0;
    SourceLoc loc;
    std::string message;
    std::string logFunction;   //!< e.g. "error", "ap_log_error"
    bool failureSite = true;   //!< failure-logging vs informational
    std::uint32_t instrIndex = 0;
};

/**
 * Actions the instrumentation layer can attach around instructions.
 * These model the code inserted by the paper's source-to-source
 * transformer; the VM executes them through the kernel driver and
 * charges their simulated instruction cost, so instrumentation shows
 * up in the measured run-time overhead exactly as inserted code would.
 */
enum class HookAction : std::uint8_t {
    ProfileLbr,  //!< ioctl(DRIVER_PROFILE_LBR) — snapshot into profile
    ProfileLcr,  //!< ioctl(DRIVER_PROFILE_LCR)
    DisableLbr,  //!< toggling: ioctl(DRIVER_DISABLE_LBR)
    EnableLbr,   //!< toggling: ioctl(DRIVER_ENABLE_LBR)
    DisableLcr,
    EnableLcr,
    CbiSample,   //!< CBI baseline: countdown check + maybe sample
};

/** One instrumentation action bound to an instruction. */
struct Hook
{
    HookAction action;
    /**
     * For Profile*: the logging site this profile belongs to
     * (kSegfaultSite for the signal handler). For CbiSample: the
     * source-branch id whose predicate is being sampled.
     */
    std::uint32_t site = 0;
    /** Profile tagged as coming from a *success* logging site. */
    bool successSite = false;
};

/**
 * The complete instrumentation plan for runs of one program. Built by
 * the transforms in transform.hh; consumed by the VM.
 */
struct Instrumentation
{
    /** Hooks run immediately before the instruction executes. */
    std::unordered_map<std::uint32_t, std::vector<Hook>> before;
    /** Hooks run immediately after the instruction completes. */
    std::unordered_map<std::uint32_t, std::vector<Hook>> after;

    /** Configure + enable LBR/LCR at the entry of main (Figure 7). */
    bool enableLbrAtMain = false;
    bool enableLcrAtMain = false;

    /** LBR_SELECT filter mask used when enabling LBR. */
    std::uint64_t lbrSelectMask = 0;
    /** Packed LCR configuration used when enabling LCR. */
    std::uint64_t lcrConfigMask = 0;

    /** Custom SIGSEGV handler registered to profile at crash sites. */
    bool segfaultProfilesLbr = false;
    bool segfaultProfilesLcr = false;

    /** Toggle recording off/on around library calls (Section 4.3). */
    bool toggleLbrAroundLibraries = false;
    bool toggleLcrAroundLibraries = false;

    /** CBI baseline sampling: enabled + mean sampling period. */
    bool cbiEnabled = false;
    double cbiMeanPeriod = 100.0;

    /**
     * CCI-style baseline: software-sampled interleaving predicates at
     * shared memory accesses (heavyweight instrumentation).
     */
    bool cciEnabled = false;
    double cciMeanPeriod = 100.0;

    /**
     * Branch Trace Store (Section 2.1): whole-execution branch
     * tracing. Far more history than LBR, at a per-branch memory
     * write that production runs cannot afford.
     */
    bool btsEnabled = false;
    std::uint64_t btsSelectMask = 0;

    /**
     * PBI-style baseline: hardware performance counters configured to
     * interrupt every pbiPeriod matching coherence events and sample
     * the triggering program counter.
     */
    bool pbiEnabled = false;
    std::uint64_t pbiPeriod = 20;
    std::uint8_t pbiLoadMask = 0;
    std::uint8_t pbiStoreMask = 0;

    bool
    empty() const
    {
        return before.empty() && after.empty() && !enableLbrAtMain &&
               !enableLcrAtMain && !segfaultProfilesLbr &&
               !segfaultProfilesLcr && !cbiEnabled && !cciEnabled &&
               !btsEnabled && !pbiEnabled;
    }
};

/**
 * A complete MiniVM program: code, data image, and debug metadata.
 * Immutable once built; instrumentation plans are separate overlays
 * (see transform.hh) passed alongside it to each run.
 */
class Program
{
  public:
    std::string name;
    std::vector<Instruction> code;
    std::vector<std::string> files;
    std::vector<Symbol> symbols;
    std::vector<Function> functions;
    std::vector<SourceBranchInfo> branches;
    std::vector<LogSiteInfo> logSites;
    std::uint32_t entry = 0;

    /**
     * Entry index of the asynchronous interrupt handler (a ring-0
     * function ending in Iret), or kNoIrqHandler if the program
     * registers none. Set by ProgramBuilder::setInterruptHandler().
     */
    static constexpr std::uint32_t kNoIrqHandler = 0xffffffffu;
    std::uint32_t irqHandlerEntry = kNoIrqHandler;

    /**
     * Per-instruction dispatch flags (the opcode-derived bits of
     * isa/instruction.hh's dispatch namespace), parallel to `code`.
     * Precomputed by ProgramBuilder::build() via
     * rebuildDispatchFlags() so the interpreter's step loop reads one
     * byte instead of re-deriving instruction properties; the VM
     * overlays the per-run hook bits on top.
     */
    std::vector<std::uint8_t> instrFlags;

    /** Recompute instrFlags from `code` (called by the builder). */
    void rebuildDispatchFlags();

    /**
     * Memo slot for fingerprintProgramBase (0 = not yet computed).
     * The base digest is O(program) and hashed once per cache probe
     * by both the run cache and the decode cache, so
     * memoizedProgramBaseFingerprint() computes it once per Program.
     * Safe because nothing mutates a Program after builder
     * finalization (rebuildDispatchFlags resets the memo as a
     * belt-and-braces measure). Copies start unmemoized.
     */
    struct FingerprintMemo
    {
        std::atomic<std::uint64_t> value{0};

        FingerprintMemo() = default;
        FingerprintMemo(const FingerprintMemo &) noexcept {}
        FingerprintMemo &
        operator=(const FingerprintMemo &) noexcept
        {
            value.store(0, std::memory_order_relaxed);
            return *this;
        }
    };
    mutable FingerprintMemo baseFpMemo;

    /** Index of function @p fname; panics if absent. */
    const Function &functionByName(const std::string &fname) const;

    /** Symbol named @p sname; panics if absent. */
    const Symbol &symbolByName(const std::string &sname) const;

    /** The address of global @p sname (word offset @p word). */
    Addr symbolAddr(const std::string &sname,
                    std::uint64_t word = 0) const;

    /** First byte address past the globals segment. */
    Addr globalsEnd() const;

    /** The function containing instruction @p index, or nullptr. */
    const Function *functionContaining(std::uint32_t index) const;

    /** Log-site metadata by id; panics if out of range. */
    const LogSiteInfo &logSite(LogSiteId id) const;

    /** Source-branch metadata by id; panics if out of range. */
    const SourceBranchInfo &branch(SourceBranchId id) const;

    /** All failure-logging sites (LogError-style). */
    std::vector<const LogSiteInfo *> failureSites() const;

    /** File name for @p fileId ("?" if unknown). */
    std::string fileName(std::uint16_t fileId) const;

    /**
     * Verify the fall-through normalization property of [40] /
     * Figure 2: every conditional branch that implements a source
     * branch is immediately followed by an unconditional jump mapped
     * to the same source branch with the opposite outcome, so both
     * outcomes leave an LBR record.
     */
    bool isNormalized() const;
};

using ProgramPtr = std::shared_ptr<const Program>;

} // namespace stm

#endif // STM_PROGRAM_PROGRAM_HH
