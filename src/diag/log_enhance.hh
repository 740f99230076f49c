/**
 * @file
 * LBRLOG and LCRLOG: the basic, log-enhancement use of the hardware
 * short-term memory (Section 5.1).
 *
 * The transformer attaches profiling to every failure-logging site
 * and to the segfault handler, the program runs until it fails, and
 * the developer-facing report is the LBR/LCR content captured at the
 * failure site, mapped back to source.
 */

#ifndef STM_DIAG_LOG_ENHANCE_HH
#define STM_DIAG_LOG_ENHANCE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "diag/workload.hh"
#include "hw/lbr.hh"
#include "hw/lcr.hh"
#include "hw/msr.hh"
#include "program/program.hh"
#include "vm/run_result.hh"

namespace stm
{

/** Configuration shared by LBRLOG and LCRLOG. */
struct LogEnhanceOptions
{
    /** Toggle recording around library functions (Section 4.3). */
    bool toggling = true;
    /** LBR depth (16 on Nehalem; 4/8 on older parts). */
    std::size_t lbrEntries = 16;
    /** LBR_SELECT mask (the paper's starred Table 1 bits). */
    std::uint64_t lbrSelect = msr::kPaperLbrSelect;
    /** LCR depth (K = 16 by default, Section 4.2.1). */
    std::size_t lcrEntries = 16;
    /** LCR configuration (defaults to Conf2, space-consuming). */
    LcrConfig lcrConfig = lcrConfSpaceConsuming();
};

/** What LBRLOG hands the developer after a failure. */
struct LbrLogReport
{
    bool failed = false;          //!< a failing run was observed
    RunResult run;                //!< the failing run
    LogSiteId site = kSegfaultSite;
    std::vector<BranchRecord> record; //!< LBR content, newest first
    std::uint64_t attempts = 0;   //!< runs needed to observe a failure

    /**
     * 1-based position (1 = latest entry) of the first LBR record
     * mapped to source branch @p branch; 0 if not in the record.
     */
    std::size_t positionOfBranch(SourceBranchId branch) const;
};

/** What LCRLOG hands the developer after a failure. */
struct LcrLogReport
{
    bool failed = false;
    RunResult run;
    LogSiteId site = kSegfaultSite;
    ThreadId failureThread = 0;
    std::vector<LcrRecord> record; //!< failure thread's LCR, newest first
    std::uint64_t attempts = 0;

    /**
     * 1-based position of the first record matching (@p instr_index,
     * @p state, @p store); 0 if absent.
     */
    std::size_t positionOfEvent(std::uint32_t instr_index,
                                MesiState state, bool store) const;
};

/**
 * LBRLOG: build an LBR-enhanced failure-logging plan for @p prog and
 * run the workload under it until a failure is observed (or attempts
 * run out). @p prog itself is left as it was.
 */
LbrLogReport runLbrLog(ProgramPtr prog, const Workload &workload,
                       const LogEnhanceOptions &opts = {});

/** LCRLOG: the LCR analogue of runLbrLog. */
LcrLogReport runLcrLog(ProgramPtr prog, const Workload &workload,
                       const LogEnhanceOptions &opts = {});

} // namespace stm

#endif // STM_DIAG_LOG_ENHANCE_HH
