/**
 * @file
 * Instrumentation transforms — the reproduction of the paper's
 * source-to-source transformer (Section 5.1) plus the success-site
 * instrumentation used by LBRA/LCRA (Section 5.2, Figure 8) and the
 * CBI baseline's sampling instrumentation.
 *
 * Instead of physically rewriting instruction streams, transforms
 * build a plan of *hooks* over the program (see Instrumentation in
 * program.hh).
 * The VM executes hooks through the simulated kernel driver and
 * charges their full instruction cost, so they are observationally
 * equivalent to inserted code — including their run-time overhead —
 * while keeping branch targets stable.
 *
 * Every transform reads the program's metadata and writes only the
 * caller's Instrumentation: the copy-on-write plan a campaign builds
 * per phase against one immutable base Program (O(sites) to build,
 * copy, and fingerprint). Pass the plan to Machine as its overlay
 * argument and to the run cache as the overlay digest; start a fresh
 * plan from `Instrumentation{}`.
 */

#ifndef STM_PROGRAM_TRANSFORM_HH
#define STM_PROGRAM_TRANSFORM_HH

#include <cstdint>
#include <optional>

#include "program/cfg.hh"
#include "program/program.hh"

namespace stm::transform
{

/** Options for the LBRLOG log-enhancement transform. */
struct LbrLogPlan
{
    /** LBR_SELECT mask to program when enabling at main entry. */
    std::uint64_t lbrSelectMask = 0;
    /** Wrap library functions with disable/enable toggling. */
    bool toggling = true;
    /** Register the custom SIGSEGV handler that profiles LBR. */
    bool segfaultHandler = true;
};

/**
 * Apply the LBRLOG transformation (Section 5.1):
 *  1. toggling wrappers for library functions,
 *  2. LBR configure + enable at the entry of main,
 *  3. LBR profiling right before every failure-logging call,
 *  4. a segfault handler that profiles LBR.
 */
void applyLbrLog(const Program &prog, Instrumentation &out,
                 const LbrLogPlan &plan);

/** Options for the LCRLOG log-enhancement transform. */
struct LcrLogPlan
{
    /** Packed LCR configuration (see LcrConfig in hw/lcr.hh). */
    std::uint64_t lcrConfigMask = 0;
    bool toggling = true;
    bool segfaultHandler = true;
};

/** Apply the LCRLOG transformation (LCR analogue of applyLbrLog). */
void applyLcrLog(const Program &prog, Instrumentation &out,
                 const LcrLogPlan &plan);

/** Success-run profile collection schemes (Section 5.2). */
enum class SuccessSiteScheme {
    /**
     * Instrument the success site of every failure-logging site
     * before release. No code redistribution after a failure, but
     * higher overhead, and cannot help segfaults.
     */
    Proactive,
    /**
     * After a failure is observed at one site, instrument only that
     * site's success site (via a patch or dynamic rewriting).
     */
    Reactive,
};

/**
 * Attach success-logging-site profiling hooks (Figure 8): for a
 * failure-logging site F, the success site is right before the
 * program branches into the basic block containing F; for a faulting
 * instruction i, the success site is right after i.
 *
 * @param prog the program
 * @param out the plan to extend (normally already an LBRLOG/LCRLOG plan)
 * @param cfg its control-flow graph
 * @param lbr true to profile LBR, false to profile LCR
 * @param scheme proactive (all failure sites) or reactive (one site)
 * @param observedSite for Reactive: the failure site to cover; pass
 *        kSegfaultSite together with @p faultingInstr for crashes
 * @param faultingInstr for Reactive segfault coverage: the faulting
 *        instruction index
 */
void applySuccessSites(const Program &prog, Instrumentation &out,
                       const Cfg &cfg, bool lbr,
                       SuccessSiteScheme scheme,
                       LogSiteId observedSite = 0,
                       std::optional<std::uint32_t> faultingInstr = {});

/**
 * Attach the CBI baseline's sampling instrumentation: a countdown
 * check before every source-level conditional branch, sampling branch
 * predicates with mean period @p mean_period (1/100 by default in the
 * paper).
 */
void applyCbi(const Program &prog, Instrumentation &out,
              double mean_period = 100.0);

/**
 * Attach the CCI baseline's heavyweight software sampling of
 * interleaving predicates at memory accesses.
 */
void applyCci(Instrumentation &out, double mean_period = 100.0);

/**
 * Attach the PBI baseline: performance counters sampling coherence
 * events matching the given Table 2 unit masks every @p period
 * events.
 */
void applyPbi(Instrumentation &out, std::uint8_t load_mask,
              std::uint8_t store_mask, std::uint64_t period = 20);

/**
 * Enable whole-execution branch tracing via the Branch Trace Store
 * (Section 2.1's rejected alternative; see bench_ablation_bts).
 */
void applyBts(Instrumentation &out, std::uint64_t select_mask);

} // namespace stm::transform

#endif // STM_PROGRAM_TRANSFORM_HH
