/**
 * @file
 * The CBI baseline (Cooperative Bug Isolation, Liblit et al.): branch
 * predicates evaluated at randomly sampled instrumentation sites,
 * aggregated over many success and failure runs, scored with the
 * Importance metric.
 *
 * This is the head-to-head comparator of Table 6: with its default
 * 1/100 sampling rate CBI needs on the order of a thousand failing
 * runs where LBRA needs ten, and its instrumentation costs an order
 * of magnitude more run-time overhead.
 */

#ifndef STM_BASELINE_CBI_HH
#define STM_BASELINE_CBI_HH

#include "baseline/liblit.hh"
#include "diag/workload.hh"
#include "program/program.hh"

namespace stm
{

/** CBI experiment configuration (paper defaults). */
struct CbiOptions : LiblitOptions
{
    /** Mean sampling period (the paper's 1/100 rate). */
    double meanPeriod = 100.0;
};

/** A CBI predicate: source branch @c branch took @c outcome. */
struct CbiKey
{
    SourceBranchId branch = 0;
    bool outcome = false;

    auto operator<=>(const CbiKey &) const = default;
};

/** One scored CBI branch predicate. */
using CbiPredicateScore = LiblitRanked<CbiKey>;

/** Result of one CBI campaign. */
struct CbiResult : LiblitResult<CbiKey>
{
    /** 1-based rank of predicate (branch, outcome); 0 if unranked. */
    std::size_t
    positionOf(SourceBranchId branch, bool outcome) const
    {
        return positionOfKey({branch, outcome});
    }

    /** 1-based rank of the best predicate on @p branch; 0 if none. */
    std::size_t
    positionOfBranch(SourceBranchId branch) const
    {
        return positionWhere(
            [&](const CbiPredicateScore &r) { return r.branch == branch; });
    }
};

/** Run a CBI campaign on @p prog with the given workloads. */
CbiResult runCbi(ProgramPtr prog, const Workload &failing,
                 const Workload &succeeding,
                 const CbiOptions &opts = {});

} // namespace stm

#endif // STM_BASELINE_CBI_HH
