/**
 * @file
 * The CCI baseline (Cooperative Concurrency-bug Isolation, Jin et
 * al., OOPSLA'10): software-sampled interleaving predicates at shared
 * memory accesses. The sampled predicate here follows CCI-Prev's
 * spirit: "did this access interact with another thread since the
 * last local access" — operationalized on this substrate as the
 * access observing a remote-influenced coherence state (I or S).
 *
 * CCI's relevant properties for the comparison in Section 7.3 are its
 * heavyweight software instrumentation (up to ~10x slowdown) and its
 * need for hundreds-to-thousands of failing runs under sampling.
 */

#ifndef STM_BASELINE_CCI_HH
#define STM_BASELINE_CCI_HH

#include "baseline/liblit.hh"
#include "diag/workload.hh"
#include "program/program.hh"

namespace stm
{

/** CCI experiment configuration. */
struct CciOptions : LiblitOptions
{
    double meanPeriod = 100.0;
};

/** A CCI predicate. */
struct CciKey
{
    Addr pc = 0;         //!< the memory access instruction
    bool remote = false; //!< interacted with another thread

    auto operator<=>(const CciKey &) const = default;
};

/** One scored CCI predicate. */
using CciPredicateScore = LiblitRanked<CciKey>;

/** Result of one CCI campaign. */
struct CciResult : LiblitResult<CciKey>
{
    /** 1-based rank of (instr_index, remote); 0 if unranked. */
    std::size_t
    positionOf(std::uint32_t instr_index, bool remote) const
    {
        return positionOfKey({layout::codeAddr(instr_index), remote});
    }
};

/** Run a CCI campaign. */
CciResult runCci(ProgramPtr prog, const Workload &failing,
                 const Workload &succeeding,
                 const CciOptions &opts = {});

} // namespace stm

#endif // STM_BASELINE_CCI_HH
