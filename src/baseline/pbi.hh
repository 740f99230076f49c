/**
 * @file
 * The PBI baseline (Arulraj et al., ASPLOS'13 — the authors' own
 * prior work): hardware performance counters configured on L1-D
 * cache-coherence events, sampled through overflow interrupts, with
 * Liblit-style statistical aggregation over many runs.
 *
 * PBI has negligible per-event overhead (hardware does the counting)
 * but, like all sampling approaches, needs the failure to occur
 * hundreds of times — the diagnosis-latency axis on which LCRA wins
 * (Section 7.3).
 */

#ifndef STM_BASELINE_PBI_HH
#define STM_BASELINE_PBI_HH

#include <cstdint>

#include "baseline/liblit.hh"
#include "cache/mesi.hh"
#include "diag/workload.hh"
#include "hw/msr.hh"
#include "program/program.hh"

namespace stm
{

/** PBI experiment configuration. */
struct PbiOptions : LiblitOptions
{
    /** Counter unit masks (Table 2); defaults cover Table 3's FPEs. */
    std::uint8_t loadMask = msr::kUmaskInvalid | msr::kUmaskExclusive;
    std::uint8_t storeMask = msr::kUmaskInvalid;
    /** Overflow interrupt period (events between samples). */
    std::uint64_t period = 20;
};

/**
 * A PBI predicate: a coherence event identity. The member order is
 * the ranking's tie order: (pc, store, state).
 */
struct PbiKey
{
    Addr pc = 0;
    bool store = false;
    MesiState state = MesiState::Invalid;

    auto operator<=>(const PbiKey &) const = default;
};

/** One scored PBI predicate. */
using PbiPredicateScore = LiblitRanked<PbiKey>;

/** Result of one PBI campaign. */
struct PbiResult : LiblitResult<PbiKey>
{
    /** 1-based rank of (instr_index, state, store); 0 if unranked. */
    std::size_t
    positionOf(std::uint32_t instr_index, MesiState state,
               bool store) const
    {
        return positionOfKey({layout::codeAddr(instr_index), store, state});
    }
};

/** Run a PBI campaign. */
PbiResult runPbi(ProgramPtr prog, const Workload &failing,
                 const Workload &succeeding,
                 const PbiOptions &opts = {});

} // namespace stm

#endif // STM_BASELINE_PBI_HH
