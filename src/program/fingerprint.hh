/**
 * @file
 * Content-addressed fingerprints of the run-determining inputs.
 *
 * A MiniVM run is a pure function of (program, instrumentation,
 * machine options, seed): the interpreter draws every random number
 * from the seeded PRNG and touches no ambient state. That purity is
 * what the cross-phase run cache (exec/run_cache.hh) monetizes — but
 * only if two "equal" inputs always map to the same key. These
 * functions define that canonical identity:
 *
 *  - fingerprintProgramBase() digests everything immutable across a
 *    diagnosis campaign: instructions (all architectural fields plus
 *    the dispatch-flags overlay), data symbols, log-site metadata,
 *    source-branch metadata, and the entry point. O(program), computed
 *    once per campaign.
 *  - fingerprintInstrumentation() digests one instrumentation plan
 *    (the per-phase copy-on-write overlay): hook side tables in
 *    canonical pc order plus every scalar knob. O(sites), cheap enough
 *    to recompute at every reactive re-instrumentation.
 *  - fingerprintMachineOptions() digests one run configuration
 *    *except the scheduler seed* — the seed is the third component of
 *    the cache key, kept separate so a campaign's thousands of runs
 *    share one options digest.
 *
 * All digests are 64-bit FNV-1a over a fixed-width little-endian
 * serialization, so they are stable across platforms and process
 * runs. Hash collisions are the usual content-address caveat; the
 * cache's verify mode (`RunCacheMode::Verify`) re-executes every hit
 * and asserts bit-identity, turning the probabilistic argument into a
 * checked one.
 */

#ifndef STM_PROGRAM_FINGERPRINT_HH
#define STM_PROGRAM_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "program/program.hh"
#include "vm/options.hh"

namespace stm
{

/** Streaming FNV-1a 64-bit hasher over canonical field encodings. */
class FingerprintHasher
{
  public:
    explicit FingerprintHasher(
        std::uint64_t basis = 0xCBF29CE484222325ull)
        : h_(basis)
    {
    }

    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001B3ull;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void u32(std::uint32_t v) { u64(v); }

    void boolean(bool b) { byte(b ? 1 : 0); }

    /** Doubles are hashed by bit pattern (they are config inputs). */
    void f64(double v);

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_;
};

/**
 * Digest of the campaign-immutable program content: code (every
 * architectural and metadata field), instrFlags, symbols, functions,
 * branches, log sites, entry. Does NOT include the instrumentation
 * plan — combine with fingerprintInstrumentation() for a full
 * program identity.
 */
std::uint64_t fingerprintProgramBase(const Program &prog);

/**
 * Digest of one instrumentation plan: before/after hook tables in
 * ascending pc order (canonical — the unordered_map iteration order
 * never leaks into the digest) plus every scalar configuration field.
 */
std::uint64_t fingerprintInstrumentation(const Instrumentation &instr);

/**
 * Digest of ONLY the hook side tables of a plan (same canonical pc
 * order as fingerprintInstrumentation, scalar knobs excluded). This
 * is the decode-cache key component: the predecoded operand stream
 * depends on the program and on which pcs carry hooks, but not on
 * the scalar knobs, so overlay publication during reactive
 * re-instrumentation re-predecodes only when a hook table actually
 * changed.
 */
std::uint64_t fingerprintHookTables(const Instrumentation &instr);

/**
 * fingerprintProgramBase() through the Program's memo slot: computed
 * on first use, O(1) after. Thread-safe (racing computations store
 * the same pure-function value).
 */
std::uint64_t memoizedProgramBaseFingerprint(const Program &prog);

/** Order-sensitive combination of two digests. */
std::uint64_t combineFingerprints(std::uint64_t a, std::uint64_t b);

/** Base digest combined with an overlay instrumentation plan. */
std::uint64_t fingerprintProgram(const Program &prog,
                                 const Instrumentation &overlay);

/**
 * Digest of one MachineOptions *excluding sched.seed* (the seed is
 * carried separately in the run-cache key): scheduler policy, LBR/LCR
 * depths, cache geometry, step budget, main arguments, and global
 * overrides in declaration order (order is semantically meaningful —
 * later overrides win).
 */
std::uint64_t fingerprintMachineOptions(const MachineOptions &opts);

} // namespace stm

#endif // STM_PROGRAM_FINGERPRINT_HH
