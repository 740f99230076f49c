/**
 * @file
 * Predecoded operand streams for the MiniVM interpreter.
 *
 * The PR 2 hot path still paid, on every retired instruction, for
 * decoding the architectural Instruction word: a switch on the opcode,
 * a Lea symbol-table walk, hook side-table indirection, and (for the
 * Br+Jmp fall-through normalization of [40]) two full dispatch
 * round-trips per loop back-edge. A predecode pass lowers each
 * Instruction into one flat DecodedOp record — handler token,
 * pre-resolved operands, the dispatch-flags byte with the per-plan
 * hook bits already folded in — so the step loop reads exactly one
 * 48-byte record per instruction and never touches the Program again
 * except on cold paths (syscalls, library calls, sync ops).
 *
 * Tokens, not opcodes: the interpreter dispatches on ExecToken, a
 * handler index that (a) splits Div/Mod so neither re-tests the
 * opcode, (b) folds Lea into Movi with the symbol address resolved at
 * predecode time, (c) funnels the five scheduler-visible sync ops
 * into one cold handler, and (d) adds profile-selected
 * *superinstructions*: hot opcode pairs from a corpus opcode-pair
 * histogram (DESIGN.md §13) fused into a single handler that
 * retires two instructions per dispatch. Fusion is transparent: the
 * decoded stream stays 1:1 with pcs (the second op of a pair keeps
 * its own plain record at pc+1, so dynamic jumps into the middle of a
 * pair work naturally), and the fused handlers replicate the
 * per-instruction quantum accounting, step-limit checks, and
 * interrupt RNG draws instruction-for-instruction — every golden
 * fingerprint in test_golden_determinism pins under any mix of fused
 * and unfused execution.
 *
 * The token list is an X-macro so the computed-goto label table in
 * the interpreter (vm/interp_loop.inc) can never fall out of sync
 * with the enum.
 */

#ifndef STM_VM_DECODED_PROGRAM_HH
#define STM_VM_DECODED_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.hh"
#include "program/program.hh"

// The interpreter dispatches by computed goto (the GNU &&label
// extension), which GCC and Clang both provide.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the MiniVM interpreter needs computed goto (GCC or Clang)"
#endif

namespace stm
{

/**
 * The handler-token list. One X(...) per interpreter handler; the
 * order defines the ExecToken numbering and the label table.
 * Plain tokens first, then the profile-selected superinstructions
 * (see predecode() for the fusion rules and DESIGN.md §13 for how the
 * set was chosen from the corpus opcode-pair histogram).
 */
#define STM_EXEC_TOKEN_LIST(X)                                         \
    X(Nop)                                                             \
    X(Movi)                                                            \
    X(Mov)                                                             \
    X(Add)                                                             \
    X(Addi)                                                            \
    X(Sub)                                                             \
    X(Mul)                                                             \
    X(Div)                                                             \
    X(Mod)                                                             \
    X(And)                                                             \
    X(Or)                                                              \
    X(Xor)                                                             \
    X(Shl)                                                             \
    X(Shr)                                                             \
    X(Not)                                                             \
    X(Neg)                                                             \
    X(Load)                                                            \
    X(Store)                                                           \
    X(Br)                                                              \
    X(Jmp)                                                             \
    X(IJmp)                                                            \
    X(Call)                                                            \
    X(ICall)                                                           \
    X(Ret)                                                             \
    X(Halt)                                                            \
    X(Sync)                                                            \
    X(Syscall)                                                         \
    X(LibCall)                                                         \
    X(LogError)                                                        \
    X(LogInfo)                                                         \
    X(Out)                                                             \
    X(AssertEq)                                                        \
    X(SysEnter)                                                        \
    X(SysRet)                                                          \
    X(Iret)                                                            \
    X(FusedBrJmp)                                                      \
    X(FusedAddiBr)                                                     \
    X(FusedMoviAnd)                                                    \
    X(FusedAndMovi)                                                    \
    X(FusedMoviBr)                                                     \
    X(FusedAddiMovi)                                                   \
    X(FusedMoviMul)                                                    \
    X(FusedMulAddi)

/** Interpreter handler index (one per X-macro entry). */
enum class ExecToken : std::uint8_t {
#define STM_X(tok) tok,
    STM_EXEC_TOKEN_LIST(STM_X)
#undef STM_X
};

constexpr std::size_t kExecTokenCount = [] {
    std::size_t n = 0;
#define STM_X(tok) ++n;
    STM_EXEC_TOKEN_LIST(STM_X)
#undef STM_X
    return n;
}();

/** First fused token (everything at or past this retires two ops). */
constexpr ExecToken kFirstFusedToken = ExecToken::FusedBrJmp;

namespace decmeta
{
/** Bits of DecodedOp::meta (kernel / branch-outcome, both slots). */
constexpr std::uint8_t kKernel1 = 1;  //!< op1 is ring-0
constexpr std::uint8_t kOutcome1 = 2; //!< op1 outcomeWhenTaken
constexpr std::uint8_t kKernel2 = 4;  //!< op2 is ring-0
constexpr std::uint8_t kOutcome2 = 8; //!< op2 outcomeWhenTaken
} // namespace decmeta

/**
 * One predecoded instruction: everything the hot loop needs, flat.
 * 48 bytes; the *2 fields hold the second instruction of a fused
 * pair and are dead for plain tokens. `flags` is the PR 2
 * dispatch-flags byte of the FIRST op with the hook-presence bits of
 * this pc already folded in. The second op needs no flags: no fused
 * pair touches memory, so nothing between its halves keys off them.
 */
struct DecodedOp
{
    ExecToken token = ExecToken::Nop;
    std::uint8_t flags = 0;
    std::uint8_t meta = 0;
    Cond cond = Cond::Eq;
    Cond cond2 = Cond::Eq;
    RegId rd = 0;
    RegId ra = 0;
    RegId rb = 0;
    RegId rd2 = 0;
    RegId ra2 = 0;
    RegId rb2 = 0;
    std::uint32_t target = 0;  //!< branch target / LogError site id
    std::uint32_t target2 = 0;
    SourceBranchId srcBranch = kNoSourceBranch;
    SourceBranchId srcBranch2 = kNoSourceBranch;
    std::int64_t imm = 0;      //!< immediate (Lea: resolved address)
    std::int64_t imm2 = 0;
};

static_assert(sizeof(DecodedOp) <= 48,
              "DecodedOp must stay within one-and-a-half cache lines");

/**
 * A program lowered for one instrumentation plan. Immutable once
 * built and safe to share across concurrent Machines (the decode
 * cache hands out shared_ptr<const>): the hook lists are *copies* of
 * the plan's, so a DecodedProgram has no lifetime coupling to the
 * Instrumentation it was built from.
 */
struct DecodedProgram
{
    std::vector<DecodedOp> ops; //!< 1:1 with Program::code
    /** Per-pc index into hookLists (-1 = no hooks at that pc). */
    std::vector<std::int32_t> beforeIdx;
    std::vector<std::int32_t> afterIdx;
    std::vector<std::vector<Hook>> hookLists;

    bool fused = false;          //!< superinstruction fusion applied
    std::uint32_t fusedSites = 0; //!< pcs decoded as superinstructions

    /** Approximate heap footprint (decode-cache byte budget). */
    std::size_t approxBytes() const;
};

using DecodedProgramPtr = std::shared_ptr<const DecodedProgram>;

/**
 * Lower @p prog under instrumentation plan @p instr. With @p fuse,
 * hot instruction pairs are fused into superinstructions where legal:
 * the pair must be in the selection table, the first op must carry no
 * after-hooks (before-hooks are fine — they run in the fused
 * prologue exactly as unfused), and the second op must carry no hooks
 * at all (its probe/step accounting is replicated mid-handler, but
 * hook interleaving is not).
 */
DecodedProgramPtr predecode(const Program &prog,
                            const Instrumentation &instr, bool fuse);

} // namespace stm

#endif // STM_VM_DECODED_PROGRAM_HH
