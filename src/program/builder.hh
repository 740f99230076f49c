/**
 * @file
 * Fluent builder for MiniVM programs.
 *
 * The builder plays the role of the compiler in this reproduction:
 * corpus programs are written against it, and it implements the
 * machine-code idioms the paper depends on. In particular every
 * conditional branch is emitted as a (Br, Jmp) pair — the conditional
 * jump plus a "harmless" unconditional jump on the fall-through edge —
 * reproducing the fall-through normalization of [40] that the paper
 * reuses (Figure 2) so both outcomes of a source-level branch leave an
 * LBR record. Loops are emitted rotated (test at the bottom), the way
 * optimizing compilers lay them out.
 */

#ifndef STM_PROGRAM_BUILDER_HH
#define STM_PROGRAM_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hh"

namespace stm
{

/** Convenient register aliases for corpus code. */
namespace regs
{
constexpr RegId r0 = 0, r1 = 1, r2 = 2, r3 = 3, r4 = 4, r5 = 5,
                r6 = 6, r7 = 7, r8 = 8, r9 = 9, r10 = 10, r11 = 11,
                r12 = 12, r13 = 13, r14 = 14, r15 = 15, r16 = 16,
                r17 = 17, r18 = 18, r19 = 19, r20 = 20;
constexpr RegId sp = kStackPointer;
} // namespace regs

/** An opaque label handle for forward/backward control flow. */
struct Label
{
    std::uint32_t id = 0;
};

/**
 * Builds a Program instruction by instruction. See the corpus for
 * idiomatic usage. All emit methods return the index of the (first)
 * emitted instruction.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string program_name);

    // ---- source position -------------------------------------------------
    /** Switch the current synthetic source file. */
    ProgramBuilder &file(const std::string &filename);
    /** Set the current source line (attached to emitted instructions). */
    ProgramBuilder &line(std::uint32_t l);
    /** Advance the current source line by @p delta. */
    ProgramBuilder &lineStep(std::uint32_t delta = 1);
    /** The current source line. */
    std::uint32_t currentLine() const { return line_; }

    // ---- data -------------------------------------------------------------
    /**
     * Declare a global of @p words machine words, optionally
     * initialized and optionally aligned to a cache-line boundary
     * (concurrency-bug programs use alignment to control false
     * sharing).
     */
    void global(const std::string &gname, std::uint64_t words,
                std::vector<Word> init = {},
                bool cache_line_align = false);
    /** True if a global named @p gname was already declared. */
    bool hasGlobal(const std::string &gname) const;

    // ---- functions and labels ----------------------------------------------
    /** Start a new function; the previous one (if any) is closed. */
    void func(const std::string &fname);
    Label newLabel();
    void bind(Label label);

    // ---- plain instructions -------------------------------------------------
    std::uint32_t nop();
    std::uint32_t movi(RegId rd, Word value);
    std::uint32_t mov(RegId rd, RegId ra);
    std::uint32_t add(RegId rd, RegId ra, RegId rb);
    std::uint32_t addi(RegId rd, RegId ra, std::int64_t imm);
    std::uint32_t sub(RegId rd, RegId ra, RegId rb);
    std::uint32_t mul(RegId rd, RegId ra, RegId rb);
    std::uint32_t div(RegId rd, RegId ra, RegId rb);
    std::uint32_t mod(RegId rd, RegId ra, RegId rb);
    std::uint32_t andr(RegId rd, RegId ra, RegId rb);
    std::uint32_t orr(RegId rd, RegId ra, RegId rb);
    std::uint32_t xorr(RegId rd, RegId ra, RegId rb);
    std::uint32_t shl(RegId rd, RegId ra, RegId rb);
    std::uint32_t shr(RegId rd, RegId ra, RegId rb);
    std::uint32_t notr(RegId rd, RegId ra);
    std::uint32_t neg(RegId rd, RegId ra);

    // ---- memory ----------------------------------------------------------
    /** rd <- address of global @p gname plus byte offset @p off. */
    std::uint32_t lea(RegId rd, const std::string &gname,
                      std::int64_t off = 0);
    std::uint32_t load(RegId rd, RegId ra, std::int64_t off = 0);
    std::uint32_t store(RegId ra, std::int64_t off, RegId rb);
    /** Load global directly: lea rd, g; load rd, [rd]. */
    std::uint32_t loadg(RegId rd, const std::string &gname,
                        std::int64_t off = 0);
    /** Store @p rs to global @p gname using @p scratch for the address. */
    std::uint32_t storeg(const std::string &gname, std::int64_t off,
                         RegId rs, RegId scratch);
    /** Stack local access relative to the stack pointer. */
    std::uint32_t localLoad(RegId rd, std::int64_t off);
    std::uint32_t localStore(std::int64_t off, RegId rs);

    // ---- raw control flow ---------------------------------------------------
    /**
     * Source-level conditional branch: "if cond(ra, rb) goto target".
     * Emits the Br plus the fall-through normalization Jmp; both carry
     * the same fresh source-branch id with opposite outcomes.
     * @return the source-branch id (usable as ground truth).
     */
    SourceBranchId brIf(Cond cond, RegId ra, RegId rb, Label target,
                        const std::string &note = "");
    /** Plain unconditional jump (no source-branch mapping). */
    std::uint32_t jmp(Label target);
    std::uint32_t call(const std::string &fname);
    /** Indirect call through a code address in @p ra. */
    std::uint32_t icall(RegId ra);
    /** Indirect jump to a code address in @p ra. */
    std::uint32_t ijmp(RegId ra);
    /** rd <- code address of function @p fname (for icall/ijmp). */
    std::uint32_t leaFunction(RegId rd, const std::string &fname);
    std::uint32_t ret();

    // ---- structured control flow -----------------------------------------
    /**
     * if (cond(ra, rb)) { ... }. The emitted machine branch is taken
     * when the source condition is FALSE (Figure 2's je label<else>).
     * @return the source-branch id of the condition.
     */
    SourceBranchId beginIf(Cond cond, RegId ra, RegId rb,
                           const std::string &note = "");
    void beginElse();
    void endIf();

    /**
     * while (cond(ra, rb)) { ... }, emitted rotated: a preheader jump
     * to the bottom-of-loop test, so each iteration retires exactly
     * one conditional branch.
     * @return the source-branch id of the loop condition.
     */
    SourceBranchId beginWhile(Cond cond, RegId ra, RegId rb,
                              const std::string &note = "");
    void endWhile();
    /** Jump past the end of the innermost while. */
    std::uint32_t breakWhile();
    /** Jump to the test of the innermost while. */
    std::uint32_t continueWhile();

    // ---- threads and synchronization ----------------------------------------
    std::uint32_t spawn(RegId rd, const std::string &fname, RegId ra);
    std::uint32_t join(RegId ra);
    std::uint32_t lockAddr(RegId ra);
    std::uint32_t unlockAddr(RegId ra);
    std::uint32_t yield();

    // ---- OS and libraries ---------------------------------------------------
    std::uint32_t syscall(SyscallNo no, RegId ra = 0, RegId rd = 0);
    /** Call a modeled library function (args in r1..r3 by convention). */
    std::uint32_t libcall(LibFn fn);

    // ---- privilege levels and interrupts ------------------------------------
    /**
     * While on, every emitted instruction is stamped ring-0 (its
     * static `kernel` bit set) — use around kernel stub / interrupt
     * handler function bodies.
     */
    ProgramBuilder &kernelMode(bool on);
    /**
     * Far branch into the ring-0 stub @p fname (CPL3 -> CPL0). The
     * stub must be emitted under kernelMode(true) and return with
     * sysRet().
     */
    std::uint32_t sysEnter(const std::string &fname);
    /** Far return from a SysEnter frame (CPL0 -> CPL3). */
    std::uint32_t sysRet();
    /** Return from an asynchronous interrupt handler frame. */
    std::uint32_t iret();
    /**
     * Register ring-0 function @p fname (ending in iret()) as the
     * program's asynchronous interrupt handler; delivery only happens
     * when MachineOptions::irq.prob > 0.
     */
    void setInterruptHandler(const std::string &fname);

    // ---- logging, output, termination ------------------------------------
    /**
     * A failure-logging call site (error(), ap_log_error(), ...).
     * Executing it makes the run fail with symptom ErrorMessage.
     * @return the log-site id.
     */
    LogSiteId logError(const std::string &message,
                       const std::string &log_function = "error");
    /** An informational logging site; does not fail the run. */
    LogSiteId logInfo(const std::string &message,
                      const std::string &log_function = "log");
    /**
     * A checkpoint: a logging call that does not stop the run but is
     * treated as a failure-logging site by the instrumentation
     * transforms. Used for wrong-output/corrupted-log symptoms where
     * the failure is judged from the program output after the fact
     * (e.g. FFT's timing printf).
     */
    LogSiteId logCheckpoint(const std::string &message,
                            const std::string &log_function = "printf");
    std::uint32_t out(RegId ra);
    std::uint32_t assertEq(RegId ra, RegId rb);
    std::uint32_t halt();

    /** Index the next emitted instruction will get. */
    std::uint32_t here() const;

    /** Finalize: resolve labels and calls, lay out globals. */
    ProgramPtr build();

  private:
    struct IfFrame
    {
        Label elseOrEnd;
        Label end;
        bool hasElse = false;
    };

    struct WhileFrame
    {
        Label body;
        Label test;
        Label end;
        Cond cond;
        RegId ra, rb;
        std::string note;
        SourceBranchId branchId = 0;
    };

    std::uint32_t emit(Instruction inst);
    std::uint32_t emitBranchTo(Opcode op, Label target,
                               Instruction inst);
    SourceBranchId emitCondBranch(Cond cond, RegId ra, RegId rb,
                                  Label target, bool outcome_when_taken,
                                  const std::string &note);
    void closeFunction();

    /** The program under construction; build() hands it out const. */
    std::shared_ptr<Program> prog_;
    std::uint16_t fileId_ = 0;
    std::uint32_t line_ = 0;
    bool inFunction_ = false;
    std::string currentFunction_;
    std::uint32_t functionStart_ = 0;

    std::vector<std::int64_t> labelTargets_; //!< -1 until bound
    struct LabelFixup
    {
        std::uint32_t instr;
        std::uint32_t label;
    };
    std::vector<LabelFixup> labelFixups_;
    struct CallFixup
    {
        std::uint32_t instr;
        std::string callee;
    };
    std::vector<CallFixup> callFixups_;
    std::vector<CallFixup> functionAddrFixups_;

    std::vector<IfFrame> ifStack_;
    std::vector<WhileFrame> whileStack_;
    std::vector<std::size_t> alignRequests_;
    bool built_ = false;
    bool kernelMode_ = false;
    std::string irqHandlerName_;
};

} // namespace stm

#endif // STM_PROGRAM_BUILDER_HH
