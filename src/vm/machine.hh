/**
 * @file
 * The MiniVM machine: the execution substrate standing in for running
 * real x86 binaries on the paper's Intel Core i7 testbed (for LBR) and
 * under the PIN-based simulator (for LCR).
 *
 * The machine interprets a Program over any number of threads, each
 * pinned to its own core with a private L1-D cache (MESI over a
 * snooping bus) and a private PMU (LBR + performance counters);
 * per-thread LCR rings live in a machine-wide LcrDomain. Every
 * retired taken branch and data access is fed to the monitoring
 * hardware, instrumentation hooks are executed through the simulated
 * kernel driver with their full instruction cost, and failures
 * (segfaults, assertion violations, failure-logging calls, deadlocks,
 * hangs) are detected and profiled exactly as the paper's deployment
 * would.
 */

#ifndef STM_VM_MACHINE_HH
#define STM_VM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/bus.hh"
#include "hw/bts.hh"
#include "hw/lcr.hh"
#include "hw/pmu.hh"
#include "program/program.hh"
#include "support/random.hh"
#include "vm/checkpoint.hh"
#include "vm/decoded_program.hh"
#include "vm/memory_image.hh"
#include "vm/options.hh"
#include "vm/run_result.hh"
#include "vm/thread.hh"

namespace stm
{

/** The simulated machine. One Machine executes one run. */
class Machine
{
  public:
    /**
     * @p overlay is the instrumentation plan for this run; null means
     * the empty plan (an uninstrumented run). The Machine reads every
     * hook table and scalar knob from it, so one immutable base
     * Program can be shared by concurrent runs under different
     * per-phase plans (see program/transform.hh). The Machine keeps
     * the shared_ptr alive for the whole run; the predecoded stream
     * it dispatches over owns copies of the hook lists
     * (vm/decoded_program.hh).
     */
    Machine(ProgramPtr prog, MachineOptions opts = {},
            std::shared_ptr<const Instrumentation> overlay = nullptr);

    /**
     * Construct a Machine that resumes from @p resume_from instead of
     * booting: the first run()/runToStep() call adopts the
     * checkpoint's state and continues the run mid-stream. The
     * checkpoint must have been captured under the same program
     * content, options, and seed (the SnapshotStore keys enforce
     * this); the instrumentation plan may differ only when the plan
     * swap leaves the already-executed prefix's hook firings
     * unchanged (DESIGN.md §16).
     */
    Machine(ProgramPtr prog, MachineOptions opts,
            std::shared_ptr<const Instrumentation> overlay,
            MachineCheckpointPtr resume_from);

    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Execute the program to completion or failure. */
    RunResult run();

    /**
     * Run (or continue running) until exactly @p step instructions
     * have retired, then pause at the step boundary — before the
     * step's bounds check, IRQ draw, preemption probe, and hooks —
     * and return a checkpoint of the paused state. Returns null if
     * the run ended before reaching @p step (call run() afterwards —
     * or beforehand — for the finished RunResult; runToStep may be
     * called repeatedly with increasing steps, and run() finishes
     * the run from wherever the last pause left it).
     */
    MachineCheckpointPtr runToStep(std::uint64_t step);

    /**
     * Arm periodic checkpointing: capture a checkpoint at the first
     * quantum boundary at or after every multiple of @p every_steps
     * and hand it to @p sink. Capture never perturbs the run (no RNG
     * draws, no instruction charges); the CoW fork prices each
     * capture at O(pages touched since the previous one). Call
     * before run().
     */
    void enableCheckpoints(
        std::uint64_t every_steps,
        std::function<void(MachineCheckpointPtr)> sink);

    /**
     * Capture the complete deterministic machine state. Valid at step
     * boundaries only: before the first run() call (for a resumed
     * construction, that means the resume point itself), at a
     * runToStep() pause, or from an enableCheckpoints sink.
     */
    MachineCheckpointPtr checkpoint();

    // ---- services used by the kernel driver and library models ----

    const Program &program() const { return *prog_; }
    const MachineOptions &options() const { return opts_; }

    Pmu &pmuOf(ThreadId tid);
    LcrDomain &lcrDomain() { return lcr_; }
    Thread &threadRef(ThreadId tid);
    std::uint64_t steps() const { return steps_; }

    /** Charge ring-0 work and retire that many kernel branches. */
    void chargeKernel(ThreadId tid, std::uint64_t instrs,
                      std::uint32_t branches);
    /** Charge user-level work (library bodies). */
    void chargeUser(std::uint64_t instrs);
    /** Charge instrumentation work (tracked separately). */
    void chargeInstrumentation(std::uint64_t instrs);

    /** Append a collected profile to the run result. */
    void appendProfile(ProfileRecord record);

    /**
     * Perform one data access on behalf of @p tid at @p addr,
     * feeding the coherence event to LCR and the performance
     * counters. Returns false (and flags a segfault) if the address
     * is invalid. On success *value_in_out is loaded or stored.
     */
    bool dataAccess(ThreadId tid, Addr pc, Addr addr, bool is_store,
                    Word *value_in_out, bool kernel = false);

    /** Retire a synthetic user-level branch (library bodies). */
    void retireLibraryBranch(ThreadId tid, Addr from_ip, Addr to_ip);

    /** True if @p addr is a mapped data address for @p tid. */
    bool validAddress(ThreadId tid, Addr addr) const;

    /** Raise a segmentation fault at the current instruction. */
    void raiseSegfault(ThreadId tid, const std::string &message);

  private:
    enum class StepStatus : std::uint8_t {
        Continue,     //!< keep running this thread
        SwitchThread, //!< blocked/yielded/quantum: pick another
        RunEnded,     //!< outcome decided
    };

    void initMemoryImage();

    /**
     * One-time run setup: normal boot (dispatch + memory image +
     * main thread + instrumentation-at-main) or, for a resumed
     * construction, checkpoint adoption. Idempotent across
     * runToStep()/run() calls.
     */
    void bootOrRestore();

    /** Adopt @p ckpt wholesale (the resume half of bootOrRestore). */
    void restoreFromCheckpoint(const MachineCheckpoint &ckpt);

    /**
     * The scheduler loop (quantum picking + dispatch), factored out
     * of run() so runToStep() can drive it to a pause and run() can
     * later finish the same run. Leaves paused_ set when the loop
     * stopped at pauseAtStep_ rather than at an outcome.
     */
    void schedLoop();

    /** The PBI overflow sampler bound to this Machine. */
    PerfCounter::OverflowHandler pbiSampler();

    /**
     * Acquire this run's predecoded operand stream from the global
     * decode cache (built on first use per (program, hook-tables,
     * fusion) key) and hoist the fields runQuantum reads. Replaces
     * PR 2's per-run dispatch tables — the flags byte and hook side
     * tables now live inside the shared DecodedProgram.
     */
    void prepareDispatch();

    Thread &spawnThread(std::uint32_t entry_pc, Word arg);

    /**
     * Interpret @p thread until its quantum expires (returns Continue
     * with @p quantum_left at 0), it blocks/yields/preempts
     * (SwitchThread), or the run ends (RunEnded). The computed-goto
     * loop in vm/interp_loop.inc.
     */
    StepStatus runQuantum(Thread &thread, std::uint32_t &quantum_left);

    StepStatus execSync(Thread &thread, const Instruction &inst);
    StepStatus execSyscall(Thread &thread, const Instruction &inst);
    StepStatus execLibCall(Thread &thread, const Instruction &inst);

    /**
     * Deliver one asynchronous interrupt to @p thread: push the
     * hardware frame (pc + registers), drop to CPL0, and run the
     * registered handler to its Iret in a cold side interpreter.
     * Synchronous with respect to the main loop — handler work never
     * touches steps_, the quantum, or the seeded preemption/delivery
     * draw pattern, and a bare-iret handler leaves the RunResult
     * bit-identical to an undelivered run (the contract DESIGN.md §15
     * documents and test_kernel pins). Returns RunEnded if the handler
     * faults, logs a failure, or exhausts its step budget.
     */
    StepStatus serviceInterrupt(Thread &thread);

    /** Step-limit hang: profile whoever runs and end the run. */
    StepStatus stepLimitHang(Thread &thread);

    /**
     * The interpreter loop's combined limit handler: the hoisted
     * per-quantum limit is min(opts_.maxSteps, pauseAtStep_), so a
     * trip here is either a requested pause (steps_ == pauseAtStep_,
     * state untouched, resumable) or the real step-limit hang.
     */
    StepStatus
    stepLimit(Thread &thread)
    {
        if (steps_ >= opts_.maxSteps)
            return stepLimitHang(thread);
        paused_ = true;
        return StepStatus::RunEnded;
    }

    void runHooks(Thread &thread, const std::vector<Hook> &hooks);
    void cbiSample(Thread &thread, const Hook &hook);

    /**
     * Record one retired taken branch. Inline: called for every taken
     * branch; in the common bare-run case (LBR disabled, BTS off) it
     * reduces to the gate plus one counter bump — building the record
     * is pointless when both sinks would drop it unexamined. Takes the
     * branch metadata as scalars so fused handlers can retire either
     * half of a pair straight from the DecodedOp fields.
     */
    void
    retireTakenBranch(Thread &thread, BranchKind kind, bool kernel,
                      SourceBranchId src_branch, bool outcome,
                      std::uint32_t from_idx, std::uint32_t to_idx)
    {
        Pmu &pmu = *pmus_[thread.id];
        if (pmu.lbr().enabled() || bts_.enabled()) {
            BranchRecord record;
            record.fromIp = layout::codeAddr(from_idx);
            record.toIp = layout::codeAddr(to_idx);
            record.kind = kind;
            record.kernel = kernel;
            record.srcBranch = src_branch;
            record.outcome = outcome;
            pmu.retireBranch(record);
            chargeInstrumentation(bts_.retire(thread.id, record));
        }
        ++result_.stats.branchesRetired;
    }

    void endRun(RunOutcome outcome, ThreadId tid,
                std::uint32_t instr_index, LogSiteId site,
                const std::string &message);
    void profileOnFault(ThreadId tid);

    bool anyOtherRunnable(ThreadId tid) const;
    ThreadId pickNext(ThreadId current) const;

    ProgramPtr prog_;
    MachineOptions opts_;
    /** Keeps the overlay plan alive; null for an uninstrumented run. */
    std::shared_ptr<const Instrumentation> overlayHold_;
    /** The plan every read goes through (the overlay or the empty plan). */
    const Instrumentation *instr_ = nullptr;
    Pcg32 rng_;

    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<std::unique_ptr<Pmu>> pmus_;
    Bus bus_;
    LcrDomain lcr_;
    BranchTraceStore bts_;

    MemoryImage memory_;
    Addr heapBrk_ = layout::kHeapBase;

    // ---- hot-path dispatch state (resolved once per run) ----
    /** This run's predecoded stream (shared via the decode cache). */
    DecodedProgramPtr decoded_;
    /** decoded_->ops.data(), hoisted for the interpreter loop. */
    const DecodedOp *dops_ = nullptr;
    const Instruction *code_ = nullptr;
    std::uint32_t codeSize_ = 0;
    bool cciEnabled_ = false;
    /** Superinstruction pairs retired this run (each covers 2 steps). */
    std::uint64_t fusedPairs_ = 0;
    /** Interrupt delivery armed (irq.prob > 0 and a handler exists). */
    bool irqOn_ = false;
    /** Interrupts delivered / handler instructions this run (vm stats). */
    std::uint64_t irqDelivered_ = 0;
    std::uint64_t irqHandlerSteps_ = 0;
    /** Main-loop steps retired at CPL0 (sysenter stub bodies). */
    std::uint64_t kernelSteps_ = 0;
    /** One past the last mapped global byte (fixed at construction). */
    Addr globalsEnd_ = layout::kGlobalBase;
    /** Bytes of the contiguous live-stack span (threads are dense). */
    Addr stackSpan_ = 0;

    std::unordered_map<Addr, MachineMutex> mutexes_;

    RunResult result_;
    bool ended_ = false;
    std::uint64_t steps_ = 0;

    // ---- scheduler position (members, not run() locals, so
    //      checkpoint() can capture mid-run) ----
    ThreadId schedCurrent_ = 0;
    std::uint32_t schedQuantumLeft_ = 0;

    // ---- checkpoint / resume plumbing ----
    /** Adopted by the first bootOrRestore(); null for normal boots. */
    MachineCheckpointPtr resumeFrom_;
    /** bootOrRestore() has run (run setup must happen exactly once). */
    bool booted_ = false;
    /** schedLoop stopped at pauseAtStep_, not at an outcome. */
    bool paused_ = false;
    /** Pause boundary for runToStep (no pause when all-ones). */
    std::uint64_t pauseAtStep_ = ~std::uint64_t{0};
    /** Periodic-capture interval in steps (0 = disarmed). */
    std::uint64_t ckptEvery_ = 0;
    /** steps_ at the last periodic capture. */
    std::uint64_t lastCkptStep_ = 0;
    std::function<void(MachineCheckpointPtr)> ckptSink_;
};

} // namespace stm

#endif // STM_VM_MACHINE_HH
