#include "vm/machine.hh"

#include <chrono>
#include <utility>

#include "driver/kernel_driver.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "vm/decode_cache.hh"
#include "vm/vm_stats.hh"

namespace stm
{

namespace
{

/** Synthetic library code addresses, one small region per LibFn. */
Addr
libPc(LibFn fn, std::uint32_t off = 0)
{
    return layout::kLibraryBase +
           0x100 * static_cast<Addr>(fn) + 4 * off;
}

/**
 * The plan a Machine constructed without an overlay runs under. A
 * function-local static, so a Machine built during another
 * translation unit's static initialization still finds it.
 */
const Instrumentation &
emptyPlan()
{
    static const Instrumentation empty;
    return empty;
}

} // namespace

Machine::Machine(ProgramPtr prog, MachineOptions opts,
                 std::shared_ptr<const Instrumentation> overlay)
    : prog_(std::move(prog)),
      opts_(std::move(opts)),
      overlayHold_(std::move(overlay)),
      rng_(opts_.sched.seed, 7),
      bus_(opts_.cache),
      lcr_(opts_.lcrEntries)
{
    if (!prog_)
        fatal("Machine requires a program");
    instr_ = overlayHold_ ? overlayHold_.get() : &emptyPlan();
    globalsEnd_ = prog_->globalsEnd();
}

Machine::Machine(ProgramPtr prog, MachineOptions opts,
                 std::shared_ptr<const Instrumentation> overlay,
                 MachineCheckpointPtr resume_from)
    : Machine(std::move(prog), std::move(opts), std::move(overlay))
{
    resumeFrom_ = std::move(resume_from);
    if (!resumeFrom_)
        fatal("Machine resume constructor requires a checkpoint");
}

Machine::~Machine() = default;

Pmu &
Machine::pmuOf(ThreadId tid)
{
    if (tid >= pmus_.size())
        panic("no PMU for thread {}", tid);
    return *pmus_[tid];
}

Thread &
Machine::threadRef(ThreadId tid)
{
    if (tid >= threads_.size())
        panic("no thread {}", tid);
    return *threads_[tid];
}

void
Machine::chargeKernel(ThreadId tid, std::uint64_t instrs,
                      std::uint32_t branches)
{
    result_.stats.kernelInstructions += instrs;
    // Kernel work retires ring-0 conditional branches; whether they
    // land in LBR depends on the ring-0 filter bit.
    Pmu &pmu = pmuOf(tid);
    for (std::uint32_t i = 0; i < branches; ++i) {
        BranchRecord record;
        record.fromIp = layout::kKernelText + 8 * i;
        record.toIp = layout::kKernelText + 8 * i + 4;
        record.kind = BranchKind::Conditional;
        record.kernel = true;
        pmu.retireBranch(record);
    }
}

void
Machine::chargeUser(std::uint64_t instrs)
{
    result_.stats.userInstructions += instrs;
}

void
Machine::chargeInstrumentation(std::uint64_t instrs)
{
    result_.stats.instrumentationInstructions += instrs;
}

void
Machine::appendProfile(ProfileRecord record)
{
    result_.profiles.push_back(std::move(record));
}

bool
Machine::validAddress(ThreadId tid, Addr addr) const
{
    (void)tid; // any thread may touch any mapped segment
    // Unsigned subtract-and-compare covers both segment bounds at
    // once; live stacks form one contiguous span because thread ids
    // are dense and each owns kStackSize bytes.
    if (addr - layout::kGlobalBase < globalsEnd_ - layout::kGlobalBase)
        return true;
    if (addr - layout::kHeapBase < heapBrk_ - layout::kHeapBase)
        return true;
    return addr - layout::kStackBase < stackSpan_;
}

void
Machine::raiseSegfault(ThreadId tid, const std::string &message)
{
    profileOnFault(tid);
    endRun(RunOutcome::SegFault, tid, threadRef(tid).pc, kSegfaultSite,
           message);
}

bool
Machine::dataAccess(ThreadId tid, Addr pc, Addr addr, bool is_store,
                    Word *value_in_out, bool kernel)
{
    if (!validAddress(tid, addr)) [[unlikely]] {
        raiseSegfault(tid, strfmt("invalid {} at address 0x{}",
                                  is_store ? "store" : "load", addr));
        return false;
    }
    MesiState observed = bus_.access(tid, addr, is_store);

    CoherenceEvent event;
    event.pc = pc;
    event.observed = observed;
    event.store = is_store;
    event.kernel = kernel;
    lcr_.retire(tid, event);
    pmus_[tid]->observeAccess(event);
    ++result_.stats.memoryAccesses;

    // CCI baseline: heavyweight software sampling of interleaving
    // predicates at (user, application-code) memory accesses.
    if (cciEnabled_ && !kernel && pc >= layout::kCodeBase &&
        pc < layout::kLibraryBase) [[unlikely]] {
        const Instrumentation &instr = *instr_;
        chargeInstrumentation(5); // per-access fast path
        Thread &t = threadRef(tid);
        if (t.cciCountdown == 0)
            t.cciCountdown = rng_.nextGeometric(instr.cciMeanPeriod);
        if (--t.cciCountdown == 0) {
            t.cciCountdown = rng_.nextGeometric(instr.cciMeanPeriod);
            chargeInstrumentation(20);
            bool remote = observed == MesiState::Invalid ||
                          observed == MesiState::Shared;
            ++result_.cciSiteSamples[pc];
            ++result_.cciCounts[{pc, remote}];
        }
    }

    Addr cell = addr & ~Addr{7};
    if (is_store)
        memory_.store(cell, *value_in_out);
    else
        *value_in_out = memory_.load(cell);
    return true;
}

void
Machine::retireLibraryBranch(ThreadId tid, Addr from_ip, Addr to_ip)
{
    BranchRecord record;
    record.fromIp = from_ip;
    record.toIp = to_ip;
    record.kind = BranchKind::Conditional;
    record.kernel = false;
    pmuOf(tid).retireBranch(record);
    chargeInstrumentation(bts_.retire(tid, record));
    ++result_.stats.branchesRetired;
}

void
Machine::initMemoryImage()
{
    for (const auto &sym : prog_->symbols) {
        for (std::uint64_t w = 0; w < sym.sizeWords; ++w) {
            Word value =
                w < sym.init.size() ? sym.init[w] : Word{0};
            if (value != 0)
                memory_.store(sym.addr + 8 * w, value);
        }
    }
    for (const auto &[symName, values] : opts_.globalOverrides) {
        const Symbol &sym = prog_->symbolByName(symName);
        for (std::uint64_t w = 0;
             w < values.size() && w < sym.sizeWords; ++w) {
            memory_.store(sym.addr + 8 * w, values[w]);
        }
    }
}

void
Machine::prepareDispatch()
{
    code_ = prog_->code.data();
    codeSize_ = static_cast<std::uint32_t>(prog_->code.size());
    cciEnabled_ = instr_->cciEnabled;

    decoded_ = globalDecodeCache().acquire(
        *prog_, *instr_, opts_.enableSuperinstructions);
    dops_ = decoded_->ops.data();

    irqOn_ = opts_.irq.prob > 0.0 &&
             prog_->irqHandlerEntry != Program::kNoIrqHandler;
}

Thread &
Machine::spawnThread(std::uint32_t entry_pc, Word arg)
{
    ThreadId tid = static_cast<ThreadId>(threads_.size());
    auto thread = std::make_unique<Thread>();
    thread->id = tid;
    thread->pc = entry_pc;
    thread->regs[1] = arg;
    thread->regs[kStackPointer] =
        static_cast<Word>(thread->stackHigh() - 8);
    threads_.push_back(std::move(thread));
    stackSpan_ =
        static_cast<Addr>(threads_.size()) * layout::kStackSize;

    auto pmu = std::make_unique<Pmu>(opts_.lbrEntries);
    // Threads created after main enabled LBR inherit the per-core
    // configuration (the driver enables recording on every core).
    if (tid > 0 && instr_->enableLbrAtMain) {
        pmu->lbr().writeSelect(instr_->lbrSelectMask);
        pmu->lbr().writeDebugCtl(msr::kDebugCtlEnableLbr);
    }
    // PBI baseline: program two counters (loads, stores) to sample
    // the pc of matching coherence events on overflow interrupts.
    const Instrumentation &instr = *instr_;
    if (instr.pbiEnabled) {
        PerfCounter::OverflowHandler sampler = pbiSampler();
        pmu->counter(0).configure(msr::kEventLoad, instr.pbiLoadMask,
                                  false, true);
        pmu->counter(0).setSampling(instr.pbiPeriod, sampler);
        pmu->counter(0).seedJitter(opts_.sched.seed * 31 + tid);
        pmu->counter(0).enable();
        pmu->counter(1).configure(msr::kEventStore,
                                  instr.pbiStoreMask, false, true);
        pmu->counter(1).setSampling(instr.pbiPeriod, sampler);
        pmu->counter(1).seedJitter(opts_.sched.seed * 37 + tid);
        pmu->counter(1).enable();
    }
    pmus_.push_back(std::move(pmu));
    bus_.addCore(tid);
    return *threads_.back();
}

PerfCounter::OverflowHandler
Machine::pbiSampler()
{
    return [this](const CoherenceEvent &event) {
        // ~interrupt + handler cost
        chargeInstrumentation(30);
        std::uint8_t key = static_cast<std::uint8_t>(
            (static_cast<std::uint8_t>(event.observed) << 1) |
            (event.store ? 1 : 0));
        ++result_.pbiSamples[{event.pc, key}];
    };
}

bool
Machine::anyOtherRunnable(ThreadId tid) const
{
    for (const auto &t : threads_) {
        if (t->id != tid && t->runnable())
            return true;
    }
    return false;
}

ThreadId
Machine::pickNext(ThreadId current) const
{
    std::uint32_t n = static_cast<std::uint32_t>(threads_.size());
    for (std::uint32_t i = 1; i <= n; ++i) {
        ThreadId candidate = (current + i) % n;
        if (threads_[candidate]->runnable())
            return candidate;
    }
    return current; // caller checks runnability
}

void
Machine::endRun(RunOutcome outcome, ThreadId tid,
                std::uint32_t instr_index, LogSiteId site,
                const std::string &message)
{
    if (ended_)
        return;
    ended_ = true;
    result_.outcome = outcome;
    if (outcome != RunOutcome::Completed) {
        FailureInfo info;
        info.kind = outcome;
        info.thread = tid;
        info.instrIndex = instr_index;
        info.site = site;
        info.message = message;
        result_.failure = info;
    }
}

void
Machine::profileOnFault(ThreadId tid)
{
    const Instrumentation &instr = *instr_;
    if (instr.segfaultProfilesLbr)
        driver::profileLbr(*this, tid, kSegfaultSite, false);
    if (instr.segfaultProfilesLcr)
        driver::profileLcr(*this, tid, kSegfaultSite, false);
}

void
Machine::bootOrRestore()
{
    if (booted_)
        return;
    booted_ = true;

    if (resumeFrom_) {
        restoreFromCheckpoint(*resumeFrom_);
        return;
    }

    prepareDispatch();
    initMemoryImage();

    Thread &main = spawnThread(prog_->entry, 0);
    for (std::size_t i = 0;
         i < opts_.mainArgs.size() && i + 1 < kNumRegs; ++i) {
        main.regs[i + 1] = opts_.mainArgs[i];
    }

    // Inserted configure/enable code at the entry of main (Figure 7).
    const Instrumentation &instr = *instr_;
    if (instr.enableLbrAtMain) {
        driver::cleanLbr(*this, main.id);
        driver::configLbr(*this, main.id, instr.lbrSelectMask);
        driver::enableLbr(*this, main.id);
    }
    if (instr.enableLcrAtMain) {
        driver::cleanLcr(*this, main.id);
        driver::configLcr(*this, main.id, instr.lcrConfigMask);
        driver::enableLcr(*this, main.id);
    }
    if (instr.btsEnabled) {
        bts_.writeSelect(instr.btsSelectMask);
        bts_.enable();
    }
    result_.stats.setupInstructions =
        result_.stats.instrumentationInstructions;

    schedCurrent_ = 0;
    schedQuantumLeft_ = opts_.sched.quantum;
}

void
Machine::restoreFromCheckpoint(const MachineCheckpoint &ckpt)
{
    // The run's identity (program, decoded stream) is reconstructed,
    // not restored: the checkpoint only carries the mutable
    // trajectory state.
    prepareDispatch();

    rng_ = ckpt.rng;
    if (ckpt.pmus.size() != ckpt.threads.size())
        fatal("malformed checkpoint: {} threads but {} PMUs",
              ckpt.threads.size(), ckpt.pmus.size());
    const bool pbi = instr_->pbiEnabled;
    for (std::size_t i = 0; i < ckpt.threads.size(); ++i) {
        threads_.push_back(
            std::make_unique<Thread>(ckpt.threads[i]));
        auto pmu = std::make_unique<Pmu>(opts_.lbrEntries);
        pmu->lbr() = ckpt.pmus[i].lbr;
        for (std::size_t c = 0; c < Pmu::kNumCounters; ++c) {
            // Counters 0/1 are the PBI pair (spawnThread); they get
            // this Machine's sampler binding, with the checkpointed
            // jitter/threshold state preserved so the resumed run
            // samples the exact events the original would have.
            bool sampled = pbi && c < 2;
            pmu->counter(c).restoreState(
                ckpt.pmus[i].counters[c],
                sampled ? pbiSampler()
                        : PerfCounter::OverflowHandler{});
        }
        pmus_.push_back(std::move(pmu));
        bus_.addCore(static_cast<std::uint32_t>(i));
    }
    bus_.restoreState(ckpt.bus);
    lcr_ = ckpt.lcr;
    bts_ = ckpt.bts;
    memory_.restore(ckpt.memory);
    heapBrk_ = ckpt.heapBrk;
    stackSpan_ = ckpt.stackSpan;
    mutexes_ = ckpt.mutexes;
    steps_ = ckpt.step;
    kernelSteps_ = ckpt.kernelSteps;
    irqDelivered_ = ckpt.irqDelivered;
    irqHandlerSteps_ = ckpt.irqHandlerSteps;
    fusedPairs_ = ckpt.fusedPairs;
    result_ = ckpt.result;
    schedCurrent_ = ckpt.schedCurrent;
    schedQuantumLeft_ = ckpt.schedQuantumLeft;
    lastCkptStep_ = ckpt.step;
    ended_ = false;
}

MachineCheckpointPtr
Machine::checkpoint()
{
    if (!booted_) {
        // Not yet running: the resume point itself, or a boot-state
        // capture for a fresh machine.
        if (resumeFrom_)
            return resumeFrom_;
        bootOrRestore();
    }
    auto ck = std::make_shared<MachineCheckpoint>();
    ck->step = steps_;
    ck->schedCurrent = schedCurrent_;
    ck->schedQuantumLeft = schedQuantumLeft_;
    ck->rng = rng_;
    ck->threads.reserve(threads_.size());
    for (const auto &t : threads_)
        ck->threads.push_back(*t);
    ck->mutexes = mutexes_;
    ck->pmus.reserve(pmus_.size());
    for (const auto &p : pmus_) {
        PmuSnapshot ps;
        ps.lbr = p->lbr();
        for (std::size_t c = 0; c < Pmu::kNumCounters; ++c)
            ps.counters[c] = p->counter(c).snapshotState();
        ck->pmus.push_back(std::move(ps));
    }
    ck->lcr = lcr_;
    ck->bts = bts_;
    ck->bus = bus_.snapshotState();
    ck->memory = memory_.fork();
    ck->heapBrk = heapBrk_;
    ck->stackSpan = stackSpan_;
    ck->kernelSteps = kernelSteps_;
    ck->irqDelivered = irqDelivered_;
    ck->irqHandlerSteps = irqHandlerSteps_;
    ck->fusedPairs = fusedPairs_;
    ck->result = result_;
    return ck;
}

void
Machine::enableCheckpoints(
    std::uint64_t every_steps,
    std::function<void(MachineCheckpointPtr)> sink)
{
    ckptEvery_ = every_steps;
    ckptSink_ = std::move(sink);
}

MachineCheckpointPtr
Machine::runToStep(std::uint64_t step)
{
    bootOrRestore();
    if (ended_)
        return nullptr;
    pauseAtStep_ = step;
    paused_ = false;
    schedLoop();
    pauseAtStep_ = ~std::uint64_t{0};
    if (!paused_)
        return nullptr; // the run ended first
    paused_ = false;
    return checkpoint();
}

void
Machine::schedLoop()
{
    const std::uint64_t maxSteps = opts_.maxSteps;

    while (!ended_) {
        if (steps_ >= pauseAtStep_) [[unlikely]] {
            paused_ = true;
            return;
        }
        if (steps_ >= maxSteps) [[unlikely]] {
            // Hang: the "paste"-style symptom. Profile whoever runs.
            profileOnFault(schedCurrent_);
            endRun(RunOutcome::StepLimit, schedCurrent_,
                   threadRef(schedCurrent_).pc, kSegfaultSite,
                   "step limit exceeded (hang)");
            return;
        }

        Thread &t = *threads_[schedCurrent_];
        if (!t.runnable() || schedQuantumLeft_ == 0) {
            ThreadId next = pickNext(schedCurrent_);
            if (!threadRef(next).runnable()) {
                bool allDone = true;
                for (const auto &th : threads_) {
                    if (th->state != ThreadState::Done) {
                        allDone = false;
                        break;
                    }
                }
                if (allDone) {
                    endRun(RunOutcome::Completed, schedCurrent_, 0, 0,
                           "");
                } else {
                    profileOnFault(0);
                    endRun(RunOutcome::Deadlock, schedCurrent_,
                           threadRef(schedCurrent_).pc, kSegfaultSite,
                           "deadlock: all live threads blocked");
                }
                return;
            }
            if (next != schedCurrent_)
                ++result_.stats.contextSwitches;
            schedCurrent_ = next;
            schedQuantumLeft_ = opts_.sched.quantum;
            // Periodic capture sits at the quantum boundary: every
            // member the per-step protocol reads is consistent here,
            // and the capture itself draws no RNG and charges no
            // instructions, so recording checkpoints never perturbs
            // the trajectory.
            if (ckptEvery_ != 0 && ckptSink_ &&
                steps_ - lastCkptStep_ >= ckptEvery_) [[unlikely]] {
                lastCkptStep_ = steps_;
                ckptSink_(checkpoint());
            }
            continue;
        }

        StepStatus status = runQuantum(t, schedQuantumLeft_);
        if (status == StepStatus::RunEnded)
            return; // outcome decided, or paused_ set mid-quantum
        if (status == StepStatus::SwitchThread)
            schedQuantumLeft_ = 0;
        // Continue: the quantum expired; reschedule above.
    }
}

RunResult
Machine::run()
{
    auto runStart = std::chrono::steady_clock::now();
    obs::TraceSpan runSpan(obs::TraceCategory::Vm, obs::TraceId::VmRun,
                           opts_.sched.seed);
    bootOrRestore();
    schedLoop();

    if (!ended_)
        endRun(RunOutcome::Completed, 0, 0, 0, "");
    // Interpreter steps count as user instructions — minus the ones
    // retired at CPL0 inside sysenter stubs, which are kernel work.
    // Charged here in one shot rather than per step (chargeUser adds
    // library bodies).
    result_.stats.userInstructions += steps_ - kernelSteps_;
    result_.stats.kernelInstructions += kernelSteps_;
    if (instr_->btsEnabled)
        result_.btsTrace = bts_.trace();

    // Fold this run's hot-path totals into the process-wide "vm"
    // stat group (throughput gauges for benches and dashboards).
    VmRunSample sample;
    sample.steps = steps_;
    sample.wallMicros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - runStart)
            .count());
    sample.memAccesses = memory_.accesses();
    sample.fusedPairs = fusedPairs_;
    sample.irqDelivered = irqDelivered_;
    sample.irqHandlerSteps = irqHandlerSteps_;
    for (std::uint32_t c = 0; c < bus_.numCores(); ++c)
        sample.cacheLookups += bus_.cache(c).lookups();
    recordVmRun(sample);
    runSpan.setArg(steps_);
    return std::move(result_);
}

Machine::StepStatus
Machine::stepLimitHang(Thread &t)
{
    // Hang: the "paste"-style symptom. Profile whoever runs.
    profileOnFault(t.id);
    endRun(RunOutcome::StepLimit, t.id, t.pc, kSegfaultSite,
           "step limit exceeded (hang)");
    return StepStatus::RunEnded;
}

// The interpreter loop itself, Machine::runQuantum.
#include "vm/interp_loop.inc"

Machine::StepStatus
Machine::execSync(Thread &t, const Instruction &inst)
{
    std::uint32_t pc = t.pc;
    auto &regs = t.regs;

    switch (inst.op) {
      case Opcode::Lock: {
        Addr addr = static_cast<Addr>(regs[inst.ra]);
        if (addr == 0 || !validAddress(t.id, addr)) {
            raiseSegfault(t.id, "lock on invalid mutex address");
            return StepStatus::RunEnded;
        }
        // The lock acquisition is an atomic read-modify-write on the
        // mutex word: one store-type access for coherence purposes.
        Word one = 1;
        if (!dataAccess(t.id, layout::codeAddr(pc), addr, true, &one))
            return StepStatus::RunEnded;
        MachineMutex &mutex = mutexes_[addr];
        if (mutex.locked && mutex.owner != t.id) {
            t.state = ThreadState::BlockedOnMutex;
            t.waitMutex = addr;
            // pc unchanged: the acquisition retries on wake-up.
            return StepStatus::SwitchThread;
        }
        mutex.locked = true;
        mutex.owner = t.id;
        t.pc = pc + 1;
        return StepStatus::Continue;
      }
      case Opcode::Unlock: {
        Addr addr = static_cast<Addr>(regs[inst.ra]);
        if (addr == 0 || !validAddress(t.id, addr)) {
            raiseSegfault(t.id, "unlock on invalid mutex address");
            return StepStatus::RunEnded;
        }
        Word zero = 0;
        if (!dataAccess(t.id, layout::codeAddr(pc), addr, true,
                        &zero)) {
            return StepStatus::RunEnded;
        }
        MachineMutex &mutex = mutexes_[addr];
        mutex.locked = false;
        for (auto &other : threads_) {
            if (other->state == ThreadState::BlockedOnMutex &&
                other->waitMutex == addr) {
                other->state = ThreadState::Ready;
            }
        }
        t.pc = pc + 1;
        return StepStatus::Continue;
      }
      case Opcode::Spawn: {
        Word arg = regs[inst.ra];
        Thread &child = spawnThread(inst.target, arg);
        regs[inst.rd] = static_cast<Word>(child.id);
        t.pc = pc + 1;
        // pthread_create does real kernel work.
        chargeKernel(t.id, 60, 4);
        return StepStatus::Continue;
      }
      case Opcode::Join: {
        ThreadId target = static_cast<ThreadId>(regs[inst.ra]);
        if (target >= threads_.size()) {
            raiseSegfault(t.id, "join on invalid thread id");
            return StepStatus::RunEnded;
        }
        if (threads_[target]->state == ThreadState::Done) {
            t.pc = pc + 1;
            return StepStatus::Continue;
        }
        t.state = ThreadState::BlockedOnJoin;
        t.joinTarget = target;
        // pc unchanged: re-checked on wake-up.
        return StepStatus::SwitchThread;
      }
      case Opcode::Yield:
        t.pc = pc + 1;
        return StepStatus::SwitchThread;
      default:
        panic("execSync: not a sync op");
    }
}

Machine::StepStatus
Machine::execSyscall(Thread &t, const Instruction &inst)
{
    std::uint32_t pc = t.pc;
    auto &regs = t.regs;
    auto no = static_cast<SyscallNo>(inst.imm);

    // The syscall instruction itself retires a far branch.
    BranchRecord far;
    far.fromIp = layout::codeAddr(pc);
    far.toIp = layout::kKernelText;
    far.kind = BranchKind::FarBranch;
    far.kernel = false;
    pmuOf(t.id).retireBranch(far);

    switch (no) {
      case SyscallNo::CleanLbr:
        driver::cleanLbr(*this, t.id);
        break;
      case SyscallNo::ConfigLbr:
        driver::configLbr(*this, t.id,
                          static_cast<std::uint64_t>(regs[inst.ra]));
        break;
      case SyscallNo::EnableLbr:
        driver::enableLbr(*this, t.id);
        break;
      case SyscallNo::DisableLbr:
        driver::disableLbr(*this, t.id);
        break;
      case SyscallNo::ProfileLbr:
        driver::profileLbr(*this, t.id,
                           static_cast<LogSiteId>(regs[inst.ra]),
                           false);
        break;
      case SyscallNo::CleanLcr:
        driver::cleanLcr(*this, t.id);
        break;
      case SyscallNo::ConfigLcr:
        driver::configLcr(*this, t.id,
                          static_cast<std::uint64_t>(regs[inst.ra]));
        break;
      case SyscallNo::EnableLcr:
        driver::enableLcr(*this, t.id);
        break;
      case SyscallNo::DisableLcr:
        driver::disableLcr(*this, t.id);
        break;
      case SyscallNo::ProfileLcr:
        driver::profileLcr(*this, t.id,
                           static_cast<LogSiteId>(regs[inst.ra]),
                           false);
        break;
      case SyscallNo::DumpCore:
        driver::dumpCore(*this, t.id);
        break;
      case SyscallNo::LogCallStack:
        driver::logCallStack(*this, t.id);
        break;
      case SyscallNo::Alloc: {
        chargeKernel(t.id, 30, 3);
        Addr bytes = static_cast<Addr>(regs[inst.ra]);
        regs[inst.rd] = static_cast<Word>(heapBrk_);
        heapBrk_ += (bytes + 7) & ~Addr{7};
        break;
      }
      case SyscallNo::ThreadExit:
        t.state = ThreadState::Done;
        for (auto &other : threads_) {
            if (other->state == ThreadState::BlockedOnJoin &&
                other->joinTarget == t.id) {
                other->state = ThreadState::Ready;
            }
        }
        t.pc = pc + 1;
        return StepStatus::SwitchThread;
    }
    t.pc = pc + 1;
    return StepStatus::Continue;
}

Machine::StepStatus
Machine::serviceInterrupt(Thread &t)
{
    ++irqDelivered_;
    Pmu &pmu = *pmus_[t.id];

    // Hardware interrupt frame: pc, CPL, and the register file are
    // pushed at delivery and restored by Iret, so the handler can only
    // talk to mainline code through memory.
    const std::uint32_t savedPc = t.pc;
    const std::uint8_t savedCpl = t.cpl;
    const std::array<Word, kNumRegs> savedRegs = t.regs;

    // Handler-side branch retirement: feeds LBR/BTS like any retired
    // taken branch but, like chargeKernel's synthetic ring-0 branches,
    // never bumps the user retirement counter — half of the bare-iret
    // bit-identity contract (DESIGN.md §15).
    auto retire = [&](BranchKind kind, SourceBranchId src, bool outcome,
                      std::uint32_t from_idx, std::uint32_t to_idx) {
        if (pmu.lbr().enabled() || bts_.enabled()) {
            BranchRecord record;
            record.fromIp = layout::codeAddr(from_idx);
            record.toIp = layout::codeAddr(to_idx);
            record.kind = kind;
            record.kernel = true; // handler branches retire at CPL0
            record.srcBranch = src;
            record.outcome = outcome;
            pmu.retireBranch(record);
            chargeInstrumentation(bts_.retire(t.id, record));
        }
    };

    // Delivery itself is a far transfer into ring 0.
    retire(BranchKind::FarBranch, kNoSourceBranch, false, savedPc,
           prog_->irqHandlerEntry);
    t.cpl = 0;
    t.pc = prog_->irqHandlerEntry;

    std::vector<std::uint32_t> frames; // handler-local call stack
    const std::uint32_t budget = opts_.irq.handlerStepBudget;
    auto &regs = t.regs;

    for (std::uint32_t handlerSteps = 0;; ++handlerSteps) {
        if (handlerSteps >= budget) [[unlikely]] {
            // Wedged handler / interrupt storm: deterministic hang.
            profileOnFault(t.id);
            endRun(RunOutcome::StepLimit, t.id, t.pc, kSegfaultSite,
                   "interrupt handler exceeded its step budget");
            return StepStatus::RunEnded;
        }
        const std::uint32_t pc = t.pc;
        if (pc >= codeSize_) [[unlikely]] {
            raiseSegfault(
                t.id, "interrupt handler fell off the code segment");
            return StepStatus::RunEnded;
        }
        const Instruction &inst = code_[pc];
        if (std::int32_t bi = decoded_->beforeIdx[pc]; bi >= 0) {
            // Instrumentation hooks run inside the handler too — this
            // is how panic-path profiling (ProfileLbr right before a
            // kernel failure-logging site) works.
            runHooks(t, decoded_->hookLists[
                            static_cast<std::size_t>(bi)]);
            if (ended_)
                return StepStatus::RunEnded;
        }
        ++irqHandlerSteps_;
        // Handler work is ring-0 work. The frame push/pop pair (all a
        // bare-iret handler executes) is free, so undelivered and
        // no-op-delivered runs produce bit-identical RunResults.
        if (inst.op != Opcode::Iret)
            ++result_.stats.kernelInstructions;

        switch (inst.op) {
          case Opcode::Nop:
            t.pc = pc + 1;
            break;
          case Opcode::Movi:
            regs[inst.rd] = inst.imm;
            t.pc = pc + 1;
            break;
          case Opcode::Mov:
            regs[inst.rd] = regs[inst.ra];
            t.pc = pc + 1;
            break;
          case Opcode::Add:
            regs[inst.rd] = regs[inst.ra] + regs[inst.rb];
            t.pc = pc + 1;
            break;
          case Opcode::Addi:
            regs[inst.rd] = regs[inst.ra] + inst.imm;
            t.pc = pc + 1;
            break;
          case Opcode::Sub:
            regs[inst.rd] = regs[inst.ra] - regs[inst.rb];
            t.pc = pc + 1;
            break;
          case Opcode::Mul:
            regs[inst.rd] = regs[inst.ra] * regs[inst.rb];
            t.pc = pc + 1;
            break;
          case Opcode::Div:
          case Opcode::Mod:
            if (regs[inst.rb] == 0) {
                profileOnFault(t.id);
                endRun(RunOutcome::ArithmeticFault, t.id, pc,
                       kSegfaultSite,
                       "division by zero in interrupt handler");
                return StepStatus::RunEnded;
            }
            regs[inst.rd] = inst.op == Opcode::Div
                                ? regs[inst.ra] / regs[inst.rb]
                                : regs[inst.ra] % regs[inst.rb];
            t.pc = pc + 1;
            break;
          case Opcode::And:
            regs[inst.rd] = regs[inst.ra] & regs[inst.rb];
            t.pc = pc + 1;
            break;
          case Opcode::Or:
            regs[inst.rd] = regs[inst.ra] | regs[inst.rb];
            t.pc = pc + 1;
            break;
          case Opcode::Xor:
            regs[inst.rd] = regs[inst.ra] ^ regs[inst.rb];
            t.pc = pc + 1;
            break;
          case Opcode::Shl:
            regs[inst.rd] = regs[inst.ra] << (regs[inst.rb] & 63);
            t.pc = pc + 1;
            break;
          case Opcode::Shr:
            regs[inst.rd] = regs[inst.ra] >> (regs[inst.rb] & 63);
            t.pc = pc + 1;
            break;
          case Opcode::Not:
            regs[inst.rd] = ~regs[inst.ra];
            t.pc = pc + 1;
            break;
          case Opcode::Neg:
            regs[inst.rd] = -regs[inst.ra];
            t.pc = pc + 1;
            break;
          case Opcode::Lea:
            regs[inst.rd] = static_cast<Word>(
                prog_->symbols[inst.symId].addr + inst.imm);
            t.pc = pc + 1;
            break;
          case Opcode::Load:
          case Opcode::Store: {
            Addr ea = static_cast<Addr>(regs[inst.ra]) +
                      static_cast<Addr>(inst.imm);
            Word value = regs[inst.rb];
            if (!dataAccess(t.id, layout::codeAddr(pc), ea,
                            inst.op == Opcode::Store, &value, true)) {
                return StepStatus::RunEnded;
            }
            if (inst.op == Opcode::Load)
                regs[inst.rd] = value;
            t.pc = pc + 1;
            break;
          }
          case Opcode::Br:
            if (evalCond(inst.cond, regs[inst.ra], regs[inst.rb])) {
                retire(BranchKind::Conditional, inst.srcBranch,
                       inst.outcomeWhenTaken, pc, inst.target);
                t.pc = inst.target;
            } else {
                t.pc = pc + 1;
            }
            break;
          case Opcode::Jmp:
            retire(BranchKind::NearRelativeJump, inst.srcBranch,
                   inst.outcomeWhenTaken, pc, inst.target);
            t.pc = inst.target;
            break;
          case Opcode::Call:
            retire(BranchKind::NearRelativeCall, inst.srcBranch,
                   inst.outcomeWhenTaken, pc, inst.target);
            frames.push_back(pc + 1);
            t.pc = inst.target;
            break;
          case Opcode::Ret:
            if (frames.empty()) {
                raiseSegfault(t.id,
                              "ret without a frame in interrupt "
                              "handler (use iret)");
                return StepStatus::RunEnded;
            }
            retire(BranchKind::NearReturn, inst.srcBranch,
                   inst.outcomeWhenTaken, pc, frames.back());
            t.pc = frames.back();
            frames.pop_back();
            break;
          case Opcode::Out:
            result_.output.push_back(regs[inst.ra]);
            t.pc = pc + 1;
            break;
          case Opcode::AssertEq:
            if (regs[inst.ra] != regs[inst.rb]) {
                profileOnFault(t.id);
                endRun(RunOutcome::AssertFailed, t.id, pc,
                       kSegfaultSite,
                       "assertion failed in interrupt handler");
                return StepStatus::RunEnded;
            }
            t.pc = pc + 1;
            break;
          case Opcode::LogError: {
            // Panic-path logging: a kernel failure-logging site.
            const LogSiteInfo &site = prog_->logSite(inst.logSite);
            endRun(RunOutcome::ErrorLogged, t.id, pc, site.id,
                   site.message);
            return StepStatus::RunEnded;
          }
          case Opcode::LogInfo:
            // Kernel log buffer write: no library excursion, no cost.
            t.pc = pc + 1;
            break;
          case Opcode::Halt:
            endRun(RunOutcome::Completed, t.id, pc, 0, "");
            return StepStatus::RunEnded;
          case Opcode::Iret: {
            retire(BranchKind::FarBranch, kNoSourceBranch, false, pc,
                   savedPc);
            if (std::int32_t ai = decoded_->afterIdx[pc]; ai >= 0) {
                runHooks(t, decoded_->hookLists[
                                static_cast<std::size_t>(ai)]);
                if (ended_)
                    return StepStatus::RunEnded;
            }
            t.regs = savedRegs;
            t.cpl = savedCpl;
            t.pc = savedPc;
            return StepStatus::Continue;
          }
          default:
            // Lock/Unlock/Spawn/Join/Yield/Syscall/LibCall/SysEnter/
            // SysRet: blocking or ring-transition work is illegal in
            // interrupt context (the classic driver-bug shape).
            raiseSegfault(t.id, strfmt("opcode '{}' not permitted in "
                                       "an interrupt handler",
                                       opcodeName(inst.op)));
            return StepStatus::RunEnded;
        }

        if (std::int32_t ai = decoded_->afterIdx[pc]; ai >= 0) {
            runHooks(t, decoded_->hookLists[
                            static_cast<std::size_t>(ai)]);
            if (ended_)
                return StepStatus::RunEnded;
        }
    }
}

void
Machine::runHooks(Thread &t, const std::vector<Hook> &hooks)
{
    for (const auto &hook : hooks) {
        switch (hook.action) {
          case HookAction::ProfileLbr:
            driver::profileLbr(*this, t.id, hook.site,
                               hook.successSite);
            break;
          case HookAction::ProfileLcr:
            driver::profileLcr(*this, t.id, hook.site,
                               hook.successSite);
            break;
          case HookAction::DisableLbr:
            driver::disableLbr(*this, t.id);
            break;
          case HookAction::EnableLbr:
            driver::enableLbr(*this, t.id);
            break;
          case HookAction::DisableLcr:
            driver::disableLcr(*this, t.id);
            break;
          case HookAction::EnableLcr:
            driver::enableLcr(*this, t.id);
            break;
          case HookAction::CbiSample:
            cbiSample(t, hook);
            break;
        }
        if (ended_)
            return;
    }
}

void
Machine::cbiSample(Thread &t, const Hook &hook)
{
    const Instrumentation &instr = *instr_;
    // Fast path: a decrement-and-test on the sampling countdown.
    chargeInstrumentation(1);
    if (t.cbiCountdown == 0) {
        t.cbiCountdown = rng_.nextGeometric(instr.cbiMeanPeriod);
    }
    if (--t.cbiCountdown != 0)
        return;
    t.cbiCountdown = rng_.nextGeometric(instr.cbiMeanPeriod);
    // Slow path: evaluate and record the branch predicate.
    chargeInstrumentation(15);
    const Instruction &br = prog_->code[t.pc];
    if (br.op != Opcode::Br)
        return;
    bool taken = evalCond(br.cond, t.regs[br.ra], t.regs[br.rb]);
    bool outcome = taken == br.outcomeWhenTaken;
    ++result_.cbiSiteSamples[hook.site];
    ++result_.cbiCounts[CbiPredicate{hook.site, outcome}];
}

} // namespace stm
