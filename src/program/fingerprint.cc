#include "program/fingerprint.hh"

#include <algorithm>
#include <cstring>
#include <vector>

namespace stm
{

namespace
{

void
hashHook(FingerprintHasher &f, const Hook &hook)
{
    f.byte(static_cast<std::uint8_t>(hook.action));
    f.u32(hook.site);
    f.boolean(hook.successSite);
}

/**
 * Hash one hook side table in canonical (ascending pc) order. The
 * within-pc hook order is preserved: hooks at one pc execute in
 * attachment order, so it is semantically meaningful.
 */
void
hashHookTable(
    FingerprintHasher &f,
    const std::unordered_map<std::uint32_t, std::vector<Hook>> &table)
{
    std::vector<std::uint32_t> pcs;
    pcs.reserve(table.size());
    std::size_t entries = 0;
    for (const auto &[pc, hooks] : table) {
        if (hooks.empty())
            continue; // an empty list is observationally no entry
        pcs.push_back(pc);
        ++entries;
    }
    std::sort(pcs.begin(), pcs.end());
    f.u64(entries);
    for (std::uint32_t pc : pcs) {
        const std::vector<Hook> &hooks = table.at(pc);
        f.u32(pc);
        f.u64(hooks.size());
        for (const Hook &hook : hooks)
            hashHook(f, hook);
    }
}

void
hashLoc(FingerprintHasher &f, const SourceLoc &loc)
{
    f.u32(loc.file);
    f.u32(loc.line);
}

} // namespace

void
FingerprintHasher::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

std::uint64_t
fingerprintProgramBase(const Program &prog)
{
    FingerprintHasher f;
    f.str(prog.name);
    f.u32(prog.entry);
    f.u32(prog.irqHandlerEntry);

    f.u64(prog.code.size());
    for (const Instruction &inst : prog.code) {
        f.byte(static_cast<std::uint8_t>(inst.op));
        f.byte(static_cast<std::uint8_t>(inst.cond));
        f.byte(inst.rd);
        f.byte(inst.ra);
        f.byte(inst.rb);
        f.i64(inst.imm);
        f.u32(inst.target);
        f.u32(inst.symId);
        f.boolean(inst.kernel);
        hashLoc(f, inst.loc);
        f.u32(inst.srcBranch);
        f.boolean(inst.outcomeWhenTaken);
        f.u32(inst.logSite);
    }

    f.u64(prog.instrFlags.size());
    for (std::uint8_t flags : prog.instrFlags)
        f.byte(flags);

    f.u64(prog.symbols.size());
    for (const Symbol &sym : prog.symbols) {
        f.str(sym.name);
        f.u64(sym.sizeWords);
        f.u64(sym.addr);
        f.u64(sym.init.size());
        for (Word w : sym.init)
            f.i64(w);
    }

    f.u64(prog.functions.size());
    for (const Function &fn : prog.functions) {
        f.str(fn.name);
        f.u32(fn.entry);
        f.u32(fn.end);
    }

    f.u64(prog.branches.size());
    for (const SourceBranchInfo &br : prog.branches) {
        f.u32(br.id);
        hashLoc(f, br.loc);
        f.str(br.note);
        f.u32(br.brIndex);
    }

    f.u64(prog.logSites.size());
    for (const LogSiteInfo &site : prog.logSites) {
        f.u32(site.id);
        hashLoc(f, site.loc);
        f.str(site.message);
        f.str(site.logFunction);
        f.boolean(site.failureSite);
        f.u32(site.instrIndex);
    }

    return f.value();
}

std::uint64_t
fingerprintInstrumentation(const Instrumentation &instr)
{
    FingerprintHasher f;
    hashHookTable(f, instr.before);
    hashHookTable(f, instr.after);
    f.boolean(instr.enableLbrAtMain);
    f.boolean(instr.enableLcrAtMain);
    f.u64(instr.lbrSelectMask);
    f.u64(instr.lcrConfigMask);
    f.boolean(instr.segfaultProfilesLbr);
    f.boolean(instr.segfaultProfilesLcr);
    f.boolean(instr.toggleLbrAroundLibraries);
    f.boolean(instr.toggleLcrAroundLibraries);
    f.boolean(instr.cbiEnabled);
    f.f64(instr.cbiMeanPeriod);
    f.boolean(instr.cciEnabled);
    f.f64(instr.cciMeanPeriod);
    f.boolean(instr.btsEnabled);
    f.u64(instr.btsSelectMask);
    f.boolean(instr.pbiEnabled);
    f.u64(instr.pbiPeriod);
    f.byte(instr.pbiLoadMask);
    f.byte(instr.pbiStoreMask);
    return f.value();
}

std::uint64_t
fingerprintHookTables(const Instrumentation &instr)
{
    FingerprintHasher f;
    hashHookTable(f, instr.before);
    hashHookTable(f, instr.after);
    return f.value();
}

std::uint64_t
memoizedProgramBaseFingerprint(const Program &prog)
{
    std::uint64_t v =
        prog.baseFpMemo.value.load(std::memory_order_relaxed);
    if (v != 0)
        return v;
    v = fingerprintProgramBase(prog);
    // A true digest of 0 (p = 2^-64) is simply never memoized; the
    // value returned stays correct either way.
    prog.baseFpMemo.value.store(v, std::memory_order_relaxed);
    return v;
}

std::uint64_t
combineFingerprints(std::uint64_t a, std::uint64_t b)
{
    FingerprintHasher f;
    f.u64(a);
    f.u64(b);
    return f.value();
}

std::uint64_t
fingerprintProgram(const Program &prog, const Instrumentation &overlay)
{
    return combineFingerprints(fingerprintProgramBase(prog),
                               fingerprintInstrumentation(overlay));
}

std::uint64_t
fingerprintMachineOptions(const MachineOptions &opts)
{
    FingerprintHasher f;
    f.u32(opts.sched.quantum);
    f.f64(opts.sched.preemptSharedProb);
    // sched.seed deliberately excluded: it is the third component of
    // the run-cache key.
    f.u64(opts.lbrEntries);
    f.u64(opts.lcrEntries);
    f.u32(opts.cache.sizeBytes);
    f.u32(opts.cache.assoc);
    f.u32(opts.cache.blockBytes);
    f.u64(opts.maxSteps);
    f.f64(opts.irq.prob);
    f.u32(opts.irq.handlerStepBudget);
    f.u64(opts.mainArgs.size());
    for (Word w : opts.mainArgs)
        f.i64(w);
    f.u64(opts.globalOverrides.size());
    for (const auto &[name, values] : opts.globalOverrides) {
        f.str(name);
        f.u64(values.size());
        for (Word w : values)
            f.i64(w);
    }
    return f.value();
}

} // namespace stm
