#include "vm/decoded_program.hh"

namespace stm
{

namespace
{

/** Handler token for one opcode executed unfused. */
ExecToken
plainTokenOf(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
        return ExecToken::Nop;
      case Opcode::Movi:
        return ExecToken::Movi;
      case Opcode::Mov:
        return ExecToken::Mov;
      case Opcode::Add:
        return ExecToken::Add;
      case Opcode::Addi:
        return ExecToken::Addi;
      case Opcode::Sub:
        return ExecToken::Sub;
      case Opcode::Mul:
        return ExecToken::Mul;
      case Opcode::Div:
        return ExecToken::Div;
      case Opcode::Mod:
        return ExecToken::Mod;
      case Opcode::And:
        return ExecToken::And;
      case Opcode::Or:
        return ExecToken::Or;
      case Opcode::Xor:
        return ExecToken::Xor;
      case Opcode::Shl:
        return ExecToken::Shl;
      case Opcode::Shr:
        return ExecToken::Shr;
      case Opcode::Not:
        return ExecToken::Not;
      case Opcode::Neg:
        return ExecToken::Neg;
      case Opcode::Lea:
        // The symbol address is resolved into imm at predecode time;
        // the handler is a plain register-immediate move.
        return ExecToken::Movi;
      case Opcode::Load:
        return ExecToken::Load;
      case Opcode::Store:
        return ExecToken::Store;
      case Opcode::Br:
        return ExecToken::Br;
      case Opcode::Jmp:
        return ExecToken::Jmp;
      case Opcode::IJmp:
        return ExecToken::IJmp;
      case Opcode::Call:
        return ExecToken::Call;
      case Opcode::ICall:
        return ExecToken::ICall;
      case Opcode::Ret:
        return ExecToken::Ret;
      case Opcode::Halt:
        return ExecToken::Halt;
      case Opcode::Lock:
      case Opcode::Unlock:
      case Opcode::Spawn:
      case Opcode::Join:
      case Opcode::Yield:
        // Scheduler-visible ops share one cold handler that
        // re-dispatches on the architectural opcode (execSync).
        return ExecToken::Sync;
      case Opcode::Syscall:
        return ExecToken::Syscall;
      case Opcode::LibCall:
        return ExecToken::LibCall;
      case Opcode::LogError:
        return ExecToken::LogError;
      case Opcode::LogInfo:
        return ExecToken::LogInfo;
      case Opcode::Out:
        return ExecToken::Out;
      case Opcode::AssertEq:
        return ExecToken::AssertEq;
      case Opcode::SysEnter:
        return ExecToken::SysEnter;
      case Opcode::SysRet:
        return ExecToken::SysRet;
      case Opcode::Iret:
        return ExecToken::Iret;
    }
    return ExecToken::Nop; // unreachable: the enum is dense
}

/** Lea's effective immediate: the symbol address plus offset. */
std::int64_t
resolvedImm(const Instruction &inst, const Program &prog)
{
    if (inst.op != Opcode::Lea)
        return inst.imm;
    if (inst.symId >= prog.symbols.size())
        return 0; // invalid program; the run would fault anyway
    return static_cast<std::int64_t>(static_cast<Word>(
        prog.symbols[inst.symId].addr + inst.imm));
}

void
decodePrimary(DecodedOp &d, const Instruction &inst,
              const Program &prog)
{
    d.cond = inst.cond;
    d.rd = inst.rd;
    d.ra = inst.ra;
    d.rb = inst.rb;
    d.imm = resolvedImm(inst, prog);
    d.target = inst.target;
    d.srcBranch = inst.srcBranch;
    if (inst.kernel)
        d.meta |= decmeta::kKernel1;
    if (inst.outcomeWhenTaken)
        d.meta |= decmeta::kOutcome1;
    // LogError/LogInfo carry the log-site id where branches carry a
    // target; neither has both.
    if (inst.op == Opcode::LogError || inst.op == Opcode::LogInfo)
        d.target = inst.logSite;
}

void
decodeSecondary(DecodedOp &d, const Instruction &inst,
                const Program &prog)
{
    d.cond2 = inst.cond;
    d.rd2 = inst.rd;
    d.ra2 = inst.ra;
    d.rb2 = inst.rb;
    d.imm2 = resolvedImm(inst, prog);
    d.target2 = inst.target;
    d.srcBranch2 = inst.srcBranch;
    if (inst.kernel)
        d.meta |= decmeta::kKernel2;
    if (inst.outcomeWhenTaken)
        d.meta |= decmeta::kOutcome2;
}

/**
 * The superinstruction selection table: the top pairs of a corpus
 * opcode-pair histogram over the unfused stream of all 131 registry
 * runs of the time (DESIGN.md §13). The measured top eight —
 * movi+and 21.6%, and+movi 21.4%, movi+br 14.9%, addi+movi 10.9%,
 * addi+br 7.4%, movi+mul 7.4%, mul+addi 7.3%, br+jmp 3.5% — together
 * cover ~94% of all statically adjacent retirements: the corpus
 * spends its steps in hash/checksum loop bodies (constant + mask,
 * constant + multiply, multiply + induction increment) and the [40]
 * fall-through normalization (every source-mapped conditional is
 * followed by its inverse jump, hence br+jmp; addi+br and movi+br are
 * back-edge tests). No pair touches memory, so a preemption probe
 * can never fall between the two halves of a fused pair
 * (tests/test_decode_cache.cc checks this over every opcode pair).
 */
bool
fusedTokenFor(Opcode a, Opcode b, ExecToken &out)
{
    switch (a) {
      case Opcode::Movi:
        if (b == Opcode::And) {
            out = ExecToken::FusedMoviAnd;
            return true;
        }
        if (b == Opcode::Br) {
            out = ExecToken::FusedMoviBr;
            return true;
        }
        if (b == Opcode::Mul) {
            out = ExecToken::FusedMoviMul;
            return true;
        }
        return false;
      case Opcode::And:
        if (b == Opcode::Movi) {
            out = ExecToken::FusedAndMovi;
            return true;
        }
        return false;
      case Opcode::Addi:
        if (b == Opcode::Movi) {
            out = ExecToken::FusedAddiMovi;
            return true;
        }
        if (b == Opcode::Br) {
            out = ExecToken::FusedAddiBr;
            return true;
        }
        return false;
      case Opcode::Mul:
        if (b == Opcode::Addi) {
            out = ExecToken::FusedMulAddi;
            return true;
        }
        return false;
      case Opcode::Br:
        if (b == Opcode::Jmp) {
            out = ExecToken::FusedBrJmp;
            return true;
        }
        return false;
      default:
        return false;
    }
}

} // namespace

std::size_t
DecodedProgram::approxBytes() const
{
    std::size_t bytes = sizeof(DecodedProgram);
    bytes += ops.capacity() * sizeof(DecodedOp);
    bytes += beforeIdx.capacity() * sizeof(std::int32_t);
    bytes += afterIdx.capacity() * sizeof(std::int32_t);
    bytes += hookLists.capacity() * sizeof(std::vector<Hook>);
    for (const auto &hooks : hookLists)
        bytes += hooks.capacity() * sizeof(Hook);
    return bytes;
}

DecodedProgramPtr
predecode(const Program &prog, const Instrumentation &instr, bool fuse)
{
    auto dp = std::make_shared<DecodedProgram>();
    const std::size_t n = prog.code.size();
    dp->ops.resize(n);
    dp->beforeIdx.assign(n, -1);
    dp->afterIdx.assign(n, -1);
    dp->fused = fuse;

    // Hook side tables first: fusion legality depends on them. The
    // lists are copied out of the plan so the decoded program owns
    // its hooks outright (no lifetime coupling to the overlay).
    auto addHooks =
        [&](const std::unordered_map<std::uint32_t,
                                     std::vector<Hook>> &table,
            std::vector<std::int32_t> &idx) {
            for (const auto &[pc, hooks] : table) {
                if (pc < n && !hooks.empty()) {
                    idx[pc] =
                        static_cast<std::int32_t>(dp->hookLists.size());
                    dp->hookLists.push_back(hooks);
                }
            }
        };
    addHooks(instr.before, dp->beforeIdx);
    addHooks(instr.after, dp->afterIdx);

    // Static flags come from the builder's precomputed table when
    // present (the same source the PR 2 dispatch tables used);
    // hand-assembled programs fall back to deriving them.
    const bool fromProgram = prog.instrFlags.size() == n;
    auto staticFlags = [&](std::size_t i) {
        return fromProgram ? prog.instrFlags[i]
                           : dispatchFlagsOf(prog.code[i].op);
    };

    for (std::size_t i = 0; i < n; ++i) {
        DecodedOp &d = dp->ops[i];
        const Instruction &inst = prog.code[i];
        d.token = plainTokenOf(inst.op);
        decodePrimary(d, inst, prog);
        std::uint8_t flags = staticFlags(i);
        if (dp->beforeIdx[i] >= 0)
            flags |= dispatch::kHasBeforeHooks;
        if (dp->afterIdx[i] >= 0)
            flags |= dispatch::kHasAfterHooks;
        d.flags = flags;

        if (!fuse || i + 1 >= n)
            continue;
        // Fusion legality: the first op may keep its before-hooks
        // (they run in the fused prologue) but not after-hooks; the
        // second op may carry no hooks at all.
        if (dp->afterIdx[i] >= 0)
            continue;
        if (dp->beforeIdx[i + 1] >= 0 || dp->afterIdx[i + 1] >= 0)
            continue;
        ExecToken fusedTok;
        if (!fusedTokenFor(inst.op, prog.code[i + 1].op, fusedTok))
            continue;
        d.token = fusedTok;
        decodeSecondary(d, prog.code[i + 1], prog);
        ++dp->fusedSites;
    }
    return dp;
}

} // namespace stm
