#include "isa/disassembler.hh"

#include <sstream>

namespace stm
{

namespace
{

std::string
reg(RegId r)
{
    std::string name(1, 'r');
    name += std::to_string(static_cast<int>(r));
    return name;
}

} // namespace

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    os << opcodeName(inst.op);
    switch (inst.op) {
      case Opcode::Movi:
        os << ' ' << reg(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::Mov:
      case Opcode::Not:
      case Opcode::Neg:
        os << ' ' << reg(inst.rd) << ", " << reg(inst.ra);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
        os << ' ' << reg(inst.rd) << ", " << reg(inst.ra) << ", "
           << reg(inst.rb);
        break;
      case Opcode::Addi:
        os << ' ' << reg(inst.rd) << ", " << reg(inst.ra) << ", "
           << inst.imm;
        break;
      case Opcode::Lea:
        os << ' ' << reg(inst.rd) << ", sym" << inst.symId << '+'
           << inst.imm;
        break;
      case Opcode::Load:
        os << ' ' << reg(inst.rd) << ", [" << reg(inst.ra) << '+'
           << inst.imm << ']';
        break;
      case Opcode::Store:
        os << " [" << reg(inst.ra) << '+' << inst.imm << "], "
           << reg(inst.rb);
        break;
      case Opcode::Br:
        os << ' ' << condName(inst.cond) << ' ' << reg(inst.ra) << ", "
           << reg(inst.rb) << " -> @" << inst.target;
        break;
      case Opcode::Jmp:
      case Opcode::Call:
        os << " @" << inst.target;
        break;
      case Opcode::IJmp:
      case Opcode::ICall:
      case Opcode::Lock:
      case Opcode::Unlock:
      case Opcode::Join:
      case Opcode::Out:
        os << ' ' << reg(inst.ra);
        break;
      case Opcode::Spawn:
        os << ' ' << reg(inst.rd) << ", @" << inst.target << ", arg="
           << reg(inst.ra);
        break;
      case Opcode::Syscall:
        os << ' '
           << syscallName(static_cast<SyscallNo>(inst.imm));
        break;
      case Opcode::SysEnter:
        os << " @" << inst.target;
        break;
      case Opcode::LibCall:
        os << ' ' << libFnName(static_cast<LibFn>(inst.imm));
        break;
      case Opcode::LogError:
      case Opcode::LogInfo:
        os << " site=" << inst.logSite;
        break;
      case Opcode::AssertEq:
        os << ' ' << reg(inst.ra) << ", " << reg(inst.rb);
        break;
      default:
        break;
    }
    if (inst.loc.line != 0)
        os << "   ; line " << inst.loc.line;
    if (inst.srcBranch != kNoSourceBranch)
        os << " (srcbr " << inst.srcBranch << '/'
           << (inst.outcomeWhenTaken ? 'T' : 'F') << ')';
    if (inst.kernel)
        os << " [ring0]";
    return os.str();
}

} // namespace stm
