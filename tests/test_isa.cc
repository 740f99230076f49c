/**
 * @file
 * Unit tests for the ISA layer: opcode taxonomy, condition
 * evaluation, and the disassembler.
 */

#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

#include "isa/disassembler.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "isa/types.hh"

namespace stm
{
namespace
{

TEST(Opcode, BranchKindTaxonomy)
{
    EXPECT_EQ(branchKindOf(Opcode::Br), BranchKind::Conditional);
    EXPECT_EQ(branchKindOf(Opcode::Jmp),
              BranchKind::NearRelativeJump);
    EXPECT_EQ(branchKindOf(Opcode::IJmp),
              BranchKind::NearIndirectJump);
    EXPECT_EQ(branchKindOf(Opcode::Call),
              BranchKind::NearRelativeCall);
    EXPECT_EQ(branchKindOf(Opcode::ICall),
              BranchKind::NearIndirectCall);
    EXPECT_EQ(branchKindOf(Opcode::Ret), BranchKind::NearReturn);
    EXPECT_EQ(branchKindOf(Opcode::Syscall), BranchKind::FarBranch);
    EXPECT_EQ(branchKindOf(Opcode::Add), BranchKind::None);
    EXPECT_EQ(branchKindOf(Opcode::Load), BranchKind::None);
}

TEST(Opcode, IsBranchOpcodeMatchesTaxonomy)
{
    EXPECT_TRUE(isBranchOpcode(Opcode::Br));
    EXPECT_TRUE(isBranchOpcode(Opcode::Ret));
    EXPECT_FALSE(isBranchOpcode(Opcode::Store));
    EXPECT_FALSE(isBranchOpcode(Opcode::Halt));
}

TEST(Opcode, NamesAreStable)
{
    EXPECT_EQ(opcodeName(Opcode::Br), "br");
    EXPECT_EQ(opcodeName(Opcode::LogError), "log_error");
    EXPECT_EQ(condName(Cond::Le), "le");
    EXPECT_EQ(branchKindName(BranchKind::FarBranch), "far");
    EXPECT_EQ(libFnName(LibFn::Memmove), "memmove");
    EXPECT_EQ(syscallName(SyscallNo::ProfileLbr),
              "DRIVER_PROFILE_LBR");
}

/** Exhaustive condition-evaluation sweep. */
struct CondCase
{
    Cond cond;
    std::int64_t a, b;
    bool expected;
};

/**
 * Print a case as gtest's byte dump of a copy whose padding is zeroed.
 * gtest_discover_tests names each case after this text, so without it
 * the name carries whatever the padding held and changes run to run.
 */
void
PrintTo(const CondCase &c, std::ostream *os)
{
    CondCase clean;
    std::memset(&clean, 0, sizeof clean);
    clean.cond = c.cond;
    clean.a = c.a;
    clean.b = c.b;
    clean.expected = c.expected;
    ::testing::internal::PrintBytesInObjectTo(
        reinterpret_cast<const unsigned char *>(&clean), sizeof clean, os);
}

class CondSweep : public ::testing::TestWithParam<CondCase>
{
};

TEST_P(CondSweep, Evaluates)
{
    const CondCase &c = GetParam();
    EXPECT_EQ(evalCond(c.cond, c.a, c.b), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllConds, CondSweep,
    ::testing::Values(CondCase{Cond::Eq, 3, 3, true},
                      CondCase{Cond::Eq, 3, 4, false},
                      CondCase{Cond::Ne, 3, 4, true},
                      CondCase{Cond::Ne, -1, -1, false},
                      CondCase{Cond::Lt, -2, -1, true},
                      CondCase{Cond::Lt, 5, 5, false},
                      CondCase{Cond::Le, 5, 5, true},
                      CondCase{Cond::Le, 6, 5, false},
                      CondCase{Cond::Gt, 6, 5, true},
                      CondCase{Cond::Gt, 5, 6, false},
                      CondCase{Cond::Ge, 5, 5, true},
                      CondCase{Cond::Ge, 4, 5, false}));

class NegateSweep : public ::testing::TestWithParam<Cond>
{
};

TEST_P(NegateSweep, NegationIsComplementary)
{
    Cond c = GetParam();
    Cond n = negateCond(c);
    // Over a grid of operand pairs, negation flips the outcome.
    for (std::int64_t a = -2; a <= 2; ++a) {
        for (std::int64_t b = -2; b <= 2; ++b)
            EXPECT_NE(evalCond(c, a, b), evalCond(n, a, b));
    }
    EXPECT_EQ(negateCond(n), c);
}

INSTANTIATE_TEST_SUITE_P(AllConds, NegateSweep,
                         ::testing::Values(Cond::Eq, Cond::Ne,
                                           Cond::Lt, Cond::Le,
                                           Cond::Gt, Cond::Ge));

TEST(Layout, CodeAddressesAreDisjointFromData)
{
    EXPECT_LT(layout::codeAddr(100000), layout::kLibraryBase);
    EXPECT_LT(layout::kLibraryBase, layout::kGlobalBase);
    EXPECT_LT(layout::kGlobalBase, layout::kHeapBase);
    EXPECT_LT(layout::kHeapBase, layout::kStackBase);
}

TEST(Layout, StackBasesDoNotOverlap)
{
    EXPECT_GE(layout::stackBase(1),
              layout::stackBase(0) + layout::kStackSize);
}

TEST(Instruction, AccessesMemoryClassification)
{
    Instruction load{.op = Opcode::Load};
    Instruction lock{.op = Opcode::Lock};
    Instruction add{.op = Opcode::Add};
    EXPECT_TRUE(load.accessesMemory());
    EXPECT_TRUE(lock.accessesMemory());
    EXPECT_FALSE(add.accessesMemory());
}

TEST(Disassembler, RendersBranchWithMetadata)
{
    Instruction br;
    br.op = Opcode::Br;
    br.cond = Cond::Lt;
    br.ra = 1;
    br.rb = 2;
    br.target = 42;
    br.loc = SourceLoc{0, 17};
    br.srcBranch = 3;
    br.outcomeWhenTaken = true;
    std::string text = disassemble(br);
    EXPECT_NE(text.find("br lt r1, r2 -> @42"), std::string::npos);
    EXPECT_NE(text.find("line 17"), std::string::npos);
    EXPECT_NE(text.find("srcbr 3/T"), std::string::npos);
}

TEST(Disassembler, RendersKernelMarker)
{
    Instruction inst;
    inst.op = Opcode::Nop;
    inst.kernel = true;
    EXPECT_NE(disassemble(inst).find("[ring0]"), std::string::npos);
}

TEST(Disassembler, RendersSyscallName)
{
    Instruction inst;
    inst.op = Opcode::Syscall;
    inst.imm = static_cast<std::int64_t>(SyscallNo::EnableLbr);
    EXPECT_NE(disassemble(inst).find("DRIVER_ENABLE_LBR"),
              std::string::npos);
}

} // namespace
} // namespace stm
