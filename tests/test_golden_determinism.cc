/**
 * @file
 * Golden-determinism tests for the interpreter hot path.
 *
 * The single-run fast path (flat paged memory image, per-pc hook side
 * tables, precomputed dispatch flags, superinstructions) must keep
 * every RunResult bit-identical to the seed interpreter: same RNG
 * draws, same step counts, same profiles, same stats. These tests pin
 * that contract with 64-bit FNV-1a fingerprints over a canonical
 * serialization of RunResult, captured from the seed interpreter
 * across the full corpus registry under several instrumentation
 * configurations, and checked into this file.
 *
 * If a change *intends* to alter observable run behavior (it almost
 * never should), regenerate the table by running this binary with
 * STM_GOLDEN_DUMP=1 and paste the printed rows below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/run_cache.hh"
#include "hw/msr.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

// ---- canonical RunResult fingerprint --------------------------------------

struct Fnv1a
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ULL;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
    }
};

void
hashBranch(Fnv1a &f, const BranchRecord &r)
{
    f.u64(r.fromIp);
    f.u64(r.toIp);
    f.byte(static_cast<std::uint8_t>(r.kind));
    f.byte(r.kernel ? 1 : 0);
    f.u64(r.srcBranch);
    f.byte(r.outcome ? 1 : 0);
}

/** Hash every observable field of a RunResult, in a fixed order. */
std::uint64_t
fingerprint(const RunResult &r)
{
    Fnv1a f;
    f.byte(static_cast<std::uint8_t>(r.outcome));
    f.byte(r.failure ? 1 : 0);
    if (r.failure) {
        f.byte(static_cast<std::uint8_t>(r.failure->kind));
        f.u64(r.failure->thread);
        f.u64(r.failure->instrIndex);
        f.u64(r.failure->site);
        f.str(r.failure->message);
    }
    f.u64(r.output.size());
    for (Word w : r.output)
        f.i64(w);
    f.u64(r.profiles.size());
    for (const auto &p : r.profiles) {
        f.byte(static_cast<std::uint8_t>(p.kind));
        f.u64(p.site);
        f.byte(p.successSite ? 1 : 0);
        f.u64(p.thread);
        f.u64(p.step);
        f.u64(p.lbr.size());
        for (const auto &b : p.lbr)
            hashBranch(f, b);
        f.u64(p.lcr.size());
        for (const auto &c : p.lcr) {
            f.u64(c.pc);
            f.byte(static_cast<std::uint8_t>(c.observed));
            f.byte(c.store ? 1 : 0);
        }
    }
    f.u64(r.stats.userInstructions);
    f.u64(r.stats.kernelInstructions);
    f.u64(r.stats.instrumentationInstructions);
    f.u64(r.stats.setupInstructions);
    f.u64(r.stats.branchesRetired);
    f.u64(r.stats.memoryAccesses);
    f.u64(r.stats.contextSwitches);
    for (const auto &kv : r.cbiCounts) {
        f.u64(kv.first.first);
        f.byte(kv.first.second ? 1 : 0);
        f.u64(kv.second);
    }
    for (const auto &kv : r.cbiSiteSamples) {
        f.u64(kv.first);
        f.u64(kv.second);
    }
    for (const auto &kv : r.cciCounts) {
        f.u64(kv.first.first);
        f.byte(kv.first.second ? 1 : 0);
        f.u64(kv.second);
    }
    for (const auto &kv : r.cciSiteSamples) {
        f.u64(kv.first);
        f.u64(kv.second);
    }
    for (const auto &kv : r.pbiSamples) {
        f.u64(kv.first.first);
        f.byte(kv.first.second);
        f.u64(kv.second);
    }
    f.u64(r.btsTrace.size());
    for (const auto &e : r.btsTrace) {
        f.u64(e.thread);
        hashBranch(f, e.record);
    }
    return f.h;
}

// ---- workload configurations ----------------------------------------------

/**
 * The instrumentation configurations each corpus entry is fingerprinted
 * under. Together they exercise every hot-path flavor: bare execution,
 * hook-carrying LBRLOG/LCRLOG profiling, and hook-heavy CBI sampling.
 */
enum class Config : std::uint8_t {
    BareFail, //!< no instrumentation, failing workload, run 0
    BareSucc, //!< no instrumentation, succeeding workload, run 0
    LogFail,  //!< LBRLOG (seq) / LCRLOG (conc), failing workload, run 1
    CbiFail,  //!< CBI sampling (sequential only), failing workload, run 2
};

const char *
configName(Config c)
{
    switch (c) {
      case Config::BareFail: return "bare-fail";
      case Config::BareSucc: return "bare-succ";
      case Config::LogFail:  return "log-fail";
      case Config::CbiFail:  return "cbi-fail";
    }
    return "?";
}

/** The instrumentation plan configuration @p c runs @p bug under. */
std::shared_ptr<const Instrumentation>
configPlan(const BugSpec &bug, Config c)
{
    auto plan = std::make_shared<Instrumentation>();
    switch (c) {
      case Config::BareFail:
      case Config::BareSucc:
        break;
      case Config::LogFail:
        if (bug.isConcurrent) {
            transform::LcrLogPlan logPlan;
            logPlan.lcrConfigMask = lcrConfSpaceConsuming().pack();
            logPlan.toggling = true;
            transform::applyLcrLog(*bug.program, *plan, logPlan);
        } else {
            transform::LbrLogPlan logPlan;
            logPlan.lbrSelectMask = msr::kPaperLbrSelect;
            logPlan.toggling = true;
            transform::applyLbrLog(*bug.program, *plan, logPlan);
        }
        break;
      case Config::CbiFail:
        transform::applyCbi(*bug.program, *plan);
        break;
    }
    return plan;
}

/** Run @p bug under @p c, with or without superinstruction fusion. */
RunResult
runConfig(const BugSpec &bug, Config c, bool fused = true)
{
    const Workload &w =
        c == Config::BareSucc ? bug.succeeding : bug.failing;
    std::uint64_t runIndex = c == Config::LogFail   ? 1
                             : c == Config::CbiFail ? 2
                                                    : 0;
    MachineOptions opts = w.forRun(runIndex);
    opts.enableSuperinstructions = fused;
    Machine machine(bug.program, opts, configPlan(bug, c));
    return machine.run();
}

/**
 * Golden fingerprints captured from the seed interpreter
 * (pre-fast-path, commit 0ff56e3) at fixed seeds. Keys are
 * "<bug-id>/<config>".
 */
const std::map<std::string, std::uint64_t> kGolden = {
    // GOLDEN-TABLE-BEGIN
    {"apache1/bare-fail", 0x162fdbe989b4bcefULL},
    {"apache1/bare-succ", 0x010ba4ca64af234fULL},
    {"apache1/log-fail", 0x03c89da845408b16ULL},
    {"apache1/cbi-fail", 0x5a89656ec923f808ULL},
    {"apache2/bare-fail", 0x9d6b6b61913079cdULL},
    {"apache2/bare-succ", 0x96488c39363a4291ULL},
    {"apache2/log-fail", 0x3ff1144e0f2cb47bULL},
    {"apache2/cbi-fail", 0xe1349844f572fa94ULL},
    {"apache3/bare-fail", 0xd5ec9ae3b4d91ee8ULL},
    {"apache3/bare-succ", 0xf67ac55995d56c6fULL},
    {"apache3/log-fail", 0xc4654e64bdd1c4ceULL},
    {"apache3/cbi-fail", 0xc2d308393f56fc54ULL},
    {"cp/bare-fail", 0xa89cb865fcd16a48ULL},
    {"cp/bare-succ", 0x6af42fcb5ec49fd6ULL},
    {"cp/log-fail", 0x3dbb2ca72a26ab03ULL},
    {"cp/cbi-fail", 0x090b6273c6af3a4fULL},
    {"cppcheck1/bare-fail", 0x077c843c9b2e73d9ULL},
    {"cppcheck1/bare-succ", 0x76f99d421c44a1c0ULL},
    {"cppcheck1/log-fail", 0xe6a05f21c7d2a5ddULL},
    {"cppcheck1/cbi-fail", 0xf527204eb8e31886ULL},
    {"cppcheck2/bare-fail", 0x5e1eacbbf7b00660ULL},
    {"cppcheck2/bare-succ", 0xbcd99292b4f53adfULL},
    {"cppcheck2/log-fail", 0x18040347c043bce7ULL},
    {"cppcheck2/cbi-fail", 0x0820f5ff829526f7ULL},
    {"cppcheck3/bare-fail", 0xa6e8c51b8d9f2685ULL},
    {"cppcheck3/bare-succ", 0x3a01ca8e784e4b69ULL},
    {"cppcheck3/log-fail", 0x4bfff7cce81728daULL},
    {"cppcheck3/cbi-fail", 0x1af74e19cce3ebc9ULL},
    {"lighttpd/bare-fail", 0xd5f654f01a7c4af9ULL},
    {"lighttpd/bare-succ", 0xe5a44488828b61fdULL},
    {"lighttpd/log-fail", 0x67cfba46998d2fffULL},
    {"lighttpd/cbi-fail", 0x6ecd964b84a1d3cfULL},
    {"ln/bare-fail", 0xb5ec1b1405c107c4ULL},
    {"ln/bare-succ", 0x88eb5ca8c035894aULL},
    {"ln/log-fail", 0xcfa0892367fa81eaULL},
    {"ln/cbi-fail", 0x131c04a144d5ccc6ULL},
    {"mv/bare-fail", 0x77c9e51569029c95ULL},
    {"mv/bare-succ", 0x68b12b9756b19b21ULL},
    {"mv/log-fail", 0x5c549c462438e1d3ULL},
    {"mv/cbi-fail", 0xaf2684c863e754e7ULL},
    {"paste/bare-fail", 0xe2d1e70a84becef3ULL},
    {"paste/bare-succ", 0xd9eddb528a535dcfULL},
    {"paste/log-fail", 0xfc5d2a7607e0ae07ULL},
    {"paste/cbi-fail", 0x6faec69b2bbce745ULL},
    {"pbzip1/bare-fail", 0x517d56bc6aac3518ULL},
    {"pbzip1/bare-succ", 0xc8af493b5a292c74ULL},
    {"pbzip1/log-fail", 0x9ccc8e2ff790a431ULL},
    {"pbzip1/cbi-fail", 0xe65b860015a5ff67ULL},
    {"pbzip2/bare-fail", 0x75e8eeca5eecd517ULL},
    {"pbzip2/bare-succ", 0x99ceecec2a0563b8ULL},
    {"pbzip2/log-fail", 0x29f93c9aa133da37ULL},
    {"pbzip2/cbi-fail", 0xbe50dfa2476979d2ULL},
    {"rm/bare-fail", 0xfbeb10245145282aULL},
    {"rm/bare-succ", 0xd610348f60db72e4ULL},
    {"rm/log-fail", 0x38cb18bd2826e887ULL},
    {"rm/cbi-fail", 0x0d30b40b26ce2901ULL},
    {"sort/bare-fail", 0x5f56f1817871b4deULL},
    {"sort/bare-succ", 0xc0b92554283c9c14ULL},
    {"sort/log-fail", 0xf1af6285b118607fULL},
    {"sort/cbi-fail", 0x8eaa747aabcfbd0eULL},
    {"squid1/bare-fail", 0xba385f2e9005196aULL},
    {"squid1/bare-succ", 0x2658f69648c0f4a2ULL},
    {"squid1/log-fail", 0xc3e227a94fc3b7dfULL},
    {"squid1/cbi-fail", 0x80d9797e0a7ab7e9ULL},
    {"squid2/bare-fail", 0xe2e95fbaa7858d2eULL},
    {"squid2/bare-succ", 0x600e67380cb125ecULL},
    {"squid2/log-fail", 0x683cbff183a71c7eULL},
    {"squid2/cbi-fail", 0xe580c1aa3b996714ULL},
    {"tac/bare-fail", 0xde41074300e68fafULL},
    {"tac/bare-succ", 0x9dc11aa328cd707eULL},
    {"tac/log-fail", 0xa7b7f9ac801d68f7ULL},
    {"tac/cbi-fail", 0xf5448577745b288bULL},
    {"tar1/bare-fail", 0x107870e35a1c1e26ULL},
    {"tar1/bare-succ", 0x7b712b6d6c848695ULL},
    {"tar1/log-fail", 0xb45f8754877dd0f2ULL},
    {"tar1/cbi-fail", 0xc15c25afa682ce1aULL},
    {"tar2/bare-fail", 0xd6e3e55b29c399b0ULL},
    {"tar2/bare-succ", 0x05336d326016e8d8ULL},
    {"tar2/log-fail", 0xefec00347d2b16e7ULL},
    {"tar2/cbi-fail", 0x61130cef2e36361bULL},
    {"apache4/bare-fail", 0x4401a402b8fe8c0bULL},
    {"apache4/bare-succ", 0x7ff9fb230552ed0fULL},
    {"apache4/log-fail", 0x7c5b8bfb822a558bULL},
    {"apache5/bare-fail", 0xe19c6f8abc9cc3e3ULL},
    {"apache5/bare-succ", 0xe19c6f8abc9cc3e3ULL},
    {"apache5/log-fail", 0x9d2109d9720c2ce3ULL},
    {"cherokee/bare-fail", 0xa295ac21bf12c195ULL},
    {"cherokee/bare-succ", 0xca1947b80f0bd3f3ULL},
    {"cherokee/log-fail", 0xe4a3901916420df4ULL},
    {"fft/bare-fail", 0xd42555dde926ddd1ULL},
    {"fft/bare-succ", 0xa43427fa733c19d8ULL},
    {"fft/log-fail", 0xe8b77c2aa60c6372ULL},
    {"lu/bare-fail", 0xd42555dde926ddd1ULL},
    {"lu/bare-succ", 0xa43427fa733c19d8ULL},
    {"lu/log-fail", 0xe8b77c2aa60c6372ULL},
    {"mozilla-js1/bare-fail", 0xd1e3dd3c599fea01ULL},
    {"mozilla-js1/bare-succ", 0x22904e9c96cdc5b3ULL},
    {"mozilla-js1/log-fail", 0x7e314daf6e2ac719ULL},
    {"mozilla-js2/bare-fail", 0x3ce5cccab9239ddeULL},
    {"mozilla-js2/bare-succ", 0xd1c8d818b969af0aULL},
    {"mozilla-js2/log-fail", 0xbf6944c84f07d0c6ULL},
    {"mozilla-js3/bare-fail", 0xe2112a96bfc06c07ULL},
    {"mozilla-js3/bare-succ", 0xd1c8d818b969af0aULL},
    {"mozilla-js3/log-fail", 0x5ac4726d29d53a05ULL},
    {"mysql1/bare-fail", 0x51934036832f630eULL},
    {"mysql1/bare-succ", 0x51934036832f630eULL},
    {"mysql1/log-fail", 0x5478616bf495be7eULL},
    {"mysql2/bare-fail", 0xab1e6bc5c67dccb2ULL},
    {"mysql2/bare-succ", 0xe716c2e612d22db6ULL},
    {"mysql2/log-fail", 0x9fc339bbb6fb28d8ULL},
    {"pbzip3/bare-fail", 0x484ebca5c8fc73ffULL},
    {"pbzip3/bare-succ", 0x6f38d7ba3038462cULL},
    {"pbzip3/log-fail", 0x0d775fda7513e238ULL},
    {"micro-rwr/bare-fail", 0xe75b908a14bfa078ULL},
    {"micro-rwr/bare-succ", 0x0d670dd9a2410ef2ULL},
    {"micro-rwr/log-fail", 0x66e7d3b87ddaa874ULL},
    {"micro-rww/bare-fail", 0x624cbf9a0ddc63f0ULL},
    {"micro-rww/bare-succ", 0x9e4516ba5a30c4f4ULL},
    {"micro-rww/log-fail", 0x38a2d322fd325df2ULL},
    {"micro-wwr/bare-fail", 0x98206343d24aadf3ULL},
    {"micro-wwr/bare-succ", 0xd418ba641e9f0ef7ULL},
    {"micro-wwr/log-fail", 0x327e1fac754c46f1ULL},
    {"micro-wrw/bare-fail", 0x98206343d24aadf3ULL},
    {"micro-wrw/bare-succ", 0xd418ba641e9f0ef7ULL},
    {"micro-wrw/log-fail", 0x327e1fac754c46f1ULL},
    {"micro-rte/bare-fail", 0x2dc9b1d3db7ec33bULL},
    {"micro-rte/bare-succ", 0x2dc9b1d3db7ec33bULL},
    {"micro-rte/log-fail", 0x43bd7e6d36dade58ULL},
    {"micro-rtl/bare-fail", 0x8f95c401527f995bULL},
    {"micro-rtl/bare-succ", 0x508e2cbade1871a2ULL},
    {"micro-rtl/log-fail", 0x1f064ec5de4aba26ULL},
    {"kirq-race/bare-fail", 0x628557cfa21dbeedULL},
    {"kirq-race/bare-succ", 0x24edfb1c305e88fdULL},
    {"kirq-race/log-fail", 0xa84142f76da8232aULL},
    {"kirq-race/cbi-fail", 0x0d6814f7f4cac340ULL},
    {"kirq-noise/bare-fail", 0xdf4d8149e6a9902eULL},
    {"kirq-noise/bare-succ", 0xd7b4b02586f3d63aULL},
    {"kirq-noise/log-fail", 0x3d27e703981f63c8ULL},
    {"kirq-noise/cbi-fail", 0x8e7d510d8769a1e7ULL},
    {"kirq-atomic/bare-fail", 0x6a5a7c9071fc856fULL},
    {"kirq-atomic/bare-succ", 0x2b3e8c898a8effb1ULL},
    {"kirq-atomic/log-fail", 0x0c76ebf2138c3e34ULL},
    {"kirq-atomic/cbi-fail", 0x01622315eeab90ddULL},
    {"kirq-storm/bare-fail", 0xb97357951c949d56ULL},
    {"kirq-storm/bare-succ", 0xc4d0987fbe187294ULL},
    {"kirq-storm/log-fail", 0xd8bc924672651885ULL},
    {"kirq-storm/cbi-fail", 0xa5ee6bf10ff22161ULL},
    {"kpanic/bare-fail", 0xb57d976b09467a01ULL},
    {"kpanic/bare-succ", 0xf846802d241e6f46ULL},
    {"kpanic/log-fail", 0x9cd1ed206615a681ULL},
    {"kpanic/cbi-fail", 0x4755308b9418f13eULL},
    {"ksys-check/bare-fail", 0xcace546dd8f8440dULL},
    {"ksys-check/bare-succ", 0xa268a40fc8920345ULL},
    {"ksys-check/log-fail", 0xdecec1bafd5555dbULL},
    {"ksys-check/cbi-fail", 0x4bd7db874eec9a12ULL},
    {"ksys-uar/bare-fail", 0xfa5cd11218a8ca58ULL},
    {"ksys-uar/bare-succ", 0x7797d1ff67b22ec9ULL},
    {"ksys-uar/log-fail", 0x3ed836c363396158ULL},
    {"ksysret-leak/bare-fail", 0x13e22db54fc72592ULL},
    {"ksysret-leak/bare-succ", 0x572e53c2acfea535ULL},
    {"ksysret-leak/log-fail", 0x2685264bd1980cbcULL},
    {"ksysret-leak/cbi-fail", 0x10c97bc9ef14e8f2ULL},
    {"kirq-noise-quiet/bare-fail", 0xde19c8dfdcf28fbbULL},
    {"kirq-noise-quiet/bare-succ", 0x791f280d33cf6d0eULL},
    {"kirq-noise-quiet/log-fail", 0x0a4d7af0612d8246ULL},
    {"kirq-noise-quiet/cbi-fail", 0x992ebbede6143861ULL},
    // GOLDEN-TABLE-END
};

std::vector<BugSpec>
fullRegistry()
{
    std::vector<BugSpec> bugs = corpus::allBugs();
    std::vector<BugSpec> micro = corpus::microBugs();
    bugs.insert(bugs.end(), micro.begin(), micro.end());
    // The kernel-mode pack: privilege transitions, seeded interrupt
    // delivery, and ring-0 handler execution all pinned under every
    // configuration, fused and unfused.
    std::vector<BugSpec> kernel = corpus::kernelBugs();
    bugs.insert(bugs.end(), kernel.begin(), kernel.end());
    bugs.push_back(corpus::bugById("kirq-noise-quiet"));
    return bugs;
}

std::vector<Config>
configsFor(const BugSpec &bug)
{
    std::vector<Config> configs = {Config::BareFail, Config::BareSucc,
                                   Config::LogFail};
    if (!bug.isConcurrent)
        configs.push_back(Config::CbiFail);
    return configs;
}

} // namespace

/**
 * STM_GOLDEN_DUMP=1 mode: print the golden table rows (to paste
 * between the GOLDEN-TABLE markers) instead of asserting.
 */
TEST(GoldenDeterminism, CorpusRunResultsMatchSeedInterpreter)
{
    bool dump = std::getenv("STM_GOLDEN_DUMP") != nullptr;
    for (const BugSpec &bug : fullRegistry()) {
        for (Config c : configsFor(bug)) {
            std::string key =
                bug.id + "/" + configName(c);
            std::uint64_t h = fingerprint(runConfig(bug, c));
            if (dump) {
                printf("    {\"%s\", 0x%016llxULL},\n", key.c_str(),
                       static_cast<unsigned long long>(h));
                continue;
            }
            auto it = kGolden.find(key);
            ASSERT_NE(it, kGolden.end())
                << "no golden fingerprint for " << key;
            EXPECT_EQ(h, it->second)
                << "RunResult diverged from the seed interpreter for "
                << key;
        }
    }
}

/**
 * Superinstruction fusion is pure mechanism: for every corpus entry
 * and configuration, the unfused stream (every instruction its own
 * dispatch) must produce a RunResult field-identical to the default
 * fused run, and both must land on the seed interpreter's golden
 * fingerprint. The unfused stream is the second execution path that
 * keeps the fused handlers' replay of the per-step protocol honest.
 */
TEST(GoldenDeterminism, FusedAndUnfusedStreamsAreBitIdentical)
{
    for (const BugSpec &bug : fullRegistry()) {
        for (Config c : configsFor(bug)) {
            std::string key = bug.id + "/" + configName(c);
            RunResult fused = runConfig(bug, c);
            RunResult unfused = runConfig(bug, c, false);
            EXPECT_TRUE(fused == unfused)
                << "fused and unfused streams diverged for " << key;
            auto it = kGolden.find(key);
            ASSERT_NE(it, kGolden.end())
                << "no golden fingerprint for " << key;
            EXPECT_EQ(fingerprint(unfused), it->second)
                << "unfused RunResult diverged from the seed "
                   "interpreter for "
                << key;
        }
    }
}

/** Re-running the same configuration must be bit-identical. */
TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical)
{
    for (const char *id : {"cp", "sort", "mozilla-js3", "pbzip1"}) {
        BugSpec bug = corpus::bugById(id);
        std::uint64_t first = fingerprint(runConfig(bug, Config::LogFail));
        std::uint64_t second = fingerprint(runConfig(bug, Config::LogFail));
        EXPECT_EQ(first, second) << id;
    }
}

// ---- run-cache transparency over the full corpus --------------------------

namespace
{

/** Restore the no-cache default however a test exits. */
struct GlobalCacheGuard
{
    ~GlobalCacheGuard() { configureRunCache(RunCacheMode::Off); }
};

/** The paper's deployment campaign: LBRA/LCRA at default budgets. */
AutoDiagResult
runCampaign(const BugSpec &bug)
{
    AutoDiagOptions opts;
    opts.absencePredicates = bug.isConcurrent;
    return bug.isConcurrent
               ? runLcra(bug.program, bug.failing, bug.succeeding,
                         opts)
               : runLbra(bug.program, bug.failing, bug.succeeding,
                         opts);
}

void
expectSameDiagnosis(const AutoDiagResult &a, const AutoDiagResult &b,
                    const std::string &id)
{
    EXPECT_EQ(a.diagnosed, b.diagnosed) << id;
    EXPECT_EQ(a.site, b.site) << id;
    EXPECT_EQ(a.failureRunsUsed, b.failureRunsUsed) << id;
    EXPECT_EQ(a.failureAttempts, b.failureAttempts) << id;
    EXPECT_EQ(a.successRunsUsed, b.successRunsUsed) << id;
    EXPECT_EQ(a.successAttempts, b.successAttempts) << id;
    ASSERT_EQ(a.ranking.size(), b.ranking.size()) << id;
    for (std::size_t i = 0; i < a.ranking.size(); ++i) {
        const RankedEvent &x = a.ranking[i];
        const RankedEvent &y = b.ranking[i];
        EXPECT_TRUE(x.event == y.event) << id << " rank " << i;
        EXPECT_EQ(x.absence, y.absence) << id << " rank " << i;
        EXPECT_EQ(x.failureRuns, y.failureRuns) << id << " rank " << i;
        EXPECT_EQ(x.successRuns, y.successRuns) << id << " rank " << i;
        // Exact: both sides compute from identical integer tallies.
        EXPECT_EQ(x.precision, y.precision) << id << " rank " << i;
        EXPECT_EQ(x.recall, y.recall) << id << " rank " << i;
        EXPECT_EQ(x.score, y.score) << id << " rank " << i;
    }
}

} // namespace

/**
 * Memoization must be invisible: for every corpus bug, the ranking a
 * campaign produces with the run cache on is field-identical to the
 * cache-off ranking (which the golden table above already ties to the
 * seed interpreter).
 */
TEST(GoldenDeterminism, CacheOnRankingsMatchCacheOffForAllBugs)
{
    GlobalCacheGuard guard;
    for (const BugSpec &bug : corpus::allBugs()) {
        configureRunCache(RunCacheMode::Off);
        AutoDiagResult off = runCampaign(bug);
        configureRunCache(RunCacheMode::On);
        AutoDiagResult on = runCampaign(bug);
        expectSameDiagnosis(off, on, bug.id);
    }
}

/**
 * Whole-corpus verify-mode audit: run every campaign twice against
 * one verify-mode cache. The second pass hits on every run of the
 * first and re-executes each one, asserting the cached RunResult is
 * bit-identical to a fresh replay (fatal on any divergence).
 */
TEST(GoldenDeterminism, VerifyModeCampaignsOverTheFullCorpus)
{
    GlobalCacheGuard guard;
    configureRunCache(RunCacheMode::Verify);
    for (const BugSpec &bug : corpus::allBugs()) {
        AutoDiagResult first = runCampaign(bug);
        AutoDiagResult second = runCampaign(bug);
        expectSameDiagnosis(first, second, bug.id);
    }
    RunCache *cache = globalRunCache();
    ASSERT_NE(cache, nullptr);
    EXPECT_GE(cache->statsSnapshot().value("verified"), 1u);
}

} // namespace stm
