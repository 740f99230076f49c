#include "diag/auto_diag.hh"

#include "diag/ranker.hh"
#include "obs/trace.hh"

namespace stm
{

namespace
{

AutoDiagResult
runAutoDiag(ProgramPtr prog, const Workload &failing,
            const Workload &succeeding, const AutoDiagOptions &opts,
            bool lbr)
{
    Ranker ranker;
    CampaignOutcome campaign = runCampaign(
        prog, failing, succeeding, opts, lbr,
        [&](const ProfileRecord &record, std::uint64_t,
            const Workload &, bool failure) {
            ranker.addProfile(failure,
                              record.kind == ProfileKind::Lbr
                                  ? eventsOfLbr(record.lbr)
                                  : eventsOfLcr(record.lcr));
        });

    AutoDiagResult result;
    result.site = campaign.site;
    result.failureRunsUsed = campaign.failureRunsUsed;
    result.failureAttempts = campaign.failureAttempts;
    result.successRunsUsed = campaign.successRunsUsed;
    result.successAttempts = campaign.successAttempts;
    if (result.failureRunsUsed == 0 || result.successRunsUsed == 0)
        return result;

    obs::TraceSpan rankSpan(obs::TraceCategory::Diag,
                            obs::TraceId::DiagRank,
                            result.failureRunsUsed +
                                result.successRunsUsed);
    result.ranking = ranker.rank(opts.absencePredicates);
    result.diagnosed = true;
    return result;
}

} // namespace

AutoDiagResult
runLbra(ProgramPtr prog, const Workload &failing,
        const Workload &succeeding, const AutoDiagOptions &opts)
{
    return runAutoDiag(prog, failing, succeeding, opts, true);
}

AutoDiagResult
runLcra(ProgramPtr prog, const Workload &failing,
        const Workload &succeeding, const AutoDiagOptions &opts)
{
    return runAutoDiag(prog, failing, succeeding, opts, false);
}

} // namespace stm
