#include "exec/run_pool.hh"

#include <chrono>

#include "obs/trace.hh"

namespace stm
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
microsSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - start)
            .count());
}

unsigned jobsOverride = 0;

std::mutex &
execStatsMutex()
{
    static std::mutex mu;
    return mu;
}

/**
 * Look-ahead window: how far past the consumption point workers may
 * speculate. Large enough to keep every worker busy; small enough to
 * bound wasted runs when a quota cancels the batch.
 */
std::uint64_t
speculationWindow(unsigned jobs)
{
    return std::uint64_t{4} * jobs;
}

} // namespace

unsigned
defaultJobs()
{
    if (jobsOverride > 0)
        return jobsOverride;
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

void
setDefaultJobs(unsigned jobs)
{
    jobsOverride = jobs;
}

Flag
jobsFlag()
{
    return numberFlag("--jobs",
                      "worker threads for run execution, 1.." +
                          std::to_string(kMaxJobs) +
                          "\n(default: hardware concurrency)",
                      1, kMaxJobs, [](std::uint64_t n) {
                          setDefaultJobs(static_cast<unsigned>(n));
                      });
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs > 0 ? jobs : defaultJobs();
}

StatGroup &
execStats()
{
    static StatGroup stats("exec");
    return stats;
}

void
resetExecStats()
{
    std::lock_guard<std::mutex> lock(execStatsMutex());
    execStats().reset();
}

double
execRunsPerSecond()
{
    std::lock_guard<std::mutex> lock(execStatsMutex());
    std::uint64_t wall = execStats().value("wall_micros");
    if (wall == 0)
        return 0.0;
    return static_cast<double>(execStats().value("runs")) * 1e6 /
           static_cast<double>(wall);
}

double
execUtilization()
{
    std::lock_guard<std::mutex> lock(execStatsMutex());
    std::uint64_t capacity = execStats().value("capacity_micros");
    if (capacity == 0)
        return 0.0;
    double u = static_cast<double>(execStats().value("busy_micros")) /
               static_cast<double>(capacity);
    return u > 1.0 ? 1.0 : u;
}

RunPool::RunPool(unsigned jobs) : jobs_(resolveJobs(jobs))
{
    if (jobs_ <= 1)
        return; // serial pools never spawn threads
    workers_.reserve(jobs_);
    for (unsigned w = 0; w < jobs_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

RunPool::~RunPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

bool
RunPool::claimable() const
{
    return active_ && !cancelled_ && next_ < limit_ &&
           next_ < windowEnd_;
}

void
RunPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        workCv_.wait(lock, [this] { return shutdown_ || claimable(); });
        if (shutdown_)
            return;
        std::uint64_t i = next_++;
        ++inFlight_;
        const Runner *runner = runner_;
        lock.unlock();

        obs::traceInstant(obs::TraceCategory::Exec,
                          obs::TraceId::ExecTaskClaim, i);
        Clock::time_point start = Clock::now();
        RunResult result;
        {
            obs::TraceSpan task(obs::TraceCategory::Exec,
                                obs::TraceId::ExecTask, i);
            result = (*runner)(i);
        }
        std::uint64_t busy = microsSince(start);

        lock.lock();
        busyMicros_ += busy;
        ++executed_;
        --inFlight_;
        if (cancelled_) {
            // The batch stopped while this run was in flight; the
            // result is discarded speculation.
            ++discarded_;
            obs::traceInstant(obs::TraceCategory::Exec,
                              obs::TraceId::ExecTaskDiscard, i);
        } else {
            ready_.emplace(i, std::move(result));
        }
        doneCv_.notify_one();
    }
}

std::uint64_t
RunPool::runOrdered(std::uint64_t first, std::uint64_t maxRuns,
                    const Runner &runner, const Consumer &consume)
{
    Clock::time_point wallStart = Clock::now();
    obs::TraceSpan batchSpan(obs::TraceCategory::Exec,
                             obs::TraceId::ExecBatch, maxRuns);
    std::uint64_t consumed = 0;
    std::uint64_t executedHere = 0;
    std::uint64_t discardedHere = 0;
    std::uint64_t busyHere = 0;

    if (jobs_ <= 1 || maxRuns <= 1) {
        // Serial fast path: the reference semantics, no threads.
        for (std::uint64_t k = 0; k < maxRuns; ++k) {
            Clock::time_point start = Clock::now();
            obs::traceInstant(obs::TraceCategory::Exec,
                              obs::TraceId::ExecTaskClaim, first + k);
            RunResult result;
            {
                obs::TraceSpan task(obs::TraceCategory::Exec,
                                    obs::TraceId::ExecTask, first + k);
                result = runner(first + k);
            }
            busyHere += microsSince(start);
            ++executedHere;
            if (!consume(first + k, std::move(result)))
                break;
            obs::traceInstant(obs::TraceCategory::Exec,
                              obs::TraceId::ExecTaskFinish, first + k);
            ++consumed;
        }
    } else {
        std::unique_lock<std::mutex> lock(mu_);
        runner_ = &runner;
        cancelled_ = false;
        next_ = first;
        limit_ = first + maxRuns;
        windowEnd_ = first + speculationWindow(jobs_);
        inFlight_ = 0;
        busyMicros_ = 0;
        executed_ = 0;
        discarded_ = 0;
        ready_.clear();
        active_ = true;
        workCv_.notify_all();

        std::uint64_t nextConsume = first;
        while (nextConsume < limit_) {
            doneCv_.wait(lock, [this, nextConsume] {
                return ready_.count(nextConsume) > 0;
            });
            auto it = ready_.find(nextConsume);
            RunResult result = std::move(it->second);
            ready_.erase(it);
            lock.unlock();
            bool keep = consume(nextConsume, std::move(result));
            lock.lock();
            if (!keep)
                break;
            obs::traceInstant(obs::TraceCategory::Exec,
                              obs::TraceId::ExecTaskFinish,
                              nextConsume);
            ++consumed;
            ++nextConsume;
            windowEnd_ = nextConsume + speculationWindow(jobs_);
            workCv_.notify_all();
        }

        // Cancel and drain: no worker may still touch the runner (or
        // the Program it references) after we return — the caller may
        // re-instrument the Program next.
        cancelled_ = true;
        doneCv_.wait(lock, [this] { return inFlight_ == 0; });
        for (const auto &entry : ready_) {
            obs::traceInstant(obs::TraceCategory::Exec,
                              obs::TraceId::ExecTaskDiscard,
                              entry.first);
        }
        discarded_ += ready_.size();
        ready_.clear();
        active_ = false;
        runner_ = nullptr;
        executedHere = executed_;
        discardedHere = discarded_;
        busyHere = busyMicros_;
    }

    std::uint64_t wall = microsSince(wallStart);
    {
        std::lock_guard<std::mutex> lock(execStatsMutex());
        StatGroup &stats = execStats();
        stats.counter("batches") += 1;
        stats.counter("runs") += executedHere;
        stats.counter("runs_discarded") += discardedHere;
        stats.counter("busy_micros") += busyHere;
        stats.counter("wall_micros") += wall;
        stats.counter("capacity_micros") += wall * jobs_;
    }
    batchSpan.setArg(consumed);
    return consumed;
}

std::vector<RunResult>
RunPool::runBatch(std::uint64_t first, std::uint64_t count,
                  const Runner &runner)
{
    std::vector<RunResult> results;
    results.reserve(count);
    runOrdered(first, count,
               runner, [&](std::uint64_t, RunResult &&r) {
                   results.push_back(std::move(r));
                   return true;
               });
    return results;
}

} // namespace stm
