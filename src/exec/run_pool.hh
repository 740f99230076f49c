/**
 * @file
 * RunPool: a thread-pool batch executor for independent Machine runs.
 *
 * Every layer of the reproduction that needs many runs — LBRA/LCRA
 * profile collection (10+10 runs per diagnosis, but often thousands of
 * attempts before rare failures manifest), the CBI/PBI/CCI baselines
 * (1000+1000 sampled runs per campaign), and the table benches — is
 * built from *independent* VM executions: run i is fully determined by
 * `workload.forRun(i)`, the immutable Program and the phase's
 * instrumentation plan. RunPool fans those runs out across N worker
 * threads while preserving the exact observable behavior of the serial
 * loop:
 *
 *  - **Deterministic seeding.** The pool never invents seeds; the
 *    runner callback receives the attempt index i and derives its
 *    MachineOptions itself (`workload.forRun(i)`), so run i is
 *    bit-identical no matter which worker executes it or how many
 *    workers exist.
 *  - **Ordered consumption.** Results are delivered to the consumer
 *    callback in strict index order on the calling thread, so
 *    accounting loops ("first N failing attempts", "give up after K
 *    fruitless attempts") replay the serial decision sequence exactly.
 *  - **Quota cancellation.** When the consumer declines a result the
 *    pool stops claiming new indices, drains in-flight work, and
 *    discards speculative results past the stopping point. Wasted
 *    speculation is bounded by the look-ahead window.
 *
 * Determinism contract: the Program shared by concurrent Machines must
 * not be mutated while a batch is in flight. All instrumentation
 * transforms must run before fan-out (the Reactive success-site scheme
 * stops the pool at the pinning failure, re-instruments, then fans out
 * again — see diag/campaign.cc).
 */

#ifndef STM_EXEC_RUN_POOL_HH
#define STM_EXEC_RUN_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "support/flags.hh"
#include "support/stats.hh"
#include "vm/run_result.hh"

namespace stm
{

/**
 * Default worker count: the process-wide override installed by
 * setDefaultJobs, else std::thread::hardware_concurrency(). Always at
 * least 1.
 */
unsigned defaultJobs();

/**
 * Install a process-wide default worker count (the --jobs flag of the
 * tools and benches). 0 clears the override.
 */
void setDefaultJobs(unsigned jobs);

/** The largest `--jobs N` the tools and benches accept. */
constexpr unsigned kMaxJobs = 1024;

/**
 * The `--jobs N` flag of every tool and bench: N in 1..kMaxJobs,
 * installed with setDefaultJobs. Results are identical for any N.
 */
Flag jobsFlag();

/** Resolve a jobs option: 0 means defaultJobs(). */
unsigned resolveJobs(unsigned jobs);

/**
 * Cumulative execution-engine statistics, aggregated across every
 * RunPool in the process: runs executed, speculative runs discarded,
 * busy time, and wall-clock capacity. The benches report these.
 */
StatGroup &execStats();

/** Reset the cumulative execution statistics (bench sections). */
void resetExecStats();

/** Cumulative runs per second across all pools (0 if none ran). */
double execRunsPerSecond();

/** Cumulative worker utilization in [0,1] (0 if none ran). */
double execUtilization();

/** A persistent pool of worker threads executing independent runs. */
class RunPool
{
  public:
    /** Produce the result of attempt @p i (seeds derived from i). */
    using Runner = std::function<RunResult(std::uint64_t)>;
    /**
     * Consume the result of attempt @p i. Called in strict index
     * order on the thread that invoked runOrdered. Return true to
     * keep consuming; false to stop (the offered result counts as
     * NOT consumed — replicate the serial loop's top-of-loop checks
     * here before touching the result).
     */
    using Consumer =
        std::function<bool(std::uint64_t, RunResult &&)>;

    /** @p jobs workers; 0 means defaultJobs(). */
    explicit RunPool(unsigned jobs = 0);
    ~RunPool();

    RunPool(const RunPool &) = delete;
    RunPool &operator=(const RunPool &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Stream attempts first, first+1, ... to the consumer in index
     * order until it returns false or @p maxRuns results have been
     * consumed. Returns the number of results consumed. With one job
     * (or one run) this degenerates to the plain serial loop on the
     * calling thread.
     */
    std::uint64_t runOrdered(std::uint64_t first,
                             std::uint64_t maxRuns,
                             const Runner &runner,
                             const Consumer &consume);

    /**
     * Execute runner(first..first+count-1) and return all results
     * ordered by index.
     */
    std::vector<RunResult> runBatch(std::uint64_t first,
                                    std::uint64_t count,
                                    const Runner &runner);

  private:
    void workerLoop();
    bool claimable() const;

    unsigned jobs_;

    std::mutex mu_;
    std::condition_variable workCv_; //!< workers: work available
    std::condition_variable doneCv_; //!< consumer: result ready

    // State of the (single) active job, guarded by mu_.
    const Runner *runner_ = nullptr;
    bool active_ = false;
    bool cancelled_ = false;
    bool shutdown_ = false;
    std::uint64_t next_ = 0;      //!< next index to claim
    std::uint64_t limit_ = 0;     //!< one past the last claimable
    std::uint64_t windowEnd_ = 0; //!< speculation ceiling
    std::uint64_t inFlight_ = 0;  //!< runs currently executing
    std::uint64_t busyMicros_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t discarded_ = 0;
    std::map<std::uint64_t, RunResult> ready_;

    std::vector<std::thread> workers_;
};

} // namespace stm

#endif // STM_EXEC_RUN_POOL_HH
