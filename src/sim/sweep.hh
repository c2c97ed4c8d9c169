/**
 * @file
 * Parallel sweep engine: runs independent simulation jobs (one
 * workload x one machine configuration each) across a fixed-size
 * thread pool and collects their reports in deterministic submission
 * order.
 *
 * The paper's figure reproductions are sweeps — every (config,
 * workload) point is an independent simulation — so the engine's only
 * job is throughput, not cleverness:
 *
 *  - programs come from the process-wide ProgramCache and are shared
 *    read-only by every job (built once per (name, scale));
 *  - each worker thread owns one long-lived SimContext whose Core is
 *    reset() between jobs, reusing the instruction-pool slabs, sparse
 *    memory pages, IT lanes and predictor arrays instead of paying
 *    construction per point;
 *  - results land in a pre-sized slot per job, so the output vector
 *    order equals the submission order no matter which worker finished
 *    first, and RIX_JOBS=1 vs RIX_JOBS=N outputs are bit-identical.
 *
 * Worker count comes from the RIX_JOBS environment knob (default:
 * hardware concurrency); RIX_JOBS=1 runs everything inline on the
 * calling thread.
 */

#ifndef RIX_SIM_SWEEP_HH
#define RIX_SIM_SWEEP_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/cancel.hh"
#include "base/fault.hh"
#include "sim/simulator.hh"

namespace rix
{

class TraceSink;
class MetricsRecorder;

/**
 * Test-only fault injection, settable per job: prove the containment
 * machinery works (timeouts fire, retries recover, a poisoned job
 * never takes the process down) without crafting a pathological
 * workload. `None` for all real simulation.
 */
enum class JobInject : u8
{
    None = 0,
    /** Busy-wait (polling the cancel token) instead of simulating:
     *  a hung job. Requires an armed watchdog; fails Crash without
     *  one rather than hanging the worker forever. */
    Hang,
    /** Throw a plain runtime_error from the job body: a permanent
     *  crash, never retried. */
    Crash,
    /** Throw TransientError on the first attempt, succeed on retry:
     *  a spurious infrastructure failure the retry policy absorbs. */
    Transient,
};

const char *jobInjectName(JobInject inject);
bool jobInjectFromName(const std::string &name, JobInject *out);

/** One point of a sweep: workload x configuration x run limits. */
struct SimJob
{
    static constexpr u64 noCheckpoint = ~u64(0);

    std::string workload;       // program-cache key (with scale)
    u64 scale = 1;
    CoreParams params;
    u64 maxRetired = 20'000'000;
    Cycle maxCycles = 200'000'000;

    JobInject inject = JobInject::None;

    // Sampled-interval mode (checkpointAt != noCheckpoint): restore
    // the architectural checkpoint taken at `checkpointAt` retired
    // instructions (built once per (workload, scale, point) in the
    // process-wide CheckpointCache), run `warmup` detailed
    // instructions with statistics discarded, then measure for
    // `maxRetired` instructions — so maxRetired is always the job's
    // *reported* instruction budget. maxCycles caps warmup+measure
    // together.
    u64 checkpointAt = noCheckpoint;
    u64 warmup = 0;

    // Observability attach points (PR 9), null/zero when off. The
    // sink/recorder are owned by the job (shared_ptr so SimJob stays
    // copyable) and attached to the worker's core for the measured
    // run; they never affect simulated state. For sampled jobs the
    // trace window indexes into the *measured* retire stream (warmup
    // is not traced). A retried attempt re-arms the metrics recorder
    // but appends to the trace sink (file sinks cannot rewind).
    std::shared_ptr<TraceSink> trace;
    u64 traceStart = 0;
    u64 traceCount = 0;
    std::shared_ptr<MetricsRecorder> metrics;

    bool sampled() const { return checkpointAt != noCheckpoint; }
};

/**
 * A job's outcome: structured status instead of process death. `report`
 * is meaningful only when ok(); on failure `error` carries a one-line
 * diagnostic and — for divergences — `divergence` the full lockstep
 * report. `attempts` counts executions including retries (1 = first
 * try succeeded or failed permanently).
 */
struct SimJobResult
{
    SimReport report;
    double wallSeconds = 0.0;
    JobStatus status = JobStatus::Ok;
    std::string error;
    unsigned attempts = 1;
    DivergenceReport divergence;

    bool ok() const { return status == JobStatus::Ok; }
};

/**
 * A contained failure reported by SimContext::run/runInterval instead
 * of rix_fatal: what went wrong, as a status plus a one-line message
 * (plus the lockstep report for divergences).
 */
struct JobFault
{
    JobStatus status = JobStatus::Ok;
    std::string message;
    DivergenceReport divergence;
};

/**
 * Optional per-run control for SimContext: a cancellation token the
 * core polls (timeouts, shutdown) and a fault sink. With a null
 * `fault`, failures are fatal — exactly the historical single-run
 * semantics every existing caller keeps.
 */
struct RunControl
{
    const CancelToken *cancel = nullptr;
    JobFault *fault = nullptr;

    // Observability taps forwarded to the core (see SimJob). Non-owning;
    // the caller keeps them alive across the run.
    TraceSink *trace = nullptr;
    u64 traceStart = 0;
    u64 traceCount = 0;
    MetricsRecorder *metrics = nullptr;
};

/**
 * A reusable simulation context: one long-lived Core that is reset
 * (not reconstructed) for every job it runs. Each sweep worker owns
 * one; single runs can use one directly.
 */
class SimContext
{
  public:
    SimContext();
    ~SimContext();

    /**
     * Run one simulation, reusing this context's core. With
     * @p ctl.fault set, divergence/stuck/timeout outcomes land there
     * (status != Ok, report still returned for whatever was simulated);
     * without it they are fatal, the historical behaviour.
     */
    SimReport run(const Program &prog, const CoreParams &params,
                  u64 max_retired, Cycle max_cycles,
                  const RunControl &ctl = {});

    /**
     * Run one sampled interval: resume the detailed pipeline from
     * @p from, run @p warmup instructions discarding statistics, then
     * measure @p measure instructions. The returned report covers
     * exactly the measured window (warmup === 0 and a checkpoint at
     * instruction 0 make it bit-identical to a full run() of the same
     * budget). @p ctl as for run().
     */
    SimReport runInterval(const Program &prog, const Checkpoint &from,
                          const CoreParams &params, u64 warmup,
                          u64 measure, Cycle max_cycles,
                          const RunControl &ctl = {});

  private:
    std::unique_ptr<Core> core;
};

/**
 * A job's inputs, pinned for the duration of the run: holding the
 * shared_ptrs keeps the program/checkpoint alive (and, for the serve
 * daemon's bounded LRU caches, un-evictable) while the core uses them.
 */
struct PinnedJobInputs
{
    std::shared_ptr<const Program> prog;
    std::shared_ptr<const Checkpoint> from; // null unless job.sampled()
};

/**
 * Where a contained job gets its program/checkpoint. Null: the
 * process-wide unbounded caches (sweeps). The serve daemon supplies
 * its byte-budgeted LRU caches instead. Called once per attempt; may
 * throw (reported as a crash status, retried only if TransientError).
 */
using JobInputSource = std::function<PinnedJobInputs(const SimJob &)>;

/**
 * Fault-contained execution of one job on the caller's context:
 * non-fatal validation, watchdog armed from policy.timeoutMs per
 * attempt, transient failures retried with exponential backoff. The
 * building block of both SweepRunner::run(jobs, policy) and the serve
 * daemon's request execution.
 */
SimJobResult runJobContained(SimContext &ctx, const SimJob &job,
                             const FaultPolicy &policy,
                             const JobInputSource &inputs = nullptr);

/**
 * Called once per job as it retires from the pool, from whichever
 * worker thread ran it (serialize internally if needed). The sweep's
 * durability hook: the result-store journal appends from here, so a
 * crashed process keeps every job that ever completed. Must not throw
 * — a journaling failure that matters should be fatal in the hook
 * itself, not misreported as a job crash.
 */
using SweepRetireHook = std::function<void(size_t job_index,
                                           const SimJobResult &result)>;

class SweepRunner
{
  public:
    /** @p num_threads 0 means "use jobsFromEnv()" (the RIX_JOBS knob). */
    explicit SweepRunner(unsigned num_threads = 0);

    /** run(jobs, policy) under a strict FaultPolicy with no watchdog:
     *  any failing job is fatal once the sweep finishes. */
    std::vector<SimJobResult> run(const std::vector<SimJob> &jobs);

    /**
     * Execute every job and return results in submission order; the
     * one sweep-job loop. Programs are fetched from the global
     * ProgramCache. Every job gets a structured status; K failing jobs
     * leave the other N-K results intact. Transient failures
     * (timeouts, injected transients) are retried with exponential
     * backoff up to policy.retries; permanent ones (divergence, stuck,
     * crash) are not. With policy.strict the whole sweep is fatal
     * *after* all jobs finish, naming the first failure (with the full
     * lockstep report for a divergence) — fail-fast, but never a
     * partial result vector. @p on_retire (nullable) fires once per
     * completed job.
     */
    std::vector<SimJobResult> run(const std::vector<SimJob> &jobs,
                                  const FaultPolicy &policy,
                                  const SweepRetireHook &on_retire = nullptr);

    unsigned threads() const { return nThreads; }

  private:
    unsigned nThreads;
};

} // namespace rix

#endif // RIX_SIM_SWEEP_HH
