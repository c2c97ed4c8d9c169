/**
 * @file
 * Declarative scenario subsystem: a sweep described as data.
 *
 * A scenario spec is a small JSON document naming the workloads, the
 * workload scale, the run limits, and a list of machine configurations
 * (each a set of CoreParams overrides, optionally crossed with a grid
 * of further overrides). The engine expands the spec into SimJobs,
 * executes them on the parallel SweepRunner (sharing programs through
 * the process-wide ProgramCache), and renders the results either
 * generically — one row per (workload, config) point through the
 * StatRegistry, as JSON lines or CSV — or through one of the built-in
 * figure renderers that reproduce the paper's tables.
 *
 * Spec grammar (all fields optional unless noted):
 *
 *   {
 *     "name":        "fig4",
 *     "description": "free text",
 *     "workloads":   "all" | ["mcf", "gcc", ...],
 *     "scale":       1,            // RIX_SCALE env overrides
 *     "max_retired": 20000000,
 *     "max_cycles":  200000000,
 *     "base":        { <param overrides applied to every config> },
 *     "configs":     [ {"label": "base", "set": { ... }}, ... ],
 *     "grid":        { "integ.it_assoc": [1, 2, 4], ... },
 *     "render":      "jsonl" | "csv" | "fig4" | "fig5" | "fig6" | "fig7",
 *     "trace":       { "start": 0, "count": 100000,
 *                      "format": "konata", "out": "rix_trace.txt" },
 *     "metrics":     { "every": 10000, "out": "rix_metrics.jsonl" },
 *     "profile":     false
 *   }
 *
 * Parameter override keys are dotted snake_case paths into CoreParams
 * ("rs_size", "integ.mode", "mem.l1d.size_bytes", ...); unknown keys,
 * type mismatches and malformed JSON are fatal with the position and
 * field named. The grid's cross product (first key slowest) is
 * appended to every config; point labels read "cfg;key=value;...".
 *
 * The legacy RIX_BENCH / RIX_SCALE environment knobs override the
 * spec's workload selection and scale, so committed figure specs
 * behave exactly like the historical bench binaries under CI's
 * environment-driven harness.
 */

#ifndef RIX_SIM_SCENARIO_HH
#define RIX_SIM_SCENARIO_HH

#include <string>
#include <vector>

#include "base/json.hh"
#include "sim/sampling/sampling.hh"
#include "sim/sweep.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace rix
{

class ResultStore;

/** One machine configuration of a scenario (grid already expanded). */
struct ScenarioConfig
{
    std::string label;
    CoreParams params;
};

struct ScenarioSpec
{
    std::string name;
    std::string description;
    std::string render = "jsonl";
    std::vector<std::string> workloads; // resolved names, ordered
    u64 scale = 1;
    u64 maxRetired = 20'000'000;
    Cycle maxCycles = 200'000'000;
    std::vector<ScenarioConfig> configs;

    /**
     * Sampled-simulation plan from the spec's "sampling" block (see
     * sim/sampling/sampling.hh for the grammar). Empty: every point is
     * one full detailed run. Non-empty: every (workload, config) point
     * expands into one SimJob per interval — independently scheduled
     * across the sweep pool — whose reports are merged back into one
     * row per point, with the sampled_* rollup columns added.
     */
    SamplingPlan sampling;

    /**
     * Observability, from the spec's "trace" / "metrics" / "profile"
     * fields plus the RIX_TRACE* / RIX_METRICS_EVERY env overrides.
     * Each expanded job gets its own sink/recorder; when the spec
     * expands to more than one job, output paths are suffixed with the
     * job index (".<N>") so parallel jobs never share a file. All three
     * default off, leaving every simulated field bit-identical.
     */
    TraceConfig trace;
    MetricsConfig metrics;
    bool profile = false;

    /** Index of the config labeled @p label, or -1. */
    int configIndex(const std::string &label) const;
};

/**
 * Apply one "key: value" CoreParams override.
 * @return "" on success, else a diagnostic naming the key.
 */
std::string applyCoreParamOverride(CoreParams &p, const std::string &key,
                                   const JsonValue &v);

/**
 * Parse and fully expand a scenario spec (fatal on malformed input),
 * then apply the legacy RIX_SCALE / RIX_BENCH environment overrides.
 */
ScenarioSpec parseScenario(const std::string &json_text);

/**
 * The RIX_BENCH workload selection, validated against the registry;
 * @p dflt when the variable is unset.
 */
std::vector<std::string>
workloadSelectionFromEnv(std::vector<std::string> dflt);

/** Results of a scenario run, indexed (workload, config). */
struct ScenarioResults
{
    size_t numConfigs = 0;
    std::vector<SimJobResult> jobs; // workload-major; merged if sampled

    /** Number of points with status != ok (their reports are zeroed;
     *  rows carry the status/error/attempts columns). */
    size_t
    failures() const
    {
        size_t n = 0;
        for (const SimJobResult &j : jobs)
            n += j.ok() ? 0 : 1;
        return n;
    }

    // Sampled runs only: one rollup per (workload, config) point,
    // same indexing as jobs, plus the raw per-interval results
    // ((workload, config)-major, interval-minor).
    std::vector<SampledSummary> sampled;
    std::vector<SimJobResult> intervalJobs;

    bool isSampled() const { return !sampled.empty(); }

    const SimReport &
    report(size_t w, size_t c) const
    {
        return jobs[w * numConfigs + c].report;
    }

    double
    wallSeconds(size_t w, size_t c) const
    {
        return jobs[w * numConfigs + c].wallSeconds;
    }
};

/** runScenario(spec, policy) under FaultPolicy::fromEnv(strict):
 *  any failing point is fatal once the sweep finishes. */
ScenarioResults runScenario(const ScenarioSpec &spec);

/**
 * Validate every config (fatal with the config label on the first
 * invalid one) and execute the whole scenario across the RIX_JOBS
 * sweep pool — the one scenario run/merge body. Every (workload,
 * config) point gets a structured status; K failing points leave the
 * other N-K rows intact (a sampled point fails as a whole when any of
 * its intervals does, or when its plan measured nothing). Only the
 * generic row renders can show a failed point — the figure renderers
 * have no way to mark holes, so runScenarioFile forces policy.strict
 * for them. policy.strict dies after all jobs finish, naming the
 * first failure.
 *
 * With @p store, the run is durable and resumable: every job already
 * journaled in @p store (matched by expanded job index, workload
 * verified) is *not* re-run — its stored result is used verbatim — and
 * every job that completes successfully is appended to the store, with
 * an fsync commit point, as it retires from the pool. An empty store
 * makes this a journaled fresh run; a partial store makes it a resume
 * whose merged results (sampled rollups included) are bit-identical in
 * every simulated field to an uninterrupted run. The store's meta must
 * match the spec's expansion (job count; checked fatal).
 */
ScenarioResults runScenario(const ScenarioSpec &spec,
                            const FaultPolicy &policy,
                            ResultStore *store = nullptr);

/**
 * Expand the spec's (workload x config [x sampling interval]) cross
 * product into the sweep's job list, after fatal up-front validation
 * of every point. Job order is workload-major, config-minor, interval
 * innermost — the index a result store keys its records by.
 */
std::vector<SimJob> expandScenarioJobs(const ScenarioSpec &spec);

/** The config label of expanded job @p job_index ("" for an unlabeled
 *  single-config spec). */
const std::string &scenarioJobConfigLabel(const ScenarioSpec &spec,
                                          size_t job_index);

/** Render per the spec's "render" field onto @p out. */
void renderScenario(const ScenarioSpec &spec, const ScenarioResults &res,
                    FILE *out);

/** True for the generic row renders (jsonl/csv), the only renders that
 *  can show a failed point. */
bool isRowRender(const ScenarioSpec &spec);

/**
 * Render into memory, then write onto @p out (nullptr: stdout) in one
 * piece, so a consumer never sees a partial JSON/CSV document.
 * @return process exit code: 0 when every point succeeded, 3 when some
 *         failed (their rows carry the status).
 */
int renderScenarioBuffered(const ScenarioSpec &spec,
                           const ScenarioResults &res, FILE *out);

/** Slurp a spec file; fatal (naming the path) on open/read errors. */
std::string readScenarioFile(const std::string &path);

/**
 * Parse, run and render the spec at @p path onto @p out (nullptr:
 * stdout). The rendered document is buffered in memory and written in
 * one piece, so a failure mid-run never leaves a partial JSON/CSV
 * document on @p out — consumers see either the whole render or
 * nothing plus a one-line stderr diagnostic.
 *
 * @p policy null: FaultPolicy::fromEnv(strict). The figure renders
 * always run with policy.strict forced on (see runScenario).
 * @return as renderScenarioBuffered; spec problems are fatal.
 */
int runScenarioFile(const std::string &path, FILE *out = nullptr,
                    const FaultPolicy *policy = nullptr);

/**
 * Path of a committed scenario spec by name: $RIX_SCENARIO_DIR takes
 * precedence, else the build-time examples/scenarios directory. Used
 * by the thin figure-bench wrappers.
 */
std::string bundledScenarioPath(const std::string &name);

} // namespace rix

#endif // RIX_SIM_SCENARIO_HH
