/**
 * @file
 * Simulation-throughput harness: how fast does the simulator itself
 * run, in simulated kilo-instructions retired per wall-clock second
 * (KIPS)?
 *
 * Unlike the figure benches (which report simulated IPC and
 * integration behaviour), this binary exists to give the repository a
 * regression trajectory for host-side performance work: every
 * optimization PR quotes its per-workload and aggregate KIPS against
 * the previous run.
 *
 * Output: one single-line JSON object per workload, then one aggregate
 * line, each of the form
 *
 *   {"bench": "gzip", "kips": 1234.5, "cycles": 567890,
 *    "retired": 123456, "ipc": 0.87, "wall_s": 0.100}
 *
 * The aggregate line uses "bench": "aggregate"; its kips is total
 * retired instructions over total wall time, so it weights long
 * workloads proportionally. Redirect to BENCH_throughput.json to
 * archive a trajectory point.
 *
 * Knobs: RIX_SCALE / RIX_BENCH as in every bench binary, plus
 * RIX_JOBS for the sweep engine's worker count. Per-workload kips and
 * the aggregate's "kips"/"wall_s" are computed from per-job simulation
 * time (summed), so they stay comparable across RIX_JOBS settings and
 * with the historical serial trajectory; the aggregate additionally
 * reports "elapsed_s", the actual wall clock of the whole (parallel)
 * run. The machine configuration is the paper's full integration
 * setup (reverse entries, realistic LISP) so the rename/IT/memory hot
 * paths are all exercised.
 */

#include <chrono>

#include "bench/common.hh"

using namespace rixbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
printLine(const std::string &name, double kips, u64 cycles, u64 retired,
          double ipc, double wall)
{
    printf("{\"bench\": \"%s\", \"kips\": %.1f, \"cycles\": %llu, "
           "\"retired\": %llu, \"ipc\": %.4f, \"wall_s\": %.3f}\n",
           name.c_str(), kips, (unsigned long long)cycles,
           (unsigned long long)retired, ipc, wall);
}

} // namespace

int
main()
{
    const CoreParams params = integrationParams(IntegrationMode::Reverse);
    const std::vector<std::string> benches = benchList();

    // Build (and cache) the programs outside the timed region: we are
    // measuring the simulator, not the workload generators.
    for (const auto &bm : benches)
        program(bm);

    std::vector<SimJob> jobs;
    for (const auto &bm : benches) {
        SimJob job;
        job.workload = bm;
        job.scale = scaleFromEnv();
        job.params = params;
        jobs.push_back(std::move(job));
    }

    const auto t0 = Clock::now();
    const std::vector<SimJobResult> results = SweepRunner().run(jobs);
    const double elapsed = secondsSince(t0);

    u64 total_retired = 0;
    u64 total_cycles = 0;
    double total_wall = 0.0;

    for (size_t i = 0; i < benches.size(); ++i) {
        const SimReport &rep = results[i].report;
        const double wall = results[i].wallSeconds;

        const u64 retired = rep.core.retired;
        const double kips = wall > 0 ? retired / 1000.0 / wall : 0.0;
        printLine(benches[i], kips, rep.core.cycles, retired, rep.ipc(),
                  wall);

        total_retired += retired;
        total_cycles += rep.core.cycles;
        total_wall += wall;
    }

    const double agg_kips =
        total_wall > 0 ? total_retired / 1000.0 / total_wall : 0.0;
    const double agg_ipc =
        total_cycles ? double(total_retired) / double(total_cycles) : 0.0;
    // Workers actually used: the runner never spawns more threads than
    // there are jobs, and a single job runs inline.
    const size_t jobs_used = std::max<size_t>(
        1, std::min<size_t>(SweepRunner().threads(), benches.size()));
    printf("{\"bench\": \"aggregate\", \"kips\": %.1f, \"cycles\": %llu, "
           "\"retired\": %llu, \"ipc\": %.4f, \"wall_s\": %.3f, "
           "\"elapsed_s\": %.3f, \"jobs\": %zu}\n",
           agg_kips, (unsigned long long)total_cycles,
           (unsigned long long)total_retired, agg_ipc, total_wall, elapsed,
           jobs_used);
    return 0;
}
