/**
 * @file
 * Shared infrastructure for the benchmark binaries.
 *
 * Since PR 3 the four figure reproductions are *scenario specs* under
 * examples/scenarios/, replayed by the scenario subsystem (see
 * src/sim/scenario.hh and the `rix` CLI); their bench binaries are
 * one-line wrappers. This header keeps the helpers the remaining
 * hand-written benches (throughput, ablations, micro) still use: the
 * environment knobs, the single-run front end, and the table printing
 * utilities.
 *
 * Environment knobs (validated; 0 or garbage is fatal, not silent):
 *   RIX_SCALE  workload scale factor (default 1; paper-like curves
 *              stabilize around 4)
 *   RIX_BENCH  comma-separated subset of benchmark names to run
 *   RIX_JOBS   simulation worker threads (default: hardware
 *              concurrency; 1 = serial on the calling thread)
 */

#ifndef RIX_BENCH_COMMON_HH
#define RIX_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "base/env.hh"
#include "sim/figures.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"
#include "workload/program_cache.hh"

namespace rixbench
{

using namespace rix;

/**
 * The RIX_SCALE knob. Strictly validated: historically this accepted
 * "0" and non-numeric garbage as zero, and a scale-0 workload silently
 * ran 20M instructions to the retired cap instead of failing.
 */
inline u64
scaleFromEnv()
{
    return envPositiveCount("RIX_SCALE", 1);
}

/** The RIX_BENCH selection (validated), default: every workload. */
inline std::vector<std::string>
benchList()
{
    return workloadSelectionFromEnv(workloadNames());
}

/** The shared read-only program for @p name at the RIX_SCALE scale. */
inline const Program &
program(const std::string &name)
{
    return globalProgramCache().get(name, scaleFromEnv());
}

/** One serial simulation (ablation/micro benches; not a sweep). */
inline SimReport
run(const std::string &bench, const CoreParams &params)
{
    return runSimulation(program(bench), params, 20'000'000,
                         200'000'000);
}

// speedupPct / gmeanSpeedupPct come from base/stats via `using
// namespace rix` — the same single copy the figure renderers use.

inline void
printHeader(const char *title)
{
    printTableHeader(stdout, title);
}

inline void
printRowLabel(const std::string &name)
{
    printTableRowLabel(stdout, name);
}

} // namespace rixbench

#endif // RIX_BENCH_COMMON_HH
