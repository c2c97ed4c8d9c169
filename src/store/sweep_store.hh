/**
 * @file
 * Binding between the scenario engine and the crash-recoverable
 * result store: spec hashing, store creation for `rix run --store`,
 * and `rix resume` — re-expanding a journaled sweep and running
 * exactly the jobs the journal is missing.
 *
 * The store is self-contained: its header embeds the full spec text
 * plus the *resolved* scale and workload selection, so resuming needs
 * nothing but the store file. Resume re-installs the resolved knobs
 * into the environment, re-parses the embedded spec, verifies the
 * recomputed spec hash against the journaled one, and hands the store
 * to runScenario(spec, policy, store) — whose merged output is
 * bit-identical in every simulated field to an uninterrupted run.
 */

#ifndef RIX_STORE_SWEEP_STORE_HH
#define RIX_STORE_SWEEP_STORE_HH

#include <cstdio>
#include <string>

#include "sim/scenario.hh"
#include "store/result_store.hh"

namespace rix
{

/**
 * The sweep identity a store is keyed by: FNV-1a over the spec text
 * plus the resolved scale and resolved workload selection — exactly
 * the inputs that determine the job expansion. Two runs with the same
 * hash expand to the same (workload, config, interval) job list in
 * the same order.
 */
u64 scenarioSpecHash(const std::string &spec_text, const ScenarioSpec &spec);

/** The spec's resolved workload selection as a comma-joined list. */
std::string scenarioWorkloadsCsv(const ScenarioSpec &spec);

/** Store metadata describing one sweep of @p spec. */
StoreMeta makeSweepMeta(const std::string &spec_text,
                        const ScenarioSpec &spec);

/**
 * `rix run --store`: run the spec at @p spec_path journaled into a
 * *new* store at @p store_path (an existing file is fatal — resuming
 * is `rix resume`'s job), rendering onto @p out (nullptr: stdout).
 * Journaling requires a row render (jsonl/csv): the figure renderers
 * cannot show a failed point, so a spec rendering a figure is fatal
 * here. @return as runScenarioFile (0 ok, 3 partial).
 */
int runScenarioFileStored(const std::string &spec_path,
                          const std::string &store_path, FILE *out,
                          const FaultPolicy &policy);

struct ResumeOptions
{
    /** Tolerate a store produced by a different git revision (the
     *  mismatch is fatal by default; a rev of "unknown" on either
     *  side only warns). */
    bool ignoreRev = false;
};

/**
 * `rix resume`: open the store at @p store_path (recovering any torn
 * tail), re-expand its embedded spec, run exactly the jobs not yet
 * journaled, and render the merged results onto @p out (nullptr:
 * stdout). A store with every job journaled just re-renders.
 * @return as runScenarioFile (0 ok, 3 partial); mismatched spec hash,
 *         job count, or git revision are fatal.
 */
int resumeStoreFile(const std::string &store_path, FILE *out,
                    const FaultPolicy &policy,
                    const ResumeOptions &opts = {});

} // namespace rix

#endif // RIX_STORE_SWEEP_STORE_HH
