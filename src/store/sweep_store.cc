#include "store/sweep_store.hh"

#include <cstdlib>

#include "base/log.hh"

namespace rix
{

u64
scenarioSpecHash(const std::string &spec_text, const ScenarioSpec &spec)
{
    // FNV-1a 64 over (spec text, resolved scale, resolved workloads):
    // the exact inputs of expandScenarioJobs. NUL separators keep
    // "ab"+"c" distinct from "a"+"bc".
    std::string key = spec_text;
    key += '\0';
    key += std::to_string(spec.scale);
    key += '\0';
    key += scenarioWorkloadsCsv(spec);

    u64 h = 14695981039346656037ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
scenarioWorkloadsCsv(const ScenarioSpec &spec)
{
    std::string csv;
    for (const std::string &w : spec.workloads) {
        if (!csv.empty())
            csv += ',';
        csv += w;
    }
    return csv;
}

StoreMeta
makeSweepMeta(const std::string &spec_text, const ScenarioSpec &spec)
{
    StoreMeta meta;
    meta.kind = StoreKind::Sweep;
    meta.gitRev = buildGitRev();
    meta.specName = spec.name;
    meta.specHash = scenarioSpecHash(spec_text, spec);
    meta.scale = spec.scale;
    meta.workloadsCsv = scenarioWorkloadsCsv(spec);
    meta.numJobs = expandScenarioJobs(spec).size();
    meta.specText = spec_text;
    return meta;
}

int
runScenarioFileStored(const std::string &spec_path,
                      const std::string &store_path, FILE *out,
                      const FaultPolicy &policy)
{
    requireStorePathUsable("rix run --store", store_path);

    const std::string text = readScenarioFile(spec_path);
    const ScenarioSpec spec = parseScenario(text);
    if (!isRowRender(spec))
        rix_fatal("rix run --store: spec '%s' renders '%s', but a "
                  "journaled run requires a row render (jsonl/csv) — "
                  "the figure renderers cannot show a failed point",
                  spec_path.c_str(), spec.render.c_str());

    std::string err;
    std::unique_ptr<ResultStore> store =
        ResultStore::create(store_path, makeSweepMeta(text, spec), &err);
    if (!store)
        rix_fatal("rix run --store: %s", err.c_str());

    return renderScenarioBuffered(spec,
                                  runScenario(spec, policy, store.get()),
                                  out);
}

int
resumeStoreFile(const std::string &store_path, FILE *out,
                const FaultPolicy &policy, const ResumeOptions &opts)
{
    std::string err;
    ResultStore::Recovery rec;
    std::unique_ptr<ResultStore> store =
        ResultStore::openForAppend(store_path, &err, &rec);
    if (!store)
        rix_fatal("rix resume: %s", err.c_str());
    const StoreMeta &meta = store->meta();
    if (meta.kind != StoreKind::Sweep)
        rix_fatal("rix resume: '%s' is a serve journal, not a sweep "
                  "store", store_path.c_str());

    // A store from a different build journals a different simulator:
    // silently mixing its results with freshly simulated ones would
    // defeat the whole bit-identity contract. "unknown" (a build
    // outside a git checkout) cannot be checked, so it only warns.
    const std::string selfRev = buildGitRev();
    if (meta.gitRev != selfRev) {
        if (meta.gitRev == "unknown" || selfRev == "unknown")
            rix_warn("rix resume: store revision '%s' vs build '%s' — "
                     "cannot verify they match",
                     meta.gitRev.c_str(), selfRev.c_str());
        else if (opts.ignoreRev)
            rix_warn("rix resume: store was written by revision %s, "
                     "this build is %s (--ignore-rev)",
                     meta.gitRev.c_str(), selfRev.c_str());
        else
            rix_fatal("rix resume: store '%s' was written by revision "
                      "%s, this build is %s — results would mix "
                      "revisions (--ignore-rev to override)",
                      store_path.c_str(), meta.gitRev.c_str(),
                      selfRev.c_str());
    }

    // Reinstall the resolved knobs the store was created under, then
    // re-expand its embedded spec: the expansion this process computes
    // must be the one the records are keyed by, and the recomputed
    // hash proves it (a changed workload registry or spec grammar
    // would silently re-key the job indices otherwise).
    setenv("RIX_SCALE", std::to_string(meta.scale).c_str(),
           /*overwrite=*/1);
    setenv("RIX_BENCH", meta.workloadsCsv.c_str(), /*overwrite=*/1);
    const ScenarioSpec spec = parseScenario(meta.specText);
    const u64 hash = scenarioSpecHash(meta.specText, spec);
    if (hash != meta.specHash)
        rix_fatal("rix resume: store '%s' hashes its spec as "
                  "%016llx but this build computes %016llx — the spec "
                  "expansion changed; re-run the sweep instead",
                  store_path.c_str(),
                  (unsigned long long)meta.specHash,
                  (unsigned long long)hash);

    const size_t done = store->records().size();
    fprintf(stderr,
            "rix resume: %s: %zu of %llu jobs journaled (%llu torn "
            "bytes recovered)\n",
            store_path.c_str(), done,
            (unsigned long long)meta.numJobs,
            (unsigned long long)rec.droppedBytes);

    return renderScenarioBuffered(spec,
                                  runScenario(spec, policy, store.get()),
                                  out);
}

} // namespace rix
