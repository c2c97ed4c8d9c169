/**
 * @file
 * rixbench: the workload executor behind perfbench/run.py.
 *
 *   rixbench run <inputs.json> <result.json>
 *   rixbench reference <fig4.json> <expected_dir>
 *
 * `run` executes one benchmark workload from the inputs run.py
 * generated from the seed, for the time budget the inputs name, and
 * writes one JSON document: the end-to-end metrics (untraced runs) or
 * the per-layer metrics (traced runs), the attempted/failed operation
 * counts, the correctness observations run.py re-checks, and the
 * simulated (cycles, retired) checksum.
 *
 * Tracing is benchmark-side: with "trace": 1, spans are recorded
 * around the calls this file makes into librix's public functions
 * (program build, decode, Core::reset/run, CheckpointCache::get,
 * Emulator::run, ResultStore::append, IntegrationTable/Lisp probes,
 * runFuzz, serve requests and the stats op), kept in memory and written
 * next to the result when the run ends. Per-layer metrics are computed
 * from those spans.
 *
 * `reference` regenerates the committed expected outputs (fig4 render,
 * per-job simulated pairs, full-run sampled references).
 */

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "core/integration_table.hh"
#include "core/lisp.hh"
#include "cpu/core.hh"
#include "emu/emulator.hh"
#include "isa/decoded.hh"
#include "serve/proto.hh"
#include "sim/fuzz.hh"
#include "sim/presets.hh"
#include "sim/sampling/checkpoint_cache.hh"
#include "sim/sampling/sampling.hh"
#include "sim/scenario.hh"
#include "sim/simulator.hh"
#include "store/result_store.hh"
#include "store/sweep_store.hh"
#include "workload/program_cache.hh"
#include "workload/randprog.hh"
#include "workload/workload.hh"

using namespace rix;

namespace
{

// ------------------------------------------------------------------
// Clock, statistics and small file helpers.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
clockS(clockid_t clock)
{
    timespec ts{};
    if (clock_gettime(clock, &ts) != 0)
        throw std::runtime_error("clock_gettime failed");
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/**
 * CPU seconds this process has run, all threads. The benchmark times
 * its fixed work with it rather than with the wall clock: on a virtual
 * machine the kernel leaves the time the hypervisor gave other guests
 * (steal) out of it, and time blocked on the disk is not in it either,
 * so it measures the work and not the host's load at that minute.
 */
double
cpuS()
{
    return clockS(CLOCK_PROCESS_CPUTIME_ID);
}

/** CPU seconds process @p pid (a child of this one) has run. */
double
processCpuS(pid_t pid)
{
    clockid_t clock;
    if (clock_getcpuclockid(pid, &clock) != 0)
        throw std::runtime_error("no CPU clock for pid " +
                                 std::to_string(pid));
    return clockS(clock);
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write '" + path + "'");
}

JsonValue
parseJson(const std::string &text, const std::string &what)
{
    std::string err;
    JsonValue v = JsonValue::parse(text, &err);
    if (!err.empty())
        throw std::runtime_error(what + ": " + err);
    return v;
}

const JsonValue &
member(const JsonValue &obj, const std::string &key)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        throw std::runtime_error("inputs: missing '" + key + "'");
    return *v;
}

u64
memberU64(const JsonValue &obj, const std::string &key)
{
    return u64(member(obj, key).asNumber());
}

std::string
num(double v)
{
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** One FNV-1a step over the 8 little-endian bytes of @p v (the same
 *  checksum perfbench/validate.py recomputes). */
u64
fnv(u64 h, u64 v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

// ------------------------------------------------------------------
// Spans: recorded around this file's calls into librix, kept in memory,
// written when the run ends. Off (one branch) in untraced runs.

struct Span
{
    const char *name = "";
    u64 id = 0;
    u64 parent = 0;
    u64 request = 0; // spans of one serve request share it
    double t0 = 0, t1 = 0;
    u64 count = 0;   // work items the call covered (insts, probes)
};

class Tracer
{
  public:
    std::atomic<bool> on{false};

    u64 newId() { return nextId.fetch_add(1); }

    void
    record(const Span &s)
    {
        std::lock_guard<std::mutex> g(mu);
        spans.push_back(s);
    }

    /** Spans named @p name, in completion order. */
    std::vector<Span>
    named(const char *name) const
    {
        std::vector<Span> out;
        for (const Span &s : spans)
            if (strcmp(s.name, name) == 0)
                out.push_back(s);
        return out;
    }

    /** Durations (seconds) of the spans named @p name. */
    std::vector<double>
    durations(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : named(name))
            out.push_back(s.t1 - s.t0);
        return out;
    }

    /** Total duration and total count of the spans named @p name. */
    std::pair<double, double>
    totals(const char *name) const
    {
        double t = 0, c = 0;
        for (const Span &s : named(name)) {
            t += s.t1 - s.t0;
            c += double(s.count);
        }
        return {t, c};
    }

    void
    write(const std::string &path) const
    {
        std::string out = "[\n";
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out += "{\"name\": \"" + std::string(s.name) +
                   "\", \"id\": " + std::to_string(s.id) +
                   ", \"parent\": " + std::to_string(s.parent) +
                   ", \"request\": " + std::to_string(s.request) +
                   ", \"start_s\": " + num(s.t0) +
                   ", \"end_s\": " + num(s.t1) +
                   ", \"count\": " + std::to_string(s.count) + "}" +
                   (i + 1 < spans.size() ? ",\n" : "\n");
        }
        writeFile(path, out + "]\n");
    }

    std::vector<Span> spans;

  private:
    std::mutex mu;
    std::atomic<u64> nextId{1};
};

Tracer gTracer;
thread_local u64 tParent = 0;

class SpanScope
{
  public:
    explicit SpanScope(const char *name, u64 request = 0)
    {
        if (!gTracer.on)
            return;
        active = true;
        s.name = name;
        s.id = gTracer.newId();
        s.parent = tParent;
        s.request = request;
        tParent = s.id;
        s.t0 = nowS();
    }

    ~SpanScope()
    {
        if (!active)
            return;
        s.t1 = nowS();
        tParent = s.parent;
        gTracer.record(s);
    }

    void setCount(u64 c) { s.count = c; }

  private:
    bool active = false;
    Span s;
};

// ------------------------------------------------------------------
// The run's shared state and its result document.

/** Simulation workers (RIX_JOBS, the daemon's --jobs) and serve client
 *  connections. One: on a host with a few shared cores, more measure
 *  its scheduler, not the program. */
constexpr unsigned kWorkers = 1;

struct Metric
{
    double value;
    std::string unit;
};

struct Run
{
    JsonValue in;
    std::string workload;
    std::string outDir;
    double seconds = 10;
    bool trace = false;

    std::map<std::string, Metric> metrics;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;

    // Simulated outputs: (cycles, retired) pairs in deterministic order,
    // hashed into the checksum run.py recomputes.
    std::vector<std::pair<u64, u64>> pairs;

    std::string detail;     // extra JSON members ("key": value, ...)
    std::string extraJson;  // workload-specific arrays for run.py

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(why);
    }

    void
    check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok)
            fail(why);
    }

    void
    set(const std::string &name, double v, const char *unit)
    {
        metrics[name] = {v, unit};
    }

    void
    addDetail(const std::string &key, double v)
    {
        detail += (detail.empty() ? "" : ", ") + ("\"" + key + "\": ") +
                  num(v);
    }

    /** Start another pass only if one more, as long as the passes so
     *  far took on average, ends within the time budget (but always
     *  run at least @p min_passes). */
    bool
    more(double t_start, size_t passes, size_t min_passes) const
    {
        const double spent = nowS() - t_start;
        return passes < min_passes ||
               spent + spent / double(passes) <= seconds;
    }
};

/** Simulated statistics over a set of reports (the "no change" guard). */
void
setSimulatedLayerMetrics(Run &r, const std::vector<SimReport> &reps)
{
    double retired = 0, integ = 0, misint = 0, l1d = 0, l2 = 0, mp = 0;
    for (const SimReport &rep : reps) {
        retired += double(rep.core.retired);
        integ += double(rep.core.integratedDirect +
                        rep.core.integratedReverse);
        misint += double(rep.core.misintegrations);
        l1d += double(rep.l1dMisses);
        l2 += double(rep.l2Misses);
        mp += double(rep.core.branchMispredicts);
    }
    const double k = retired > 0 ? 1000.0 / retired : 0.0;
    r.set("core.integration_rate", retired > 0 ? 100.0 * integ / retired
                                               : 0.0, "%");
    r.set("core.misint_per_m", misint * k * 1000.0, "count/M");
    r.set("mem.l1d_mpki", l1d * k, "count/k");
    r.set("mem.l2_mpki", l2 * k, "count/k");
    r.set("bpred.mispredict_pki", mp * k, "count/k");
}

/** Detailed-core speed over jobs that retired @p retired instructions
 *  in @p cycles simulated cycles and @p wall_s host seconds. */
void
setCoreSpeed(Run &r, double retired, double cycles, double wall_s)
{
    r.set("cpu.kips", wall_s > 0 ? retired / 1000.0 / wall_s : 0.0,
          "kips");
    r.set("cpu.ns_per_cycle", cycles > 0 ? 1e9 * wall_s / cycles : 0.0,
          "ns");
}

/** Job times, and the share of @p pass_s x workers they kept busy. */
void
setJobTimes(Run &r, const std::vector<double> &job_s, double pass_s)
{
    r.set("sim.job_s.p50", median(job_s), "s");
    r.set("sim.job_s.max", quantile(job_s, 1.0), "s");
    r.set("sim.pool_busy_frac",
          pass_s > 0 ? sum(job_s) / (pass_s * double(kWorkers)) : 0.0,
          "ratio");
}

// ------------------------------------------------------------------
// Per-layer probes: the traced run pushes this workload's own programs
// through each layer's public entry points, one span per call.

struct ProbeProgram
{
    std::string name;
    std::function<Program()> build;
};

void
probeIntegration(const Program &prog, u64 probes)
{
    // The program's static instruction stream, replayed cyclically, as
    // IT keys (operation tag + logical inputs standing in for physical
    // registers) and LISP load PCs.
    std::vector<ITKey> keys;
    std::vector<InstAddr> loadPcs;
    for (size_t pc = 0; pc < prog.code.size(); ++pc) {
        const Instruction &inst = prog.code[pc];
        ITKey k;
        k.op = inst.op;
        k.imm = inst.imm;
        k.pc = pc;
        k.hasIn1 = inst.ra != regZero;
        k.in1 = k.hasIn1 ? PhysReg(inst.ra) : invalidPhysReg;
        k.hasIn2 = inst.rb != regZero;
        k.in2 = k.hasIn2 ? PhysReg(inst.rb) : invalidPhysReg;
        keys.push_back(k);
        if (inst.isLoad())
            loadPcs.push_back(InstAddr(pc));
    }
    if (keys.empty())
        return;
    IntegrationTable it(integrationParams(IntegrationMode::Reverse).integ);
    volatile u64 sink = 0;
    {
        SpanScope s("core.it_insert");
        for (u64 i = 0; i < probes; ++i) {
            const ITKey &k = keys[i % keys.size()];
            it.insert(k, true, PhysReg(i % 1024), u8(i % 16), false, false,
                      i);
        }
        s.setCount(probes);
    }
    {
        SpanScope s("core.it_probe");
        u64 hits = 0;
        for (u64 i = 0; i < probes; ++i)
            hits += it.lookup(keys[i % keys.size()]) != nullptr;
        sink = sink + hits;
        s.setCount(probes);
    }
    if (loadPcs.empty())
        loadPcs.push_back(0);
    Lisp lisp(1024, 2);
    {
        SpanScope s("core.lisp_probe");
        u64 suppressed = 0;
        for (u64 i = 0; i < probes; ++i) {
            const InstAddr pc = loadPcs[i % loadPcs.size()];
            suppressed += lisp.suppress(pc);
            if (i % 61 == 0)
                lisp.trainMisintegration(pc);
        }
        sink = sink + suppressed;
        s.setCount(probes);
    }
}

/**
 * Run every layer probe over @p progs (runs capped at @p cap retired
 * instructions), journal @p results with timed appends, and derive the
 * generic per-layer metrics from the recorded spans.
 */
void
runLayerProbes(Run &r, const std::vector<ProbeProgram> &progs,
               const CoreParams &params, u64 cap,
               const std::vector<SimJobResult> &results)
{
    std::unique_ptr<Core> core;
    CoreParams checked = params;
    checked.check.lockstep = true;
    for (const ProbeProgram &pp : progs) {
        Program prog;
        {
            SpanScope s("workload.build");
            prog = pp.build();
        }
        {
            SpanScope s("isa.decode");
            DecodedProgram dp(prog);
            s.setCount(dp.size());
        }
        {
            SpanScope s("emu.run");
            Emulator emu(prog);
            s.setCount(emu.run(cap));
        }
        {
            SpanScope s("cpu.reset");
            if (!core)
                core = std::make_unique<Core>(prog, params);
            else
                core->reset(prog, params);
        }
        {
            SpanScope s("cpu.run");
            s.setCount(core->run(cap, cap * 100).retired);
        }
        core->reset(prog, checked);
        {
            SpanScope s("cpu.run.lockstep");
            s.setCount(core->run(cap, cap * 100).retired);
        }
        if (core->divergence())
            r.fail("lockstep divergence in probe of " + pp.name);
        probeIntegration(prog, 20000);
    }

    // Journal appends: this workload's own results into a fresh store.
    const std::string storePath = r.outDir + "/probe.rixstore";
    unlink(storePath.c_str());
    StoreMeta meta;
    meta.specName = "perfbench";
    meta.numJobs = 0;
    std::string err;
    std::unique_ptr<ResultStore> store =
        ResultStore::create(storePath, meta, &err);
    if (!store)
        throw std::runtime_error("probe store: " + err);
    for (size_t i = 0; i < results.size() && i < 256; ++i) {
        StoreRecord rec;
        rec.jobIndex = i;
        rec.configLabel = "probe";
        rec.result = results[i];
        SpanScope s("store.append");
        const std::string aerr = store->append(rec);
        if (!aerr.empty())
            r.fail("store append: " + aerr);
    }
    store.reset();
    unlink(storePath.c_str());

    const auto us = [](const std::vector<double> &d, double q) {
        return 1e6 * quantile(d, q);
    };
    r.set("workload.build_ms", 1e3 * median(gTracer.durations(
                                         "workload.build")), "ms");
    r.set("isa.decode_us", us(gTracer.durations("isa.decode"), 0.5), "us");
    r.set("cpu.reset_us", us(gTracer.durations("cpu.reset"), 0.5), "us");
    const auto emu = gTracer.totals("emu.run");
    r.set("emu.ff_kips", emu.first > 0 ? emu.second / 1000.0 / emu.first
                                       : 0.0, "kips");
    const auto off = gTracer.totals("cpu.run");
    const auto on = gTracer.totals("cpu.run.lockstep");
    r.set("cpu.lockstep_overhead_pct",
          off.first > 0 ? 100.0 * (on.first - off.first) / off.first : 0.0,
          "%");
    for (const char *name : {"core.it_probe", "core.it_insert",
                             "core.lisp_probe"}) {
        const auto t = gTracer.totals(name);
        r.set(std::string(name) + "_ns",
              t.second > 0 ? 1e9 * t.first / t.second : 0.0, "ns");
    }
    const std::vector<double> expand = gTracer.durations("sim.expand");
    if (!expand.empty())
        r.addDetail("sim.expand_ms", 1e3 * median(expand));
    const std::vector<double> app = gTracer.durations("store.append");
    r.set("store.append_us.p50", us(app, 0.5), "us");
    r.set("store.append_us.p99", us(app, 0.99), "us");
}

/** Trace overhead from alternating untraced/traced passes. */
void
setTraceOverhead(Run &r, const std::vector<double> &untraced,
                 const std::vector<double> &traced)
{
    const double u = median(untraced), t = median(traced);
    r.set("bench.trace_overhead_pct", u > 0 ? 100.0 * (t - u) / u : 0.0,
          "%");
}

CoreParams
paramsFromJson(const JsonValue &set)
{
    CoreParams p;
    for (const auto &[key, v] : set.members()) {
        const std::string err = applyCoreParamOverride(p, key, v);
        if (!err.empty())
            throw std::runtime_error("config: " + err);
    }
    return p;
}

/** cpu_s: the median pass in CPU seconds; the median pass in wall
 *  seconds goes on the detail line. */
void
setPassTime(Run &r, const std::vector<double> &pass_cpu_s,
            const std::vector<double> &pass_wall_s)
{
    r.set("cpu_s", median(pass_cpu_s), "s");
    r.addDetail("wall_s", median(pass_wall_s));
    r.addDetail("passes", double(pass_cpu_s.size()));
}

/** setup_s: the median of repeated set-ups, in CPU seconds. */
void
setSetup(Run &r, const std::vector<double> &setups)
{
    r.set("setup_s", median(setups), "s");
    r.addDetail("setup_samples", double(setups.size()));
}

/**
 * Wall-clock operation latency (milliseconds) for the detail line: the
 * median and 90th percentile of each group (a pass, or a closed-loop
 * serve batch), reported as the median over the groups.
 */
void
addOpLatency(Run &r, const std::vector<std::vector<double>> &groups)
{
    std::vector<double> p50, p90;
    double n = 0;
    for (const std::vector<double> &g : groups) {
        p50.push_back(median(g));
        p90.push_back(quantile(g, 0.90));
        n += double(g.size());
    }
    r.addDetail("op_p50_ms", 1000.0 * median(p50));
    r.addDetail("op_p90_ms", 1000.0 * median(p90));
    r.addDetail("op_samples", n);
    r.addDetail("op_groups", double(groups.size()));
}

// ------------------------------------------------------------------
// detailed_sweep: the fig4 scenario, journaled like `rix run --store`.

std::string
renderToString(const ScenarioSpec &spec, const ScenarioResults &res)
{
    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    renderScenario(spec, res, mem);
    fclose(mem);
    std::string s(buf, len);
    free(buf);
    return s;
}

/** ScenarioResults of a permuted-workload run, back in @p canon order. */
ScenarioResults
canonicalOrder(const ScenarioResults &res,
               const std::vector<std::string> &run_order,
               const std::vector<std::string> &canon)
{
    ScenarioResults out;
    out.numConfigs = res.numConfigs;
    for (const std::string &w : canon) {
        const size_t at = size_t(
            std::find(run_order.begin(), run_order.end(), w) -
            run_order.begin());
        for (size_t c = 0; c < res.numConfigs; ++c)
            out.jobs.push_back(res.jobs[at * res.numConfigs + c]);
    }
    return out;
}

void
workDetailedSweep(Run &r, const std::string &expected_dir)
{
    const JsonValue &in = member(r.in, "detailed_sweep");
    const std::string specText =
        readFile(member(in, "spec").asString());
    const ScenarioSpec canon = parseScenario(specText);
    std::vector<std::string> order;
    for (const JsonValue &v : member(in, "order").items())
        order.push_back(v.asString());
    std::vector<std::string> sortedOrder = order, sortedCanon =
                                                      canon.workloads;
    std::sort(sortedOrder.begin(), sortedOrder.end());
    std::sort(sortedCanon.begin(), sortedCanon.end());
    if (sortedOrder != sortedCanon)
        throw std::runtime_error("detailed_sweep: order is not a "
                                 "permutation of the spec's workloads");

    const std::string expectedRender =
        readFile(expected_dir + "/fig4.txt");
    const JsonValue expectedJobs = parseJson(
        readFile(expected_dir + "/fig4_jobs.json"), "fig4_jobs.json");

    // Set-up: build and decode every program, parse and expand the
    // spec. The last repetition fills the process-wide cache the sweep
    // uses.
    ScenarioSpec spec;
    std::vector<double> setups;
    for (int rep = 0; rep < 9; ++rep) {
        const double c0 = cpuS();
        spec = parseScenario(specText);
        spec.workloads = order;
        for (const std::string &w : spec.workloads) {
            if (rep < 8) {
                Program p;
                {
                    SpanScope s("workload.build");
                    p = buildWorkload(w, spec.scale);
                }
                SpanScope s("isa.decode");
                p.decoded();
            } else {
                SpanScope s("workload.build");
                globalProgramCache().get(w, spec.scale).decoded();
            }
        }
        {
            SpanScope s("sim.expand");
            expandScenarioJobs(spec);
        }
        setups.push_back(cpuS() - c0);
    }
    setSetup(r, setups);

    const FaultPolicy policy = FaultPolicy::fromEnv();
    std::vector<double> passS, passCpuS, tracedPassS, untracedPassS, jobS;
    std::vector<std::vector<double>> jobGroups;
    double retired = 0, cycles = 0;
    std::vector<SimReport> reports;
    std::vector<SimJobResult> firstResults;
    const double tStart = nowS();
    for (size_t pass = 0; r.more(tStart, pass, 3); ++pass) {
        // Traced runs alternate untraced and traced passes so the gap
        // between them is the tracing overhead.
        const bool traced = r.trace && pass % 2 == 1;
        gTracer.on = traced;
        const std::string storePath =
            r.outDir + "/sweep" + std::to_string(pass) + ".rixstore";
        unlink(storePath.c_str());
        std::string err;
        const double t0 = nowS();
        const double c0 = cpuS();
        ScenarioResults res;
        {
            SpanScope s("sim.sweep");
            std::unique_ptr<ResultStore> store = ResultStore::create(
                storePath, makeSweepMeta(specText, spec), &err);
            if (!store)
                throw std::runtime_error("sweep store: " + err);
            res = runScenario(spec, policy, store.get());
        }
        const double dc = cpuS() - c0;
        passS.push_back(nowS() - t0);
        passCpuS.push_back(dc);
        unlink(storePath.c_str());
        (traced ? tracedPassS : untracedPassS).push_back(dc);

        ScenarioResults canonRes = canonicalOrder(res, order,
                                                  canon.workloads);
        jobGroups.emplace_back();
        const std::vector<JsonValue> &exp = member(expectedJobs,
                                                   "jobs").items();
        for (size_t j = 0; j < canonRes.jobs.size(); ++j) {
            const SimJobResult &jr = canonRes.jobs[j];
            const u64 cyc = jr.report.core.cycles;
            const u64 ret = jr.report.core.retired;
            const bool match = j < exp.size() &&
                               memberU64(exp[j], "cycles") == cyc &&
                               memberU64(exp[j], "retired") == ret;
            r.check(jr.ok() && match,
                    "fig4 job " + std::to_string(j) + " (" +
                        jr.report.workload + ") status " +
                        jobStatusName(jr.status) + " cycles " +
                        std::to_string(cyc) + " retired " +
                        std::to_string(ret) + " differs from expected");
            if (pass == 0) {
                r.pairs.push_back({cyc, ret});
                reports.push_back(jr.report);
                firstResults.push_back(jr);
            }
            jobS.push_back(jr.wallSeconds);
            jobGroups.back().push_back(jr.wallSeconds);
            retired += double(ret);
            cycles += double(cyc);
        }
        if (canonRes.failures() == 0) {
            const std::string render = renderToString(canon, canonRes);
            r.check(render == expectedRender,
                    "fig4 render differs from expected/fig4.txt");
        } else {
            r.check(false, "fig4 render skipped: failed jobs");
        }
    }
    gTracer.on = r.trace;

    // Cross-check against the committed throughput file where config
    // and scale coincide: the reverse/real point at scale 4.
    {
        const std::string w = member(in, "crosscheck").asString();
        const JsonValue &exp = member(in, "crosscheck_expected");
        const int ci = canon.configIndex("reverse/real");
        if (ci < 0)
            throw std::runtime_error("fig4 has no reverse/real config");
        SimContext ctx;
        SimJob job;
        job.workload = w;
        job.scale = 4;
        job.params = canon.configs[size_t(ci)].params;
        const SimJobResult jr = runJobContained(ctx, job, policy);
        r.check(jr.ok() && jr.report.core.cycles ==
                               memberU64(exp, "cycles") &&
                    jr.report.core.retired == memberU64(exp, "retired"),
                "throughput cross-check of " + w + " at scale 4 gives "
                "cycles " + std::to_string(jr.report.core.cycles) +
                    " retired " + std::to_string(jr.report.core.retired));
    }

    if (!r.trace) {
        setPassTime(r, passCpuS, passS);
        addOpLatency(r, jobGroups);
        r.addDetail("jobs_per_pass", double(order.size() *
                                            canon.configs.size()));
        return;
    }
    setTraceOverhead(r, untracedPassS, tracedPassS);
    setCoreSpeed(r, retired, cycles, sum(jobS));
    setJobTimes(r, jobS, sum(passS));
    setSimulatedLayerMetrics(r, reports);
    std::vector<ProbeProgram> progs;
    for (const std::string &w : canon.workloads)
        progs.push_back({w, [w] { return buildWorkload(w, 1); }});
    runLayerProbes(r, progs, canon.configs.back().params, 50000,
                   firstResults);
    // KIPS split by config (base skips IT/LISP, reverse uses all of
    // it), and host ns per cycle on the two programs where idle-cycle
    // skipping should (low-IPC mcf) and should not (vpr.p) show.
    for (const char *prefix : {"base", "reverse/"}) {
        double ret = 0, wall = 0;
        for (size_t j = 0; j < firstResults.size(); ++j) {
            const std::string &label =
                canon.configs[j % canon.configs.size()].label;
            if (label.rfind(prefix, 0) == 0) {
                ret += double(firstResults[j].report.core.retired);
                wall += firstResults[j].wallSeconds;
            }
        }
        r.addDetail(std::string("cpu.kips.") +
                        (prefix[0] == 'b' ? "base" : "reverse"),
                    wall > 0 ? ret / 1000 / wall : 0);
    }
    for (const char *w : {"mcf", "vpr.p"}) {
        double wall = 0, cyc = 0;
        for (size_t j = 0; j < firstResults.size(); ++j)
            if (canon.workloads[j / canon.configs.size()] == w) {
                wall += firstResults[j].wallSeconds;
                cyc += double(firstResults[j].report.core.cycles);
            }
        r.addDetail(std::string("cpu.ns_per_cycle.") + w,
                    cyc > 0 ? 1e9 * wall / cyc : 0);
    }
}

// ------------------------------------------------------------------
// sampled_sweep: every workload under a periodic cold-start plan, with
// checkpoints built fresh each pass.

struct SampledPoint
{
    std::string workload;
    u64 total = 0;
    SamplingPlan plan;
};

SamplingPlan
sampledPlan(u64 total, double phase, u64 intervals, double coverage)
{
    const u64 period = std::max<u64>(1, total / intervals);
    const u64 measure = std::max<u64>(
        100, u64(coverage * double(total) / double(intervals)));
    SamplingPlan plan;
    for (u64 k = 0; k < intervals; ++k) {
        SamplingInterval iv;
        iv.checkpointAt = u64((double(k) + phase) * double(period));
        iv.warmup = 0;
        iv.measure = measure;
        if (iv.checkpointAt + measure <= total)
            plan.intervals.push_back(iv);
    }
    return plan;
}

/**
 * One pass: fast-forward/checkpoint each workload ascending, then every
 * interval job.
 */
std::vector<SimJobResult>
sampledPass(const std::vector<SampledPoint> &points, u64 scale,
            const CoreParams &params, std::vector<double> *ckpt_build_s)
{
    CheckpointCache cache;
    std::vector<SimJob> jobs;
    for (const SampledPoint &pt : points) {
        SimJob base;
        base.workload = pt.workload;
        base.scale = scale;
        base.params = params;
        for (const SimJob &j : expandPlan(base, pt.plan))
            jobs.push_back(j);
    }
    for (const SampledPoint &pt : points) {
        for (const SamplingInterval &iv : pt.plan.intervals) {
            const double t0 = nowS();
            {
                SpanScope s("sampling.ckpt_build");
                cache.get(pt.workload, scale, iv.checkpointAt);
            }
            ckpt_build_s->push_back(nowS() - t0);
        }
    }
    std::vector<SimJobResult> results(jobs.size());
    SimContext ctx;
    const FaultPolicy policy;
    auto inputs = [&](const SimJob &j) {
        PinnedJobInputs p;
        const Program &prog = globalProgramCache().get(j.workload, j.scale);
        p.prog = std::shared_ptr<const Program>(
            std::shared_ptr<const Program>(), &prog);
        const Checkpoint &c = cache.get(j.workload, j.scale, j.checkpointAt);
        p.from = std::shared_ptr<const Checkpoint>(
            std::shared_ptr<const Checkpoint>(), &c);
        return p;
    };
    for (size_t i = 0; i < jobs.size(); ++i) {
        SpanScope s("sim.interval");
        results[i] = runJobContained(ctx, jobs[i], policy, inputs);
        s.setCount(results[i].report.core.retired);
    }
    return results;
}

void
workSampledSweep(Run &r, const std::string &expected_dir)
{
    const JsonValue &in = member(r.in, "sampled_sweep");
    const u64 scale = memberU64(in, "scale");
    const CoreParams params = paramsFromJson(member(in, "config"));
    const u64 intervals = memberU64(in, "intervals");
    const double coverage = member(in, "coverage").asNumber();
    const JsonValue &phases = member(in, "phases");
    const JsonValue full = parseJson(
        readFile(expected_dir + "/sampled_full.json"), "sampled_full.json");
    if (memberU64(full, "scale") != scale)
        throw std::runtime_error("sampled_full.json scale differs");
    const JsonValue &fullRuns = member(full, "runs");
    const u64 cap = 20'000'000;

    // Set-up: build and decode every program and count its
    // instructions functionally (the plans are sized from the counts).
    std::vector<SampledPoint> points;
    std::vector<double> setups;
    for (int rep = 0; rep < 5; ++rep) {
        points.clear();
        const double c0 = cpuS();
        for (const auto &[w, phase] : phases.members()) {
            Program fresh;
            const Program *prog = &fresh;
            {
                SpanScope s("workload.build");
                if (rep < 4)
                    fresh = buildWorkload(w, scale);
                else
                    prog = &globalProgramCache().get(w, scale);
            }
            {
                SpanScope s("isa.decode");
                prog->decoded();
            }
            SampledPoint pt;
            pt.workload = w;
            {
                SpanScope s("emu.run");
                Emulator emu(*prog);
                pt.total = emu.run(cap);
                s.setCount(pt.total);
            }
            pt.plan = sampledPlan(pt.total, phase.asNumber(), intervals,
                                  coverage);
            points.push_back(pt);
        }
        setups.push_back(cpuS() - c0);
    }
    setSetup(r, setups);

    std::vector<double> passS, passCpuS, tracedS, untracedS, jobS, ckptS;
    std::vector<std::vector<double>> jobGroups;
    std::vector<SimReport> merged;
    std::vector<double> ipcErr, l1dErr, mpErr, integErr;
    double retired = 0, cycles = 0;
    std::vector<SimJobResult> firstResults;
    const double tStart = nowS();
    for (size_t pass = 0; r.more(tStart, pass, 3); ++pass) {
        const bool traced = r.trace && pass % 2 == 1;
        gTracer.on = traced;
        const double t0 = nowS();
        const double c0 = cpuS();
        std::vector<SimJobResult> res;
        {
            SpanScope s("sim.sampled_sweep");
            res = sampledPass(points, scale, params, &ckptS);
        }
        const double dc = cpuS() - c0;
        passS.push_back(nowS() - t0);
        passCpuS.push_back(dc);
        (traced ? tracedS : untracedS).push_back(dc);

        size_t at = 0;
        jobGroups.emplace_back();
        for (const SampledPoint &pt : points) {
            const SimJobResult *first = &res[at];
            for (size_t i = 0; i < pt.plan.intervals.size(); ++i, ++at) {
                const SimJobResult &jr = res[at];
                const u64 want = pt.plan.intervals[i].measure;
                r.check(jr.ok() && jr.report.core.retired == want,
                        pt.workload + " interval " + std::to_string(i) +
                            " retired " +
                            std::to_string(jr.report.core.retired) +
                            " of planned " + std::to_string(want));
                jobS.push_back(jr.wallSeconds);
                jobGroups.back().push_back(jr.wallSeconds);
                retired += double(jr.report.core.retired);
                cycles += double(jr.report.core.cycles);
                if (pass == 0) {
                    r.pairs.push_back({jr.report.core.cycles,
                                       jr.report.core.retired});
                    firstResults.push_back(jr);
                }
            }
            if (pass != 0)
                continue;
            SimJobResult m;
            const SampledSummary sum = mergeIntervals(
                pt.plan, first, pt.total, &m);
            const JsonValue *ref = fullRuns.find(pt.workload);
            if (!ref)
                throw std::runtime_error("no full-run reference for " +
                                         pt.workload);
            const double fr = double(memberU64(*ref, "retired"));
            const double fullIpc = fr / double(memberU64(*ref, "cycles"));
            const auto relErr = [](double s, double f) {
                return f != 0 ? 100.0 * std::fabs(s - f) / f : 0.0;
            };
            const double sr = double(m.report.core.retired);
            ipcErr.push_back(relErr(sum.ipc(), fullIpc));
            l1dErr.push_back(relErr(
                1000.0 * double(m.report.l1dMisses) / sr,
                1000.0 * double(memberU64(*ref, "l1d_misses")) / fr));
            mpErr.push_back(relErr(
                1000.0 * double(m.report.core.branchMispredicts) / sr,
                1000.0 * double(memberU64(*ref, "mispredicts")) / fr));
            integErr.push_back(relErr(
                double(m.report.core.integratedDirect +
                       m.report.core.integratedReverse) / sr,
                double(memberU64(*ref, "integrated")) / fr));
            merged.push_back(m.report);
        }
    }
    gTracer.on = r.trace;

    // The full-run reference of one seed-chosen workload must still
    // reproduce its committed value.
    {
        const std::string w = member(in, "verify_full").asString();
        const JsonValue *ref = fullRuns.find(w);
        SimContext ctx;
        SimJob job;
        job.workload = w;
        job.scale = scale;
        job.params = params;
        const SimJobResult jr = runJobContained(ctx, job, FaultPolicy());
        r.check(ref && jr.ok() &&
                    jr.report.core.cycles == memberU64(*ref, "cycles") &&
                    jr.report.core.retired == memberU64(*ref, "retired"),
                "full-run reference of " + w + " differs: cycles " +
                    std::to_string(jr.report.core.cycles));
    }

    const auto mean = [](const std::vector<double> &v) {
        return v.empty() ? 0.0 : sum(v) / double(v.size());
    };
    r.addDetail("sampled_ipc_err_pct", mean(ipcErr));
    r.addDetail("sampling.l1d_mpki_err_pct", mean(l1dErr));
    r.addDetail("sampling.bpred_mpki_err_pct", mean(mpErr));
    r.addDetail("sampling.integration_rate_err_pct", mean(integErr));
    if (!r.trace) {
        setPassTime(r, passCpuS, passS);
        addOpLatency(r, jobGroups);
        r.addDetail("intervals_per_pass", double(firstResults.size()));
        return;
    }
    setTraceOverhead(r, untracedS, tracedS);
    setCoreSpeed(r, retired, cycles, sum(jobS));
    setJobTimes(r, jobS, sum(passS));
    setSimulatedLayerMetrics(r, merged);
    r.addDetail("sampling.ckpt_build_ms", 1e3 * median(ckptS));

    // Checkpoint restores into the core, and checkpoint footprint.
    {
        CheckpointCache cache;
        Core *core = nullptr;
        std::unique_ptr<Core> owned;
        double bytes = 0;
        for (const SampledPoint &pt : points) {
            const Program &prog = globalProgramCache().get(pt.workload,
                                                           scale);
            for (const SamplingInterval &iv : pt.plan.intervals) {
                const Checkpoint &c =
                    cache.get(pt.workload, scale, iv.checkpointAt);
                bytes += double(c.memoryBytes());
                SpanScope s("sampling.ckpt_restore");
                if (!core) {
                    owned = std::make_unique<Core>(prog, params);
                    core = owned.get();
                }
                core->reset(prog, params, c);
            }
        }
        r.addDetail("sampling.ckpt_restore_ms",
                    1e3 * median(gTracer.durations(
                              "sampling.ckpt_restore")));
        r.addDetail("sampling.ckpt_bytes", bytes);
    }
    std::vector<ProbeProgram> progs;
    for (const SampledPoint &pt : points) {
        const std::string w = pt.workload;
        progs.push_back({w, [w, scale] { return buildWorkload(w, scale); }});
    }
    runLayerProbes(r, progs, params, 50000, firstResults);
}

// ------------------------------------------------------------------
// fuzz_campaign: a guided runFuzz with a fixed first seed and budget.

/** Per-run host time, from the gaps between the campaign's per-run
 *  hook calls on each worker thread. */
struct RunClock
{
    std::mutex mu;
    std::map<u64, std::vector<double>> runS; // by campaign generation
    std::atomic<u64> generation{0};
};

RunClock gRunClock;
thread_local double tLastRun = -1;
thread_local u64 tGeneration = ~u64(0);

std::string
fuzzHook(const Program &, u64, const std::string &)
{
    const double t = nowS();
    const u64 gen = gRunClock.generation;
    if (tGeneration == gen && tLastRun >= 0) {
        std::lock_guard<std::mutex> g(gRunClock.mu);
        gRunClock.runS[gen].push_back(t - tLastRun);
    }
    tGeneration = gen;
    tLastRun = t;
    return "";
}

std::string
freshDir(const std::string &path)
{
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

void
workFuzzCampaign(Run &r)
{
    const JsonValue &in = member(r.in, "fuzz_campaign");
    FuzzOptions base;
    base.firstSeed = memberU64(in, "first_seed");
    base.seeds = memberU64(in, "seeds");
    base.guided = true;
    base.reproPath = r.outDir + "/fuzz_repro.txt";
    base.testFailure = fuzzHook;

    // Set-up: panel expansion, a fresh corpus directory, the first
    // generation's programs generated and decoded, and a core built for
    // every panel point.
    std::vector<double> setups;
    for (int rep = 0; rep < 31; ++rep) {
        const double c0 = cpuS();
        std::vector<ScenarioConfig> panel;
        {
            SpanScope s("sim.expand");
            panel = fuzzPanel("", "");
        }
        freshDir(r.outDir + "/corpus_setup");
        Program first;
        for (u64 i = 0; i < base.seeds; ++i) {
            Program p;
            {
                SpanScope s("workload.build");
                p = generateRandomProgram(base.firstSeed + i);
            }
            SpanScope s("isa.decode");
            p.decoded();
            if (i == 0)
                first = std::move(p);
        }
        for (const ScenarioConfig &pt : panel) {
            SpanScope s("cpu.construct");
            Core core(first, pt.params);
        }
        setups.push_back(cpuS() - c0);
    }
    setSetup(r, setups);

    std::vector<double> passS, passCpuS, tracedS, untracedS;
    u64 runs = 0, signature = 0;
    size_t bits = 0;
    const double tStart = nowS();
    for (size_t pass = 0; r.more(tStart, pass, 3); ++pass) {
        const bool traced = r.trace && pass % 2 == 1;
        gTracer.on = traced;
        FuzzOptions o = base;
        o.corpusDir = freshDir(r.outDir + "/corpus");
        ++gRunClock.generation;
        const double t0 = nowS();
        const double c0 = cpuS();
        FuzzResult res;
        {
            SpanScope s("fuzz.campaign");
            res = runFuzz(o);
            s.setCount(res.runs);
        }
        const double dc = cpuS() - c0;
        passS.push_back(nowS() - t0);
        passCpuS.push_back(dc);
        (traced ? tracedS : untracedS).push_back(dc);
        runs = res.runs;
        r.attempted += res.runs;
        if (res.failures) {
            r.failed += res.failures;
            r.failures.push_back("fuzz pass " + std::to_string(pass) +
                                 ": " + std::to_string(res.failures) +
                                 " failing runs");
        }
        if (res.truncated)
            r.fail(std::to_string(res.truncated) + " truncated runs");
        const u64 sig = res.coverage.signature();
        if (pass == 0) {
            signature = sig;
            bits = res.coverage.popcount();
            r.pairs.push_back({sig, res.runs});
        } else {
            r.check(sig == signature,
                    "coverage signature differs between passes");
        }
    }
    gTracer.on = r.trace;
    std::vector<std::vector<double>> runGroups;
    std::vector<double> runS;
    {
        std::lock_guard<std::mutex> g(gRunClock.mu);
        for (const auto &[gen, v] : gRunClock.runS) {
            runGroups.push_back(v);
            runS.insert(runS.end(), v.begin(), v.end());
        }
    }
    r.addDetail("fuzz_coverage_bits", double(bits));
    r.addDetail("fuzz_runs_per_pass", double(runs));
    if (!r.trace) {
        const double cpu = median(passCpuS);
        setPassTime(r, passCpuS, passS);
        addOpLatency(r, runGroups);
        r.addDetail("fuzz_runs_per_s", cpu > 0 ? double(runs) / cpu : 0);
        return;
    }
    setTraceOverhead(r, untracedS, tracedS);
    r.addDetail("fuzz.run_ms.p50", 1e3 * median(runS));
    r.addDetail("fuzz.run_ms.p99", 1e3 * quantile(runS, 0.99));

    // Probes over a sample of the campaign's own programs on the first
    // integrating panel point: core speed and the simulated statistics,
    // and the coverage observer's cost (the same run with the map
    // attached versus detached).
    const std::vector<ScenarioConfig> panel = fuzzPanel("", "");
    CoreParams params = panel.front().params;
    for (const ScenarioConfig &pt : panel)
        if (pt.params.integ.mode != IntegrationMode::Off) {
            params = pt.params;
            break;
        }
    params.check.lockstep = false;
    std::vector<ProbeProgram> progs;
    for (u64 i = 0; i < memberU64(in, "probe_programs"); ++i) {
        const u64 seed = memberU64(in, "probe_first_seed") + i;
        progs.push_back({"seed " + std::to_string(seed),
                         [seed] { return generateRandomProgram(seed); }});
    }
    std::vector<SimReport> reps;
    std::vector<SimJobResult> results;
    double retired = 0, cycles = 0, plainS = 0, observedS = 0;
    std::unique_ptr<Core> core;
    for (const ProbeProgram &pp : progs) {
        const Program prog = pp.build();
        if (!core)
            core = std::make_unique<Core>(prog, params);
        core->reset(prog, params);
        double t0 = nowS();
        core->run(base.maxRetired, base.maxCycles);
        plainS += nowS() - t0;
        SimJobResult jr;
        jr.report = collectReport(*core, pp.name);
        jr.wallSeconds = nowS() - t0;
        retired += double(jr.report.core.retired);
        cycles += double(jr.report.core.cycles);
        reps.push_back(jr.report);
        results.push_back(jr);

        CoverageMap map;
        core->reset(prog, params);
        core->setCoverage(&map);
        t0 = nowS();
        core->run(base.maxRetired, base.maxCycles);
        observedS += nowS() - t0;
        core->setCoverage(nullptr);
    }
    r.addDetail("trace.observer_overhead_pct",
                plainS > 0 ? 100.0 * (observedS - plainS) / plainS : 0);
    setCoreSpeed(r, retired, cycles, plainS);
    setJobTimes(r, runS, sum(passS));
    setSimulatedLayerMetrics(r, reps);
    runLayerProbes(r, progs, params, base.maxRetired, results);
}


// ------------------------------------------------------------------
// serve_storm: a `rix serve` daemon on a Unix socket driven from this
// process (a closed loop against the idle daemon, open loop at fixed
// rates, and a rate step-up).

/** One client connection speaking the daemon's line protocol. Unlike
 *  ServeClient, receives take a deadline, so a lost response cannot
 *  hang the benchmark. */
class Conn
{
  public:
    Conn() = default;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    open(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            return false;
        memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        return fd >= 0 &&
               ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) == 0;
    }

    bool
    send(const std::string &line)
    {
        const std::string data = line + "\n";
        size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += size_t(n);
        }
        return true;
    }

    /** One response line, waiting until @p deadline (nowS() clock). */
    bool
    recv(std::string *line, double deadline)
    {
        for (;;) {
            const size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                *line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return true;
            }
            const double left = deadline - nowS();
            if (left <= 0)
                return false;
            pollfd p{fd, POLLIN, 0};
            const int rc = ::poll(&p, 1, int(left * 1000) + 1);
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0)
                return false;
            char chunk[4096];
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                return false;
            buf.append(chunk, size_t(n));
        }
    }

  private:
    int fd = -1;
    std::string buf;
};

/** Send one inline op and return its response ("" on failure). */
std::string
inlineOp(const std::string &socket, const std::string &op)
{
    Conn c;
    std::string line;
    if (!c.open(socket) || !c.send("{\"op\": \"" + op + "\"}") ||
        !c.recv(&line, nowS() + 10))
        return "";
    return line;
}

/** A running `rix serve` child. Killed and reaped on destruction if
 *  stopDaemon() did not stop it, so an exception on the way cannot
 *  leave it running. */
struct Daemon
{
    pid_t pid = -1;
    std::string socket;
    rusage usage{};

    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    Daemon(Daemon &&o) noexcept
        : pid(o.pid), socket(std::move(o.socket)), usage(o.usage)
    {
        o.pid = -1;
    }
    ~Daemon()
    {
        if (pid >= 0) {
            kill(pid, SIGKILL);
            waitpid(pid, nullptr, 0);
        }
    }
};

/** Start `rix serve` on @p socket; with a non-empty @p store_dir it
 *  journals every completed job there (RIX_STORE_DIR). */
Daemon
startDaemon(const std::string &rix, const std::string &socket,
            const std::string &store_dir, unsigned workers, u64 queue,
            u64 cache_bytes)
{
    Daemon d;
    d.socket = socket;
    unlink(socket.c_str());
    // Everything the child needs is built before fork(): between fork
    // and exec it may only make async-signal-safe calls.
    const std::vector<std::string> args = {
        rix, "serve", socket, "--jobs", std::to_string(workers),
        "--queue", std::to_string(queue), "--cache-bytes",
        std::to_string(cache_bytes)};
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e)
        if (strncmp(*e, "RIX_", 4) != 0)
            env.push_back(*e);
    if (!store_dir.empty()) {
        freshDir(store_dir);
        env.push_back("RIX_STORE_DIR=" + store_dir);
    }
    std::vector<char *> argv, envp;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    for (const std::string &e : env)
        envp.push_back(const_cast<char *>(e.c_str()));
    argv.push_back(nullptr);
    envp.push_back(nullptr);
    const pid_t parent = getpid();
    d.pid = fork();
    if (d.pid < 0)
        throw std::runtime_error("fork failed");
    if (d.pid == 0) {
        // The daemon dies with this process, even when it is killed.
        if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent)
            _exit(127);
        execve(argv[0], argv.data(), envp.data());
        _exit(127);
    }
    for (int i = 0; i < 5000; ++i) {
        if (inlineOp(socket, "ping").find("\"ok\"") != std::string::npos)
            return d;
        usleep(1000);
    }
    throw std::runtime_error("rix serve did not answer on " + socket);
}

/** Graceful shutdown via the protocol; collects the daemon's rusage. */
void
stopDaemon(Daemon &d)
{
    inlineOp(d.socket, "shutdown");
    int status = 0;
    const double t0 = nowS();
    while (wait4(d.pid, &status, WNOHANG, &d.usage) == 0) {
        if (nowS() - t0 > 30) {
            kill(d.pid, SIGKILL);
            wait4(d.pid, &status, 0, &d.usage);
            break;
        }
        usleep(1000);
    }
    d.pid = -1;
}

struct Request
{
    std::string workload;
    std::string config;
    u64 checkpointAt = 0;
    u64 warmup = 0;
    u64 measure = 0;
    u64 expectedRetired = 0;
};

/** One request's life: due (schedule), sent, answered (-1: never). */
struct Outcome
{
    size_t kind = 0;
    double due = 0, sent = 0, done = -1;
    std::string line;
};

const std::map<std::string, std::string> &
serveConfigs()
{
    static const std::map<std::string, std::string> m = {
        {"base", "{\"integ.mode\": \"off\"}"},
        {"general", "{\"integ.mode\": \"general\", \"integ.lisp\": "
                    "\"realistic\"}"},
        {"reverse", "{\"integ.mode\": \"reverse\", \"integ.lisp\": "
                    "\"realistic\"}"},
    };
    return m;
}

std::string
requestLine(const Request &q, u64 scale, u64 id)
{
    return "{\"op\": \"run\", \"id\": " + std::to_string(id) +
           ", \"workload\": \"" + q.workload +
           "\", \"scale\": " + std::to_string(scale) +
           ", \"config\": " + serveConfigs().at(q.config) +
           ", \"checkpoint_at\": " + std::to_string(q.checkpointAt) +
           ", \"warmup\": " + std::to_string(q.warmup) +
           ", \"max_retired\": " + std::to_string(q.measure) + "}";
}

u64
responseId(const std::string &line)
{
    const size_t at = line.find("\"id\": ");
    return at == std::string::npos
               ? ~u64(0)
               : strtoull(line.c_str() + at + 6, nullptr, 10);
}

bool
responseOk(const std::string &line)
{
    return line.find("\"status\": \"ok\"") != std::string::npos;
}

/**
 * Open loop: request i is due at sched[i].first seconds after the
 * phase starts and is sent then, whatever has completed, over one
 * connection with its own receiver thread. Ids are id_base + i.
 */
std::vector<Outcome>
openLoop(const std::string &socket,
         const std::vector<std::pair<double, size_t>> &sched,
         const std::vector<Request> &kinds, u64 scale, u64 id_base)
{
    std::vector<Outcome> out(sched.size());
    std::vector<std::string> lines;
    for (size_t i = 0; i < sched.size(); ++i) {
        out[i].kind = sched[i].second;
        lines.push_back(requestLine(kinds[sched[i].second], scale,
                                    id_base + i));
    }
    Conn c;
    if (!c.open(socket))
        throw std::runtime_error("cannot connect to " + socket);
    const double t0 = nowS() + 0.01;
    const double deadline =
        t0 + (sched.empty() ? 0 : sched.back().first) + 30.0;
    std::thread rx([&] {
        std::string line;
        for (size_t n = 0; n < sched.size() && c.recv(&line, deadline);
             ++n) {
            const double t = nowS();
            const u64 id = responseId(line);
            if (id >= id_base && id - id_base < out.size()) {
                out[id - id_base].done = t;
                out[id - id_base].line = line;
            }
        }
    });
    for (size_t i = 0; i < sched.size(); ++i) {
        const double due = t0 + sched[i].first;
        const double now = nowS();
        if (now < due)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(due - now));
        out[i].due = due;
        out[i].sent = nowS();
        c.send(lines[i]);
    }
    rx.join();
    return out;
}

/** Closed loop: one client sending its next request only after the
 *  previous answer; due == sent. */
std::vector<Outcome>
closedLoop(const std::string &socket, const std::vector<size_t> &batch,
           const std::vector<Request> &kinds, u64 scale, u64 id_base)
{
    std::vector<Outcome> out(batch.size());
    Conn c;
    if (!c.open(socket))
        return out;
    for (size_t i = 0; i < batch.size(); ++i) {
        Outcome &o = out[i];
        o.kind = batch[i];
        o.due = o.sent = nowS();
        if (!c.send(requestLine(kinds[batch[i]], scale, id_base + i)) ||
            !c.recv(&o.line, nowS() + 30))
            break;
        o.done = nowS();
    }
    return out;
}

/** Latency (from due) of each answered outcome; unanswered: +inf. */
std::vector<double>
latencies(const std::vector<Outcome> &os)
{
    std::vector<double> v;
    for (const Outcome &o : os)
        v.push_back(o.done >= 0 ? o.done - o.due : 1e9);
    return v;
}

double
numberField(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

void
workServeStorm(Run &r, const std::string &rix)
{
    const JsonValue &in = member(r.in, "serve_storm");
    const u64 scale = memberU64(in, "scale");
    const u64 queue = memberU64(in, "queue");
    const u64 cacheBytes = memberU64(in, "cache_bytes");
    const double p99LimitS = member(in, "p99_limit_ms").asNumber() / 1e3;
    const std::string socket = ".bench_out/serve-" +
                               std::to_string(getpid()) + ".sock";

    // Request kinds: checkpoint positions are fractions of each
    // program's own instruction count; the expected retired count is a
    // direct run of the same job.
    std::vector<Request> kinds;
    std::map<std::string, u64> totals;
    for (const JsonValue &k : member(in, "kinds").items()) {
        Request q;
        q.workload = member(k, "workload").asString();
        q.config = member(k, "config").asString();
        if (!totals.count(q.workload)) {
            const Program &p = globalProgramCache().get(q.workload, scale);
            Emulator emu(p);
            totals[q.workload] = emu.run(20'000'000);
        }
        q.checkpointAt =
            u64(member(k, "ckpt_frac").asNumber() *
                double(totals[q.workload]) / 1000.0) * 1000;
        q.warmup = memberU64(k, "warmup");
        q.measure = memberU64(k, "measure");
        kinds.push_back(q);
    }
    std::vector<SimJobResult> direct(kinds.size());
    {
        SimContext ctx;
        for (size_t i = 0; i < kinds.size(); ++i) {
            // The daemon's own parser builds the job, so the direct run
            // is exactly the job the daemon runs.
            ServeRequest req;
            const std::string err =
                parseServeRequest(requestLine(kinds[i], scale, i), &req);
            if (!err.empty()) {
                direct[i].status = JobStatus::Invalid;
                direct[i].error = err;
                continue;
            }
            direct[i] = runJobContained(ctx, req.job, FaultPolicy());
        }
    }
    for (size_t i = 0; i < kinds.size(); ++i) {
        kinds[i].expectedRetired = direct[i].report.core.retired;
        r.check(direct[i].ok(), "direct run of request kind " +
                                    std::to_string(i) + " failed: " +
                                    direct[i].error);
    }

    // Set-up: daemon start until it answers ping and has served one
    // request for each workload of the mix (cold program and checkpoint
    // caches), then drain.
    std::vector<size_t> warm;
    {
        std::map<std::string, size_t> first;
        for (size_t i = 0; i < kinds.size(); ++i)
            first.emplace(kinds[i].workload, i);
        for (const auto &[w, i] : first)
            warm.push_back(i);
    }
    // Timed in CPU seconds of this process and the daemon together.
    std::vector<double> setups;
    for (int rep = 0; rep < 9; ++rep) {
        const double c0 = cpuS();
        Daemon d = startDaemon(rix, socket, "", kWorkers, queue,
                               cacheBytes);
        for (const Outcome &o :
             closedLoop(d.socket, warm, kinds, scale, 0))
            r.check(responseOk(o.line), "set-up request failed: " + o.line);
        setups.push_back(cpuS() - c0 + processCpuS(d.pid));
        stopDaemon(d);
    }
    setSetup(r, setups);

    // The measured daemon does not journal: an fsync per completion on
    // a shared disk made the closed-loop time vary by more than the
    // benchmark's bound from run to run. The traced run measures the
    // journal's cost separately (serve.journal_overhead_pct).
    Daemon d = startDaemon(rix, socket, "", kWorkers, queue, cacheBytes);
    u64 idBase = 1;
    std::string dump;
    std::vector<double> closedJobS;
    double jobRetired = 0, jobCycles = 0;
    auto record = [&](const std::string &phase,
                      const std::vector<Outcome> &os, bool checked) {
        for (size_t i = 0; i < os.size(); ++i) {
            const Outcome &o = os[i];
            dump += dump.empty() ? "" : ",\n";
            dump += "{\"phase\": \"" + phase + "\", \"checked\": " +
                    (checked ? "true" : "false") +
                    ", \"id\": " + std::to_string(idBase + i) +
                    ", \"expected_retired\": " +
                    std::to_string(kinds[o.kind].expectedRetired) +
                    ", \"response\": \"" + jsonEscape(o.line) + "\"}";
            if (!checked || !responseOk(o.line))
                continue;
            const JsonValue resp = parseJson(o.line, "response");
            r.pairs.push_back({u64(numberField(resp, "cycles")),
                               u64(numberField(resp, "retired"))});
            if (phase == "closed") {
                // The daemon's own job time (admission to completion).
                closedJobS.push_back(numberField(resp, "wall_s"));
                jobRetired += numberField(resp, "retired");
                jobCycles += numberField(resp, "cycles");
            }
        }
        idBase += os.size();
    };
    auto schedule = [&](const JsonValue &phase) {
        std::vector<std::pair<double, size_t>> s;
        for (const JsonValue &a : member(phase, "arrivals").items())
            s.push_back({a.items()[0].asNumber(),
                         size_t(a.items()[1].asNumber())});
        return s;
    };
    std::vector<size_t> batch;
    for (const JsonValue &v : member(in, "closed").items())
        batch.push_back(size_t(v.asNumber()));

    // Closed loop against the idle daemon: capacity and service time,
    // timed by the CPU seconds the daemon spends on the batch. One
    // untimed batch first brings the caches to the state every timed
    // batch then starts from. Traced runs alternate untraced and traced
    // batches.
    record("closed_warmup",
           closedLoop(d.socket, batch, kinds, scale, idBase), true);
    std::vector<double> closedS, closedCpuS, tracedS, untracedS;
    std::vector<std::vector<double>> serviceGroups;
    for (int rep = 0; rep < 5 + (r.trace ? 1 : 0); ++rep) {
        const bool traced = r.trace && rep % 2 == 1;
        gTracer.on = traced;
        const double t0 = nowS();
        const double c0 = processCpuS(d.pid);
        std::vector<Outcome> os;
        {
            SpanScope s("serve.closed_batch");
            os = closedLoop(d.socket, batch, kinds, scale, idBase);
        }
        const double dc = processCpuS(d.pid) - c0;
        closedS.push_back(nowS() - t0);
        closedCpuS.push_back(dc);
        (traced ? tracedS : untracedS).push_back(dc);
        serviceGroups.push_back(latencies(os));
        record("closed", os, true);
    }
    gTracer.on = r.trace;

    // Open loop at the two fixed rates.
    std::map<std::string, std::vector<double>> lat;
    std::vector<double> late;
    for (const JsonValue &phase : member(in, "fixed").items()) {
        const std::string name = member(phase, "name").asString();
        const std::vector<Outcome> os =
            openLoop(d.socket, schedule(phase), kinds, scale, idBase);
        lat[name] = latencies(os);
        for (size_t i = 0; i < os.size(); ++i) {
            late.push_back(os[i].sent - os[i].due);
            if (r.trace && os[i].done >= 0) {
                Span s;
                s.name = "serve.request";
                s.id = gTracer.newId();
                s.request = idBase + i;
                s.t0 = os[i].due;
                s.t1 = os[i].done;
                s.count = kinds[os[i].kind].measure;
                gTracer.record(s);
            }
        }
        record(name, os, true);
    }

    // Rate step-up: the highest step whose p99 (from due) stays under
    // the limit with no refused or failed request and no growing
    // backlog. Refusals here are the probe's signal, not failures.
    double maxRps = 0;
    for (const JsonValue &phase : member(in, "steps").items()) {
        const double rate = member(phase, "rate").asNumber();
        const std::vector<Outcome> os =
            openLoop(d.socket, schedule(phase), kinds, scale, idBase);
        bool allOk = true;
        for (const Outcome &o : os)
            allOk = allOk && responseOk(o.line);
        const std::vector<double> l = latencies(os);
        const size_t q = l.size() / 4;
        const std::vector<double> head(l.begin(), l.begin() + q);
        const std::vector<double> tail(l.end() - q, l.end());
        const bool steady = median(tail) <= 2 * median(head) + 0.005;
        record("step", os, false);
        if (!allOk || quantile(l, 0.99) > p99LimitS || !steady)
            break;
        maxRps = rate;
    }

    // The daemon's own view: stats op, then drain and collect rusage.
    double statsS = 0;
    JsonValue stats;
    {
        const double t0 = nowS();
        SpanScope s("serve.stats");
        const std::string line = inlineOp(d.socket, "stats");
        statsS = nowS() - t0;
        stats = parseJson(line.empty() ? "{}" : line, "stats");
    }
    stopDaemon(d);
    unlink(socket.c_str());

    if (r.trace) {
        // The journal's cost: the same closed-loop batch against a
        // daemon that journals (and fsyncs) every completion.
        Daemon j = startDaemon(rix, socket, r.outDir + "/serve_store",
                               kWorkers, queue, cacheBytes);
        std::vector<double> journaledS;
        for (int rep = 0; rep < 3; ++rep) {
            const double t0 = nowS();
            std::vector<Outcome> os;
            {
                SpanScope s("serve.closed_batch.journaled");
                os = closedLoop(j.socket, batch, kinds, scale,
                                idBase);
            }
            journaledS.push_back(nowS() - t0);
            record("journaled", os, true);
        }
        const std::string line = inlineOp(j.socket, "stats");
        stopDaemon(j);
        unlink(socket.c_str());
        const double base = median(closedS);
        r.addDetail("serve.journal_overhead_pct",
                    base > 0 ? 100.0 * (median(journaledS) - base) / base
                             : 0.0);
        r.addDetail("serve.journaled",
                    numberField(parseJson(line.empty() ? "{}" : line,
                                          "stats"),
                                "journaled"));
    }
    r.extraJson += ", \"serve_responses\": [\n" + dump + "\n]";
    r.extraJson += ", \"daemon_maxrss_kb\": " +
                   std::to_string(d.usage.ru_maxrss);

    const auto hitRate = [&](const char *hits, const char *misses) {
        const double h = numberField(stats, hits);
        const double m = numberField(stats, misses);
        return h + m > 0 ? h / (h + m) : 0.0;
    };
    r.addDetail("serve_max_rps", maxRps);
    std::vector<double> serviceS;
    for (const std::vector<double> &g : serviceGroups)
        serviceS.insert(serviceS.end(), g.begin(), g.end());
    r.addDetail("serve.service_ms.p99", 1e3 * quantile(serviceS, 0.99));
    r.addDetail("serve.overloaded", numberField(stats, "overloaded"));
    r.addDetail("serve.queue_peak", numberField(stats, "queue_peak"));
    r.addDetail("serve.prog_cache_hit_rate",
                hitRate("prog_cache_hits", "prog_cache_misses"));
    r.addDetail("serve.ckpt_cache_hit_rate",
                hitRate("ckpt_cache_hits", "ckpt_cache_misses"));
    r.addDetail("serve.prog_cache_evictions",
                numberField(stats, "prog_cache_evictions"));
    r.addDetail("serve.ckpt_cache_evictions",
                numberField(stats, "ckpt_cache_evictions"));
    r.addDetail("serve.stats_op_ms", 1e3 * statsS);
    const auto tvS = [](const timeval &tv) {
        return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
    };
    r.addDetail("serve.daemon_user_s", tvS(d.usage.ru_utime));
    r.addDetail("serve.daemon_sys_s", tvS(d.usage.ru_stime));
    r.addDetail("bench.gen_late_ms.p99", 1e3 * quantile(late, 0.99));
    for (const auto &[name, l] : lat) {
        r.addDetail("serve_p50_ms." + name, 1e3 * median(l));
        r.addDetail("serve_p99_ms." + name, 1e3 * quantile(l, 0.99));
    }
    if (!r.trace) {
        setPassTime(r, closedCpuS, closedS);
        addOpLatency(r, serviceGroups);
        return;
    }
    setTraceOverhead(r, untracedS, tracedS);
    setCoreSpeed(r, jobRetired, jobCycles, sum(closedJobS));
    setJobTimes(r, closedJobS, sum(closedS));
    std::vector<SimReport> reps;
    for (const SimJobResult &jr : direct)
        reps.push_back(jr.report);
    setSimulatedLayerMetrics(r, reps);
    std::vector<ProbeProgram> progs;
    for (const auto &[w, total] : totals) {
        const std::string name = w;
        progs.push_back({w, [name, scale] {
                             return buildWorkload(name, scale);
                         }});
    }
    runLayerProbes(r, progs, integrationParams(IntegrationMode::Reverse),
                   50000, direct);
}

// ------------------------------------------------------------------
// Result document and entry points.

std::string
resultJson(const Run &r)
{
    u64 h = 14695981039346656037ull;
    std::string pairs;
    for (const auto &[c, ret] : r.pairs) {
        h = fnv(fnv(h, c), ret);
        pairs += (pairs.empty() ? "[" : ", [") + std::to_string(c) + ", " +
                 std::to_string(ret) + "]";
    }
    char sum[32];
    snprintf(sum, sizeof(sum), "%016llx", (unsigned long long)h);
    std::string metrics;
    for (const auto &[name, m] : r.metrics)
        metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": ") +
                   "{\"value\": " + num(m.value) + ", \"unit\": \"" +
                   m.unit + "\"}";
    std::string failures;
    for (const std::string &f : r.failures)
        failures += (failures.empty() ? "\"" : ", \"") + jsonEscape(f) +
                    "\"";
    return "{\"workload\": \"" + r.workload + "\", \"attempted\": " +
           std::to_string(r.attempted) + ", \"failed\": " +
           std::to_string(r.failed) + ", \"failures\": [" + failures +
           "], \"metrics\": {" + metrics + "}, \"detail\": {" + r.detail +
           "}, \"checksum\": \"" + sum + "\", \"pairs\": [" + pairs + "]" +
           r.extraJson + "}\n";
}

int
cmdRun(const std::string &inputs_path, const std::string &result_path)
{
    Run r;
    r.in = parseJson(readFile(inputs_path), inputs_path);
    r.workload = member(r.in, "workload").asString();
    r.seconds = member(r.in, "seconds").asNumber();
    r.trace = member(r.in, "trace").asNumber() != 0;
    // runScenario and runFuzz size their worker pools from RIX_JOBS.
    setenv("RIX_JOBS", std::to_string(kWorkers).c_str(), 1);
    r.outDir = member(r.in, "out_dir").asString();
    const std::string expected = member(r.in, "expected_dir").asString();
    gTracer.on = r.trace;

    if (r.workload == "detailed_sweep")
        workDetailedSweep(r, expected);
    else if (r.workload == "sampled_sweep")
        workSampledSweep(r, expected);
    else if (r.workload == "fuzz_campaign")
        workFuzzCampaign(r);
    else if (r.workload == "serve_storm")
        workServeStorm(r, member(r.in, "rix").asString());
    else
        throw std::runtime_error("unknown workload '" + r.workload + "'");

    if (r.trace)
        gTracer.write(r.outDir + "/spans.json");
    writeFile(result_path, resultJson(r));
    return 0;
}

/** Regenerate the committed expected outputs in @p dir. */
int
cmdReference(const std::string &spec_path, const std::string &dir)
{
    const ScenarioSpec spec = parseScenario(readFile(spec_path));
    const ScenarioResults res = runScenario(spec);
    writeFile(dir + "/fig4.txt", renderToString(spec, res));
    std::string jobs;
    for (size_t w = 0; w < spec.workloads.size(); ++w)
        for (size_t c = 0; c < spec.configs.size(); ++c) {
            const SimReport &rep = res.report(w, c);
            jobs += std::string(jobs.empty() ? "" : ",\n") +
                    "  {\"workload\": \"" + spec.workloads[w] +
                    "\", \"config\": \"" + spec.configs[c].label +
                    "\", \"cycles\": " + std::to_string(rep.core.cycles) +
                    ", \"retired\": " + std::to_string(rep.core.retired) +
                    "}";
        }
    writeFile(dir + "/fig4_jobs.json", "{\"scale\": " +
                                           std::to_string(spec.scale) +
                                           ", \"jobs\": [\n" + jobs +
                                           "\n]}\n");

    const u64 scale = 16;
    std::vector<SimJob> full;
    for (const std::string &w : workloadNames()) {
        SimJob j;
        j.workload = w;
        j.scale = scale;
        j.params = integrationParams(IntegrationMode::Reverse);
        full.push_back(j);
    }
    const std::vector<SimJobResult> fr = SweepRunner().run(full);
    std::string runs;
    for (size_t i = 0; i < full.size(); ++i) {
        const SimReport &rep = fr[i].report;
        runs += std::string(runs.empty() ? "" : ",\n") + "  \"" +
                full[i].workload + "\": {\"cycles\": " +
                std::to_string(rep.core.cycles) + ", \"retired\": " +
                std::to_string(rep.core.retired) + ", \"l1d_misses\": " +
                std::to_string(rep.l1dMisses) + ", \"mispredicts\": " +
                std::to_string(rep.core.branchMispredicts) +
                ", \"integrated\": " +
                std::to_string(rep.core.integratedDirect +
                               rep.core.integratedReverse) +
                "}";
    }
    writeFile(dir + "/sampled_full.json",
              "{\"scale\": " + std::to_string(scale) +
                  ", \"config\": \"reverse/real\", \"runs\": {\n" + runs +
                  "\n}}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc == 4 && strcmp(argv[1], "run") == 0)
            return cmdRun(argv[2], argv[3]);
        if (argc == 4 && strcmp(argv[1], "reference") == 0)
            return cmdReference(argv[2], argv[3]);
    } catch (const std::exception &e) {
        fprintf(stderr, "rixbench: %s\n", e.what());
        return 1;
    }
    fprintf(stderr, "usage: rixbench run <inputs.json> <result.json>\n"
                    "       rixbench reference <fig4.json> <expected_dir>\n");
    return 2;
}
