#include "serve/server.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/env.hh"
#include "base/log.hh"
#include "base/stats.hh"
#include "emu/emulator.hh"
#include "trace/profiler.hh"
#include "workload/workload.hh"

namespace rix
{

namespace
{

/** Cap on one request line; a client streaming an unbounded "line"
 *  must not be able to balloon the daemon's memory. */
constexpr size_t maxLineBytes = 1 << 20;

size_t
programFootprint(const Program &p)
{
    // decodedBytes() is nonzero only once the decoded form is built;
    // admission decodes eagerly so the charge is taken up front.
    return sizeof(Program) + p.code.size() * sizeof(Instruction) +
           p.data.size() + p.name.size() + p.decodedBytes();
}

size_t
checkpointFootprint(const Checkpoint &c)
{
    return sizeof(Checkpoint) + c.memoryBytes() +
           c.output.size() * sizeof(u64);
}

/** 1-2-5 log-spaced microsecond bounds, 1 us .. 10 s. */
std::vector<u64>
latencyBounds()
{
    std::vector<u64> b;
    for (u64 decade = 1; decade <= 1'000'000; decade *= 10)
        for (u64 m : {u64(1), u64(2), u64(5)})
            b.push_back(decade * m);
    b.push_back(10'000'000);
    return b;
}

u64
elapsedMicros(std::chrono::steady_clock::time_point t0)
{
    return u64(std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
}

/** lat_<op>_{p50,p95,p99,mean}_us + lat_<op>_samples. */
void
exportLatency(StatSet &s, const std::string &prefix, const Histogram &h)
{
    s.set(prefix + "_p50_us", double(h.quantile(0.50)));
    s.set(prefix + "_p95_us", double(h.quantile(0.95)));
    s.set(prefix + "_p99_us", double(h.quantile(0.99)));
    s.set(prefix + "_mean_us", h.mean());
    s.set(prefix + "_samples", double(h.totalSamples()));
}

} // namespace

ServeOptions
ServeOptions::fromEnv()
{
    ServeOptions o;
    o.policy = FaultPolicy::fromEnv();
    o.cacheBytes = size_t(envPositiveCount("RIX_CACHE_BYTES",
                                           u64(o.cacheBytes)));
    o.queueDepth = size_t(envPositiveCount("RIX_QUEUE_DEPTH",
                                           u64(o.queueDepth)));
    // Strictly validated: a set-but-unusable RIX_STORE_DIR is fatal
    // (a daemon that silently ran unjournaled would defeat the knob).
    const std::string storeDir = envStoreDir();
    if (!storeDir.empty())
        o.storePath = storeDir + "/serve.rixstore";
    return o;
}

struct Server::Conn
{
    explicit Conn(int f) : fd(f) {}
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
    const int fd;
    std::mutex writeMu;
    std::atomic<bool> open{true};
};

Server::Server(const ServeOptions &options)
    : opts(options),
      progLru(options.cacheBytes / 2, programFootprint),
      ckptLru(options.cacheBytes / 2, checkpointFootprint),
      latRun(latencyBounds()), latPing(latencyBounds()),
      latStats(latencyBounds())
{
}

Server::~Server()
{
    requestShutdown();
    waitShutdown();
    if (wakePipe[0] >= 0)
        ::close(wakePipe[0]);
    if (wakePipe[1] >= 0)
        ::close(wakePipe[1]);
    if (listenFd >= 0)
        ::close(listenFd);
    if (!opts.socketPath.empty())
        ::unlink(opts.socketPath.c_str());
}

std::string
Server::start()
{
    if (opts.socketPath.empty())
        return "serve: socket path must not be empty";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.size() >= sizeof(addr.sun_path))
        return "serve: socket path '" + opts.socketPath + "' is too long "
               "(max " + std::to_string(sizeof(addr.sun_path) - 1) +
               " bytes)";
    memcpy(addr.sun_path, opts.socketPath.c_str(),
           opts.socketPath.size() + 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        return std::string("serve: socket: ") + strerror(errno);
    // The daemon owns its path: a stale file from a previous run (or
    // a typo'd collision) is replaced, never silently served beside.
    ::unlink(opts.socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return "serve: cannot bind '" + opts.socketPath +
               "': " + strerror(errno);
    if (::listen(listenFd, 64) != 0)
        return "serve: listen: " + std::string(strerror(errno));
    if (::pipe(wakePipe) != 0)
        return std::string("serve: pipe: ") + strerror(errno);

    if (!opts.storePath.empty()) {
        // Open-or-create the journal: a fresh daemon creates it, a
        // restarted one resumes it — recovery truncates whatever torn
        // tail the previous incarnation's death left — and record
        // indices stay monotonic across the generations.
        std::string err;
        struct stat st;
        if (::stat(opts.storePath.c_str(), &st) != 0) {
            StoreMeta meta;
            meta.kind = StoreKind::Serve;
            meta.gitRev = buildGitRev();
            meta.specName = "serve";
            store_ = ResultStore::create(opts.storePath, meta, &err);
        } else {
            ResultStore::Recovery rec;
            store_ = ResultStore::openForAppend(opts.storePath, &err,
                                                &rec);
            if (store_ && store_->meta().kind != StoreKind::Serve)
                return "serve: journal '" + opts.storePath +
                       "' is a sweep store, not a serve journal";
        }
        if (!store_)
            return "serve: cannot open journal: " + err;
        u64 next = 0;
        for (const StoreRecord &r : store_->records())
            next = std::max(next, r.jobIndex + 1);
        journalIdx_.store(next, std::memory_order_relaxed);
    }

    pool = std::make_unique<ThreadPool>(opts.workers ? opts.workers
                                                     : jobsFromEnv());
    acceptor = std::thread([this]() { acceptLoop(); });
    return "";
}

void
Server::requestShutdown()
{
    shuttingDown.store(true, std::memory_order_relaxed);
    if (wakePipe[1] >= 0) {
        // One async-signal-safe write; the accept loop does the rest.
        const char b = 'q';
        [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &b, 1);
    }
}

void
Server::waitShutdown()
{
    if (acceptor.joinable())
        acceptor.join();
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd, POLLIN, 0}, {wakePipe[0], POLLIN, 0}};
        const int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents)
            break; // shutdown requested
        if (!(fds[0].revents))
            continue;
        const int cfd = ::accept(listenFd, nullptr, nullptr);
        if (cfd < 0)
            continue;
        auto conn = std::make_shared<Conn>(cfd);
        std::lock_guard<std::mutex> lk(connMu);
        conns.push_back(conn);
        handlers.emplace_back([this, conn]() { handleConn(conn); });
    }

    // Graceful drain. Order matters:
    //  1. reject new work (shuttingDown is already set),
    //  2. wake the connection readers (SHUT_RD delivers EOF without
    //     closing the write side — completion responses still flow),
    //  3. join the readers,
    //  4. destroy the pool: its destructor runs every admitted job to
    //     completion, each writing its response,
    //  5. drop the connections (closes the sockets; clients see EOF
    //     after the last response).
    shuttingDown.store(true, std::memory_order_relaxed);
    // Retire the listening socket now, not at destruction: a connect
    // racing the drain must be refused, not parked forever in a
    // backlog nobody will ever accept from.
    ::close(listenFd);
    listenFd = -1;
    ::unlink(opts.socketPath.c_str());
    std::vector<std::thread> hs;
    {
        std::lock_guard<std::mutex> lk(connMu);
        for (const auto &c : conns)
            ::shutdown(c->fd, SHUT_RD);
        hs.swap(handlers);
    }
    for (std::thread &t : hs)
        t.join();
    pool.reset();
    {
        std::lock_guard<std::mutex> lk(connMu);
        conns.clear();
    }
}

void
Server::handleConn(std::shared_ptr<Conn> conn)
{
    std::string pending;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        pending.append(buf, size_t(n));
        size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
            std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                handleLine(conn, line);
        }
        if (pending.size() > maxLineBytes) {
            stats_.malformed.fetch_add(1, std::memory_order_relaxed);
            writeToConn(conn, renderErrorResponse(
                                  "", "invalid",
                                  "request line exceeds 1 MiB"));
            break;
        }
    }
    conn->open.store(false, std::memory_order_relaxed);
}

void
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   const std::string &line)
{
    ScopedPhase phase(HostPhase::ServeRequest);
    const auto t0 = std::chrono::steady_clock::now();
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    ServeRequest req;
    const std::string err = parseServeRequest(line, &req);
    if (!err.empty()) {
        // A malformed request poisons only itself: respond and keep
        // the connection (and daemon) alive.
        stats_.malformed.fetch_add(1, std::memory_order_relaxed);
        writeToConn(conn, renderErrorResponse(req.id, "invalid", err));
        return;
    }
    switch (req.op) {
      case ServeRequest::Op::Ping:
        writeToConn(conn, renderAckResponse("ping"));
        recordOpLatency(latPing, elapsedMicros(t0));
        return;
      case ServeRequest::Op::Stats:
        writeToConn(conn, renderStats());
        recordOpLatency(latStats, elapsedMicros(t0));
        return;
      case ServeRequest::Op::Shutdown:
        writeToConn(conn, renderAckResponse("shutdown"));
        requestShutdown();
        return;
      case ServeRequest::Op::Run:
        submitRun(conn, req);
        return;
    }
}

void
Server::submitRun(const std::shared_ptr<Conn> &conn, const ServeRequest &req)
{
    if (req.job.inject != JobInject::None && !opts.allowInject) {
        writeToConn(conn, renderErrorResponse(
                              req.id, "invalid",
                              "fault injection is not enabled "
                              "(start with --allow-inject)"));
        return;
    }
    if (shuttingDown.load(std::memory_order_relaxed)) {
        writeToConn(conn,
                    renderErrorResponse(req.id, "shutting-down",
                                        "daemon is draining"));
        return;
    }

    // Bounded admission: claim a slot or reject immediately. The
    // client owns the retry decision — the daemon's queue can never
    // grow without limit.
    const size_t prev = outstanding.fetch_add(1, std::memory_order_relaxed);
    if (prev >= opts.queueDepth) {
        outstanding.fetch_sub(1, std::memory_order_relaxed);
        stats_.overloaded.fetch_add(1, std::memory_order_relaxed);
        writeToConn(conn, renderErrorResponse(
                              req.id, "overloaded",
                              "job queue is full (" +
                                  std::to_string(opts.queueDepth) +
                                  " outstanding); resubmit later"));
        return;
    }
    u64 peak = stats_.queuePeak.load(std::memory_order_relaxed);
    while (prev + 1 > peak &&
           !stats_.queuePeak.compare_exchange_weak(
               peak, prev + 1, std::memory_order_relaxed))
        ;
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);

    // Run latency covers admission to completion: queueing time is
    // part of what the client experiences under load.
    const auto admittedAt = std::chrono::steady_clock::now();
    pool->submit([this, conn, req, admittedAt]() {
        // One long-lived simulation context per pool worker, exactly
        // the sweep engine's reuse discipline.
        thread_local SimContext ctx;
        FaultPolicy policy = opts.policy;
        if (req.hasTimeoutMs)
            policy.timeoutMs = req.timeoutMs;
        if (req.hasRetries)
            policy.retries = req.retries;
        SimJobResult r;
        try {
            r = runJobContained(ctx, req.job, policy,
                                [this](const SimJob &j) {
                                    return acquireInputs(j);
                                });
        } catch (const std::exception &e) {
            // runJobContained contains everything; this is the last
            // line of defense so no exception can kill a pool worker.
            r.status = JobStatus::Crash;
            r.error = e.what();
        }
        // Journal before answering: once the client hears "ok", the
        // result is durable. Failures (worth a resubmit, not a
        // tombstone) are not journaled; a failing append degrades to
        // a warning — a full disk must not take the daemon down.
        if (store_ && r.ok()) {
            StoreRecord rec;
            rec.jobIndex =
                journalIdx_.fetch_add(1, std::memory_order_relaxed);
            rec.configLabel = req.id;
            rec.result = r;
            const std::string jerr = store_->append(rec);
            if (jerr.empty())
                stats_.journaled.fetch_add(1, std::memory_order_relaxed);
            else
                rix_warn("serve: journal append failed: %s",
                         jerr.c_str());
        }
        stats_.completed.fetch_add(1, std::memory_order_relaxed);
        stats_.byStatus[size_t(r.status) & 7].fetch_add(
            1, std::memory_order_relaxed);
        stats_.retries.fetch_add(r.attempts - 1,
                                 std::memory_order_relaxed);
        outstanding.fetch_sub(1, std::memory_order_relaxed);
        recordOpLatency(latRun, elapsedMicros(admittedAt));
        writeToConn(conn, renderRunResponse(req.id, req.job, r));
    });
}

PinnedJobInputs
Server::acquireInputs(const SimJob &job)
{
    PinnedJobInputs in;
    const std::string pkey =
        job.workload + "@" + std::to_string(job.scale);
    in.prog = progLru.get(pkey, [&job]() {
        Program p = buildWorkload(job.workload, job.scale);
        // Decode before admission: the footprint charge includes the
        // decoded form, and every job sharing this entry reuses it.
        p.decoded();
        return p;
    });
    if (job.sampled()) {
        // Checkpoints are configuration-independent architectural
        // state; key on (workload, scale, icount) and build by
        // functional fast-forward on the pinned program.
        const std::string ckey =
            pkey + "@" + std::to_string(job.checkpointAt);
        const std::shared_ptr<const Program> prog = in.prog;
        const u64 at = job.checkpointAt;
        in.from = ckptLru.get(ckey, [&prog, &job, at]() {
            Emulator emu(*prog);
            emu.run(at);
            // A checkpoint of a halted machine would measure nothing
            // and still answer "ok".
            if (emu.halted())
                throw InvalidJobError(strfmt(
                    "%s: checkpoint_at %llu is at or past the program's "
                    "halt at instruction %llu",
                    job.workload.c_str(), (unsigned long long)at,
                    (unsigned long long)emu.instsExecuted()));
            return emu.snapshot();
        });
    }
    return in;
}

std::string
Server::renderStats()
{
    StatRegistry reg;
    StatRegistry::Row &row = reg.addRow();
    row.label("status", "ok");
    row.label("op", "stats");
    StatSet &s = row.stats;
    s.set("requests", double(stats_.requests.load()));
    s.set("malformed", double(stats_.malformed.load()));
    s.set("admitted", double(stats_.admitted.load()));
    s.set("overloaded", double(stats_.overloaded.load()));
    s.set("completed", double(stats_.completed.load()));
    s.set("retries", double(stats_.retries.load()));
    s.set("journaled", double(stats_.journaled.load()));
    for (size_t i = 0; i < 8; ++i)
        s.set(std::string("jobs_") + jobStatusName(JobStatus(i)),
              double(stats_.byStatus[i].load()));
    s.set("queue_depth", double(outstanding.load()));
    s.set("queue_peak", double(stats_.queuePeak.load()));
    s.set("queue_limit", double(opts.queueDepth));
    s.set("workers", double(pool ? pool->size() : 0));
    s.set("prog_cache_hits", double(progLru.hits()));
    s.set("prog_cache_misses", double(progLru.misses()));
    s.set("prog_cache_evictions", double(progLru.evictions()));
    s.set("prog_cache_bytes", double(progLru.bytes()));
    s.set("ckpt_cache_hits", double(ckptLru.hits()));
    s.set("ckpt_cache_misses", double(ckptLru.misses()));
    s.set("ckpt_cache_evictions", double(ckptLru.evictions()));
    s.set("ckpt_cache_bytes", double(ckptLru.bytes()));
    s.set("cache_budget_bytes", double(opts.cacheBytes));
    {
        std::lock_guard<std::mutex> lk(latMu);
        exportLatency(s, "lat_run", latRun);
        exportLatency(s, "lat_ping", latPing);
        exportLatency(s, "lat_stats", latStats);
    }
    hostProfiler().exportTo(s);

    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    if (!mem)
        return renderErrorResponse("", "crash", "out of memory");
    reg.writeJsonLines(mem);
    fclose(mem);
    std::string out(buf, len);
    free(buf);
    return out;
}

void
Server::recordOpLatency(Histogram &h, u64 micros)
{
    std::lock_guard<std::mutex> lk(latMu);
    h.sample(micros);
}

void
Server::writeToConn(const std::shared_ptr<Conn> &conn,
                    const std::string &data)
{
    std::lock_guard<std::mutex> lk(conn->writeMu);
    if (!conn->open.load(std::memory_order_relaxed) && conn->fd < 0)
        return;
    size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a client that disconnected mid-job must not
        // SIGPIPE the daemon; the write error is simply dropped (the
        // job already ran; nobody is listening).
        const ssize_t n = ::send(conn->fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += size_t(n);
    }
}

int
runServe(const ServeOptions &opts)
{
    static std::atomic<Server *> g_server{nullptr};

    // A daemon is a long-running host process: the phase profile is
    // always worth its one-atomic-add cost here.
    hostProfiler().setEnabled(true);

    Server server(opts);
    const std::string err = server.start();
    if (!err.empty()) {
        fprintf(stderr, "rix serve: %s\n", err.c_str());
        return 1;
    }
    g_server.store(&server);

    struct sigaction sa{};
    sa.sa_handler = [](int) {
        if (Server *s = g_server.load())
            s->requestShutdown();
    };
    sigemptyset(&sa.sa_mask);
    struct sigaction oldInt{}, oldTerm{};
    sigaction(SIGINT, &sa, &oldInt);
    sigaction(SIGTERM, &sa, &oldTerm);

    fprintf(stderr, "rix serve: listening on %s (%u workers, queue %zu, "
                    "cache %zu MiB)\n",
            opts.socketPath.c_str(),
            opts.workers ? opts.workers : jobsFromEnv(),
            opts.queueDepth, opts.cacheBytes >> 20);
    server.waitShutdown();

    sigaction(SIGINT, &oldInt, nullptr);
    sigaction(SIGTERM, &oldTerm, nullptr);
    g_server.store(nullptr);
    fprintf(stderr, "rix serve: drained, exiting\n");
    return 0;
}

} // namespace rix
