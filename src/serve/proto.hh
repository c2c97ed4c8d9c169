/**
 * @file
 * Wire protocol of the `rix serve` daemon: newline-delimited JSON over
 * a Unix-domain stream socket.
 *
 * Every request is one JSON object on one line; every response is one
 * JSON object on one line. Responses to "run" echo the request's "id"
 * verbatim, so a client may pipeline requests and match out-of-order
 * completions. Response "status" values are the JobStatus wire names
 * (base/fault.hh) plus three protocol-level ones:
 *
 *   overloaded     the job queue is full — resubmit later (backpressure)
 *   shutting-down  the daemon is draining and accepts no new work
 *   invalid        malformed request (also the JobStatus for a
 *                  well-formed but un-runnable job)
 *
 * Request grammar:
 *
 *   {"op": "ping"}
 *   {"op": "stats"}
 *   {"op": "shutdown"}
 *   {"op": "run", "id": <any>, "workload": "mcf",
 *    "scale": 1, "config": {<dotted CoreParams overrides>},
 *    "max_retired": N, "max_cycles": N,
 *    "checkpoint_at": N, "warmup": N,          // sampled interval
 *    "timeout_ms": N, "retries": N,            // per-job policy override
 *    "inject": "none|hang|crash|transient"}    // with --allow-inject only
 *
 * Parsing is structural only (types, ranges, unknown fields fatal to
 * the *request*, never the daemon); semantic validation (unknown
 * workload, bad geometry, a checkpoint_at at or past the program's
 * halt) happens when the job runs and comes back as status "invalid".
 */

#ifndef RIX_SERVE_PROTO_HH
#define RIX_SERVE_PROTO_HH

#include <string>

#include "sim/sweep.hh"

namespace rix
{

struct ServeRequest
{
    enum class Op : u8 { Ping, Run, Stats, Shutdown };

    Op op = Op::Ping;

    /** The request's "id" member re-serialized as JSON ("null" when
     *  absent) — echoed verbatim in the response. */
    std::string id = "null";

    // Run only.
    SimJob job;
    bool hasTimeoutMs = false;
    u64 timeoutMs = 0;
    bool hasRetries = false;
    unsigned retries = 0;
};

/**
 * Parse one request line.
 * @return "" and *out on success, else a one-line diagnostic (the
 *         caller wraps it in an "invalid" response; the connection
 *         survives).
 */
std::string parseServeRequest(const std::string &line, ServeRequest *out);

/** Response to a completed (or failed) run request. */
std::string renderRunResponse(const std::string &id, const SimJob &job,
                              const SimJobResult &r);

/** Protocol-level response: {"id": ..., "status": ..., "error": ...}.
 *  @p id may be empty (omitted). */
std::string renderErrorResponse(const std::string &id, const char *status,
                                const std::string &error);

/** {"status": "ok"} with the op echoed ("ping", "shutdown"). */
std::string renderAckResponse(const char *op);

} // namespace rix

#endif // RIX_SERVE_PROTO_HH
