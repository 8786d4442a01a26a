#include "serve/request.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace bsim {
namespace serve {

namespace {

/** Trace-resolution failures get their own typed RPC error. */
class UnknownTraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

std::string
metricsBody(const Scheduler *scheduler, const TraceRegistry &traces)
{
    const Scheduler::Metrics m =
        scheduler ? scheduler->metrics() : Scheduler::Metrics{};
    JsonWriter j;
    j.beginObject().kv("bsim-rpc-metrics", "v1");
    j.key("queue")
        .beginObject()
        .kv("depth", std::uint64_t(m.queueDepth))
        .kv("capacity", std::uint64_t(m.queueCapacity))
        .kv("in_flight", std::uint64_t(m.inFlight))
        .kv("workers", m.workers)
        .endObject();
    j.key("requests")
        .beginObject()
        .kv("accepted", m.accepted)
        .kv("completed", m.completed)
        .kv("rejected_overload", m.rejectedOverload)
        .kv("rejected_draining", m.rejectedDraining)
        .kv("expired_deadline", m.expiredDeadline)
        .endObject();
    j.key("latency_ms")
        .beginObject()
        .kv("count", m.latencyCount)
        .kv("p50", m.latencyP50Ms)
        .kv("p90", m.latencyP90Ms)
        .kv("p99", m.latencyP99Ms)
        .kv("overflow_edge", m.latencyOverflowEdgeMs)
        .endObject();
    j.key("traces")
        .beginObject()
        .kv("registered", std::uint64_t(traces.list().size()))
        .kv("open", std::uint64_t(traces.openCount()))
        .endObject();
    j.endObject();
    return j.str();
}

std::string
listTracesBody(TraceRegistry &traces)
{
    JsonWriter j;
    j.beginObject().key("traces").beginArray();
    for (const TraceRegistry::Entry &e : traces.list()) {
        j.beginObject()
            .kv("name", e.name)
            .kv("path", e.path)
            .kv("open", e.open)
            .endObject();
    }
    j.endArray().endObject();
    return j.str();
}

} // namespace

std::string
runStatsBody(const RpcRequest &req, TraceRegistry &traces)
{
    const auto resolve = [&traces](const std::string &name) {
        TraceHandlePtr handle;
        try {
            handle = traces.get(name);
        } catch (const FatalError &e) {
            throw UnknownTraceError(e.what());
        }
        if (!handle)
            throw UnknownTraceError("unknown trace '" + name +
                                    "' (op 'list-traces' enumerates "
                                    "the registry)");
        return handle;
    };
    // A stats body is `--stats-json -` (observer on for full runs), the
    // compact body bare `--json` (observer off): with the shared
    // dispatch, that makes both byte-identical to the CLI.
    ObserverConfig observe;
    observe.enabled = req.stats;
    const RunOutcome outcome = dispatchRun(req, observe, resolve);
    return req.stats ? statsBody(outcome) : compactBody(outcome);
}

std::string
runRequest(const RpcRequest &req, TraceRegistry &traces,
           const Scheduler *scheduler)
{
    switch (req.op) {
      case RpcRequest::Op::Ping:
        return okEnvelope("{\"pong\":true}");
      case RpcRequest::Op::Metrics:
        return okEnvelope(metricsBody(scheduler, traces));
      case RpcRequest::Op::ListCaches: {
        JsonWriter j;
        j.beginObject().kv("caches", listCacheSpecs()).endObject();
        return okEnvelope(j.str());
      }
      case RpcRequest::Op::ListTraces:
        return okEnvelope(listTracesBody(traces));
      case RpcRequest::Op::Run:
        break;
    }

    try {
        return okEnvelope(runStatsBody(req, traces));
    } catch (const UnknownTraceError &e) {
        return errorEnvelope(RpcErrorCode::UnknownTrace, e.what());
    } catch (const CacheSpecError &e) {
        return errorEnvelope(RpcErrorCode::BadRequest, e.what());
    } catch (const FatalError &e) {
        return errorEnvelope(RpcErrorCode::BadRequest, e.what());
    } catch (const std::exception &e) {
        return errorEnvelope(RpcErrorCode::Internal, e.what());
    }
}

} // namespace serve
} // namespace bsim
