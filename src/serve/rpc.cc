#include "serve/rpc.hh"

#include <limits>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/config.hh"

namespace bsim {
namespace serve {

const char *
rpcErrorName(RpcErrorCode code)
{
    switch (code) {
      case RpcErrorCode::MalformedFrame:
        return "malformed-frame";
      case RpcErrorCode::Oversized:
        return "oversized";
      case RpcErrorCode::BadRequest:
        return "bad-request";
      case RpcErrorCode::UnknownTrace:
        return "unknown-trace";
      case RpcErrorCode::Overloaded:
        return "overloaded";
      case RpcErrorCode::Deadline:
        return "deadline";
      case RpcErrorCode::ShuttingDown:
        return "shutting-down";
      case RpcErrorCode::Internal:
        return "internal";
    }
    return "internal";
}

namespace {

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/** Read an unsigned integer member; false + error on a wrong type. */
bool
readU64(const JsonValue &v, const std::string &key, std::uint64_t *out,
        std::string *error)
{
    if (!v.isNumber() || v.number < 0 ||
        v.number != static_cast<double>(
                        static_cast<std::uint64_t>(v.number)))
        return fail(error, "field '" + key +
                               "' must be a non-negative integer");
    *out = static_cast<std::uint64_t>(v.number);
    return true;
}

bool
readString(const JsonValue &v, const std::string &key, std::string *out,
           std::string *error)
{
    if (!v.isString())
        return fail(error, "field '" + key + "' must be a string");
    *out = v.string;
    return true;
}

} // namespace

std::optional<RpcRequest>
parseRpcRequest(const std::string &payload, std::string *error)
{
    std::string parse_error;
    const std::optional<JsonValue> doc =
        parseJson(payload, &parse_error);
    if (!doc) {
        fail(error, "request is not valid JSON: " + parse_error);
        return std::nullopt;
    }
    if (!doc->isObject()) {
        fail(error, "request must be a JSON object");
        return std::nullopt;
    }

    RpcRequest req;
    for (const auto &[key, value] : doc->object) {
        std::uint64_t u = 0;
        if (key == "op") {
            std::string op;
            if (!readString(value, key, &op, error))
                return std::nullopt;
            if (op == "run")
                req.op = RpcRequest::Op::Run;
            else if (op == "ping")
                req.op = RpcRequest::Op::Ping;
            else if (op == "metrics")
                req.op = RpcRequest::Op::Metrics;
            else if (op == "list-caches")
                req.op = RpcRequest::Op::ListCaches;
            else if (op == "list-traces")
                req.op = RpcRequest::Op::ListTraces;
            else {
                fail(error, "unknown op '" + op +
                                "' (run, ping, metrics, list-caches, "
                                "list-traces)");
                return std::nullopt;
            }
        } else if (key == "cache") {
            if (!readString(value, key, &req.cache, error))
                return std::nullopt;
        } else if (key == "trace") {
            if (!readString(value, key, &req.trace, error))
                return std::nullopt;
        } else if (key == "workload") {
            if (!readString(value, key, &req.workload, error))
                return std::nullopt;
        } else if (key == "side") {
            if (!readString(value, key, &req.side, error))
                return std::nullopt;
            if (req.side != "data" && req.side != "inst") {
                fail(error, "field 'side' must be 'data' or 'inst'");
                return std::nullopt;
            }
        } else if (key == "sample") {
            if (!readString(value, key, &req.sample, error))
                return std::nullopt;
        } else if (key == "shards" || key == "jobs") {
            if (!readU64(value, key, &u, error))
                return std::nullopt;
            const std::optional<unsigned> n = checkedCount(u);
            if (!n) {
                fail(error,
                     "field '" + key + "' must be at most " +
                         std::to_string(
                             std::numeric_limits<unsigned>::max()));
                return std::nullopt;
            }
            (key == "shards" ? req.shards : req.jobs) = *n;
        } else if (key == "accesses") {
            if (!readU64(value, key, &req.accesses, error))
                return std::nullopt;
            req.accessesSet = true;
        } else if (key == "seed") {
            if (!readU64(value, key, &req.seed, error))
                return std::nullopt;
        } else if (key == "batch") {
            if (!readU64(value, key, &u, error))
                return std::nullopt;
            req.batch = static_cast<std::size_t>(u);
        } else if (key == "stats") {
            if (!value.isBool()) {
                fail(error, "field 'stats' must be a boolean");
                return std::nullopt;
            }
            req.stats = value.boolean;
        } else if (key == "deadline_ms") {
            if (!readU64(value, key, &req.deadlineMs, error))
                return std::nullopt;
        } else {
            fail(error, "unknown field '" + key + "'");
            return std::nullopt;
        }
    }

    if (req.op == RpcRequest::Op::Run && req.cache.empty()) {
        fail(error, "op 'run' requires a 'cache' spec "
                    "(see bsim --list-caches)");
        return std::nullopt;
    }
    return req;
}

std::string
okEnvelope(const std::string &body)
{
    // Concatenation instead of JsonWriter so the body bytes are
    // embedded exactly as produced — the envelope is the only part
    // this function owns.
    return "{\"bsim-rpc\":\"v1\",\"ok\":true,\"body\":" + body + "}";
}

std::string
errorEnvelope(RpcErrorCode code, const std::string &message)
{
    JsonWriter j;
    j.beginObject()
        .kv("bsim-rpc", "v1")
        .kv("ok", false)
        .key("error")
        .beginObject()
        .kv("code", rpcErrorName(code))
        .kv("message", message)
        .endObject()
        .endObject();
    return j.str();
}

bool
validateRpcEnvelope(const std::string &payload, std::string *error)
{
    std::string parse_error;
    const std::optional<JsonValue> doc =
        parseJson(payload, &parse_error);
    if (!doc)
        return fail(error, "envelope is not valid JSON: " + parse_error);
    if (!doc->isObject())
        return fail(error, "envelope must be a JSON object");
    const JsonValue *ver = doc->find("bsim-rpc");
    if (!ver || !ver->isString() || ver->string != "v1")
        return fail(error, "missing or wrong 'bsim-rpc' version tag");
    const JsonValue *ok = doc->find("ok");
    if (!ok || !ok->isBool())
        return fail(error, "missing boolean 'ok'");
    if (ok->boolean) {
        if (!doc->find("body"))
            return fail(error, "ok envelope is missing 'body'");
        if (doc->find("error"))
            return fail(error, "ok envelope must not carry 'error'");
        return true;
    }
    if (doc->find("body"))
        return fail(error, "error envelope must not carry 'body'");
    const JsonValue *err = doc->find("error");
    if (!err || !err->isObject())
        return fail(error, "error envelope is missing 'error' object");
    const JsonValue *code = err->find("code");
    if (!code || !code->isString())
        return fail(error, "error object is missing string 'code'");
    static const RpcErrorCode all[] = {
        RpcErrorCode::MalformedFrame, RpcErrorCode::Oversized,
        RpcErrorCode::BadRequest,     RpcErrorCode::UnknownTrace,
        RpcErrorCode::Overloaded,     RpcErrorCode::Deadline,
        RpcErrorCode::ShuttingDown,   RpcErrorCode::Internal,
    };
    bool known = false;
    for (RpcErrorCode c : all)
        known = known || code->string == rpcErrorName(c);
    if (!known)
        return fail(error, "unknown error code '" + code->string + "'");
    const JsonValue *msg = err->find("message");
    if (!msg || !msg->isString())
        return fail(error, "error object is missing string 'message'");
    return true;
}

} // namespace serve
} // namespace bsim
