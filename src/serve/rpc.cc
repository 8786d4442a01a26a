#include "serve/rpc.hh"

#include <utility>

#include "common/json.hh"
#include "common/logging.hh"

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

constexpr std::pair<const char *, RpcRequest::Op> kOps[] = {
    {"run", RpcRequest::Op::Run},
    {"ping", RpcRequest::Op::Ping},
    {"metrics", RpcRequest::Op::Metrics},
    {"list-caches", RpcRequest::Op::ListCaches},
    {"list-traces", RpcRequest::Op::ListTraces},
};

RpcRequest::Op
readOp(const JsonValue &value)
{
    if (!value.isString())
        throw UsageError("field 'op' must be a string");
    if (const std::optional<RpcRequest::Op> op = rpcOpFromName(value.string))
        return *op;
    throw UsageError("unknown op '" + value.string +
                     "' (run, ping, metrics, list-caches, list-traces)");
}

} // namespace

std::optional<RpcRequest::Op>
rpcOpFromName(std::string_view name)
{
    for (const auto &[text, op] : kOps)
        if (name == text)
            return op;
    return std::nullopt;
}

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
    try {
        for (const auto &[key, value] : doc->object) {
            if (key == "op") {
                req.op = readOp(value);
            } else if (key == "stats") {
                if (!value.isBool())
                    throw UsageError("field 'stats' must be a boolean");
                req.stats = value.boolean;
            } else if (key == "deadline_ms") {
                req.deadlineMs = readJsonU64(key, value);
            } else {
                readRunField(req, key, value);
            }
        }
    } catch (const UsageError &e) {
        fail(error, e.what());
        return std::nullopt;
    }

    if (req.op == RpcRequest::Op::Run && req.cache.empty()) {
        fail(error, "op 'run' requires a 'cache' spec "
                    "(see bsim --list-caches)");
        return std::nullopt;
    }
    return req;
}

std::string
encodeRpcRequest(const RpcRequest &req)
{
    JsonWriter j;
    j.beginObject();
    for (const auto &[text, op] : kOps)
        if (op == req.op)
            j.kv("op", text);
    if (req.op == RpcRequest::Op::Run) {
        writeRunFields(j, req);
        if (!req.stats)
            j.kv("stats", false);
        if (req.deadlineMs)
            j.kv("deadline_ms", req.deadlineMs);
    }
    return j.endObject().str();
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
