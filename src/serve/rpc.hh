/**
 * @file
 * The bsim-rpc-v1 request/response vocabulary: typed error codes, the
 * parsed request struct, and the envelope builders. One request is one
 * length-prefixed frame (common/frame.hh) whose payload is a JSON
 * object; one response is one frame whose payload is
 *
 *   {"bsim-rpc":"v1","ok":true,"body":<document>}            on success
 *   {"bsim-rpc":"v1","ok":false,
 *    "error":{"code":"<slug>","message":"..."}}              on failure
 *
 * The success `body` is embedded *verbatim* — for `op:"run"` it is the
 * exact bsim-stats-v1 document the CLI's `--stats-json -` would print
 * (minus the trailing newline, which the client re-adds), so server and
 * one-shot CLI output are byte-identical. docs/SERVE.md is the wire
 * spec; scripts/check_rpc_json.sh lints both shapes (change together).
 */

#ifndef BSIM_SERVE_RPC_HH
#define BSIM_SERVE_RPC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/run_request.hh"

namespace bsim {
namespace serve {

/** Typed failure classes a response can carry (docs/SERVE.md table). */
enum class RpcErrorCode : std::uint8_t {
    MalformedFrame, ///< bad magic or undecodable framing
    Oversized,      ///< frame length beyond the server's limit
    BadRequest,     ///< parseable frame, invalid request semantics
    UnknownTrace,   ///< trace name/path not resolvable
    Overloaded,     ///< admission queue full — retry with backoff
    Deadline,       ///< request expired before a worker picked it up
    ShuttingDown,   ///< server is draining; no new work admitted
    Internal,       ///< unexpected server-side failure
};

/** The wire slug ("overloaded", "bad-request", ...). */
const char *rpcErrorName(RpcErrorCode code);

/**
 * One parsed bsim-rpc-v1 request: the run it describes (the same
 * RunRequest the `bsim` flags fill; control-plane ops ignore it) plus
 * the three fields that only the wire has.
 */
struct RpcRequest : RunRequest
{
    enum class Op : std::uint8_t {
        Run,        ///< execute a cache-spec session, return its stats
        Ping,       ///< liveness probe
        Metrics,    ///< scheduler/registry introspection snapshot
        ListCaches, ///< the --list-caches registry text
        ListTraces, ///< registered traces with header metadata
    };

    Op op = Op::Run;
    /**
     * true (default): the body is the bsim-stats-v1 document (observer
     * enabled exactly as `--stats-json -` does). false: the compact
     * `--json` record — toJson(result), or the per-shard JSON array for
     * sharded runs.
     */
    bool stats = true;

    /** Admission deadline in ms (0 = none): expire if not started. */
    std::uint64_t deadlineMs = 0;

    bool operator==(const RpcRequest &) const = default;
};

/**
 * Parse one request payload. Returns nullopt and sets @p error to an
 * actionable message (surfaced verbatim in a bad-request response) on
 * malformed JSON, unknown op, wrong field types, or unknown keys.
 */
std::optional<RpcRequest> parseRpcRequest(const std::string &payload,
                                          std::string *error);

/**
 * The request payload parseRpcRequest() reads back as @p req: the op,
 * then for `run` the fields writeRunFields() writes, `stats` when false
 * and `deadline_ms` when set.
 */
std::string encodeRpcRequest(const RpcRequest &req);

/** The op a `--ping`-style name selects ("run", "ping", ...). */
std::optional<RpcRequest::Op> rpcOpFromName(std::string_view name);

/** {"bsim-rpc":"v1","ok":true,"body":<body, embedded verbatim>} */
std::string okEnvelope(const std::string &body);

/** {"bsim-rpc":"v1","ok":false,"error":{...}} */
std::string errorEnvelope(RpcErrorCode code, const std::string &message);

/**
 * Validate a response envelope's shape (either arm). Returns true when
 * well-formed; otherwise fills @p error. The schema check behind
 * bench/rpc_json_lint.cc and the serve tests.
 */
bool validateRpcEnvelope(const std::string &payload, std::string *error);

} // namespace serve
} // namespace bsim

#endif // BSIM_SERVE_RPC_HH
