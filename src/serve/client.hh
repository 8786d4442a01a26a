/**
 * @file
 * The bsim-rpc-v1 client: a blocking request/response connection to a
 * bsimd server, plus connectMain() — the CLI behind `bsim --connect`.
 * A successful `run` response's body is printed to stdout followed by
 * one newline, which makes `bsim --connect ... --cache S --trace T`
 * byte-identical to `bsim --cache S --trace T --stats-json -` (the
 * bit-identity contract tests/test_serve.cc pins).
 */

#ifndef BSIM_SERVE_CLIENT_HH
#define BSIM_SERVE_CLIENT_HH

#include <string>

#include "common/frame.hh"
#include "serve/rpc.hh"

namespace bsim {
namespace serve {

/**
 * Responses carry whole bsim-stats-v1 documents (and sharded arrays of
 * them), so clients accept far larger frames than servers do.
 */
inline constexpr std::size_t kMaxResponsePayload = 64u << 20;

/**
 * Write one encoded frame to @p fd, retrying short writes; returns
 * false on a dead connection. Shared by the client and the server's
 * response path.
 */
bool sendFrameTo(int fd, const std::string &payload);

class RpcClient
{
  public:
    /** Adopt an established connection (tests use socketpairs). */
    explicit RpcClient(int fd) : fd_(fd) {}
    ~RpcClient();

    RpcClient(RpcClient &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    RpcClient &operator=(RpcClient &&other) noexcept;
    RpcClient(const RpcClient &) = delete;
    RpcClient &operator=(const RpcClient &) = delete;

    /** Throws FatalError when the server is unreachable. */
    static RpcClient connectUnix(const std::string &path);
    static RpcClient connectTcp(const std::string &host, int port);

    /**
     * Send one request payload as a frame and block for the response
     * frame; returns the response payload (an envelope). Throws
     * FatalError on a dead connection or undecodable response framing.
     */
    std::string call(const std::string &request_json);

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    FrameDecoder decoder_{kMaxResponsePayload};
};

/** One decoded response envelope. */
struct RpcResult
{
    bool ok = false;
    std::string body; ///< ok: the body, re-serialized byte-identically
    std::string errorCode;    ///< error: the typed code slug
    std::string errorMessage;
};

/**
 * Decode a response envelope. Throws FatalError when the payload is
 * not a well-formed bsim-rpc-v1 envelope (a server bug or a protocol
 * mismatch, not a typed error).
 */
RpcResult decodeResult(const std::string &payload);

/** A parsed `bsim --connect` command line. */
struct ConnectArgs
{
    std::string socketPath; ///< unix-socket target ("" for TCP)
    std::string host = "127.0.0.1";
    int port = 0;           ///< TCP port 1-65535; 0 for a unix socket
    RpcRequest request;
    std::uint64_t repeat = 1;
};

/**
 * Parse `--connect TARGET` (a unix socket path, or HOST:PORT / :PORT
 * for TCP) plus the run flags of the bsim driver (sim/run_request.hh),
 * `--json`, `--deadline-ms N`, `--repeat N` and the control-plane op
 * flags. Usage errors, a TCP port outside 1-65535 included, print the
 * usage text and exit(2) before any connection is made.
 */
ConnectArgs parseConnectArgs(int argc, char **argv);

/**
 * The client CLI: send the request of parseConnectArgs() and print the
 * response body to stdout; typed errors go to stderr with exit 1.
 */
int connectMain(int argc, char **argv);

} // namespace serve
} // namespace bsim

#endif // BSIM_SERVE_CLIENT_HH
