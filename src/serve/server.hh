/**
 * @file
 * bsimd: the long-running simulation server. Listens on a Unix-domain
 * or TCP socket, speaks bsim-rpc-v1 (length-prefixed JSON frames —
 * common/frame.hh, serve/rpc.hh), and answers each `run` request with
 * the same bsim-stats-v1 body the one-shot CLI would print.
 *
 * Threading model: one accept loop, one thread per connection, requests
 * on a connection handled in lockstep (read frame, answer, repeat).
 * Run work is admitted through the bounded Scheduler — a full queue
 * answers `overloaded` immediately (typed backpressure, no silent
 * drops) — while control-plane ops (ping/metrics/list-*) are answered
 * inline so an overloaded server can still be inspected.
 *
 * Lifecycle: SIGTERM/SIGINT (or beginDrain()) stops the accept loop and
 * new admissions; every admitted request still completes and is
 * delivered before its connection closes — the graceful-drain contract
 * pinned by tests/test_serve.cc and the e2e smoke script. Malformed or
 * oversized frames get a typed error response and the connection is
 * closed (framing is unrecoverable once desynchronized); idle
 * connections are closed after ServerOptions::idleTimeoutMs.
 *
 * docs/SERVE.md is the wire spec and docs/ARCHITECTURE.md "Serving
 * layer" the request-lifecycle walkthrough.
 */

#ifndef BSIM_SERVE_SERVER_HH
#define BSIM_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/frame.hh"
#include "serve/scheduler.hh"
#include "serve/trace_registry.hh"

namespace bsim {
namespace serve {

/** The largest `bsim --serve --workers` value (docs/SERVE.md §5). */
inline constexpr unsigned kMaxWorkers = 256;

struct ServerOptions
{
    /** Unix-domain socket path ("" = none). */
    std::string unixPath;
    /** TCP listen port (negative = none; 0 = ephemeral, see tcpPort()). */
    int tcpPort = -1;
    std::string tcpHost = "127.0.0.1";

    /** Scheduler worker threads; `bsim --serve` takes at most kMaxWorkers. */
    unsigned workers = 2;
    std::size_t queueCapacity = 16; ///< admission queue slots
    std::size_t maxFramePayload = kDefaultMaxFramePayload;
    /** Close a connection after this long with no bytes (0 = never). */
    std::uint64_t idleTimeoutMs = 0;

    /** Traces to pre-register (name, path). */
    std::vector<std::pair<std::string, std::string>> traces;
    /** Resolve unregistered trace names as filesystem paths. */
    bool allowTracePaths = true;
};

class Server
{
  public:
    explicit Server(const ServerOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Serve one already-established connection until EOF, a framing
     * error, idle timeout, or drain; blocking, takes ownership of
     * @p fd. The unit the in-process tests drive over socketpairs.
     */
    void serveConnection(int fd);

    /**
     * Listen per the options and accept until drained. Returns 0 on a
     * clean drain. Installs no signal handlers itself — serveMain()
     * wires SIGTERM/SIGINT to beginDrain().
     */
    int run();

    /**
     * Stop accepting connections and admitting requests; in-flight and
     * queued work still completes and is delivered. Async-signal-safe
     * enough for a handler: flips an atomic and writes one byte to the
     * accept loop's wake pipe.
     */
    void beginDrain();

    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** The bound TCP port (after run() starts; 0 until then). */
    int tcpPort() const
    {
        return boundTcpPort_.load(std::memory_order_acquire);
    }

    TraceRegistry &traces() { return traces_; }
    Scheduler &scheduler() { return scheduler_; }
    const ServerOptions &options() const { return options_; }

  private:
    /** Handle one decoded request payload; returns the response. */
    std::string handlePayload(const std::string &payload);

    ServerOptions options_;
    TraceRegistry traces_;
    Scheduler scheduler_;
    std::atomic<bool> draining_{false};
    std::atomic<int> boundTcpPort_{0};
    int wakePipe_[2] = {-1, -1}; ///< self-pipe: beginDrain -> accept loop

    std::mutex connMutex_;
    std::vector<std::thread> connections_;
};

/**
 * The bsimd CLI: parse flags, enable fatal-throw mode, install
 * SIGTERM/SIGINT drain handlers, run the server. `bsim --serve`
 * delegates here (bench/bsim.cc).
 */
int serveMain(int argc, char **argv);

} // namespace serve
} // namespace bsim

#endif // BSIM_SERVE_SERVER_HH
