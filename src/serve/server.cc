#include "serve/server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>

#include "common/logging.hh"
#include "serve/request.hh"
#include "sim/config.hh"

namespace bsim {
namespace serve {

namespace {

/** Poll tick so loops notice drain promptly without busy-waiting. */
constexpr int kTickMs = 100;

/** write() the whole buffer; false on a dead peer or hard error. */
bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
#ifdef MSG_NOSIGNAL
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
#else
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
#endif
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

Server::Server(const ServerOptions &options)
    : options_(options),
      traces_(options.allowTracePaths),
      scheduler_([&options] {
          Scheduler::Options s;
          s.workers = options.workers;
          s.queueCapacity = options.queueCapacity;
          return s;
      }())
{
    for (const auto &[name, path] : options_.traces)
        traces_.add(name, path);
    if (::pipe(wakePipe_) != 0)
        bsim_fatal("bsimd: cannot create wake pipe");
    for (int fd : wakePipe_) {
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
    }
}

Server::~Server()
{
    beginDrain();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (std::thread &t : connections_)
            if (t.joinable())
                t.join();
        connections_.clear();
    }
    for (int fd : wakePipe_)
        if (fd >= 0)
            ::close(fd);
}

void
Server::beginDrain()
{
    // Kept async-signal-safe (an atomic store and one pipe write):
    // serveMain's SIGTERM handler calls this directly. The scheduler's
    // own drain flag is flipped by run()/the destructor from normal
    // context; until then handlePayload's draining_ check already
    // refuses new admissions.
    draining_.store(true, std::memory_order_release);
    if (wakePipe_[1] >= 0) {
        const char byte = 'x';
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &byte, 1);
    }
}

std::string
Server::handlePayload(const std::string &payload)
{
    std::string error;
    const std::optional<RpcRequest> req =
        parseRpcRequest(payload, &error);
    if (!req)
        return errorEnvelope(RpcErrorCode::BadRequest, error);

    // Control-plane ops bypass the admission queue: an overloaded or
    // draining server must still answer ping and metrics.
    if (req->op != RpcRequest::Op::Run)
        return runRequest(*req, traces_, &scheduler_);

    if (draining())
        return errorEnvelope(RpcErrorCode::ShuttingDown,
                             "server is draining; no new work admitted");

    const RpcRequest run = *req;
    Scheduler::Work work = [this, run] {
        return runRequest(run, traces_, &scheduler_);
    };
    Scheduler::Work expired = [run] {
        return errorEnvelope(RpcErrorCode::Deadline,
                             "deadline of " +
                                 std::to_string(run.deadlineMs) +
                                 " ms expired before a worker was "
                                 "available");
    };
    const Scheduler::Clock::time_point deadline =
        run.deadlineMs
            ? Scheduler::Clock::now() +
                  std::chrono::milliseconds(run.deadlineMs)
            : Scheduler::Clock::time_point{};

    std::future<std::string> result;
    switch (scheduler_.submit(std::move(work), std::move(expired),
                              deadline, &result)) {
      case Scheduler::Admit::Accepted:
        return result.get();
      case Scheduler::Admit::Overloaded:
        return errorEnvelope(
            RpcErrorCode::Overloaded,
            "admission queue is full (" +
                std::to_string(options_.queueCapacity) +
                " slots); retry with backoff");
      case Scheduler::Admit::Draining:
        return errorEnvelope(RpcErrorCode::ShuttingDown,
                             "server is draining; no new work admitted");
    }
    return errorEnvelope(RpcErrorCode::Internal, "unreachable");
}

void
Server::serveConnection(int fd)
{
    FrameDecoder decoder(options_.maxFramePayload);
    std::string payload;
    std::uint64_t idle_ms = 0;

    for (;;) {
        const FrameStatus st = decoder.next(&payload);
        if (st == FrameStatus::Frame) {
            idle_ms = 0;
            const std::string response = handlePayload(payload);
            if (!sendAll(fd, encodeFrame(response)))
                break;
            continue;
        }
        if (st == FrameStatus::BadMagic) {
            sendAll(fd, encodeFrame(errorEnvelope(
                            RpcErrorCode::MalformedFrame,
                            "bad frame magic; expected 'BRPC'")));
            break;
        }
        if (st == FrameStatus::Oversized) {
            sendAll(fd,
                    encodeFrame(errorEnvelope(
                        RpcErrorCode::Oversized,
                        "frame payload exceeds the server limit of " +
                            std::to_string(options_.maxFramePayload) +
                            " bytes")));
            break;
        }

        // NeedMore: no complete frame buffered, so nothing is
        // in-flight on this connection — a drain can close it.
        if (draining())
            break;
        struct pollfd p;
        p.fd = fd;
        p.events = POLLIN;
        p.revents = 0;
        const int rc = ::poll(&p, 1, kTickMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0) {
            idle_ms += kTickMs;
            if (options_.idleTimeoutMs &&
                idle_ms >= options_.idleTimeoutMs)
                break;
            continue;
        }
        char buf[65536];
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break; // EOF or hard error
        }
        idle_ms = 0;
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
}

int
Server::run()
{
    int listen_fd = -1;
    std::string where;

    if (!options_.unixPath.empty()) {
        listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd < 0)
            bsim_fatal("bsimd: cannot create unix socket");
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        if (options_.unixPath.size() >= sizeof addr.sun_path) {
            ::close(listen_fd);
            bsim_fatal("bsimd: socket path '", options_.unixPath,
                       "' is too long");
        }
        std::memcpy(addr.sun_path, options_.unixPath.c_str(),
                    options_.unixPath.size() + 1);
        ::unlink(options_.unixPath.c_str()); // stale socket from a crash
        if (::bind(listen_fd,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof addr) != 0) {
            ::close(listen_fd);
            bsim_fatal("bsimd: cannot bind '", options_.unixPath, "'");
        }
        where = "unix:" + options_.unixPath;
    } else if (options_.tcpPort >= 0) {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd < 0)
            bsim_fatal("bsimd: cannot create tcp socket");
        const int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        struct sockaddr_in addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<std::uint16_t>(options_.tcpPort));
        if (::inet_pton(AF_INET, options_.tcpHost.c_str(),
                        &addr.sin_addr) != 1) {
            ::close(listen_fd);
            bsim_fatal("bsimd: bad listen address '", options_.tcpHost,
                       "'");
        }
        if (::bind(listen_fd,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof addr) != 0) {
            ::close(listen_fd);
            bsim_fatal("bsimd: cannot bind ", options_.tcpHost, ":",
                       options_.tcpPort);
        }
        struct sockaddr_in bound;
        socklen_t len = sizeof bound;
        ::getsockname(listen_fd,
                      reinterpret_cast<struct sockaddr *>(&bound),
                      &len);
        boundTcpPort_.store(ntohs(bound.sin_port),
                            std::memory_order_release);
        where = "tcp:" + options_.tcpHost + ":" +
                std::to_string(tcpPort());
    } else {
        bsim_fatal("bsimd: no listen address (--socket or --tcp)");
    }

    if (::listen(listen_fd, 64) != 0) {
        ::close(listen_fd);
        bsim_fatal("bsimd: listen failed");
    }
    std::fprintf(stderr, "bsimd: listening on %s\n", where.c_str());
    std::fflush(stderr);

    while (!draining()) {
        struct pollfd fds[2];
        fds[0].fd = listen_fd;
        fds[0].events = POLLIN;
        fds[0].revents = 0;
        fds[1].fd = wakePipe_[0];
        fds[1].events = POLLIN;
        fds[1].revents = 0;
        const int rc = ::poll(fds, 2, kTickMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (!(fds[0].revents & POLLIN))
            continue;
        const int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0)
            continue;
        std::lock_guard<std::mutex> lock(connMutex_);
        connections_.emplace_back(
            [this, conn] { serveConnection(conn); });
    }

    ::close(listen_fd);
    if (!options_.unixPath.empty())
        ::unlink(options_.unixPath.c_str());

    // Drain: refuse new admissions, let every admitted request finish
    // and its response reach the client, then come home.
    scheduler_.beginDrain();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (std::thread &t : connections_)
            if (t.joinable())
                t.join();
        connections_.clear();
    }
    scheduler_.awaitIdle();
    std::fprintf(stderr, "bsimd: drained, exiting\n");
    return 0;
}

namespace {

Server *signalTarget = nullptr;

void
drainOnSignal(int)
{
    if (signalTarget)
        signalTarget->beginDrain();
}

[[noreturn]] void
serveUsage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n", msg);
    std::fprintf(
        stderr,
        "usage: bsimd (--socket PATH | --tcp [HOST:]PORT)\n"
        "  --socket PATH        listen on a unix-domain socket\n"
        "  --tcp [HOST:]PORT    listen on TCP (default host "
        "127.0.0.1;\n"
        "                       port 0 picks an ephemeral port)\n"
        "  --workers N          request worker threads (default 2, "
        "at most 256)\n"
        "  --queue N            admission queue slots (default 16);\n"
        "                       a full queue answers 'overloaded'\n"
        "  --max-frame BYTES    reject larger request frames "
        "(default 1 MiB)\n"
        "  --idle-timeout-ms N  close idle connections (default: "
        "never)\n"
        "  --trace NAME=PATH    pre-register a trace (repeatable; "
        "bare\n"
        "                       PATH registers under its own name)\n"
        "  --no-trace-paths     only registered names resolve\n"
        "SIGTERM/SIGINT drain gracefully: in-flight requests "
        "complete,\n"
        "new ones are refused with 'shutting-down'. docs/SERVE.md "
        "has the\n"
        "wire protocol.\n");
    std::exit(2);
}

} // namespace

int
serveMain(int argc, char **argv)
{
    ServerOptions opt;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                serveUsage(flag);
            return argv[++i];
        };
        // countFlag/u64Flag: the bsim front ends' checked numbers.
        auto number = [&](auto parse, const char *flag, auto... max) {
            try {
                return parse(flag, need(flag), max...);
            } catch (const UsageError &e) {
                serveUsage(e.what());
            }
        };
        if (!std::strcmp(argv[i], "--socket")) {
            opt.unixPath = need("--socket");
        } else if (!std::strcmp(argv[i], "--tcp")) {
            const std::string spec = need("--tcp");
            const std::size_t colon = spec.rfind(':');
            std::string port = spec;
            if (colon != std::string::npos) {
                opt.tcpHost = spec.substr(0, colon);
                port = spec.substr(colon + 1);
            }
            const std::optional<std::uint64_t> n = parseU64(port);
            if (!n || *n > 65535)
                serveUsage("bad --tcp port");
            opt.tcpPort = static_cast<int>(*n);
        } else if (!std::strcmp(argv[i], "--workers")) {
            opt.workers = number(countFlag, "--workers", kMaxWorkers);
        } else if (!std::strcmp(argv[i], "--queue")) {
            opt.queueCapacity = number(countFlag, "--queue",
                                       std::numeric_limits<unsigned>::max());
        } else if (!std::strcmp(argv[i], "--max-frame")) {
            opt.maxFramePayload =
                static_cast<std::size_t>(number(u64Flag, "--max-frame"));
        } else if (!std::strcmp(argv[i], "--idle-timeout-ms")) {
            opt.idleTimeoutMs = number(u64Flag, "--idle-timeout-ms");
        } else if (!std::strcmp(argv[i], "--trace")) {
            const std::string spec = need("--trace");
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos)
                opt.traces.emplace_back(spec, spec);
            else
                opt.traces.emplace_back(spec.substr(0, eq),
                                        spec.substr(eq + 1));
        } else if (!std::strcmp(argv[i], "--no-trace-paths")) {
            opt.allowTracePaths = false;
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            serveUsage();
        } else {
            serveUsage(argv[i]);
        }
    }
    if (opt.unixPath.empty() && opt.tcpPort < 0)
        serveUsage("no listen address (--socket or --tcp)");

    // A resident server must survive bad requests: configuration
    // errors throw FatalError (caught into typed responses) instead of
    // exiting the process.
    setFatalThrows(true);
    // A client vanishing mid-response must not kill the daemon either.
    std::signal(SIGPIPE, SIG_IGN);

    try {
        Server server(opt);
        signalTarget = &server;
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = drainOnSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        const int rc = server.run();
        signalTarget = nullptr;
        return rc;
    } catch (const FatalError &e) {
        signalTarget = nullptr;
        std::fprintf(stderr, "bsimd: fatal: %s\n", e.what());
        return 1;
    }
}

} // namespace serve
} // namespace bsim
