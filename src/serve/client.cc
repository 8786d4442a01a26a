#include "serve/client.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/config.hh"

namespace bsim {
namespace serve {

RpcClient::~RpcClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

RpcClient &
RpcClient::operator=(RpcClient &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

RpcClient
RpcClient::connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        bsim_fatal("cannot create unix socket");
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        ::close(fd);
        bsim_fatal("socket path '", path, "' is too long");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        bsim_fatal("cannot connect to '", path,
                   "' (is bsimd running?)");
    }
    return RpcClient(fd);
}

RpcClient
RpcClient::connectTcp(const std::string &host, int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        bsim_fatal("cannot create tcp socket");
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        bsim_fatal("bad server address '", host, "'");
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        bsim_fatal("cannot connect to ", host, ":", port,
                   " (is bsimd running?)");
    }
    return RpcClient(fd);
}

std::string
RpcClient::call(const std::string &request_json)
{
    bsim_assert(fd_ >= 0);
    if (!sendFrameTo(fd_, request_json))
        bsim_fatal("connection lost while sending the request");
    std::string payload;
    for (;;) {
        const FrameStatus st = decoder_.next(&payload);
        if (st == FrameStatus::Frame)
            return payload;
        if (st != FrameStatus::NeedMore)
            bsim_fatal("undecodable response framing (",
                       frameStatusName(st), ")");
        char buf[65536];
        const ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            bsim_fatal("connection error while reading the response");
        }
        if (n == 0)
            bsim_fatal("server closed the connection mid-response");
        decoder_.feed(buf, static_cast<std::size_t>(n));
    }
}

bool
sendFrameTo(int fd, const std::string &payload)
{
    const std::string frame = encodeFrame(payload);
    std::size_t off = 0;
    while (off < frame.size()) {
#ifdef MSG_NOSIGNAL
        const ssize_t n = ::send(fd, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
#else
        const ssize_t n =
            ::write(fd, frame.data() + off, frame.size() - off);
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

RpcResult
decodeResult(const std::string &payload)
{
    std::string schema_error;
    if (!validateRpcEnvelope(payload, &schema_error))
        bsim_fatal("malformed response envelope: ", schema_error);
    const JsonValue doc = *parseJson(payload);
    RpcResult r;
    r.ok = doc.find("ok")->boolean;
    if (r.ok) {
        // dump() re-emits number lexemes and key order verbatim, so
        // the reconstructed body is byte-identical to what the server
        // embedded — the client half of the bit-identity contract.
        r.body = doc.find("body")->dump();
        return r;
    }
    const JsonValue *err = doc.find("error");
    r.errorCode = err->find("code")->string;
    r.errorMessage = err->find("message")->string;
    return r;
}

namespace {

[[noreturn]] void
connectUsage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n", msg);
    std::fprintf(
        stderr,
        "usage: bsim --connect TARGET [request flags]\n"
        "  TARGET               a unix socket path, or HOST:PORT / "
        ":PORT for TCP\n"
        "run requests (default op):\n"
        "  --cache SPEC         cache spec (required; --list-caches "
        "asks the server)\n"
        "  --trace NAME         registered trace name or server-side "
        "path\n"
        "  --workload NAME --side data|inst --seed N\n"
        "  --sample U:P:W --shards N --jobs N --accesses N --batch N\n"
        "  --json               compact --json record instead of the\n"
        "                       bsim-stats-v1 document\n"
        "  --deadline-ms N      give up if still queued after N ms\n"
        "  --repeat N           send the request N times\n"
        "other ops:\n"
        "  --ping | --metrics | --list-caches | --list-traces\n"
        "The stats body is printed to stdout with a trailing newline —\n"
        "byte-identical to the same one-shot `bsim ... --stats-json -` "
        "run.\n");
    std::exit(2);
}

/** Split TARGET: a trailing all-digit component after ':' means TCP. */
void
parseTarget(const std::string &target, ConnectArgs &a)
{
    const std::size_t colon = target.rfind(':');
    if (colon == std::string::npos || colon + 1 == target.size() ||
        target.find_first_not_of("0123456789", colon + 1) !=
            std::string::npos) {
        a.socketPath = target;
        return;
    }
    if (colon > 0)
        a.host = target.substr(0, colon);
    const std::string port = target.substr(colon + 1);
    const std::optional<std::uint64_t> n = parseU64(port);
    if (!n || *n < 1 || *n > 65535)
        throw UsageError("bad --connect port '" + port +
                         "': expected 1 to 65535");
    a.port = static_cast<int>(*n);
}

} // namespace

ConnectArgs
parseConnectArgs(int argc, char **argv)
{
    ConnectArgs a;
    bool haveTarget = false;
    try {
        for (int i = 1; i < argc; ++i) {
            if (readRunFlag(argc, argv, i, a.request))
                continue;
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw UsageError(arg + " needs a value");
                return argv[++i];
            };
            // --ping, --metrics, --list-caches, --list-traces.
            const RpcRequest::Op op =
                arg.starts_with("--")
                    ? rpcOpFromName(arg.substr(2))
                          .value_or(RpcRequest::Op::Run)
                    : RpcRequest::Op::Run;
            if (arg == "--connect") {
                parseTarget(value(), a);
                haveTarget = true;
            } else if (op != RpcRequest::Op::Run) {
                a.request.op = op;
            } else if (arg == "--json") {
                a.request.stats = false;
            } else if (arg == "--deadline-ms") {
                a.request.deadlineMs = u64Flag(arg, value());
            } else if (arg == "--repeat") {
                a.repeat = u64Flag(arg, value());
            } else if (arg == "--help" || arg == "-h") {
                connectUsage();
            } else {
                throw UsageError("unknown flag '" + arg + "'");
            }
        }
    } catch (const UsageError &e) {
        connectUsage(e.what());
    }
    if (!haveTarget)
        connectUsage("--connect TARGET is required");
    if (a.request.op == RpcRequest::Op::Run && a.request.cache.empty())
        connectUsage("run requests need --cache "
                     "(or pick --ping/--metrics/--list-caches/"
                     "--list-traces)");
    return a;
}

int
connectMain(int argc, char **argv)
{
    const ConnectArgs a = parseConnectArgs(argc, argv);
    const std::string payload = encodeRpcRequest(a.request);
    try {
        RpcClient client = a.port ? RpcClient::connectTcp(a.host, a.port)
                                  : RpcClient::connectUnix(a.socketPath);
        int rc = 0;
        for (std::uint64_t n = 0; n < a.repeat; ++n) {
            const RpcResult result =
                decodeResult(client.call(payload));
            if (!result.ok) {
                std::fprintf(stderr, "error: %s: %s\n",
                             result.errorCode.c_str(),
                             result.errorMessage.c_str());
                rc = 1;
                continue;
            }
            std::printf("%s\n", result.body.c_str());
        }
        return rc;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace serve
} // namespace bsim
