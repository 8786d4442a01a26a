/**
 * @file
 * Server-throughput harness for the serving layer (src/serve): an
 * in-process bsimd over socketpairs, driven by 1, 4 and 8 concurrent
 * clients issuing back-to-back `run` requests. Reports req/s and
 * client-observed p50/p99 latency per client count, and appends one
 * BENCH_perf.json record per row (accesses_per_sec is the aggregate
 * *simulated* access rate — the same unit every other harness records;
 * req/s and latency ride in the config label).
 *
 *   serve_throughput [--requests N] [--accesses N] [--clients a,b,c]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "bench/bench_json.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "serve/client.hh"
#include "serve/server.hh"

using namespace bsim;
using namespace bsim::serve;

namespace {

using Clock = std::chrono::steady_clock;

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t requests = 24;  // per client
    std::uint64_t accesses = 50'000;
    std::vector<unsigned> clientCounts = {1, 4, 8};

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--requests"))
            requests = std::strtoull(need("--requests"), nullptr, 0);
        else if (!std::strcmp(argv[i], "--accesses"))
            accesses = std::strtoull(need("--accesses"), nullptr, 0);
        else if (!std::strcmp(argv[i], "--clients")) {
            clientCounts.clear();
            const char *s = need("--clients");
            while (*s) {
                clientCounts.push_back(
                    static_cast<unsigned>(std::strtoul(s, nullptr, 0)));
                const char *comma = std::strchr(s, ',');
                if (!comma)
                    break;
                s = comma + 1;
            }
        } else {
            std::fprintf(stderr,
                         "usage: serve_throughput [--requests N] "
                         "[--accesses N] [--clients a,b,c]\n");
            return 2;
        }
    }

    setFatalThrows(true); // server-side failures become typed errors

    RpcRequest req;
    req.cache = "bcache:16kB,mf=8,bas=8";
    req.accesses = accesses;
    req.accessesSet = true;
    req.stats = false;
    const std::string payload = encodeRpcRequest(req);

    Table t({"clients", "requests", "req/s", "p50-ms", "p99-ms",
             "Macc/s"});
    std::vector<bench::PerfRecord> records;

    for (unsigned clients : clientCounts) {
        ServerOptions so;
        so.workers = std::max(2u, clients);
        so.queueCapacity = 4 * clients * static_cast<std::size_t>(
                                             requests);
        Server server(so);

        std::vector<std::thread> serverSide, clientSide;
        std::vector<std::vector<double>> latencies(clients);
        const Clock::time_point start = Clock::now();
        for (unsigned c = 0; c < clients; ++c) {
            int sp[2];
            if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0)
                bsim_fatal("socketpair failed");
            serverSide.emplace_back(
                [&server, fd = sp[0]] { server.serveConnection(fd); });
            clientSide.emplace_back([&, fd = sp[1], c] {
                RpcClient client(fd);
                for (std::uint64_t r = 0; r < requests; ++r) {
                    const Clock::time_point t0 = Clock::now();
                    const RpcResult res =
                        decodeResult(client.call(payload));
                    if (!res.ok)
                        bsim_fatal("request failed: ", res.errorCode,
                                   ": ", res.errorMessage);
                    latencies[c].push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count());
                }
            });
        }
        for (std::thread &th : clientSide)
            th.join();
        const double wall = std::chrono::duration<double>(Clock::now() -
                                                          start)
                                .count();
        for (std::thread &th : serverSide)
            th.join();

        std::vector<double> all;
        for (const auto &v : latencies)
            all.insert(all.end(), v.begin(), v.end());
        const double total =
            static_cast<double>(clients) * static_cast<double>(requests);
        const double reqPerSec = total / wall;
        const double p50 = percentile(all, 0.50);
        const double p99 = percentile(all, 0.99);
        const double accPerSec =
            total * static_cast<double>(accesses) / wall;

        t.row()
            .cell(clients)
            .cell(std::uint64_t(total))
            .cell(reqPerSec, 1)
            .cell(p50, 2)
            .cell(p99, 2)
            .cell(accPerSec / 1e6, 2);

        bench::PerfRecord rec;
        rec.bench = "serve_throughput";
        rec.config = strprintf(
            "clients=%u req/s=%.1f p50=%.2fms p99=%.2fms", clients,
            reqPerSec, p50, p99);
        rec.accessesPerSec = accPerSec;
        rec.wallSeconds = wall;
        rec.jobs = so.workers;
        records.push_back(rec);
    }

    t.print("bsimd throughput (in-process, socketpair transport)");
    const std::string err = bench::appendPerfRecords(records);
    if (!err.empty())
        std::fprintf(stderr, "perf log: %s\n", err.c_str());
    return 0;
}
