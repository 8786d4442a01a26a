#include "host_probe.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "benchmath.hh"
#include "common/json.hh"

namespace perfbench {

namespace {

/** Fixed integer work: 2^25 xorshift steps, about 30-60 ms on x86. */
std::uint64_t
calibrationLoop(std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (std::uint32_t i = 0; i < (1u << 25); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/** Run @p copies loops at once; the slowest copy's wall time (ms). */
double
timeConcurrent(unsigned copies)
{
    std::atomic<std::uint64_t> sink{0};
    std::vector<double> ms(copies);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < copies; ++c) {
        threads.emplace_back([&, c] {
            const auto t0 = Clock::now();
            sink += calibrationLoop(c + 1);
            ms[c] = secondsBetween(t0, Clock::now()) * 1e3;
        });
    }
    for (auto &t : threads)
        t.join();
    double worst = 0.0;
    for (double v : ms)
        worst = std::max(worst, v);
    return worst;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

HostProbe
probeHost()
{
    HostProbe p;
    p.nproc = std::max(1u, std::thread::hardware_concurrency());
    double load[3] = {0, 0, 0};
    if (::getloadavg(load, 3) == 3) {
        p.load1 = load[0];
        p.load5 = load[1];
        p.load15 = load[2];
    }
    p.cpuModel = cpuModel();
    for (unsigned k = 1; k <= p.nproc; ++k)
        p.concurrentMs.push_back(timeConcurrent(k));
    p.calibMs = p.concurrentMs.front();
    return p;
}

std::string
toJson(const HostProbe &p)
{
    bsim::JsonWriter j;
    j.beginObject()
        .kv("nproc", p.nproc)
        .kv("load1", p.load1)
        .kv("load5", p.load5)
        .kv("load15", p.load15)
        .kv("cpu_model", p.cpuModel)
        .kv("calib_ms", p.calibMs);
    j.key("concurrent_ms").beginArray();
    for (double v : p.concurrentMs)
        j.value(v);
    j.endArray().endObject();
    return j.str();
}

} // namespace perfbench
