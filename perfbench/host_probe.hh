/**
 * @file
 * Host probe recorded with every benchmark run, so a reader can spot a
 * run made on a busy or throttled host: CPU count, load average, CPU
 * model, the time of a fixed calibration loop, and how that loop scales
 * when 1..nproc copies run at once.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <string>
#include <vector>

namespace perfbench {

struct HostProbe
{
    unsigned nproc = 1;
    double load1 = 0.0, load5 = 0.0, load15 = 0.0;
    std::string cpuModel;
    /** Wall time of one calibration loop running alone. */
    double calibMs = 0.0;
    /**
     * Entry k-1: slowest copy's wall time with k copies running at
     * once, in ms. A quiet host keeps these near calibMs.
     */
    std::vector<double> concurrentMs;
};

HostProbe probeHost();

/** One-line JSON record of @p probe. */
std::string toJson(const HostProbe &probe);

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
