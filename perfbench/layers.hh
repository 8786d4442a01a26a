/**
 * @file
 * The traced run's layer ladder: timed calls into each layer's public
 * functions — workload (generator, trace open/decode), cache (build,
 * accessBatch per organisation), observe (observer cost, export), sim
 * (Session, sweep, sampled replay), the `bsim` process and serve (parse,
 * body, RPC) — over one workload's generated inputs. Every call is
 * recorded as a span so the run can also report self time per layer.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "benchmath.hh"
#include "workloads.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0; ///< measurements behind the value
};

/**
 * Run the ladder over @p in; one Metric per per-layer metric. The outputs
 * of the calls it times (bsim reports, served replies, sweep and sampled
 * results) are checked, each check counted in @p tally.
 */
std::vector<Metric> runLadder(const LadderInputs &in,
                              const RunOptions &options,
                              SpanRecorder &spans, Tally &tally);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
