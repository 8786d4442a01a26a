/**
 * @file
 * The bsim binary. `bsim --serve ...` is bsimd, the bsim-rpc-v1 server,
 * and `bsim --connect ...` its client (src/serve); any other command
 * line is the one-shot driver (sim/bsim_driver.hh), whose sweep-backed
 * runs (--shards) append a record to BENCH_perf.json via
 * bench::reportSweepPerf. docs/TRACES.md covers the trace workflow and
 * docs/SERVE.md the wire protocol.
 */

#include <cstring>

#include "bench/bench_json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/bsim_driver.hh"

int
main(int argc, char **argv)
{
    if (argc > 1 && !std::strcmp(argv[1], "--serve")) {
        // serveMain parses the flags after --serve.
        argv[1] = argv[0];
        return bsim::serve::serveMain(argc - 1, argv + 1);
    }
    if (argc > 1 && !std::strcmp(argv[1], "--connect"))
        return bsim::serve::connectMain(argc, argv);

    bsim::BsimHooks hooks;
    hooks.onSweepDone = [](const std::string &config,
                           const bsim::SweepSummary &summary) {
        bsim::bench::reportSweepPerf("bsim", config, summary);
    };
    return bsim::bsimMain(argc, argv, hooks);
}
