/**
 * @file
 * f3d_perfbench: the repository benchmark's measuring binary.
 *
 *   f3d_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--workdir DIR]
 *   f3d_perfbench --selftest
 *   f3d_perfbench --list-metrics
 *
 * Normally started through perfbench/run.py, which builds it first.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: f3d_perfbench --workload reconstruct|stream_fleet|"
                 "chip_sim --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n"
                 "       f3d_perfbench --selftest | --list-metrics\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.threads =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest")
            return selfTest() + streamScheduleSelfTest() == 0 ? 0 : 1;
        if (arg == "--list-metrics") {
            for (const MetricDef &m : metricTable())
                std::printf("%s %s %s\n", m.perLayer ? "per_layer" : "end_to_end",
                            m.name, m.unit);
            return 0;
        }
        if (!has_value)
            return usage();
        const char *value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value);
        else if (arg == "--trace")
            opts.trace = std::atoi(value) != 0;
        else if (arg == "--workdir")
            opts.workdir = value;
        else
            return usage();
    }
    if (opts.seconds <= 0.0)
        return usage();

    Report rep(opts);
    if (opts.workload == "reconstruct")
        runReconstruct(opts, rep);
    else if (opts.workload == "stream_fleet")
        runStreamFleet(opts, rep);
    else if (opts.workload == "chip_sim")
        runChipSim(opts, rep);
    else
        return usage();
    return rep.finish();
}
