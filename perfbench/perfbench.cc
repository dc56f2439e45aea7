/**
 * @file
 * Benchmark harness binary. perfbench/run.py builds and drives it:
 *
 *   perfbench --workload NAME --seed N --seconds S --out RAW.json
 *             [--trace-out SPANS.json] [--input PATH]
 *
 * It sets the workload up, measures it, checks its outputs, and
 * writes the raw samples to --out. With --trace-out it also records a
 * span around each library call and writes them as Chrome Trace
 * Event JSON (open in Perfetto). Exit 2 on bad arguments, 1 when the
 * run itself fails; failed correctness checks are reported in --out.
 */

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
    return ok;
}

namespace {

using bitfusion::json::Value;

Value
samples(const std::vector<double> &values)
{
    Value out = Value::array();
    for (double v : values)
        out.push(v);
    return out;
}

double
peakRssKb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload serve_replay_day|serve_chaos_fleet"
                 "|isa_zoo_mixed|sweep_grid_cold --seed N --seconds S "
                 "--out PATH [--trace-out PATH] [--input PATH]\n",
                 argv0);
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    BenchOptions opts;
    std::string workload, outPath, tracePath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                workload = value;
            else if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--out")
                outPath = value;
            else if (arg == "--trace-out")
                tracePath = value;
            else if (arg == "--input")
                opts.input = value;
            else
                return usage(argv[0]);
        } catch (const std::exception &) {
            return usage(argv[0]);
        }
    }
    if (workload.empty() || outPath.empty() || !(opts.seconds > 0.0))
        return usage(argv[0]);

    Tracer tracer(!tracePath.empty());
    Measurements m;
    try {
        if (workload == "serve_replay_day")
            m = serveReplayDay(opts, tracer);
        else if (workload == "serve_chaos_fleet")
            m = serveChaosFleet(opts, tracer);
        else if (workload == "isa_zoo_mixed")
            m = isaZooMixed(opts, tracer);
        else if (workload == "sweep_grid_cold")
            m = sweepGridCold(opts, tracer);
        else
            return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    Value failures = Value::array();
    for (const std::string &f : m.checks.failures)
        failures.push(f);
    Value doc = Value::object();
    doc.set("workload", workload)
        .set("seed", static_cast<std::uint64_t>(opts.seed))
        .set("threads", m.threads)
        .set("item", m.item)
        .set("items_per_pass", m.itemsPerPass)
        .set("setup_s", samples(m.setupS))
        .set("pass_s", samples(m.passS))
        .set("traced_pass_s", samples(m.tracedPassS))
        .set("traced_base_s", samples(m.tracedBaseS))
        .set("serial_pass_s", samples(m.serialPassS))
        .set("parallel_pass_s", samples(m.parallelPassS))
        .set("peak_rss_kb", peakRssKb())
        .set("counts", m.counts)
        .set("checks", Value::object()
                           .set("attempted", m.checks.attempted)
                           .set("failed", m.checks.failed)
                           .set("failures", std::move(failures)));
    std::ofstream out(outPath);
    out << doc.dump(2) << "\n";
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    if (tracer.enabled() && !tracer.write(tracePath)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     tracePath.c_str());
        return 1;
    }
    return 0;
}
