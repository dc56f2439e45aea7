/**
 * @file
 * bitfusion_serve: drive the dynamic-batching serving layer.
 *
 *   bitfusion_serve --platform bitfusion --timing overlap
 *   bitfusion_serve --requests 1000 --seed 7 --mean-gap-us 1500
 *                   --max-wait-us 500 --deadline-us 20000
 *   bitfusion_serve --replicas 4 --scheduler edf --deadline-us 20000
 *   bitfusion_serve --fleet bitfusion,bitfusion:16nm,eyeriss
 *   bitfusion_serve --trace trace.txt --json report.json
 *   bitfusion_serve --closed-loop 8 --requests 512
 *
 * Default mode is a seeded synthetic open-loop trace (Poisson
 * arrivals over the eight paper benchmarks); --trace serves a trace
 * file instead (see docs/serving.md for the format), and
 * --closed-loop N runs N always-outstanding clients. --replicas R
 * serves the platform on R identical replicas, --fleet lists a
 * heterogeneous fleet, and --scheduler picks the dispatch policy.
 * Output is byte-identical for a fixed seed/trace regardless of
 * --threads.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/logging.h"
#include "src/serve/scheduler.h"
#include "src/serve/serving_engine.h"

namespace {

using namespace bitfusion;
using namespace bitfusion::serve;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--platform KIND[:VARIANT]] [--timing simple|overlap]\n"
        "  fleet: [--replicas R] [--fleet KIND[:VARIANT],...]\n"
        "      [--scheduler %s] [--slo-us B]\n"
        "  open loop (default): [--requests N] [--seed S]\n"
        "      [--mean-gap-us G] [--req-samples MAX] [--deadline-us D]\n"
        "      [--networks A,B,...] [--trace PATH] [--dump-trace PATH]\n"
        "  arrivals: [--arrival poisson|mmpp] [--mmpp-burst-x M]\n"
        "      [--mmpp-burst-us T] [--mmpp-calm-us T]\n"
        "      [--diurnal-period-us P --diurnal-amplitude A]\n"
        "      [--flash-at-us T --flash-for-us T --flash-x M]\n"
        "  closed loop: --closed-loop CLIENTS [--requests N]\n"
        "      [--samples PER_REQUEST] [--seed S] [--deadline-us D]\n"
        "      [--networks A,B,...]\n"
        "  batching: [--max-batch B] [--max-wait-us W]\n"
        "      [--switch-penalty-us P]\n"
        "  admission: [--max-queue-depth N] [--shed-unmeetable]\n"
        "  faults: [--fail-replica ID@T[:for=D]]...\n"
        "      [--fail-rack ID@T[:for=D]]... [--rack-size N]\n"
        "      [--mtbf-us M --mttr-us R] [--fault-seed S]\n"
        "  retries: [--retry-max N] [--retry-backoff-us B]\n"
        "      [--retry-jitter F] [--retry-budget N]\n"
        "      [--hedge-us D | --hedge-p99-x M]\n"
        "  output: [--json PATH] [--per-request] [--threads N]\n"
        "      [--streaming-stats] [--active-window]\n"
        "  registries: [--list-platforms] [--list-schedulers]\n",
        argv0, schedulerNames().c_str());
    return 2;
}

/** One line per registered platform kind: kind, variants, help. */
void
printPlatforms()
{
    std::printf("platforms (--platform / --fleet KIND[:VARIANT]):\n");
    for (const auto &entry : PlatformRegistry::builtin().entries()) {
        std::printf("  %-11s %-40s %s\n", entry.kind.c_str(),
                    entry.variants.c_str(), entry.help.c_str());
    }
}

/** One line per registered scheduler: name and help. */
void
printSchedulers()
{
    std::printf("schedulers (--scheduler NAME):\n");
    for (const auto &entry : SchedulerRegistry::builtin().entries()) {
        std::printf("  %-11s %s\n", entry.name.c_str(),
                    entry.help.c_str());
    }
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream in(csv);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

void
printPercentiles(const char *label, const Percentiles &p)
{
    std::printf("%s p50 %10.1f   p95 %10.1f   p99 %10.1f   "
                "mean %10.1f   max %10.1f\n",
                label, p.p50, p.p95, p.p99, p.mean, p.max);
}

void
printReport(const ServeReport &report)
{
    if (report.fleetReport()) {
        std::printf("=== Serving %s (%s, scheduler=%s, timing=%s, "
                    "max batch %u, window %.0f us) ===\n\n",
                    report.platform.c_str(), report.mode.c_str(),
                    report.scheduler.c_str(), toString(report.timing),
                    report.maxBatch, report.maxWaitUs);
    } else {
        std::printf("=== Serving %s (%s, timing=%s, max batch %u"
                    ", window %.0f us) ===\n\n",
                    report.platform.c_str(), report.mode.c_str(),
                    toString(report.timing), report.maxBatch,
                    report.maxWaitUs);
    }
    std::printf("requests: %zu (%llu samples) in %.1f ms of virtual "
                "time\n",
                report.requestCount,
                static_cast<unsigned long long>(report.totalSamples),
                report.makespanUs / 1000.0);
    std::printf("batches:  %zu dispatched, mean fill %.1f%%, %zu "
                "distinct (network, batch) shapes\n",
                report.batchCount, 100.0 * report.batchFill(),
                report.distinctBatchShapes);
    std::printf("throughput: %.1f requests/s, %.1f samples/s%s\n\n",
                report.requestsPerSec(), report.samplesPerSec(),
                report.activeWindow ? " (active window)" : "");
    printPercentiles(report.streamingStats ? "latency (us)*"
                                           : "latency (us):",
                     report.latencyUs());
    printPercentiles(report.streamingStats ? "queue   (us)*"
                                           : "queue   (us):",
                     report.queueUs());
    if (report.streamingStats)
        std::printf("  (* p50/p95/p99 are streaming P2 estimates)\n");
    std::printf("\ndeadline misses: %zu\n", report.deadlineMisses);
    if (report.admissionControl) {
        std::printf("shed: %zu (%zu by queue depth, %zu by "
                    "unmeetable deadline)\n",
                    report.shedRequests, report.shedByDepth,
                    report.shedByDeadline);
        if (report.faultReport)
            std::printf("  (%zu shed while the fleet was degraded)\n",
                        report.shedDegraded);
    }
    if (report.switchReport) {
        std::printf("network switches: %zu (%.1f us reload penalty "
                    "total)\n",
                    report.networkSwitches,
                    report.switchPenaltyTotalUs);
    }
    if (report.faultReport) {
        std::printf("\navailability: fleet %.2f%%, goodput %.2f%% "
                    "(%zu issued, %zu served, %zu shed, %zu "
                    "abandoned)\n",
                    100.0 * report.fleetAvailability(),
                    100.0 * report.goodput(), report.requestsIssued,
                    report.requestCount, report.shedRequests,
                    report.requestsAbandoned);
        std::printf("faults: %zu batches lost, %zu request losses, "
                    "%zu recovered, %zu retries issued\n",
                    report.lostBatches, report.requestLossEvents,
                    report.requestsRecovered, report.retriesIssued);
        if (report.hedgesIssued > 0) {
            std::printf("hedges: %zu issued, %zu won, %zu cancelled, "
                        "%zu lost\n",
                        report.hedgesIssued, report.hedgesWon,
                        report.hedgesCancelled, report.hedgesLost);
        }
        if (report.lastRecoveryUs > 0.0) {
            std::printf("recovery: last at %.1f ms, drained %.1f ms "
                        "later\n",
                        report.lastRecoveryUs / 1000.0,
                        report.drainAfterRecoveryUs / 1000.0);
        }
    }
    if (report.fleetReport() || report.faultReport) {
        std::printf("replicas:\n");
        for (std::size_t r = 0; r < report.replicas.size(); ++r) {
            const ReplicaUsage &usage = report.replicas[r];
            std::printf("  [%zu] %-34s %5zu batches  %6llu samples  "
                        "util %5.1f%%",
                        r, usage.platform.c_str(), usage.batches,
                        static_cast<unsigned long long>(usage.samples),
                        100.0 * usage.utilization);
            if (usage.energyJ > 0.0)
                std::printf("  %.4f J", usage.energyJ);
            if (report.faultReport) {
                std::printf("  down %.1f us  lost %zu  wasted %.1f us",
                            usage.downUs, usage.lostBatches,
                            usage.wastedUs);
            }
            std::printf("\n");
        }
    }
    if (report.energyJ > 0.0) {
        std::printf("energy: %.4f J (%.2f uJ/sample)\n", report.energyJ,
                    1e6 * report.energyJ /
                        static_cast<double>(report.totalSamples));
    } else {
        std::printf("energy: - (platform models time only)\n");
    }
    std::printf("artifact cache: %zu compiles, %zu hits\n",
                report.compiles, report.cacheHits);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string platformToken = "bitfusion";
    std::string fleetTokens;
    std::string tracePath, dumpTracePath, jsonPath;
    TraceSpec traceSpec;
    ClosedLoopSpec closedSpec;
    ServeOptions options;
    bool closedLoop = false;
    bool perRequest = false;
    bool platformGiven = false;
    bool fleetGiven = false;
    bool replicasGiven = false;
    std::string openOnlyFlag, closedOnlyFlag, generatorFlag;
    std::string mmppKnob, flashKnob;

    // Time-valued flags accept fractions; counts and seeds must be
    // exact integers (a seed routed through a double would silently
    // round above 2^53).
    const auto numArg = [&](int &i, const char *flag) {
        return cli::doubleArg(argc, argv, i, flag);
    };
    const auto intArg = [&](int &i, const char *flag) {
        return cli::uintArg(argc, argv, i, flag);
    };
    // Flags stored in 32-bit fields reject what a cast would truncate.
    const auto int32Arg = [&](int &i, const char *flag) {
        return static_cast<unsigned>(
            cli::uintArg(argc, argv, i, flag, UINT32_MAX));
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--platform" && i + 1 < argc) {
            platformToken = argv[++i];
            platformGiven = true;
        } else if (arg == "--fleet" && i + 1 < argc) {
            fleetTokens = argv[++i];
            fleetGiven = true;
        } else if (arg == "--replicas") {
            options.replicas = int32Arg(i, "--replicas");
            replicasGiven = true;
        } else if (arg == "--scheduler" && i + 1 < argc) {
            options.scheduler = argv[++i];
        } else if (arg == "--slo-us") {
            options.sloBudgetUs = numArg(i, "--slo-us");
        } else if (arg == "--timing") {
            options.timing = timingArg(argc, argv, i);
        } else if (arg == "--threads") {
            options.threads = int32Arg(i, "--threads");
        } else if (arg == "--requests") {
            traceSpec.requests =
                static_cast<std::size_t>(intArg(i, "--requests"));
            closedSpec.requests = traceSpec.requests;
            generatorFlag = arg;
        } else if (arg == "--seed") {
            traceSpec.seed = intArg(i, "--seed");
            closedSpec.seed = traceSpec.seed;
            generatorFlag = arg;
        } else if (arg == "--mean-gap-us") {
            traceSpec.meanGapUs = numArg(i, "--mean-gap-us");
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--req-samples") {
            traceSpec.maxSamples = int32Arg(i, "--req-samples");
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--deadline-us") {
            traceSpec.deadlineSlackUs = numArg(i, "--deadline-us");
            closedSpec.deadlineSlackUs = traceSpec.deadlineSlackUs;
            generatorFlag = arg;
        } else if (arg == "--networks" && i + 1 < argc) {
            traceSpec.networks = splitList(argv[++i]);
            closedSpec.networks = traceSpec.networks;
            generatorFlag = arg;
        } else if (arg == "--arrival" && i + 1 < argc) {
            const std::string process = argv[++i];
            if (process == "poisson") {
                traceSpec.process = ArrivalProcess::Poisson;
            } else if (process == "mmpp") {
                traceSpec.process = ArrivalProcess::Mmpp;
            } else {
                std::fprintf(stderr,
                             "--arrival must be poisson or mmpp, "
                             "got '%s'\n",
                             process.c_str());
                return 2;
            }
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--mmpp-burst-x") {
            traceSpec.burstRateMultiplier = numArg(i, "--mmpp-burst-x");
            mmppKnob = arg;
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--mmpp-burst-us") {
            traceSpec.meanBurstUs = numArg(i, "--mmpp-burst-us");
            mmppKnob = arg;
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--mmpp-calm-us") {
            traceSpec.meanCalmUs = numArg(i, "--mmpp-calm-us");
            mmppKnob = arg;
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--diurnal-period-us") {
            traceSpec.diurnalPeriodUs =
                numArg(i, "--diurnal-period-us");
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--diurnal-amplitude") {
            traceSpec.diurnalAmplitude =
                numArg(i, "--diurnal-amplitude");
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--flash-at-us") {
            traceSpec.flashStartUs = numArg(i, "--flash-at-us");
            flashKnob = arg;
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--flash-for-us") {
            traceSpec.flashDurationUs = numArg(i, "--flash-for-us");
            flashKnob = arg;
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--flash-x") {
            traceSpec.flashMultiplier = numArg(i, "--flash-x");
            flashKnob = arg;
            openOnlyFlag = arg;
            generatorFlag = arg;
        } else if (arg == "--max-queue-depth") {
            options.maxQueueDepth =
                static_cast<std::size_t>(intArg(i, "--max-queue-depth"));
            openOnlyFlag = arg;
        } else if (arg == "--shed-unmeetable") {
            options.shedUnmeetable = true;
        } else if (arg == "--streaming-stats") {
            options.streamingStats = true;
        } else if (arg == "--active-window") {
            options.activeWindowStats = true;
        } else if (arg == "--max-batch") {
            options.maxBatch = int32Arg(i, "--max-batch");
        } else if (arg == "--max-wait-us") {
            options.maxWaitUs = numArg(i, "--max-wait-us");
        } else if (arg == "--switch-penalty-us") {
            options.switchPenaltyUs = numArg(i, "--switch-penalty-us");
        } else if (arg == "--fail-replica" && i + 1 < argc) {
            options.faults.replicaEvents.push_back(
                parseFaultEvent(argv[++i], "--fail-replica"));
        } else if (arg == "--fail-rack" && i + 1 < argc) {
            options.faults.rackEvents.push_back(
                parseFaultEvent(argv[++i], "--fail-rack"));
        } else if (arg == "--rack-size") {
            options.faults.rackSize =
                static_cast<std::size_t>(intArg(i, "--rack-size"));
        } else if (arg == "--mtbf-us") {
            options.faults.mtbfUs = numArg(i, "--mtbf-us");
        } else if (arg == "--mttr-us") {
            options.faults.mttrUs = numArg(i, "--mttr-us");
        } else if (arg == "--fault-seed") {
            options.faults.seed = intArg(i, "--fault-seed");
        } else if (arg == "--retry-max") {
            options.retry.maxAttempts = int32Arg(i, "--retry-max");
        } else if (arg == "--retry-backoff-us") {
            options.retry.backoffBaseUs =
                numArg(i, "--retry-backoff-us");
        } else if (arg == "--retry-jitter") {
            options.retry.jitterFrac = numArg(i, "--retry-jitter");
        } else if (arg == "--retry-budget") {
            options.retry.retryBudget =
                static_cast<std::size_t>(intArg(i, "--retry-budget"));
        } else if (arg == "--hedge-us") {
            options.retry.hedgeDelayUs = numArg(i, "--hedge-us");
        } else if (arg == "--hedge-p99-x") {
            options.retry.hedgeP99Multiplier =
                numArg(i, "--hedge-p99-x");
        } else if (arg == "--closed-loop") {
            closedLoop = true;
            closedSpec.clients = int32Arg(i, "--closed-loop");
        } else if (arg == "--samples") {
            closedSpec.samples = int32Arg(i, "--samples");
            closedOnlyFlag = arg;
        } else if (arg == "--trace" && i + 1 < argc) {
            tracePath = argv[++i];
            openOnlyFlag = arg;
        } else if (arg == "--dump-trace" && i + 1 < argc) {
            dumpTracePath = argv[++i];
            openOnlyFlag = arg;
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (arg == "--per-request") {
            perRequest = true;
        } else if (arg == "--list-platforms") {
            printPlatforms();
            return 0;
        } else if (arg == "--list-schedulers") {
            printSchedulers();
            return 0;
        } else {
            return usage(argv[0]);
        }
    }
    // A flag that only affects the other mode would be silently
    // ignored; reject it so nobody benchmarks the wrong workload.
    if (closedLoop && !openOnlyFlag.empty()) {
        std::fprintf(stderr, "%s only applies to open-loop mode\n",
                     openOnlyFlag.c_str());
        return 2;
    }
    if (!closedLoop && !closedOnlyFlag.empty()) {
        std::fprintf(stderr,
                     "%s only applies to --closed-loop mode\n",
                     closedOnlyFlag.c_str());
        return 2;
    }
    // A trace file fixes the workload; request-generator flags would
    // be silently overridden by it.
    if (!tracePath.empty() && !generatorFlag.empty()) {
        std::fprintf(stderr,
                     "%s configures the synthetic generator and has "
                     "no effect with --trace\n",
                     generatorFlag.c_str());
        return 2;
    }
    // A fleet list names every replica itself.
    if (fleetGiven && platformGiven) {
        std::fprintf(stderr,
                     "--fleet lists every replica; it conflicts with "
                     "--platform\n");
        return 2;
    }
    if (fleetGiven && replicasGiven) {
        std::fprintf(stderr,
                     "--fleet lists every replica; it conflicts with "
                     "--replicas\n");
        return 2;
    }
    if (options.replicas == 0) {
        std::fprintf(stderr, "--replicas must be at least 1\n");
        return 2;
    }
    // Burst-process knobs that the selected process would silently
    // ignore are rejected the same way mode-mismatched flags are.
    if (!mmppKnob.empty() &&
        traceSpec.process != ArrivalProcess::Mmpp) {
        std::fprintf(stderr, "%s only applies with --arrival mmpp\n",
                     mmppKnob.c_str());
        return 2;
    }
    if ((traceSpec.diurnalPeriodUs > 0.0) !=
        (traceSpec.diurnalAmplitude > 0.0)) {
        std::fprintf(stderr,
                     "the diurnal envelope needs both "
                     "--diurnal-period-us and --diurnal-amplitude\n");
        return 2;
    }
    if (!flashKnob.empty() && traceSpec.flashDurationUs <= 0.0) {
        std::fprintf(stderr,
                     "the flash crowd needs a positive window "
                     "(--flash-for-us)\n");
        return 2;
    }
    if (traceSpec.flashDurationUs > 0.0 &&
        traceSpec.flashMultiplier <= 1.0) {
        std::fprintf(stderr,
                     "the flash crowd needs a multiplier above 1 "
                     "(--flash-x)\n");
        return 2;
    }
    // Mis-paired scheduler knobs would silently change the policy
    // under the benchmark; fail fast instead.
    if (options.scheduler == "slo" && options.sloBudgetUs <= 0.0) {
        std::fprintf(stderr,
                     "--scheduler slo needs a latency budget "
                     "(--slo-us B)\n");
        return 2;
    }
    if (options.scheduler != "slo" && options.sloBudgetUs > 0.0) {
        std::fprintf(stderr,
                     "--slo-us only applies to --scheduler slo\n");
        return 2;
    }
    if (options.scheduler == "lookahead" && options.maxWaitUs <= 0.0) {
        std::fprintf(stderr,
                     "--scheduler lookahead needs a starvation bound "
                     "(--max-wait-us W)\n");
        return 2;
    }
    if ((options.scheduler == "edf" || options.scheduler == "slo") &&
        options.maxWaitUs > 0.0) {
        std::fprintf(stderr,
                     "--max-wait-us only applies to the fifo and "
                     "lookahead schedulers (%s never idles on a "
                     "timer)\n",
                     options.scheduler.c_str());
        return 2;
    }

    // Per-request records exist to be dumped; holding them for a
    // million-request run nobody asked to inspect wastes O(requests)
    // memory, so retention follows --per-request.
    options.retainRecords = perRequest;

    std::vector<PlatformSpec> fleet;
    if (fleetGiven) {
        fleet = PlatformRegistry::builtin().parseFleet(fleetTokens);
    } else {
        fleet.push_back(PlatformRegistry::builtin().parse(platformToken));
    }
    ServingEngine engine(std::move(fleet), options);

    // Request sizes are bounded by the coalescing cap; both are
    // known from the flags, so fail before any work happens.
    const unsigned cap = engine.maxBatch();
    const unsigned perRequestSamples =
        closedLoop ? closedSpec.samples
                   : (tracePath.empty() ? traceSpec.maxSamples : 0);
    if (perRequestSamples > cap) {
        std::fprintf(stderr,
                     "%s %u exceeds the max batch of %u samples "
                     "(--max-batch or the platform batch)\n",
                     closedLoop ? "--samples" : "--req-samples",
                     perRequestSamples, cap);
        return 2;
    }

    ServeReport report;
    if (closedLoop) {
        report = engine.runClosedLoop(closedSpec);
    } else {
        std::vector<InferenceRequest> trace;
        if (!tracePath.empty()) {
            std::ifstream in(tracePath);
            if (!in)
                BF_FATAL("cannot read trace '", tracePath, "'");
            std::stringstream text;
            text << in.rdbuf();
            trace = parseTrace(text.str(), tracePath);
        } else {
            trace = syntheticTrace(traceSpec);
        }
        if (!dumpTracePath.empty()) {
            std::ofstream out(dumpTracePath);
            if (!out)
                BF_FATAL("cannot write trace to '", dumpTracePath, "'");
            out << formatTrace(trace);
        }
        report = engine.run(trace);
    }

    printReport(report);
    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out)
            BF_FATAL("cannot write JSON to '", jsonPath, "'");
        out << report.json(perRequest) << "\n";
    }
    return 0;
}
