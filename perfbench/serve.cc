/**
 * @file
 * The two serving workloads.
 *
 * serve_replay_day replays a bursty day handed in as trace text, the
 * bitfusion_serve --trace path: parseTrace and the open-loop event
 * loop do the work. serve_chaos_fleet generates its trace in process
 * and serves it on a mixed fleet with outages, retries and hedging:
 * re-injected requests, routing and the fault timeline do the work.
 */

#include "perfbench/workloads.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "src/core/artifact_cache.h"
#include "src/serve/serving_engine.h"

namespace perfbench {

using namespace bitfusion;
using namespace bitfusion::serve;

namespace {

/**
 * The settings both serve workloads share. Only the precompile step
 * is parallel, and it takes about a millisecond; one thread keeps
 * thread start-up noise out of set-up.
 */
ServeOptions
commonOptions(ArtifactCache &cache)
{
    ServeOptions options;
    options.threads = 1;
    options.cache = &cache;
    options.streamingStats = true;
    options.retainRecords = false;
    options.shedUnmeetable = true;
    return options;
}

/** Four bitfusion replicas batching fifo within a 400 us window. */
ServeOptions
replayOptions(ArtifactCache &cache)
{
    ServeOptions options = commonOptions(cache);
    options.replicas = 4;
    options.scheduler = "fifo";
    options.maxWaitUs = 400.0;
    options.maxQueueDepth = 256;
    return options;
}

/** edf on a mixed fleet with outages, retries, hedges, switches. */
ServeOptions
chaosOptions(const BenchOptions &opts, ArtifactCache &cache)
{
    ServeOptions options = commonOptions(cache);
    options.scheduler = "edf";
    options.maxQueueDepth = 512;
    options.faults.seed = opts.seed;
    options.faults.mtbfUs = 120000.0;
    options.faults.mttrUs = 20000.0;
    options.retry.maxAttempts = 4;
    options.retry.backoffBaseUs = 500.0;
    options.retry.jitterFrac = 0.25;
    options.retry.hedgeP99Multiplier = 2.0;
    options.switchPenaltyUs = 150.0;
    return options;
}

const char *const kChaosFleet =
    "bitfusion,bitfusion,bitfusion:16nm,eyeriss";

/** Requests generated per chaos pass. */
constexpr std::size_t kChaosRequests = 500000;

TraceSpec
chaosTrace(std::uint64_t seed)
{
    TraceSpec spec;
    spec.seed = seed;
    spec.requests = kChaosRequests;
    spec.meanGapUs = 1500.0;
    spec.maxSamples = 4;
    spec.deadlineSlackUs = 20000.0;
    spec.process = ArrivalProcess::Mmpp;
    spec.burstRateMultiplier = 3.0;
    spec.meanBurstUs = 20000.0;
    spec.meanCalmUs = 200000.0;
    return spec;
}

/**
 * One request per catalog network, far apart: a warm-up run()
 * precompiles every network at the full batch, as the first
 * dispatches of a real day would.
 */
std::vector<InferenceRequest>
warmupTrace()
{
    std::vector<InferenceRequest> trace;
    const std::vector<zoo::Benchmark> zooNets = zoo::all();
    for (std::size_t i = 0; i < zooNets.size(); ++i) {
        InferenceRequest req;
        req.id = i;
        req.network = zooNets[i].name;
        req.arrivalUs = 1e5 * static_cast<double>(i);
        trace.push_back(req);
    }
    return trace;
}

/** The virtual-clock counts a speed-only change must not move. */
json::Value
simCounts(const ServeReport &r, std::size_t offered)
{
    json::Value c = json::Value::object();
    c.set("serve.sim.batches", static_cast<std::uint64_t>(r.batchCount))
        .set("serve.sim.batch_fill", r.batchFill())
        .set("serve.sim.shed", static_cast<std::uint64_t>(r.shedRequests))
        .set("serve.sim.retries",
             static_cast<std::uint64_t>(r.retriesIssued))
        .set("serve.sim.abandoned",
             static_cast<std::uint64_t>(r.requestsAbandoned))
        .set("serve.sim.lost_batches",
             static_cast<std::uint64_t>(r.lostBatches))
        .set("serve.sim.hedges_issued",
             static_cast<std::uint64_t>(r.hedgesIssued))
        .set("serve.sim.hedge_win_frac",
             r.hedgesIssued == 0
                 ? 0.0
                 : static_cast<double>(r.hedgesWon) /
                       static_cast<double>(r.hedgesIssued))
        .set("serve.sim.network_switches",
             static_cast<std::uint64_t>(r.networkSwitches))
        .set("serve.sim.p99_us", r.latencyUs().p99)
        .set("serve.sim.goodput", static_cast<double>(r.requestCount) /
                                      static_cast<double>(offered));
    return c;
}

/**
 * Both ledger identities of a serving report over @p offered
 * requests. The engine counts requestsIssued only while a fault model
 * is active; then it must equal what was offered. Without one, the
 * offered requests themselves must balance the ledger.
 */
void
checkLedgers(const ServeReport &r, std::size_t offered, Checks &checks,
             const char *where)
{
    std::size_t issued = offered;
    if (r.faultReport) {
        issued = r.requestsIssued;
        checks.expect(issued == offered,
                      std::string(where) + ": issued != offered");
    }
    checks.expect(issued == r.requestCount + r.shedRequests +
                                r.requestsAbandoned,
                  std::string(where) +
                      ": issued != served + shed + abandoned");
    checks.expect(r.hedgesIssued ==
                      r.hedgesWon + r.hedgesCancelled + r.hedgesLost,
                  std::string(where) +
                      ": hedges issued != won + cancelled + lost");
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read input '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

Measurements
serveWorkload(bool replay, const BenchOptions &opts, Tracer &tracer)
{
    Measurements m;
    m.item = "request";
    const std::string text = replay ? readFile(opts.input) : "";
    const std::vector<PlatformSpec> fleet =
        replay ? std::vector<PlatformSpec>{PlatformRegistry::builtin()
                                               .parse("bitfusion")}
               : PlatformRegistry::builtin().parseFleet(kChaosFleet);
    const TraceSpec chaosSpec = chaosTrace(opts.seed);

    // Set-up: a fresh compile cache each time, so every set-up pays
    // the compile cost a new bitfusion_serve process pays.
    std::unique_ptr<ArtifactCache> cache;
    std::unique_ptr<ServingEngine> engine;
    const std::vector<InferenceRequest> warm = warmupTrace();
    auto setup = [&](Tracer &t) {
        auto freshCache = std::make_unique<ArtifactCache>();
        {
            Tracer::Scope scope(t, "serve.engine/construct");
            const ServeOptions options =
                replay ? replayOptions(*freshCache)
                       : chaosOptions(opts, *freshCache);
            engine = std::make_unique<ServingEngine>(fleet, options);
        }
        cache = std::move(freshCache);
        Tracer::Scope scope(t, "serve.engine/warmup");
        const ServeReport report = engine->run(warm);
        scope.arg("requests", static_cast<double>(warm.size()));
        checkLedgers(report, warm.size(), m.checks, "warm-up");
    };

    std::string firstCounts;
    auto pass = [&](Tracer &t, unsigned) {
        std::vector<InferenceRequest> trace;
        {
            Tracer::Scope scope(t, replay ? "serve.trace/parse"
                                          : "serve.trace/generate");
            trace = replay ? parseTrace(text, "replay_day.trace")
                           : syntheticTrace(chaosSpec);
            scope.arg("requests", static_cast<double>(trace.size()));
        }
        ServeReport report;
        {
            Tracer::Scope scope(t, "serve.engine/run");
            report = engine->run(trace);
            scope.arg("requests", static_cast<double>(trace.size()));
            scope.arg("batches", static_cast<double>(report.batchCount));
        }
        std::string json;
        {
            Tracer::Scope scope(t, "serve.report/json");
            json = report.json();
            scope.arg("bytes", static_cast<double>(json.size()));
        }

        checkLedgers(report, trace.size(), m.checks, "pass");
        json::Value counts = simCounts(report, trace.size());
        counts
            .set("core.cache.compiles",
                 static_cast<std::uint64_t>(cache->compileCount()))
            .set("core.cache.hits",
                 static_cast<std::uint64_t>(cache->hitCount()));
        if (firstCounts.empty()) {
            m.itemsPerPass = static_cast<double>(trace.size());
            firstCounts = counts.dump();
            m.counts = counts;
        } else {
            m.checks.expect(counts.dump() == firstCounts,
                            "pass: virtual-clock or cache counts "
                            "changed between passes");
        }
    };
    measure(opts, tracer, m, setup, pass);
    return m;
}

} // namespace

Measurements
serveReplayDay(const BenchOptions &opts, Tracer &tracer)
{
    return serveWorkload(true, opts, tracer);
}

Measurements
serveChaosFleet(const BenchOptions &opts, Tracer &tracer)
{
    return serveWorkload(false, opts, tracer);
}

} // namespace perfbench
