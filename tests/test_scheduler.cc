/**
 * @file
 * Scheduler and fleet invariants: EDF ordering, its member selection
 * against the stable-sort original on random queues, and its miss
 * advantage over FIFO on a contended deadlined trace, the lookahead
 * scheduler's head-of-line starvation bound, SLO-aware batching
 * meeting a p99 budget FIFO misses, heterogeneous routing to the
 * cheapest platform, determinism across replica and thread counts,
 * fleet parsing, and the R=1 fifo byte-parity lock against the
 * pre-scheduler golden report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/baselines/gpu.h"
#include "src/common/prng.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/serve/scheduler.h"
#include "src/serve/serving_engine.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace {

using serve::ClosedLoopSpec;
using serve::InferenceRequest;
using serve::Percentiles;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServingEngine;
using serve::TraceSpec;

/** Small two-layer network so engine runs stay fast. */
Network
tinyNet(const std::string &name, unsigned out_c)
{
    Network net(name, {});
    net.add(Layer::fc("fc1", 64, out_c, zoo::cfg8x8()));
    net.add(Layer::fc("fc2", out_c, 16, zoo::cfg4x4()));
    return net;
}

/** Catalog entry whose quantized and baseline variants coincide. */
zoo::Benchmark
tinyBench(const std::string &name, unsigned out_c)
{
    zoo::Benchmark bench;
    bench.name = name;
    bench.quantized = tinyNet(name, out_c);
    bench.baseline = bench.quantized;
    return bench;
}

PlatformSpec
bfSpec()
{
    return bitfusionPlatform(AcceleratorConfig::eyerissMatched45(), "bf");
}

std::vector<zoo::Benchmark>
tinyCatalog()
{
    return {tinyBench("netA", 64), tinyBench("netB", 128)};
}

/** Engine over tiny networks with a private cache. */
ServingEngine
tinyEngine(ArtifactCache &cache, ServeOptions opts,
           std::vector<PlatformSpec> fleet = {bfSpec()})
{
    opts.threads = opts.threads != 0 ? opts.threads : 1;
    opts.cache = &cache;
    ServingEngine engine(std::move(fleet), opts);
    engine.setCatalog(tinyCatalog());
    return engine;
}

InferenceRequest
req(std::uint64_t id, const std::string &network, unsigned samples,
    double arrivalUs, double deadlineUs = 0.0)
{
    InferenceRequest r;
    r.id = id;
    r.network = network;
    r.samples = samples;
    r.arrivalUs = arrivalUs;
    r.deadlineUs = deadlineUs;
    return r;
}

/** Simulated latency of @p net at @p batch on @p spec (us). */
double
platformLatencyUs(PlatformSpec spec, const Network &net, unsigned batch)
{
    spec.batch = batch;
    const auto platform = PlatformRegistry::builtin().build(spec);
    return platform->run(net).seconds() * 1e6;
}

TEST(ServeSchedRegistry, KnowsTheFourPolicies)
{
    for (const char *name : {"fifo", "lookahead", "edf", "slo"}) {
        const auto sched = serve::makeScheduler(name);
        EXPECT_STREQ(sched->name(), name);
    }
    EXPECT_DEATH(serve::makeScheduler("lifo"), "unknown scheduler");
}

TEST(ServeSchedDeath, RejectsMisconfiguredPolicies)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "lookahead"; // window left at 0
    {
        ServingEngine engine = tinyEngine(cache, opts);
        EXPECT_DEATH(engine.run({req(0, "netA", 1, 0.0)}), "starvation bound");
    }
    opts.scheduler = "slo"; // budget left at 0
    {
        ServingEngine engine = tinyEngine(cache, opts);
        EXPECT_DEATH(engine.run({req(0, "netA", 1, 0.0)}), "latency budget");
    }
    // One spec + replicas is fine; an explicit fleet + replicas is
    // ambiguous and fatal, as is an empty fleet.
    ServeOptions fleetOpts;
    fleetOpts.replicas = 2;
    EXPECT_DEATH(ServingEngine({bfSpec(), bfSpec()}, fleetOpts),
                 "explicit fleet");
    EXPECT_DEATH(ServingEngine(std::vector<PlatformSpec>{}, {}),
                 "must not be empty");
}

TEST(ServeSchedEdf, TightestDeadlinePicksTheBatch)
{
    // All arrive together; FIFO would serve the netA head first, but
    // the netB requests hold the tight deadlines. Within netB, the
    // 400 us deadline outranks the earlier-queued 500 us one when
    // the cap forces them apart.
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    opts.scheduler = "edf";
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = engine.run(
        {req(0, "netA", 1, 0.0, 50000.0), req(1, "netB", 1, 0.0, 500.0),
         req(2, "netB", 1, 0.0, 400.0)});
    ASSERT_EQ(report.batches.size(), 3u);
    EXPECT_EQ(report.batches[0].network, "netB");
    EXPECT_EQ(report.batches[1].network, "netB");
    EXPECT_EQ(report.batches[2].network, "netA");
    ASSERT_EQ(report.requests.size(), 3u);
    // id 2 (deadline 400) dispatches before id 1 (deadline 500).
    EXPECT_LT(report.requests[2].dispatchUs, report.requests[1].dispatchUs);
    EXPECT_DOUBLE_EQ(report.requests[2].dispatchUs, 0.0);
}

TEST(ServeSchedEdf, DeadlineFreeRequestsSortLast)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    opts.scheduler = "edf";
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netB", 1, 0.0, 900.0)});
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].network, "netB");
}

/** Seeded contended trace with alternating tight/loose deadlines. */
std::vector<InferenceRequest>
contendedDeadlineTrace(double tightUs, double looseUs)
{
    TraceSpec spec;
    spec.seed = 11;
    spec.requests = 120;
    spec.meanGapUs = 0.5; // well past saturation for the tiny nets
    spec.maxSamples = 2;
    spec.networks = {"netA", "netB"};
    auto trace = serve::syntheticTrace(spec);
    for (auto &r : trace)
        r.deadlineUs = r.arrivalUs + (r.id % 2 == 0 ? tightUs : looseUs);
    return trace;
}

/** A fixed queue for driving one policy's plan() directly. */
class FixedQueueContext : public serve::SchedulerContext
{
  public:
    FixedQueueContext(std::deque<InferenceRequest> queue, unsigned cap)
        : queue_(std::move(queue)), cap_(cap)
    {}

    const std::deque<InferenceRequest> &queue() const override
    {
        return queue_;
    }
    const InferenceRequest *nextArrival() const override { return nullptr; }
    bool absorbNextArrival() override { return false; }
    double batchLatencyUs(const std::string &, unsigned) override
    {
        return 0.0;
    }
    unsigned maxBatch() const override { return cap_; }
    double windowUs() const override { return 0.0; }
    double sloBudgetUs() const override { return 0.0; }

  private:
    std::deque<InferenceRequest> queue_;
    unsigned cap_;
};

/**
 * The edf plan as it stood with a per-plan candidate vector and a
 * stable sort on deadline alone, as a free function: the
 * differential oracle for the scratch-reusing EdfScheduler.
 */
serve::BatchPlan
stableSortEdfPlan(const std::deque<InferenceRequest> &queue, unsigned cap,
                  double now)
{
    const auto deadlineKey = [](const InferenceRequest &r) {
        return r.deadlineUs > 0.0 ? r.deadlineUs
                                  : std::numeric_limits<double>::infinity();
    };
    std::size_t headIdx = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
        if (deadlineKey(queue[i]) < deadlineKey(queue[headIdx]))
            headIdx = i;
    }

    serve::BatchPlan out;
    out.network = queue[headIdx].network;
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].network == out.network)
            candidates.push_back(i);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](std::size_t a, std::size_t b) {
                         return deadlineKey(queue[a]) <
                                deadlineKey(queue[b]);
                     });
    unsigned samples = 0;
    for (std::size_t i : candidates) {
        if (samples >= cap)
            break;
        if (samples + queue[i].samples <= cap) {
            out.members.push_back(i);
            samples += queue[i].samples;
        }
    }
    out.samples = samples;
    double dispatch = now;
    for (std::size_t i : out.members)
        dispatch = std::max(dispatch, queue[i].arrivalUs);
    out.dispatchUs = dispatch;
    return out;
}

TEST(ServeSchedEdf, SelectionMatchesTheStableSortPlan)
{
    // One policy instance plans every queue, so its reused scratch
    // must never leak one plan's candidates into the next.
    const auto edf = serve::makeScheduler("edf");
    const char *const networks[] = {"netA", "netB", "netC"};
    Prng prng(2024);
    std::size_t multiMember = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        const unsigned caps[] = {1, 4, 16};
        const unsigned cap = caps[trial % 3];
        // Mostly shallow queues, with a tail out to the 512 depth
        // the admission bound allows.
        const std::size_t depth =
            trial % 4 == 0 ? 1 + prng.below(512) : 1 + prng.below(48);
        // Few distinct deadlines force ties; some queues draw them
        // from a continuum instead.
        const bool coarse = prng.below(4) != 0;
        std::deque<InferenceRequest> queue;
        double arrival = 0.0;
        for (std::size_t i = 0; i < depth; ++i) {
            arrival += 10.0 * static_cast<double>(prng.below(3));
            const char *network = networks[prng.below(3)];
            const auto samples = static_cast<unsigned>(1 + prng.below(cap));
            const double slot = static_cast<double>(prng.below(6));
            double deadline = 0.0; // deadline-free
            if (prng.below(10) >= 3) {
                deadline = coarse ? 1000.0 + 250.0 * slot
                                  : 1000.0 + 5000.0 * prng.nextDouble();
            }
            queue.push_back(req(i, network, samples, arrival, deadline));
        }
        const double now = arrival / 2.0;
        const serve::BatchPlan want = stableSortEdfPlan(queue, cap, now);
        FixedQueueContext ctx(std::move(queue), cap);
        const serve::BatchPlan got = edf->plan(ctx, now);
        ASSERT_EQ(got.members, want.members) << "trial " << trial;
        ASSERT_EQ(got.network, want.network) << "trial " << trial;
        ASSERT_EQ(got.samples, want.samples) << "trial " << trial;
        ASSERT_EQ(got.dispatchUs, want.dispatchUs) << "trial " << trial;
        multiMember += want.members.size() > 1 ? 1 : 0;
    }
    // The caps above 1 coalesce, so join order was really exercised.
    EXPECT_GT(multiMember, 1000u);
}

TEST(ServeSchedEdf, StrictlyFewerMissesThanFifoUnderContention)
{
    const double latFull =
        platformLatencyUs(bfSpec(), tinyNet("netB", 128), 4);
    const auto trace = contendedDeadlineTrace(4.0 * latFull, 400.0 * latFull);

    ServeOptions opts;
    opts.maxBatch = 4;
    ArtifactCache cacheF, cacheE;
    opts.scheduler = "fifo";
    ServingEngine fifo = tinyEngine(cacheF, opts);
    opts.scheduler = "edf";
    ServingEngine edf = tinyEngine(cacheE, opts);

    const ServeReport fifoReport = fifo.run(trace);
    const ServeReport edfReport = edf.run(trace);
    // The trace is contended enough that FIFO misses tight deadlines.
    EXPECT_GT(fifoReport.deadlineMisses, 0u);
    EXPECT_LT(edfReport.deadlineMisses, fifoReport.deadlineMisses);
}

TEST(ServeSchedLookahead, PrefersTheFullerBatch)
{
    // Head is a lone netA request; three netB requests coalesce into
    // a fuller batch, so lookahead serves netB first (FIFO would
    // serve netA).
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "lookahead";
    opts.maxWaitUs = 1e6; // head far from overdue
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netB", 1, 0.0),
         req(2, "netB", 1, 0.0), req(3, "netB", 1, 0.0)});
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].network, "netB");
    EXPECT_EQ(report.batches[0].samples, 3u);
    EXPECT_EQ(report.batches[1].network, "netA");
}

TEST(ServeSchedLookahead, NeverStarvesHeadBeyondTheWindow)
{
    // A lone netA head against a deep netB backlog that always
    // forms fuller batches. Lookahead may bypass the head, but once
    // it has waited out the window the head's network must be
    // served, so its queueing delay is bounded by the window plus
    // one in-flight batch.
    const double window = 20.0;
    std::vector<InferenceRequest> trace;
    trace.push_back(req(0, "netA", 1, 0.0));
    for (std::uint64_t i = 1; i <= 60; ++i)
        trace.push_back(req(i, "netB", 2, 0.0));

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "lookahead";
    opts.maxWaitUs = window;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = engine.run(trace);

    // The head was actually bypassed at least once...
    ASSERT_GT(report.batches.size(), 1u);
    EXPECT_EQ(report.batches[0].network, "netB");
    // ...but never starved past the window + one in-flight batch.
    double longestBatchUs = 0.0;
    for (const auto &b : report.batches)
        longestBatchUs = std::max(longestBatchUs, b.latencyUs);
    ASSERT_EQ(report.requests[0].request.network, "netA");
    EXPECT_LE(report.requests[0].queueUs(), window + longestBatchUs + 1e-9);
}

TEST(ServeSchedSlo, MeetsAP99BudgetFifoMisses)
{
    // Sparse lone arrivals under a long batching window: FIFO holds
    // every unfilled batch for the whole window, so its p99 blows
    // the budget; the SLO scheduler derives its batch timer from the
    // budget instead, so every request's end-to-end latency stays
    // inside it (up to float reassociation of the large arrivals).
    const double lat1 = platformLatencyUs(bfSpec(), tinyNet("netA", 64), 1);
    const double budget = 3.0 * lat1;
    const double window = std::max(30000.0, 10.0 * lat1);

    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 40; ++i)
        trace.push_back(
            req(i, "netA", 1, static_cast<double>(i) * 20.0 * window));

    ServeOptions opts;
    opts.maxBatch = 4;
    opts.maxWaitUs = window;
    ArtifactCache cacheF, cacheS;
    opts.scheduler = "fifo";
    ServingEngine fifo = tinyEngine(cacheF, opts);
    opts.scheduler = "slo";
    opts.sloBudgetUs = budget;
    opts.maxWaitUs = 0.0; // slo derives its own timer
    ServingEngine slo = tinyEngine(cacheS, opts);

    const double fifoP99 = fifo.run(trace).latencyUs().p99;
    const ServeReport sloReport = slo.run(trace);
    EXPECT_GT(fifoP99, budget);
    EXPECT_LE(sloReport.latencyUs().p99, budget + 1e-6);
    EXPECT_LE(sloReport.latencyUs().max, budget + 1e-6);
}

TEST(ServeSchedSlo, GrowsTheBatchOnlyWithinTheBudget)
{
    // The head's budget-derived timer admits the 0.4*B arrival, but
    // the 0.95*B arrival lands after the timer's last viable firing
    // time (budget - lat2), so the batch leaves without it -- at
    // exactly that causal firing time, not at the head's arrival.
    const double lat2 = platformLatencyUs(bfSpec(), tinyNet("netA", 64), 2);
    const double budget = 3.0 * lat2;

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "slo";
    opts.sloBudgetUs = budget;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netA", 1, 0.4 * budget),
         req(2, "netA", 1, 0.95 * budget)});
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].samples, 2u);
    EXPECT_NEAR(report.batches[0].dispatchUs, budget - lat2, 1e-9);
    EXPECT_EQ(report.batches[1].samples, 1u);
    // Every member of the waited batch stays inside its budget.
    EXPECT_LE(report.requests[0].latencyUs(), budget + 1e-6);
    EXPECT_LE(report.requests[1].latencyUs(), budget + 1e-6);
}

TEST(ServeSchedSlo, HeterogeneousFleetEstimatesOnlyFreeReplicas)
{
    // Fast bitfusion replica + slow GPU replica. While the fast
    // replica is busy, only the slow one can take the next batch, so
    // the scheduler's latency oracle must quote the slow platform:
    // the head's budget is then unmeetable and the batch falls back
    // to an immediate FIFO fill instead of admitting a future joiner
    // into a batch that would blow its budget on the slow replica.
    const double lat1 = platformLatencyUs(bfSpec(), tinyNet("netA", 64), 1);
    const PlatformSpec slow = gpuPlatform(GpuSpec::tegraX2Fp32());
    const double latSlow = platformLatencyUs(slow, tinyNet("netA", 64), 1);
    const double budget = 3.0 * lat1;
    ASSERT_GT(latSlow, budget);

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 3;
    opts.scheduler = "slo";
    opts.sloBudgetUs = budget;
    ServingEngine engine = tinyEngine(cache, opts, {bfSpec(), slow});
    // req0-2 fill the fast replica; req3 must plan against the slow
    // one; req4 arrives while the fast replica is still busy.
    const ServeReport report = engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netA", 1, 0.0),
         req(2, "netA", 1, 0.0), req(3, "netA", 1, 0.0),
         req(4, "netA", 1, 0.5)});
    ASSERT_EQ(report.batches.size(), 3u);
    EXPECT_EQ(report.batches[0].samples, 3u);
    EXPECT_EQ(report.batches[0].replica, 0u);
    // The slow-replica batch is a lone fallback fill: req4 was NOT
    // pulled into a budget-blown batch...
    EXPECT_EQ(report.batches[1].samples, 1u);
    EXPECT_EQ(report.batches[1].replica, 1u);
    // ...and instead meets its budget on the fast replica later.
    EXPECT_EQ(report.batches[2].replica, 0u);
    EXPECT_LE(report.requests[4].latencyUs(), budget + 1e-6);
}

TEST(ServeFleet, ReplicasIncreaseThroughputDeterministically)
{
    // A backlog of whole-batch requests: R replicas drain it ~R
    // times faster, and the usage accounting adds up.
    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 16; ++i)
        trace.push_back(req(i, i % 2 == 0 ? "netA" : "netB", 4, 0.0));

    ServeOptions opts;
    opts.maxBatch = 4;
    ArtifactCache cache1, cache4;
    ServingEngine one = tinyEngine(cache1, opts);
    opts.replicas = 4;
    ServingEngine four = tinyEngine(cache4, opts);

    const ServeReport r1 = one.run(trace);
    const ServeReport r4 = four.run(trace);
    ASSERT_EQ(r1.replicas.size(), 1u);
    ASSERT_EQ(r4.replicas.size(), 4u);
    EXPECT_FALSE(r1.fleetReport());
    EXPECT_TRUE(r4.fleetReport());
    EXPECT_LT(r4.makespanUs, 0.5 * r1.makespanUs);

    std::uint64_t samples = 0;
    std::size_t batches = 0;
    double energy = 0.0;
    for (const auto &rep : r4.replicas) {
        EXPECT_EQ(rep.platform, "bf");
        EXPECT_GE(rep.utilization, 0.0);
        EXPECT_LE(rep.utilization, 1.0);
        samples += rep.samples;
        batches += rep.batches;
        energy += rep.energyJ;
    }
    EXPECT_EQ(samples, r4.totalSamples);
    EXPECT_EQ(batches, r4.batches.size());
    EXPECT_NEAR(energy, r4.energyJ, 1e-12);
}

TEST(ServeFleet, HeterogeneousRoutingPicksTheCheapestPlatform)
{
    // Two single-replica classes with different speeds; sparse lone
    // requests see both replicas free, so every batch must land on
    // whichever platform serves the network cheapest.
    const PlatformSpec fast = bfSpec();
    const PlatformSpec slow = gpuPlatform(GpuSpec::tegraX2Fp32());
    const double latFast = platformLatencyUs(fast, tinyNet("netA", 64), 1);
    const double latSlow = platformLatencyUs(slow, tinyNet("netA", 64), 1);
    ASSERT_NE(latFast, latSlow);
    const unsigned cheaper = latFast < latSlow ? 0u : 1u;

    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 6; ++i)
        trace.push_back(req(i, "netA", 1, static_cast<double>(i) * 1e9));

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    ServingEngine engine = tinyEngine(cache, opts, {fast, slow});
    const ServeReport report = engine.run(trace);
    ASSERT_EQ(report.replicas.size(), 2u);
    ASSERT_EQ(report.batches.size(), 6u);
    for (const auto &batch : report.batches)
        EXPECT_EQ(batch.replica, cheaper);
    EXPECT_EQ(report.replicas[cheaper].batches, 6u);
    EXPECT_EQ(report.replicas[1u - cheaper].batches, 0u);
}

TEST(ServeFleet, SameNameDifferentConfigsStayDistinctClasses)
{
    // Class identity folds in the built platform's configuration,
    // so two hand-built specs sharing a display name but holding
    // different configs must not merge into one class.
    const PlatformSpec a = bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "twin");
    const PlatformSpec b =
        bitfusionPlatform(AcceleratorConfig::gpuScale16(), "twin");
    const double latA = platformLatencyUs(a, tinyNet("netA", 64), 1);
    const double latB = platformLatencyUs(b, tinyNet("netA", 64), 1);
    ASSERT_NE(latA, latB);

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    ServingEngine engine = tinyEngine(cache, opts, {a, b});
    // Two simultaneous lone requests land on both replicas, each
    // charged its own config's latency.
    const ServeReport report =
        engine.run({req(0, "netA", 1, 0.0), req(1, "netA", 1, 0.0)});
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_NE(report.batches[0].latencyUs, report.batches[1].latencyUs);
}

TEST(ServeFleet, DeterministicAcrossThreadCountsAndRuns)
{
    TraceSpec traceSpec;
    traceSpec.seed = 11;
    traceSpec.requests = 200;
    traceSpec.meanGapUs = 50.0;
    traceSpec.maxSamples = 4;
    traceSpec.deadlineSlackUs = 5000.0;
    traceSpec.networks = {"netA", "netB"};
    const auto trace = serve::syntheticTrace(traceSpec);

    const std::vector<PlatformSpec> fleet = {
        bfSpec(), bfSpec(), gpuPlatform(GpuSpec::titanXpInt8()),
        gpuPlatform(GpuSpec::tegraX2Fp32())};

    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "edf";
    ArtifactCache cache1, cacheN;
    opts.threads = 1;
    ServingEngine serial = tinyEngine(cache1, opts, fleet);
    opts.threads = 8;
    ServingEngine parallel = tinyEngine(cacheN, opts, fleet);

    const std::string a = serial.run(trace).json(true);
    const std::string b = parallel.run(trace).json(true);
    EXPECT_EQ(a, b);
    // A fresh engine over a fresh cache reproduces the report
    // byte-for-byte (same seed, same fleet).
    ArtifactCache cacheAgain;
    opts.threads = 1;
    ServingEngine again = tinyEngine(cacheAgain, opts, fleet);
    EXPECT_EQ(again.run(trace).json(true), a);
}

TEST(ServeFleet, HugeBatchCapCostsOnlyTheShapesItRuns)
{
    // The shape memo grows with the batches a run actually forms, not
    // with the cap: a cap near 2^31 builds, runs and matches a run
    // whose cap is just large enough never to bind.
    TraceSpec traceSpec;
    traceSpec.seed = 5;
    traceSpec.requests = 60;
    traceSpec.meanGapUs = 2.0;
    traceSpec.maxSamples = 4;
    traceSpec.networks = {"netA", "netB"};
    const auto trace = serve::syntheticTrace(traceSpec);
    unsigned totalSamples = 0;
    for (const auto &r : trace)
        totalSamples += r.samples;

    ServeOptions opts;
    opts.retainRecords = true;
    opts.maxBatch = totalSamples;
    ArtifactCache cacheFit, cacheHuge;
    ServingEngine fit = tinyEngine(cacheFit, opts);
    opts.maxBatch = static_cast<unsigned>(
        std::numeric_limits<std::int32_t>::max());
    ServingEngine huge = tinyEngine(cacheHuge, opts);

    const ServeReport a = fit.run(trace);
    const ServeReport b = huge.run(trace);
    EXPECT_EQ(b.maxBatch, opts.maxBatch);
    EXPECT_EQ(b.distinctBatchShapes, a.distinctBatchShapes);
    ASSERT_LT(a.batches.size(), trace.size()); // requests coalesced
    ASSERT_EQ(b.batches.size(), a.batches.size());
    for (std::size_t i = 0; i < a.batches.size(); ++i) {
        EXPECT_EQ(b.batches[i].network, a.batches[i].network);
        EXPECT_EQ(b.batches[i].samples, a.batches[i].samples);
        EXPECT_EQ(b.batches[i].dispatchUs, a.batches[i].dispatchUs);
        EXPECT_EQ(b.batches[i].latencyUs, a.batches[i].latencyUs);
    }
    EXPECT_EQ(b.requests.size(), trace.size());
}

TEST(ServeFleet, ClosedLoopGrantsDeadlineSlack)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    ServingEngine engine = tinyEngine(cache, opts);
    ClosedLoopSpec load;
    load.clients = 2;
    load.requests = 8;
    load.networks = {"netA"};
    load.deadlineSlackUs = 1234.0;
    const ServeReport report = engine.runClosedLoop(load);
    ASSERT_EQ(report.requests.size(), 8u);
    for (const auto &r : report.requests) {
        EXPECT_DOUBLE_EQ(r.request.deadlineUs, r.request.arrivalUs + 1234.0);
    }
}

TEST(ServeFleet, ParseFleetRoundTripsTokens)
{
    const auto fleet = PlatformRegistry::builtin().parseFleet(
        "bitfusion,bitfusion:16nm,eyeriss,gpu:titan-xp-int8");
    ASSERT_EQ(fleet.size(), 4u);
    EXPECT_EQ(fleet[0].kind, "bitfusion");
    EXPECT_EQ(fleet[1].name, "bitfusion-4096fu-16nm");
    EXPECT_EQ(fleet[2].kind, "eyeriss");
    EXPECT_EQ(fleet[3].name, "titan-xp-int8");
    EXPECT_DEATH(PlatformRegistry::builtin().parseFleet("bitfusion,,eyeriss"),
                 "empty element");
    EXPECT_DEATH(PlatformRegistry::builtin().parseFleet(""),
                 "at least one platform");
}

TEST(ServeParity, FifoR1ReportMatchesThePreSchedulerGolden)
{
    // The exact workload behind tests/golden/serve_fifo_r1.json
    // (generated by the pre-scheduler engine): default platform and
    // catalog, seeded open-loop trace, 500 us window. The refactor
    // onto Scheduler + fleet must reproduce it byte-for-byte.
    std::ifstream in(std::string(BITFUSION_SOURCE_DIR) +
                     "/tests/golden/serve_fifo_r1.json");
    ASSERT_TRUE(in.good());
    std::stringstream golden;
    golden << in.rdbuf();
    std::string expected = golden.str();
    ASSERT_FALSE(expected.empty());
    if (expected.back() == '\n')
        expected.pop_back(); // the CLI appends one newline

    TraceSpec traceSpec;
    traceSpec.seed = 7;
    traceSpec.requests = 400;
    traceSpec.meanGapUs = 1500.0;
    traceSpec.deadlineSlackUs = 20000.0;

    ServeOptions opts;
    opts.threads = 1;
    opts.maxWaitUs = 500.0;
    ServingEngine engine(PlatformRegistry::builtin().parse("bitfusion"), opts);
    const ServeReport report = engine.run(serve::syntheticTrace(traceSpec));
    EXPECT_EQ(report.json(true), expected);
}

} // namespace
} // namespace bitfusion
