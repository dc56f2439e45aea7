/**
 * @file
 * Fault-tolerant serving tests: the outage-argument parser and spec
 * validation, FaultTimeline point queries and the query-order
 * independence of upAt / upAfter / nextDownWithin, in-flight batch
 * loss with retry/backoff recovery, hedged re-dispatch with
 * first-completion-wins accounting, the retry-budget bound under a
 * dead-majority fleet, availability reconciliation, chaos
 * determinism across worker-thread counts, the network-switch
 * penalty, and the dormant-knob report shape.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/prng.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/serve/faults.h"
#include "src/serve/serving_engine.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace {

using serve::FaultEvent;
using serve::FaultSpec;
using serve::FaultTimeline;
using serve::InferenceRequest;
using serve::RetryPolicy;
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

/** Engine over tiny networks with a private cache. */
ServingEngine
tinyEngine(ArtifactCache &cache, ServeOptions opts)
{
    opts.threads = 1;
    if (opts.maxBatch == 0)
        opts.maxBatch = 4;
    opts.cache = &cache;
    ServingEngine engine(bfSpec(), opts);
    engine.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});
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

/** Simulated latency of a one-request batch, measured fault-free. */
double
batchLatencyUs(const std::string &network)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.retainRecords = true;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = engine.run({req(0, network, 1, 0.0)});
    EXPECT_EQ(report.batches.size(), 1u);
    return report.batches[0].latencyUs;
}

// ------------------------------------------------ outage-event parsing

TEST(FaultEventParse, AcceptsTheDocumentedForms)
{
    const FaultEvent permanent =
        serve::parseFaultEvent("2@1500.5", "--fail-replica");
    EXPECT_EQ(permanent.target, 2u);
    EXPECT_DOUBLE_EQ(permanent.atUs, 1500.5);
    EXPECT_DOUBLE_EQ(permanent.forUs, 0.0);

    const FaultEvent bounded =
        serve::parseFaultEvent("0@2e6:for=50000", "--fail-rack");
    EXPECT_EQ(bounded.target, 0u);
    EXPECT_DOUBLE_EQ(bounded.atUs, 2e6);
    EXPECT_DOUBLE_EQ(bounded.forUs, 50000.0);
}

TEST(FaultEventParse, RejectsMalformedArguments)
{
    EXPECT_DEATH(serve::parseFaultEvent("bogus", "--fail-replica"),
                 "ID@T");
    EXPECT_DEATH(serve::parseFaultEvent("x@5", "--fail-replica"),
                 "malformed target id");
    EXPECT_DEATH(serve::parseFaultEvent("1@abc", "--fail-replica"),
                 "malformed outage start time");
    EXPECT_DEATH(serve::parseFaultEvent("1@5:for=xyz", "--fail-rack"),
                 "malformed outage duration");
    EXPECT_DEATH(serve::parseFaultEvent("1@5:dur=9", "--fail-rack"),
                 "got duration");
    EXPECT_DEATH(serve::parseFaultEvent("1@5:for=0", "--fail-rack"),
                 "must be positive");
}

TEST(FaultSpecValidate, RejectsMispairedKnobs)
{
    FaultSpec mtbfOnly;
    mtbfOnly.mtbfUs = 1000.0;
    EXPECT_DEATH(mtbfOnly.validate(2), "MTBF and MTTR together");

    FaultSpec outOfRange;
    outOfRange.replicaEvents.push_back(FaultEvent{5, 0.0, 0.0});
    EXPECT_DEATH(outOfRange.validate(2), "targets replica 5");

    FaultSpec rackless;
    rackless.rackEvents.push_back(FaultEvent{0, 0.0, 0.0});
    EXPECT_DEATH(rackless.validate(4), "positive rack size");

    FaultSpec wideRack;
    wideRack.rackSize = 8;
    EXPECT_DEATH(wideRack.validate(4), "exceeds the fleet");

    FaultSpec badRackTarget;
    badRackTarget.rackSize = 2;
    badRackTarget.rackEvents.push_back(FaultEvent{2, 0.0, 0.0});
    EXPECT_DEATH(badRackTarget.validate(4), "targets rack 2");
}

TEST(RetryPolicyValidate, RejectsMispairedKnobs)
{
    RetryPolicy noRetries;
    noRetries.backoffBaseUs = 100.0;
    EXPECT_DEATH(noRetries.validate(), "maxAttempts > 1");

    RetryPolicy badJitter;
    badJitter.maxAttempts = 3;
    badJitter.jitterFrac = 1.5;
    EXPECT_DEATH(badJitter.validate(), "jitter fraction");

    RetryPolicy bothHedges;
    bothHedges.hedgeDelayUs = 100.0;
    bothHedges.hedgeP99Multiplier = 2.0;
    EXPECT_DEATH(bothHedges.validate(), "not both");
}

// ------------------------------------------------------ fault timeline

TEST(FaultTimelineQueries, ExplicitOutagesAnswerPointQueries)
{
    FaultSpec spec;
    spec.replicaEvents.push_back(FaultEvent{0, 100.0, 50.0});
    spec.replicaEvents.push_back(FaultEvent{0, 130.0, 100.0});
    spec.replicaEvents.push_back(FaultEvent{1, 500.0, 0.0});
    FaultTimeline timeline(spec, 2);

    // Replica 0: [100, 150) and [130, 230) merge to [100, 230).
    EXPECT_TRUE(timeline.upAt(0, 99.0));
    EXPECT_FALSE(timeline.upAt(0, 100.0));
    EXPECT_FALSE(timeline.upAt(0, 229.0));
    EXPECT_TRUE(timeline.upAt(0, 230.0));
    EXPECT_DOUBLE_EQ(timeline.upAfter(0, 150.0), 230.0);
    EXPECT_DOUBLE_EQ(timeline.upAfter(0, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(timeline.nextDownWithin(0, 0.0, 300.0), 100.0);
    EXPECT_DOUBLE_EQ(timeline.nextDownWithin(0, 100.0, 300.0),
                     std::numeric_limits<double>::infinity());
    EXPECT_DOUBLE_EQ(timeline.downUsWithin(0, 1000.0), 130.0);
    EXPECT_DOUBLE_EQ(timeline.downUsWithin(0, 200.0), 100.0);

    // Replica 1 never recovers from 500.
    EXPECT_TRUE(timeline.upAt(1, 499.0));
    EXPECT_FALSE(timeline.upAt(1, 500.0));
    EXPECT_TRUE(std::isinf(timeline.upAfter(1, 500.0)));

    EXPECT_FALSE(timeline.anyDownAt(0.0));
    EXPECT_TRUE(timeline.anyDownAt(120.0));
    EXPECT_DOUBLE_EQ(timeline.lastRecoveryBefore(1000.0), 230.0);
    EXPECT_DOUBLE_EQ(timeline.lastRecoveryBefore(200.0), 0.0);
}

TEST(FaultTimelineQueries, RackEventsCoverTheWholeRack)
{
    FaultSpec spec;
    spec.rackSize = 2;
    spec.rackEvents.push_back(FaultEvent{1, 50.0, 25.0});
    FaultTimeline timeline(spec, 5);

    // Rack 1 owns replicas 2 and 3; the short final rack (replica 4)
    // and rack 0 are untouched.
    EXPECT_TRUE(timeline.upAt(0, 60.0));
    EXPECT_TRUE(timeline.upAt(1, 60.0));
    EXPECT_FALSE(timeline.upAt(2, 60.0));
    EXPECT_FALSE(timeline.upAt(3, 60.0));
    EXPECT_TRUE(timeline.upAt(4, 60.0));
}

TEST(FaultTimelineQueries, SeededLayoutIsQueryOrderIndependent)
{
    // Seeded churn, explicit replica outages (one permanent) and
    // rack outages overlap, so upAfter has to chain across sources.
    FaultSpec spec;
    spec.seed = 42;
    spec.mtbfUs = 5000.0;
    spec.mttrUs = 1000.0;
    spec.replicaEvents = {FaultEvent{1, 12000.0, 3000.0},
                          FaultEvent{2, 40000.0, 0.0}};
    spec.rackSize = 2;
    spec.rackEvents = {FaultEvent{0, 20000.0, 2500.0},
                       FaultEvent{1, 13000.0, 1500.0}};
    constexpr std::size_t kReplicas = 4;

    // Every point, readiness and in-flight-loss query on a grid;
    // the answers in ascending order are the reference.
    struct Query
    {
        int kind; // 0 upAt, 1 upAfter, 2 nextDownWithin
        std::size_t r;
        double t;
    };
    const auto ask = [](FaultTimeline &timeline, const Query &q) {
        if (q.kind == 0)
            return timeline.upAt(q.r, q.t) ? 1.0 : 0.0;
        if (q.kind == 1)
            return timeline.upAfter(q.r, q.t);
        return timeline.nextDownWithin(q.r, q.t, q.t + 3000.0);
    };
    std::vector<Query> queries;
    for (std::size_t r = 0; r < kReplicas; ++r) {
        for (int i = 0; i <= 200; ++i) {
            for (int kind = 0; kind < 3; ++kind)
                queries.push_back(Query{kind, r, 250.0 * i});
        }
    }
    FaultTimeline ascending(spec, kReplicas);
    std::vector<double> reference;
    for (const Query &q : queries)
        reference.push_back(ask(ascending, q));

    // Lazy extension must give bit-identical answers in any order:
    // backward, shuffled, and shuffled with every query repeated.
    const auto expectReference = [&](const std::vector<std::size_t> &order,
                                     const char *label) {
        FaultTimeline timeline(spec, kReplicas);
        for (std::size_t n : order) {
            const Query &q = queries[n];
            ASSERT_EQ(ask(timeline, q), reference[n])
                << label << ": kind " << q.kind << " replica " << q.r
                << " t " << q.t;
        }
    };
    std::vector<std::size_t> order(queries.size());
    for (std::size_t n = 0; n < order.size(); ++n)
        order[n] = order.size() - 1 - n;
    expectReference(order, "descending");
    Prng prng(7);
    const auto shuffle = [&](std::vector<std::size_t> &v) {
        for (std::size_t n = v.size(); n > 1; --n)
            std::swap(v[n - 1], v[prng.below(n)]);
    };
    for (int round = 0; round < 3; ++round) {
        shuffle(order);
        expectReference(order, "shuffled");
    }
    std::vector<std::size_t> repeated = order;
    repeated.insert(repeated.end(), order.begin(), order.end());
    shuffle(repeated);
    expectReference(repeated, "repeated");

    // The grid saw chained recoveries, the permanent outage and
    // in-flight onsets.
    bool chained = false;
    bool permanent = false;
    bool onset = false;
    for (std::size_t n = 0; n < queries.size(); ++n) {
        const Query &q = queries[n];
        if (q.kind == 1 && reference[n] > q.t + 250.0)
            chained = true;
        if (q.kind == 1 && std::isinf(reference[n]))
            permanent = true;
        if (q.kind == 2 && std::isfinite(reference[n]))
            onset = true;
    }
    EXPECT_TRUE(chained);
    EXPECT_TRUE(permanent);
    EXPECT_TRUE(onset);

    // Seeded churn alone (no explicit or rack outage to lean on):
    // ask one timeline forward in time and another backward, then
    // check that failures actually occurred on the grid and that the
    // per-lane streams differ (independent per-replica derivation).
    FaultSpec churn;
    churn.seed = 42;
    churn.mtbfUs = 5000.0;
    churn.mttrUs = 1000.0;
    FaultTimeline churnAscending(churn, 3);
    FaultTimeline churnDescending(churn, 3);
    std::vector<std::vector<bool>> forward(3);
    for (std::size_t r = 0; r < 3; ++r) {
        for (int i = 0; i <= 200; ++i)
            forward[r].push_back(churnAscending.upAt(r, 250.0 * i));
    }
    for (std::size_t r = 3; r-- > 0;) {
        for (int i = 200; i >= 0; --i) {
            EXPECT_EQ(churnDescending.upAt(r, 250.0 * i),
                      forward[r][static_cast<std::size_t>(i)])
                << "replica " << r << " t " << 250.0 * i;
        }
    }
    bool anyDown = false;
    for (const auto &lane : forward) {
        for (bool up : lane)
            anyDown = anyDown || !up;
    }
    EXPECT_TRUE(anyDown);
    EXPECT_NE(forward[0], forward[1]);
}

// ------------------------------------------- loss, retry, and recovery

TEST(ServeFaults, InFlightBatchLossRetriesAndRecovers)
{
    const double latency = batchLatencyUs("netA");

    ArtifactCache cache;
    ServeOptions opts;
    opts.retainRecords = true;
    opts.faults.replicaEvents.push_back(
        FaultEvent{0, 0.5 * latency, 2.0 * latency});
    opts.retry.maxAttempts = 2;
    ServingEngine engine = tinyEngine(cache, opts);

    const ServeReport report = engine.run({req(0, "netA", 1, 0.0)});

    // The outage opens mid-compute: the batch is destroyed, the
    // request re-enters immediately (no backoff), waits out the
    // repair, and completes on the second attempt.
    EXPECT_EQ(report.requestsIssued, 1u);
    EXPECT_EQ(report.requestCount, 1u);
    EXPECT_EQ(report.requestLossEvents, 1u);
    EXPECT_EQ(report.retriesIssued, 1u);
    EXPECT_EQ(report.requestsRecovered, 1u);
    EXPECT_EQ(report.requestsAbandoned, 0u);
    EXPECT_EQ(report.lostBatches, 1u);
    EXPECT_EQ(report.batchCount, 1u);

    ASSERT_EQ(report.requests.size(), 1u);
    const auto &rec = report.requests[0];
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_TRUE(rec.recovered);
    EXPECT_FALSE(rec.hedged);
    // The recovered latency spans every attempt: the original
    // arrival survives the retry round trip.
    EXPECT_DOUBLE_EQ(rec.request.arrivalUs, 0.0);
    EXPECT_NEAR(rec.finishUs, 3.5 * latency, 1e-6);
    EXPECT_NEAR(report.makespanUs, 3.5 * latency, 1e-6);

    // Availability: the replica was down [0.5L, 2.5L); destroyed
    // compute is waste, not busy time.
    ASSERT_EQ(report.replicas.size(), 1u);
    EXPECT_NEAR(report.replicas[0].downUs, 2.0 * latency, 1e-6);
    EXPECT_EQ(report.replicas[0].lostBatches, 1u);
    EXPECT_NEAR(report.replicas[0].wastedUs, 0.5 * latency, 1e-6);
    EXPECT_NEAR(report.replicas[0].busyUs, latency, 1e-6);
    EXPECT_NEAR(report.lastRecoveryUs, 2.5 * latency, 1e-6);
    EXPECT_NEAR(report.drainAfterRecoveryUs, latency, 1e-6);
    EXPECT_NEAR(report.fleetDownUs, 2.0 * latency, 1e-6);
    EXPECT_GT(report.fleetAvailability(), 0.0);
    EXPECT_LT(report.fleetAvailability(), 1.0);
}

TEST(ServeFaults, ExhaustedAttemptsAbandonTheRequest)
{
    const double latency = batchLatencyUs("netA");

    ArtifactCache cache;
    ServeOptions opts;
    opts.retainRecords = true;
    // The replica never recovers; maxAttempts stays at 1, so the
    // one lost request is abandoned rather than retried.
    opts.faults.replicaEvents.push_back(
        FaultEvent{0, 0.5 * latency, 0.0});
    opts.retry.maxAttempts = 1;
    opts.retry.hedgeDelayUs = 0.0;
    opts.faults.seed = 3;
    ServingEngine engine = tinyEngine(cache, opts);

    const ServeReport report = engine.run({req(0, "netA", 1, 0.0)});
    EXPECT_EQ(report.requestsIssued, 1u);
    EXPECT_EQ(report.requestCount, 0u);
    EXPECT_EQ(report.requestLossEvents, 1u);
    EXPECT_EQ(report.retriesIssued, 0u);
    EXPECT_EQ(report.requestsAbandoned, 1u);
    EXPECT_EQ(report.batchCount, 0u);
    EXPECT_DOUBLE_EQ(report.energyJ, 0.0);
}

TEST(ServeFaults, HedgeWinsWhenThePrimaryReplicaDies)
{
    const double latency = batchLatencyUs("netA");

    ArtifactCache cache;
    ServeOptions opts;
    opts.replicas = 2;
    opts.retainRecords = true;
    // Replica 0 (the cheapest-tie primary) dies mid-compute; the
    // hedge fired earlier onto replica 1 survives and serves the
    // request with no loss event at all.
    opts.faults.replicaEvents.push_back(
        FaultEvent{0, 0.6 * latency, 0.0});
    opts.retry.hedgeDelayUs = 0.2 * latency;
    ServingEngine engine = tinyEngine(cache, opts);

    const ServeReport report = engine.run({req(0, "netA", 1, 0.0)});
    EXPECT_EQ(report.requestCount, 1u);
    EXPECT_EQ(report.requestLossEvents, 0u);
    EXPECT_EQ(report.hedgesIssued, 1u);
    EXPECT_EQ(report.hedgesWon, 1u);
    EXPECT_EQ(report.hedgesCancelled, 0u);
    EXPECT_EQ(report.hedgesLost, 0u);
    EXPECT_EQ(report.lostBatches, 1u); // the destroyed primary

    ASSERT_EQ(report.requests.size(), 1u);
    const auto &rec = report.requests[0];
    EXPECT_TRUE(rec.hedged);
    EXPECT_FALSE(rec.recovered);
    EXPECT_EQ(rec.attempts, 1u);
    EXPECT_EQ(rec.replica, 1u);
    EXPECT_NEAR(rec.finishUs, 1.2 * latency, 1e-6);

    // The winner's compute is the only busy time and energy; the
    // primary's burned 0.6 L is waste.
    ASSERT_EQ(report.replicas.size(), 2u);
    EXPECT_NEAR(report.replicas[0].wastedUs, 0.6 * latency, 1e-6);
    EXPECT_EQ(report.replicas[0].batches, 0u);
    EXPECT_NEAR(report.replicas[1].busyUs, latency, 1e-6);
    EXPECT_EQ(report.replicas[1].batches, 1u);
}

TEST(ServeFaults, CancelledHedgeChargesWasteNotEnergy)
{
    const double latency = batchLatencyUs("netA");

    ArtifactCache cache;
    ServeOptions baseOpts;
    ServingEngine plain = tinyEngine(cache, baseOpts);
    const double oneBatchJ =
        plain.run({req(0, "netA", 1, 0.0)}).energyJ;

    ArtifactCache cache2;
    ServeOptions opts;
    opts.replicas = 2;
    opts.retainRecords = true;
    // No faults at all: the hedge always fires (delay < latency) and
    // always loses the race to the identical primary, so every
    // hedge is cancelled at the primary's completion.
    opts.retry.hedgeDelayUs = 0.5 * latency;
    ServingEngine engine = tinyEngine(cache2, opts);

    const ServeReport report = engine.run({req(0, "netA", 1, 0.0)});
    EXPECT_EQ(report.hedgesIssued, 1u);
    EXPECT_EQ(report.hedgesWon, 0u);
    EXPECT_EQ(report.hedgesCancelled, 1u);
    EXPECT_EQ(report.hedgesLost, 0u);
    EXPECT_EQ(report.lostBatches, 0u);
    // First-completion-wins: the loser burned [0.5 L, L) of compute
    // as waste, and the run's energy is one batch, not two.
    EXPECT_NEAR(report.replicas[1].wastedUs, 0.5 * latency, 1e-6);
    EXPECT_EQ(report.replicas[1].batches, 0u);
    EXPECT_DOUBLE_EQ(report.energyJ, oneBatchJ);
}

TEST(ServeFaults, RetryBudgetBoundsTheStormUnderADeadMajority)
{
    // All timescales hang off the measured batch latency so outage
    // onsets actually land inside in-flight windows (the tiny nets
    // compute in about a microsecond).
    const double latency = batchLatencyUs("netA");

    TraceSpec traceSpec;
    traceSpec.seed = 11;
    traceSpec.requests = 60;
    traceSpec.meanGapUs = 0.25 * latency;
    traceSpec.networks = {"netA", "netB"};

    ArtifactCache cache;
    ServeOptions opts;
    opts.replicas = 4;
    // Three of four replicas are dead from the start; the survivor
    // flaps hard. Attempts are effectively unbounded, so only the
    // global budget separates this from a retry storm.
    opts.faults.replicaEvents.push_back(FaultEvent{1, 0.0, 0.0});
    opts.faults.replicaEvents.push_back(FaultEvent{2, 0.0, 0.0});
    opts.faults.replicaEvents.push_back(FaultEvent{3, 0.0, 0.0});
    opts.faults.mtbfUs = 4.0 * latency;
    opts.faults.mttrUs = 2.0 * latency;
    opts.faults.seed = 5;
    opts.retry.maxAttempts = 100;
    opts.retry.retryBudget = 5;
    ServingEngine engine = tinyEngine(cache, opts);

    const ServeReport report =
        engine.run(serve::syntheticTrace(traceSpec));
    EXPECT_LE(report.retriesIssued, 5u);
    EXPECT_GT(report.requestLossEvents, 0u);
    // Reconciliation holds even mid-storm.
    EXPECT_EQ(report.requestsIssued,
              report.requestCount + report.shedRequests +
                  report.requestsAbandoned);
}

// ------------------------------------------ reconciliation and shape

TEST(ServeFaults, AvailabilityReconcilesUnderFullChaos)
{
    // Timescales hang off the measured batch latency so the seeded
    // fault process is dense relative to in-flight windows.
    const double latency = batchLatencyUs("netA");

    TraceSpec traceSpec;
    traceSpec.seed = 7;
    traceSpec.requests = 300;
    traceSpec.meanGapUs = 0.5 * latency;
    traceSpec.deadlineSlackUs = 2000.0 * latency;
    traceSpec.networks = {"netA", "netB"};

    ArtifactCache cache;
    ServeOptions opts;
    opts.replicas = 3;
    opts.maxQueueDepth = 64;
    opts.shedUnmeetable = true;
    opts.retainRecords = true;
    opts.faults.mtbfUs = 6.0 * latency;
    opts.faults.mttrUs = 2.0 * latency;
    opts.faults.seed = 9;
    opts.retry.maxAttempts = 3;
    opts.retry.backoffBaseUs = 0.5 * latency;
    opts.retry.jitterFrac = 0.25;
    opts.retry.hedgeDelayUs = 0.5 * latency;
    ServingEngine engine = tinyEngine(cache, opts);

    const ServeReport report =
        engine.run(serve::syntheticTrace(traceSpec));

    // Every issued request ends exactly one way.
    EXPECT_EQ(report.requestsIssued, 300u);
    EXPECT_EQ(report.requestsIssued,
              report.requestCount + report.shedRequests +
                  report.requestsAbandoned);
    // Every hedge ends exactly one way.
    EXPECT_EQ(report.hedgesIssued,
              report.hedgesWon + report.hedgesCancelled +
                  report.hedgesLost);
    // Retries never exceed losses, recoveries never exceed retries.
    EXPECT_LE(report.retriesIssued, report.requestLossEvents);
    EXPECT_LE(report.requestsRecovered, report.retriesIssued);
    EXPECT_GT(report.requestLossEvents, 0u);
    EXPECT_GT(report.requestsRecovered, 0u);
    // Per-request attempts sum to dispatch consumption: served
    // requests' (attempts - 1) retries plus abandoned ones' count
    // equal the retries the engine issued... the weaker per-record
    // invariant checked here is that recovered records carry their
    // extra attempts.
    std::size_t extraAttempts = 0;
    for (const auto &rec : report.requests) {
        EXPECT_GE(rec.attempts, 1u);
        if (rec.recovered) {
            EXPECT_GT(rec.attempts, 1u);
        }
        extraAttempts += rec.attempts - 1;
    }
    EXPECT_LE(extraAttempts, report.retriesIssued);
    EXPECT_GT(report.fleetDownUs, 0.0);
    EXPECT_LT(report.fleetAvailability(), 1.0);
    EXPECT_LE(report.goodput(), 1.0);
}

TEST(ServeFaults, ChaosRunIsByteIdenticalAcrossThreadCounts)
{
    TraceSpec traceSpec;
    traceSpec.seed = 21;
    traceSpec.requests = 250;
    traceSpec.meanGapUs = 350.0;
    traceSpec.networks = {"netA", "netB"};

    const auto runWith = [&](unsigned threads) {
        ArtifactCache cache;
        ServeOptions opts;
        opts.maxBatch = 4;
        opts.cache = &cache;
        opts.threads = threads;
        opts.replicas = 3;
        opts.retainRecords = true;
        opts.faults.mtbfUs = 120000.0;
        opts.faults.mttrUs = 30000.0;
        opts.faults.seed = 13;
        opts.retry.maxAttempts = 4;
        opts.retry.backoffBaseUs = 800.0;
        opts.retry.jitterFrac = 0.5;
        opts.retry.hedgeP99Multiplier = 3.0;
        ServingEngine engine(bfSpec(), opts);
        engine.setCatalog(
            {tinyBench("netA", 64), tinyBench("netB", 128)});
        return engine.run(serve::syntheticTrace(traceSpec)).json(true);
    };

    const std::string one = runWith(1);
    const std::string eight = runWith(8);
    EXPECT_EQ(one, eight);
    // And a rerun at the same thread count reproduces itself.
    EXPECT_EQ(one, runWith(1));
    EXPECT_NE(one.find("\"availability\""), std::string::npos);
}

TEST(ServeFaults, DormantKnobsLeaveTheReportShapeUntouched)
{
    const std::vector<InferenceRequest> trace = {
        req(0, "netA", 1, 0.0), req(1, "netB", 2, 100.0)};

    ArtifactCache cache;
    ServeOptions opts;
    opts.retainRecords = true;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport dormant = engine.run(trace);
    EXPECT_FALSE(dormant.faultReport);
    EXPECT_FALSE(dormant.switchReport);
    const std::string json = dormant.json(true);
    EXPECT_EQ(json.find("\"availability\""), std::string::npos);
    EXPECT_EQ(json.find("\"attempts\""), std::string::npos);
    EXPECT_EQ(json.find("\"network_switches\""), std::string::npos);
    EXPECT_EQ(json.find("\"down_us\""), std::string::npos);

    ArtifactCache cache2;
    ServeOptions active = opts;
    active.faults.mtbfUs = 1e9;
    active.faults.mttrUs = 1.0;
    ServingEngine chaotic = tinyEngine(cache2, active);
    const std::string activeJson = chaotic.run(trace).json(true);
    EXPECT_NE(activeJson.find("\"availability\""), std::string::npos);
    EXPECT_NE(activeJson.find("\"attempts\""), std::string::npos);
    EXPECT_NE(activeJson.find("\"down_us\""), std::string::npos);
}

// ------------------------------------------------ network-switch cost

TEST(ServeSwitchPenalty, ChargedOncePerNetworkChange)
{
    const double latencyA = batchLatencyUs("netA");
    const double penalty = 750.0;

    // Alternating networks with max batch 1: every batch reloads.
    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 6; ++i)
        trace.push_back(req(i, i % 2 == 0 ? "netA" : "netB", 1, 0.0));

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    opts.retainRecords = true;
    opts.switchPenaltyUs = penalty;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = engine.run(trace);

    EXPECT_TRUE(report.switchReport);
    EXPECT_FALSE(report.faultReport);
    EXPECT_EQ(report.networkSwitches, 6u);
    EXPECT_DOUBLE_EQ(report.switchPenaltyTotalUs, 6.0 * penalty);
    ASSERT_EQ(report.batches.size(), 6u);
    EXPECT_NEAR(report.batches[0].latencyUs, latencyA + penalty,
                1e-6);
    EXPECT_NE(report.json().find("\"network_switches\""),
              std::string::npos);

    // A same-network stream on the same options pays the cold start
    // only once.
    ArtifactCache cache2;
    ServingEngine warm = tinyEngine(cache2, opts);
    std::vector<InferenceRequest> same;
    for (std::uint64_t i = 0; i < 6; ++i)
        same.push_back(req(i, "netA", 1, 0.0));
    const ServeReport warmReport = warm.run(same);
    EXPECT_EQ(warmReport.networkSwitches, 1u);
    EXPECT_DOUBLE_EQ(warmReport.switchPenaltyTotalUs, penalty);
}

// --------------------------------------------- trace-parser hardening

TEST(TraceParserHardening, FatalWithSourceAndLineContext)
{
    EXPECT_DEATH(serve::parseTrace("1.0 netA\n", "day.trace"),
                 "day.trace:1");
    EXPECT_DEATH(
        serve::parseTrace("1.0 netA 1\nabc netB 1\n", "day.trace"),
        "day.trace:2.*malformed arrival time");
    EXPECT_DEATH(serve::parseTrace("12abc netA 1\n", "day.trace"),
                 "malformed arrival time");
    EXPECT_DEATH(serve::parseTrace("1.0 netA 2x\n", "day.trace"),
                 "bad sample count");
    EXPECT_DEATH(serve::parseTrace("5.0 netA 1\n1.0 netA 1\n"),
                 "out of order");
    EXPECT_DEATH(serve::parseTrace("1.0 netA 1 5.0 junk\n"),
                 "trailing");
}

TEST(TraceParserHardening, CommentsAndBlanksStillSkip)
{
    const auto trace = serve::parseTrace(
        "# header\n\n  \t\n1.5 netA 2\n# tail\n3.5 netB 1 9.0\n");
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace[0].arrivalUs, 1.5);
    EXPECT_EQ(trace[0].samples, 2u);
    EXPECT_DOUBLE_EQ(trace[1].deadlineUs, 9.0);
}

} // namespace
} // namespace bitfusion
