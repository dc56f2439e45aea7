/**
 * @file
 * The virtual-clock event loop behind the serving engine: replica
 * selection and cheapest-platform routing, scheduler-planned
 * batches, memoized platform runs, and the report aggregation.
 */

#include "src/serve/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/prng.h"
#include "src/core/artifact_cache.h"
#include "src/runner/parallel_for.h"
#include "src/serve/scheduler.h"

namespace bitfusion {
namespace serve {

namespace {

/** Strict (arrival, id) order of future arrivals. */
bool
arrivesBefore(const InferenceRequest &a, const InferenceRequest &b)
{
    if (a.arrivalUs != b.arrivalUs)
        return a.arrivalUs < b.arrivalUs;
    return a.id < b.id;
}

/** Min-heap ordering for std::priority_queue (earliest on top). */
struct ArrivalAfter
{
    bool
    operator()(const InferenceRequest &a,
               const InferenceRequest &b) const
    {
        return arrivesBefore(b, a);
    }
};

/**
 * Future arrivals in (arrival, id) order: a cursor over the caller's
 * (arrival, id)-sorted trace, merged with a min-heap that holds only
 * the requests the loop re-injects (retries and closed-loop
 * reissues). An open-loop day is consumed in place, so the queue
 * costs O(1) per trace request and no copy of the trace.
 */
class FutureQueue
{
  public:
    explicit FutureQueue(const std::vector<InferenceRequest> &trace)
        : trace_(trace)
    {}

    bool empty() const { return next_ == trace_.size() && heap_.empty(); }

    /** The earliest future arrival; the queue must be non-empty. */
    const InferenceRequest &top() const
    {
        return fromHeap() ? heap_.top() : trace_[next_];
    }

    /** Remove and return the earliest future arrival. */
    InferenceRequest take()
    {
        if (!fromHeap())
            return trace_[next_++];
        InferenceRequest req = heap_.top();
        heap_.pop();
        return req;
    }

    void push(InferenceRequest req) { heap_.push(std::move(req)); }

  private:
    /** True when the heap holds the earliest arrival (the trace wins
     *  an exact (arrival, id) tie). */
    bool fromHeap() const
    {
        if (heap_.empty())
            return false;
        return next_ == trace_.size() ||
               arrivesBefore(heap_.top(), trace_[next_]);
    }

    const std::vector<InferenceRequest> &trace_;
    std::size_t next_ = 0;
    std::priority_queue<InferenceRequest, std::vector<InferenceRequest>,
                        ArrivalAfter>
        heap_;
};

json::Value
percentilesJson(const Percentiles &p)
{
    return json::Value::object()
        .set("p50", p.p50)
        .set("p95", p.p95)
        .set("p99", p.p99)
        .set("mean", p.mean)
        .set("max", p.max);
}

Percentiles
streamPercentiles(const StreamingSummary &stream)
{
    Percentiles p;
    p.p50 = stream.p50();
    p.p95 = stream.p95();
    p.p99 = stream.p99();
    p.mean = stream.mean();
    p.max = stream.max();
    return p;
}

/** Replicas whose specs describe the same machine share one
 *  PlatformClass (one compile and one memoized simulation per
 *  shape). Class identity is the spec itself: kind, display name,
 *  network variant, effective batch, and field-for-field config
 *  equality through the type-erased handle, so two hand-built specs
 *  that share a display name but differ in config land in distinct
 *  classes instead of silently merging. */
bool
sameClass(const PlatformSpec &a, const PlatformSpec &b)
{
    return a.kind == b.kind && a.name == b.name &&
           a.runsQuantized == b.runsQuantized &&
           a.effectiveBatch() == b.effectiveBatch() &&
           a.config == b.config;
}

/** Remove the dispatched members from the queue with one stable
 *  span erase: survivors inside [first, last] compact down, then
 *  the gap at the span's tail erases once. deque::erase shifts
 *  whichever side of the deque is smaller, so the common
 *  front-clustered FIFO batch costs O(members) amortized instead of
 *  the old rebuild-the-whole-deque O(queue). Members out of queue
 *  order (edf's join order) are sorted into @p scratch first. */
void
eraseMembers(std::deque<InferenceRequest> &queue,
             const std::vector<std::size_t> &joined,
             std::vector<std::size_t> &scratch)
{
    const std::vector<std::size_t> *sorted = &joined;
    if (!std::is_sorted(joined.begin(), joined.end())) {
        scratch.assign(joined.begin(), joined.end());
        std::sort(scratch.begin(), scratch.end());
        sorted = &scratch;
    }
    const std::vector<std::size_t> &members = *sorted;
    for (std::size_t m = 1; m < members.size(); ++m)
        BF_ASSERT(members[m] != members[m - 1]);
    const std::size_t first = members.front();
    const std::size_t last = members.back();
    if (last - first + 1 == members.size()) {
        // Contiguous members: erase the span directly.
        queue.erase(queue.begin() +
                        static_cast<std::ptrdiff_t>(first),
                    queue.begin() +
                        static_cast<std::ptrdiff_t>(last + 1));
        return;
    }
    std::size_t write = first;
    std::size_t next = 0;
    for (std::size_t i = first; i <= last; ++i) {
        if (next < members.size() && members[next] == i) {
            ++next;
            continue;
        }
        queue[write++] = std::move(queue[i]);
    }
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(write),
                queue.begin() +
                    static_cast<std::ptrdiff_t>(last + 1));
}

} // namespace

// ---------------------------------------------------------- Percentiles

Percentiles
percentiles(std::vector<double> values)
{
    Percentiles p;
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const auto rank = [&](double q) {
        // Nearest-rank: the smallest value with at least q% of the
        // sample at or below it.
        std::size_t idx = static_cast<std::size_t>(
            std::ceil(q / 100.0 * static_cast<double>(n)));
        idx = std::max<std::size_t>(idx, 1);
        return values[std::min(idx, n) - 1];
    };
    p.p50 = rank(50.0);
    p.p95 = rank(95.0);
    p.p99 = rank(99.0);
    double sum = 0.0;
    for (double v : values)
        sum += v;
    p.mean = sum / static_cast<double>(n);
    p.max = values.back();
    return p;
}

// ---------------------------------------------------------- ServeReport

Percentiles
ServeReport::latencyUs() const
{
    if (streamingStats)
        return streamPercentiles(latencyStream);
    if (!latencySamples.empty() || requests.empty())
        return percentiles(latencySamples);
    // A hand-assembled report (tests) with records but no sample
    // vector still summarizes.
    std::vector<double> values;
    values.reserve(requests.size());
    for (const auto &r : requests)
        values.push_back(r.latencyUs());
    return percentiles(std::move(values));
}

Percentiles
ServeReport::queueUs() const
{
    if (streamingStats)
        return streamPercentiles(queueStream);
    if (!queueSamples.empty() || requests.empty())
        return percentiles(queueSamples);
    std::vector<double> values;
    values.reserve(requests.size());
    for (const auto &r : requests)
        values.push_back(r.queueUs());
    return percentiles(std::move(values));
}

double
ServeReport::throughputWindowUs() const
{
    // The legacy definition divides by the whole virtual timeline
    // (time 0 to makespan), which understates throughput for parsed
    // traces whose first arrival is far from 0; the opt-in active
    // window divides by first arrival -> makespan instead.
    if (!activeWindow)
        return makespanUs;
    return std::max(0.0, makespanUs - firstArrivalUs);
}

double
ServeReport::requestsPerSec() const
{
    const double windowUs = throughputWindowUs();
    if (windowUs <= 0.0)
        return 0.0;
    return static_cast<double>(requestCount) / (windowUs * 1e-6);
}

double
ServeReport::samplesPerSec() const
{
    const double windowUs = throughputWindowUs();
    if (windowUs <= 0.0)
        return 0.0;
    return static_cast<double>(totalSamples) / (windowUs * 1e-6);
}

double
ServeReport::offeredRequestsPerSec() const
{
    const double windowUs = throughputWindowUs();
    if (windowUs <= 0.0)
        return 0.0;
    return static_cast<double>(requestsIssued) / (windowUs * 1e-6);
}

double
ServeReport::goodput() const
{
    if (requestsIssued == 0)
        return 0.0;
    return static_cast<double>(requestCount) /
           static_cast<double>(requestsIssued);
}

double
ServeReport::fleetAvailability() const
{
    if (replicas.empty() || makespanUs <= 0.0)
        return 1.0;
    return 1.0 - fleetDownUs / (makespanUs *
                                static_cast<double>(replicas.size()));
}

double
ServeReport::batchFill() const
{
    if (batchCount == 0 || maxBatch == 0)
        return 0.0;
    return static_cast<double>(totalSamples) /
           (static_cast<double>(batchCount) *
            static_cast<double>(maxBatch));
}

bool
ServeReport::fleetReport() const
{
    return replicas.size() > 1 || scheduler != "fifo";
}

std::string
ServeReport::json(bool per_request) const
{
    // The fleet-era fields are gated so a one-replica fifo report
    // keeps the engine's original JSON shape byte-for-byte; the
    // admission / streaming / active-window fields are likewise
    // gated on their features so every pre-existing golden stays
    // byte-identical.
    const bool fleet = fleetReport();

    json::Value doc = json::Value::object();
    doc.set("serve", mode).set("platform", platform);
    if (fleet) {
        doc.set("scheduler", scheduler);
        if (sloBudgetUs > 0.0)
            doc.set("slo_budget_us", sloBudgetUs);
    }
    doc.set("timing", toString(timing))
        .set("max_batch", maxBatch)
        .set("max_wait_us", maxWaitUs)
        .set("requests", static_cast<std::uint64_t>(requestCount))
        .set("samples", totalSamples)
        .set("batches", static_cast<std::uint64_t>(batchCount))
        .set("batch_fill", batchFill())
        .set("distinct_batch_shapes",
             static_cast<std::uint64_t>(distinctBatchShapes))
        .set("makespan_us", makespanUs);
    if (activeWindow) {
        doc.set("first_arrival_us", firstArrivalUs)
            .set("active_window_us", throughputWindowUs());
    }
    doc.set("requests_per_sec", requestsPerSec())
        .set("samples_per_sec", samplesPerSec());
    if (streamingStats)
        doc.set("streaming_stats", true);
    doc.set("latency_us", percentilesJson(latencyUs()))
        .set("queue_us", percentilesJson(queueUs()))
        .set("deadline_misses",
             static_cast<std::uint64_t>(deadlineMisses));
    if (admissionControl) {
        doc.set("shed", static_cast<std::uint64_t>(shedRequests))
            .set("shed_by_depth",
                 static_cast<std::uint64_t>(shedByDepth))
            .set("shed_by_deadline",
                 static_cast<std::uint64_t>(shedByDeadline));
        if (faultReport) {
            doc.set("shed_degraded",
                    static_cast<std::uint64_t>(shedDegraded));
        }
    }
    if (switchReport) {
        doc.set("network_switches",
                static_cast<std::uint64_t>(networkSwitches))
            .set("switch_penalty_total_us", switchPenaltyTotalUs);
    }
    doc.set("energy_j", energyJ)
        .set("energy_per_sample_j",
             totalSamples != 0
                 ? energyJ / static_cast<double>(totalSamples)
                 : 0.0);
    if (fleet || faultReport) {
        json::Value reps = json::Value::array();
        for (const auto &r : replicas) {
            json::Value rep =
                json::Value::object()
                    .set("platform", r.platform)
                    .set("batches",
                         static_cast<std::uint64_t>(r.batches))
                    .set("samples", r.samples)
                    .set("busy_us", r.busyUs)
                    .set("utilization", r.utilization)
                    .set("energy_j", r.energyJ);
            if (faultReport) {
                rep.set("down_us", r.downUs)
                    .set("lost_batches",
                         static_cast<std::uint64_t>(r.lostBatches))
                    .set("wasted_us", r.wastedUs);
            }
            reps.push(std::move(rep));
        }
        doc.set("replicas", std::move(reps));
    }
    if (faultReport) {
        doc.set(
            "availability",
            json::Value::object()
                .set("requests_issued",
                     static_cast<std::uint64_t>(requestsIssued))
                .set("requests_served",
                     static_cast<std::uint64_t>(requestCount))
                .set("requests_shed",
                     static_cast<std::uint64_t>(shedRequests))
                .set("requests_abandoned",
                     static_cast<std::uint64_t>(requestsAbandoned))
                .set("requests_recovered",
                     static_cast<std::uint64_t>(requestsRecovered))
                .set("request_loss_events",
                     static_cast<std::uint64_t>(requestLossEvents))
                .set("batches_lost",
                     static_cast<std::uint64_t>(lostBatches))
                .set("retries_issued",
                     static_cast<std::uint64_t>(retriesIssued))
                .set("hedges_issued",
                     static_cast<std::uint64_t>(hedgesIssued))
                .set("hedges_won",
                     static_cast<std::uint64_t>(hedgesWon))
                .set("hedges_cancelled",
                     static_cast<std::uint64_t>(hedgesCancelled))
                .set("hedges_lost",
                     static_cast<std::uint64_t>(hedgesLost))
                .set("fleet_down_us", fleetDownUs)
                .set("fleet_availability", fleetAvailability())
                .set("offered_rps", offeredRequestsPerSec())
                .set("goodput", goodput())
                .set("last_recovery_us", lastRecoveryUs)
                .set("drain_after_recovery_us",
                     drainAfterRecoveryUs));
    }
    doc.set("cache", json::Value::object()
                         .set("compiles",
                              static_cast<std::uint64_t>(compiles))
                         .set("hits", static_cast<std::uint64_t>(
                                          cacheHits)));

    if (per_request) {
        json::Value recs = json::Value::array();
        for (const auto &r : requests) {
            json::Value rec =
                json::Value::object()
                    .set("id", r.request.id)
                    .set("network", r.request.network)
                    .set("samples", r.request.samples)
                    .set("arrival_us", r.request.arrivalUs)
                    .set("dispatch_us", r.dispatchUs)
                    .set("finish_us", r.finishUs)
                    .set("batch_samples", r.batchSamples);
            if (fleet)
                rec.set("replica", r.replica);
            rec.set("deadline_missed", r.deadlineMissed);
            if (faultReport) {
                rec.set("attempts", r.attempts)
                    .set("hedged", r.hedged)
                    .set("recovered", r.recovered);
            }
            recs.push(std::move(rec));
        }
        doc.set("request_records", std::move(recs));
    }
    return doc.dump(2);
}

// -------------------------------------------------------- ServingEngine

ServingEngine::ServingEngine(PlatformSpec spec, ServeOptions opts)
    : ServingEngine(std::vector<PlatformSpec>{std::move(spec)},
                    std::move(opts))
{}

ServingEngine::ServingEngine(std::vector<PlatformSpec> fleet,
                             ServeOptions opts)
    : opts_(std::move(opts))
{
    if (fleet.empty())
        BF_FATAL("serving fleet must not be empty");
    if (opts_.replicas == 0)
        BF_FATAL("serving needs at least one replica");
    if (opts_.replicas > 1 && fleet.size() > 1) {
        BF_FATAL("give either one spec with ServeOptions.replicas or "
                 "an explicit fleet, not both");
    }
    if (fleet.size() == 1 && opts_.replicas > 1)
        fleet.resize(opts_.replicas, fleet.front());

    for (auto &spec : fleet) {
        std::size_t cls = classes_.size();
        for (std::size_t c = 0; c < classes_.size(); ++c) {
            if (sameClass(classes_[c].spec, spec)) {
                cls = c;
                break;
            }
        }
        if (cls == classes_.size()) {
            std::unique_ptr<Platform> built =
                PlatformRegistry::builtin().build(spec);
            classes_.emplace_back();
            const unsigned batch = spec.effectiveBatch();
            classes_.back().spec = std::move(spec);
            // Seed the built platform; platformFor reuses it.
            classes_.back().platforms.emplace(batch, std::move(built));
        }
        Replica replica;
        replica.cls = cls;
        replicas_.push_back(replica);
    }

    cache_ = opts_.cache != nullptr ? opts_.cache
                                    : &ArtifactCache::process();
    for (const auto &bench : zoo::all())
        catalog_.push_back(bench);
    internCatalog();
}

void
ServingEngine::internCatalog()
{
    networkIds_.clear();
    networkIds_.reserve(catalog_.size());
    for (std::size_t i = 0; i < catalog_.size(); ++i)
        networkIds_.emplace(catalog_[i].name,
                            static_cast<unsigned>(i));
    for (auto &cls : classes_) {
        cls.memo.clear();
        cls.memo.resize(catalog_.size());
    }
}

void
ServingEngine::setCatalog(std::vector<zoo::Benchmark> catalog)
{
    if (catalog.empty())
        BF_FATAL("serving catalog must not be empty");
    catalog_ = std::move(catalog);
    internCatalog();
}

unsigned
ServingEngine::maxBatch() const
{
    if (opts_.maxBatch != 0)
        return opts_.maxBatch;
    unsigned best = 0;
    for (const auto &cls : classes_)
        best = std::max(best, cls.spec.effectiveBatch());
    return best;
}

unsigned
ServingEngine::networkId(const std::string &name) const
{
    const auto it = networkIds_.find(name);
    if (it == networkIds_.end())
        BF_FATAL("serving catalog has no network '", name, "'");
    return it->second;
}

const zoo::Benchmark &
ServingEngine::benchmark(const std::string &name) const
{
    return catalog_[networkId(name)];
}

const Network &
ServingEngine::variant(const zoo::Benchmark &bench,
                       const PlatformSpec &spec) const
{
    return spec.runsQuantized ? bench.quantized : bench.baseline;
}

const Platform &
ServingEngine::platformFor(std::size_t cls, unsigned batch)
{
    PlatformClass &entry = classes_[cls];
    auto it = entry.platforms.find(batch);
    if (it == entry.platforms.end()) {
        PlatformSpec spec = entry.spec;
        spec.batch = batch;
        it = entry.platforms
                 .emplace(batch, PlatformRegistry::builtin().build(spec))
                 .first;
    }
    return *it->second;
}

const RunStats &
ServingEngine::statsFor(std::size_t cls, unsigned netId,
                        unsigned batch)
{
    PlatformClass &entry = classes_[cls];
    std::vector<std::unique_ptr<RunStats>> &row = entry.memo[netId];
    if (batch < row.size() && row[batch])
        return *row[batch];

    const Platform &platform = platformFor(cls, batch);
    const Network &net = variant(catalog_[netId], entry.spec);
    const ArtifactCache::Outcome out = cache_->get(platform, net);
    RunOptions runOpts;
    runOpts.timing = opts_.timing;
    runOpts.artifact = out.artifact.get();
    if (batch >= row.size())
        row.resize(static_cast<std::size_t>(batch) + 1);
    row[batch] = std::make_unique<RunStats>(platform.run(net, runOpts));
    return *row[batch];
}

double
ServingEngine::cheapestFreeLatencyUs(unsigned netId, unsigned batch,
                                     double now)
{
    // Only classes with a replica free (and outside any fault
    // outage) at the planning time can receive the batch, so the
    // estimate handed to schedulers is an upper bound on the routed
    // latency: the free set only grows between planning and
    // dispatch, and routing takes its minimum.
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        bool free = false;
        for (std::size_t r = 0; r < replicas_.size(); ++r) {
            if (replicas_[r].cls != c || replicas_[r].freeAt > now)
                continue;
            if (timeline_ != nullptr && !timeline_->upAt(r, now))
                continue;
            free = true;
            break;
        }
        if (!free)
            continue;
        best = std::min(best, statsFor(c, netId, batch).seconds() * 1e6);
    }
    return best;
}

void
ServingEngine::setFreeAt(std::size_t r, double freeAt)
{
    // Readiness is a pure function of (replica, free time) on the
    // fault timeline, so caching it here -- the only place freeAt
    // moves -- is exact.
    Replica &replica = replicas_[r];
    replica.freeAt = freeAt;
    replica.readyAt =
        timeline_ == nullptr ? freeAt : timeline_->upAfter(r, freeAt);
}

double
ServingEngine::earliestReadyUs() const
{
    double earliest = replicas_.front().readyAt;
    for (const auto &replica : replicas_)
        earliest = std::min(earliest, replica.readyAt);
    return earliest;
}

std::size_t
ServingEngine::upReplicaCount(double now)
{
    if (timeline_ == nullptr)
        return replicas_.size();
    std::size_t up = 0;
    for (std::size_t r = 0; r < replicas_.size(); ++r)
        up += timeline_->upAt(r, now) ? 1 : 0;
    return up;
}

std::size_t
ServingEngine::memoSize() const
{
    std::size_t total = 0;
    for (const auto &cls : classes_) {
        for (const auto &row : cls.memo) {
            for (const auto &slot : row)
                total += slot ? 1 : 0;
        }
    }
    return total;
}

std::string
ServingEngine::fleetName() const
{
    if (replicas_.size() == 1)
        return classes_.front().spec.name;
    std::string name;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        std::size_t count = 0;
        for (const auto &r : replicas_)
            count += r.cls == c ? 1 : 0;
        if (!name.empty())
            name += " + ";
        name += classes_[c].spec.name;
        if (count > 1)
            name += " x" + std::to_string(count);
    }
    return name;
}

void
ServingEngine::validateRequest(const InferenceRequest &req,
                               unsigned cap) const
{
    if (req.samples == 0 || req.samples > cap) {
        BF_FATAL("request ", req.id, " has ", req.samples,
                 " samples; the engine coalesces whole requests "
                 "up to max batch ",
                 cap);
    }
}

void
ServingEngine::precompile(const std::vector<std::string> &networks)
{
    std::set<std::string> names(networks.begin(), networks.end());

    // Resolve every named network (fatal on unknown) and build each
    // class's full-batch platform before fanning out; the workers
    // then only touch the thread-safe artifact cache.
    std::vector<std::pair<const Platform *, const Network *>> tasks;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const Platform &platform = platformFor(c, maxBatch());
        for (const auto &name : names) {
            tasks.emplace_back(&platform,
                               &variant(benchmark(name), classes_[c].spec));
        }
    }

    parallelFor(tasks.size(),
                resolveThreads(opts_.threads, tasks.size()),
                [&](std::size_t i) {
                    cache_->get(*tasks[i].first, *tasks[i].second);
                });
}

/** The scheduler's window into one runLoop's queues. */
class ServingEngine::LoopContext : public SchedulerContext
{
  public:
    LoopContext(ServingEngine &engine, std::deque<InferenceRequest> &queue,
                FutureQueue &future, unsigned cap)
        : engine_(engine), queue_(queue), future_(future), cap_(cap)
    {}

    const std::deque<InferenceRequest> &queue() const override
    {
        return queue_;
    }

    const InferenceRequest *nextArrival() const override
    {
        return future_.empty() ? nullptr : &future_.top();
    }

    bool
    absorbNextArrival() override
    {
        BF_ASSERT(!future_.empty());
        return admit_();
    }

    double batchLatencyUs(const std::string &network,
                          unsigned samples) override
    {
        return engine_.cheapestFreeLatencyUs(
            engine_.networkId(network), samples, now_);
    }

    unsigned maxBatch() const override { return cap_; }
    double windowUs() const override { return engine_.opts_.maxWaitUs; }
    double sloBudgetUs() const override { return engine_.opts_.sloBudgetUs; }
    std::size_t totalReplicas() const override
    {
        return engine_.replicas_.size();
    }
    std::size_t upReplicas() const override
    {
        return engine_.upReplicaCount(now_);
    }

    /** The engine advances this to each plan's virtual time. */
    void setNow(double now) { now_ = now; }
    /** runLoop's admission gate (pops the top future arrival). */
    void setAdmit(std::function<bool()> admit)
    {
        admit_ = std::move(admit);
    }

  private:
    ServingEngine &engine_;
    std::deque<InferenceRequest> &queue_;
    FutureQueue &future_;
    unsigned cap_;
    double now_ = 0.0;
    std::function<bool()> admit_;
};

template <typename OnFinish, typename OnShed>
ServeReport
ServingEngine::runLoop(const std::vector<InferenceRequest> &initial,
                       const std::vector<std::string> &warmNetworks,
                       OnFinish &&onFinish, OnShed &&onShed)
{
    const unsigned cap = maxBatch();
    BF_ASSERT(cap > 0);
    // make() fatals on an unknown name, so find() is non-null; the
    // policy's own validate hook rejects mis-paired knobs.
    std::unique_ptr<Scheduler> scheduler =
        makeScheduler(opts_.scheduler);
    const SchedulerRegistry::Entry *policy =
        SchedulerRegistry::builtin().find(opts_.scheduler);
    if (policy->validate) {
        SchedulerKnobs knobs;
        knobs.maxWaitUs = opts_.maxWaitUs;
        knobs.sloBudgetUs = opts_.sloBudgetUs;
        policy->validate(knobs);
    }

    // The fault era: any fault source or retry/hedge knob switches
    // on loss handling and the availability report. Every new
    // branch below is gated on it (or on the timeline pointer) so a
    // dormant run takes exactly the pre-fault code path and keeps
    // its report bytes.
    const bool faultEra =
        opts_.faults.active() || opts_.retry.active();
    std::optional<FaultTimeline> timeline;
    if (faultEra) {
        opts_.faults.validate(replicas_.size());
        opts_.retry.validate();
        if (opts_.retry.hedgingEnabled() && replicas_.size() < 2) {
            BF_FATAL("hedged dispatch needs at least two replicas, "
                     "the fleet has ",
                     replicas_.size());
        }
        if (opts_.faults.active())
            timeline.emplace(opts_.faults, replicas_.size());
    }
    timeline_ = timeline ? &*timeline : nullptr;

    const std::size_t compilesBefore = cache_->compileCount();
    const std::size_t hitsBefore = cache_->hitCount();
    const std::size_t shapesBefore = memoSize();
    precompile(warmNetworks);

    ServeReport report;
    report.platform = fleetName();
    report.scheduler = scheduler->name();
    report.timing = opts_.timing;
    report.maxBatch = cap;
    report.maxWaitUs = opts_.maxWaitUs;
    report.sloBudgetUs = opts_.sloBudgetUs;
    report.admissionControl =
        opts_.maxQueueDepth > 0 || opts_.shedUnmeetable;
    report.streamingStats = opts_.streamingStats;
    report.activeWindow = opts_.activeWindowStats;
    report.faultReport = faultEra;
    report.switchReport = opts_.switchPenaltyUs > 0.0;

    FutureQueue future(initial);
    std::deque<InferenceRequest> queue;
    std::vector<std::size_t> eraseScratch;
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
        const std::size_t cls = replicas_[r].cls;
        replicas_[r] = Replica{};
        replicas_[r].cls = cls;
        setFreeAt(r, 0.0);
    }
    LoopContext ctx(*this, queue, future, cap);

    double firstArrival = std::numeric_limits<double>::infinity();

    // Retry bookkeeping: a lost request re-enters the future queue
    // under its original id; this side table carries its first
    // arrival (a recovered request's latency spans every attempt)
    // and its consumed dispatches until it serves or is abandoned.
    struct RetryState
    {
        double originalArrivalUs = 0.0;
        /** Dispatches consumed (and lost) so far. */
        unsigned attempts = 0;
    };
    std::unordered_map<std::uint64_t, RetryState> retrying;
    // Seeded jitter for retry backoff, derived from the fault seed
    // and drawn in loss order (virtual-time order), so a fixed seed
    // reproduces every backoff bit-exactly.
    Prng retryJitter(Prng(opts_.faults.seed ^ 0x7265747279ULL).next());
    // Running p99 of completed batch latencies; the p99-derived
    // hedge delay trusts it after a short warmup.
    P2Quantile hedgeP99(0.99);
    const bool hedgeOnP99 = opts_.retry.hedgeP99Multiplier > 0.0;
    constexpr std::size_t kHedgeWarmup = 16;

    // Admission gate: pops the earliest future arrival and either
    // enqueues it (true) or sheds it (false). Depth shedding bounds
    // the pending queue; deadline shedding refuses a request whose
    // earliest possible dispatch -- max(arrival, earliest replica
    // free time) -- is already past its deadline, i.e. a guaranteed
    // miss. Sheds are reported separately from misses, and the
    // closed loop's onShed hands the shed client its next request.
    const auto tryAdmit = [&]() -> bool {
        InferenceRequest req = future.take();
        validateRequest(req, cap);
        firstArrival = std::min(firstArrival, req.arrivalUs);
        if (faultEra) {
            // A re-entering retry was already admitted (and counted
            // issued) on its first arrival; it bypasses admission so
            // a degraded fleet cannot shed work it has accepted.
            if (!retrying.empty() &&
                retrying.find(req.id) != retrying.end()) {
                queue.push_back(std::move(req));
                return true;
            }
            ++report.requestsIssued;
        }
        bool depthShed = false;
        bool deadlineShed = false;
        if (opts_.maxQueueDepth > 0 &&
            queue.size() >= opts_.maxQueueDepth) {
            depthShed = true;
        } else if (opts_.shedUnmeetable && req.deadlineUs > 0.0) {
            // The dispatch oracle accounts for capacity loss: a
            // replica inside an outage cannot free up before it
            // recovers, so deadlines that only an up fleet could
            // meet shed here during the outage.
            deadlineShed = std::max(req.arrivalUs,
                                    earliestReadyUs()) > req.deadlineUs;
        }
        if (!depthShed && !deadlineShed) {
            queue.push_back(std::move(req));
            return true;
        }
        ++report.shedRequests;
        report.shedByDepth += depthShed ? 1 : 0;
        report.shedByDeadline += deadlineShed ? 1 : 0;
        if (timeline_ != nullptr &&
            timeline_->anyDownAt(req.arrivalUs))
            ++report.shedDegraded;
        const double shedAt =
            std::max(req.arrivalUs, earliestReadyUs());
        std::vector<InferenceRequest> replacements;
        onShed(req, shedAt, replacements);
        for (auto &r : replacements)
            future.push(std::move(r));
        return false;
    };
    ctx.setAdmit(tryAdmit);

    const auto absorb = [&](double now) {
        while (!future.empty() && future.top().arrivalUs <= now)
            tryAdmit();
    };

    while (!queue.empty() || !future.empty()) {
        // The earliest-ready replica sets the planning clock (ties
        // go to the lowest index); under faults "ready" means both
        // free of work and outside any outage.
        std::size_t planner = 0;
        double plannerReady = replicas_[0].readyAt;
        for (std::size_t r = 1; r < replicas_.size(); ++r) {
            if (replicas_[r].readyAt < plannerReady) {
                planner = r;
                plannerReady = replicas_[r].readyAt;
            }
        }
        double now = plannerReady;
        if (faultEra && std::isinf(now)) {
            // Every replica is permanently down: nothing pending can
            // ever be served again. Count the stranded requests as
            // abandoned -- without handing closed-loop clients a
            // next request, which would reissue into the dead fleet
            // forever -- and stop.
            std::size_t stranded = queue.size();
            report.requestsAbandoned += queue.size();
            queue.clear();
            while (!future.empty()) {
                if (retrying.find(future.take().id) == retrying.end())
                    ++report.requestsIssued;
                ++report.requestsAbandoned;
                ++stranded;
            }
            retrying.clear();
            BF_WARN("serving fleet is permanently down; abandoning ",
                    stranded, " pending requests");
            break;
        }
        if (queue.empty())
            now = std::max(now, future.top().arrivalUs);
        absorb(now);
        ctx.setNow(now);
        if (queue.empty())
            continue; // everything due was shed; advance the clock

        const BatchPlan plan = scheduler->plan(ctx, now);
        BF_ASSERT(!plan.members.empty());
        const unsigned netId = networkId(plan.network);
        unsigned planSamples = 0;
        double dispatch = std::max(plan.dispatchUs, now);
        for (std::size_t i : plan.members) {
            BF_ASSERT(i < queue.size());
            BF_ASSERT(queue[i].network == plan.network);
            planSamples += queue[i].samples;
            dispatch = std::max(dispatch, queue[i].arrivalUs);
        }
        BF_ASSERT(planSamples == plan.samples);
        BF_ASSERT(planSamples <= cap);

        // Route to the free (and up) replica whose platform serves
        // this network cheapest (ties go to the lowest index); with
        // the switch penalty active, a candidate that would have to
        // reload weights bids its reload cost too. Under faults the
        // whole batch slides later when no replica is up and free at
        // the planned departure; a slide to infinity means the fleet
        // died for good mid-plan, so the members are abandoned.
        std::size_t chosen = planner;
        double chosenCost = std::numeric_limits<double>::infinity();
        bool strandedBatch = false;
        for (;;) {
            for (std::size_t r = 0; r < replicas_.size(); ++r) {
                if (replicas_[r].freeAt > dispatch)
                    continue;
                if (timeline_ != nullptr &&
                    !timeline_->upAt(r, dispatch))
                    continue;
                const RunStats &candidate =
                    statsFor(replicas_[r].cls, netId, planSamples);
                double cost = candidate.seconds() * 1e6;
                if (opts_.switchPenaltyUs > 0.0 &&
                    replicas_[r].lastNetId != netId)
                    cost += opts_.switchPenaltyUs;
                if (cost < chosenCost) {
                    chosenCost = cost;
                    chosen = r;
                }
            }
            if (std::isfinite(chosenCost))
                break;
            BF_ASSERT(timeline_ != nullptr);
            double slide = std::numeric_limits<double>::infinity();
            for (std::size_t r = 0; r < replicas_.size(); ++r) {
                slide = std::min(
                    slide,
                    timeline_->upAfter(
                        r, std::max(replicas_[r].freeAt, dispatch)));
            }
            if (std::isinf(slide)) {
                strandedBatch = true;
                break;
            }
            dispatch = slide;
        }
        if (strandedBatch) {
            report.requestsAbandoned += plan.members.size();
            for (std::size_t i : plan.members)
                retrying.erase(queue[i].id);
            eraseMembers(queue, plan.members, eraseScratch);
            continue;
        }

        // Dispatch: charge the chosen platform's simulated latency,
        // plus the reload penalty when the replica changes networks
        // (a cold replica's first batch pays it too).
        Replica &replica = replicas_[chosen];
        const RunStats &rs = statsFor(replica.cls, netId, planSamples);
        const double computeUs = rs.seconds() * 1e6;
        const bool switched = opts_.switchPenaltyUs > 0.0 &&
                              replica.lastNetId != netId;
        double latencyUs = computeUs;
        if (switched) {
            latencyUs += opts_.switchPenaltyUs;
            ++report.networkSwitches;
            report.switchPenaltyTotalUs += opts_.switchPenaltyUs;
        }
        replica.lastNetId = netId;
        const double finish = dispatch + latencyUs;

        // Resolve the dispatch against the fault timeline: an
        // outage opening strictly inside (dispatch, finish)
        // destroys the batch at that instant.
        double failAt = std::numeric_limits<double>::infinity();
        if (timeline_ != nullptr) {
            failAt =
                timeline_->nextDownWithin(chosen, dispatch, finish);
        }
        const bool primaryLost = failAt < finish;

        // Hedge: when the primary is still unresolved after the
        // hedge delay, duplicate the batch onto the cheapest other
        // up-and-free replica. The first completion wins; the loser
        // is cancelled at that instant and its burned compute is
        // charged as waste, not busy time.
        bool hedged = false;
        bool hedgeLost = false;
        std::size_t hedgeReplica = 0;
        double hedgeDispatch = 0.0;
        double hedgeFinish = std::numeric_limits<double>::infinity();
        double hedgeFailAt = std::numeric_limits<double>::infinity();
        double hedgeLatencyUs = 0.0;
        double hedgeEnergyJ = 0.0;
        if (faultEra && opts_.retry.hedgingEnabled()) {
            double delay = opts_.retry.hedgeDelayUs;
            if (hedgeOnP99) {
                delay = hedgeP99.count() >= kHedgeWarmup
                            ? opts_.retry.hedgeP99Multiplier *
                                  hedgeP99.value()
                            : -1.0;
            }
            const double outcomeAt = primaryLost ? failAt : finish;
            if (delay >= 0.0 && dispatch + delay < outcomeAt) {
                const double hedgeAt = dispatch + delay;
                double bestCost =
                    std::numeric_limits<double>::infinity();
                for (std::size_t r = 0; r < replicas_.size(); ++r) {
                    if (r == chosen ||
                        replicas_[r].freeAt > hedgeAt)
                        continue;
                    if (timeline_ != nullptr &&
                        !timeline_->upAt(r, hedgeAt))
                        continue;
                    const RunStats &candidate =
                        statsFor(replicas_[r].cls, netId,
                                 planSamples);
                    double cost = candidate.seconds() * 1e6;
                    if (opts_.switchPenaltyUs > 0.0 &&
                        replicas_[r].lastNetId != netId)
                        cost += opts_.switchPenaltyUs;
                    if (cost < bestCost) {
                        bestCost = cost;
                        hedgeReplica = r;
                    }
                }
                if (std::isfinite(bestCost)) {
                    hedged = true;
                    Replica &hr = replicas_[hedgeReplica];
                    const RunStats &hs =
                        statsFor(hr.cls, netId, planSamples);
                    hedgeLatencyUs = hs.seconds() * 1e6;
                    if (opts_.switchPenaltyUs > 0.0 &&
                        hr.lastNetId != netId) {
                        hedgeLatencyUs += opts_.switchPenaltyUs;
                        ++report.networkSwitches;
                        report.switchPenaltyTotalUs +=
                            opts_.switchPenaltyUs;
                    }
                    hr.lastNetId = netId;
                    hedgeDispatch = hedgeAt;
                    hedgeFinish = hedgeAt + hedgeLatencyUs;
                    hedgeEnergyJ = hs.energy().totalJ();
                    if (timeline_ != nullptr) {
                        hedgeFailAt = timeline_->nextDownWithin(
                            hedgeReplica, hedgeAt, hedgeFinish);
                    }
                    hedgeLost = hedgeFailAt < hedgeFinish;
                }
            }
        }

        // First completion wins (the primary wins exact ties).
        const bool hedgeWins = hedged && !hedgeLost &&
                               (primaryLost || hedgeFinish < finish);
        const bool completed = !primaryLost || hedgeWins;
        const double doneAt = hedgeWins ? hedgeFinish : finish;
        const std::size_t serveReplica =
            hedgeWins ? hedgeReplica : chosen;

        // Settle the primary replica: useful compute counts as busy
        // time and energy; destroyed or cancelled compute counts as
        // waste and charges nothing.
        if (primaryLost) {
            setFreeAt(chosen, timeline_->upAfter(chosen, failAt));
            replica.wastedUs += failAt - dispatch;
            replica.lostBatches += 1;
            ++report.lostBatches;
        } else if (hedgeWins) {
            setFreeAt(chosen, doneAt);
            replica.wastedUs += doneAt - dispatch;
        } else {
            setFreeAt(chosen, finish);
            replica.batches += 1;
            replica.samples += planSamples;
            replica.busyUs += latencyUs;
            replica.energyJ += rs.energy().totalJ();
        }

        // Settle the hedge replica.
        bool hedgeDied = false;
        if (hedged) {
            Replica &hr = replicas_[hedgeReplica];
            if (hedgeWins) {
                setFreeAt(hedgeReplica, hedgeFinish);
                hr.batches += 1;
                hr.samples += planSamples;
                hr.busyUs += hedgeLatencyUs;
                hr.energyJ += hedgeEnergyJ;
            } else if (hedgeLost &&
                       (!completed || hedgeFailAt <= doneAt)) {
                // Its replica died under it before the primary
                // completed.
                hedgeDied = true;
                setFreeAt(hedgeReplica,
                          timeline_->upAfter(hedgeReplica, hedgeFailAt));
                hr.wastedUs += hedgeFailAt - hedgeDispatch;
                hr.lostBatches += 1;
                ++report.lostBatches;
            } else {
                // Cancelled when the primary completed first.
                setFreeAt(hedgeReplica, doneAt);
                hr.wastedUs += doneAt - hedgeDispatch;
            }
        }

        if (completed) {
            report.energyJ +=
                hedgeWins ? hedgeEnergyJ : rs.energy().totalJ();
            report.totalSamples += planSamples;
            report.makespanUs = std::max(report.makespanUs, doneAt);
            report.batchCount += 1;
            if (hedgeOnP99) {
                hedgeP99.add(doneAt - (hedgeWins ? hedgeDispatch
                                                 : dispatch));
            }
            if (opts_.retainRecords) {
                BatchRecord batch;
                batch.network = plan.network;
                batch.samples = planSamples;
                batch.requests = plan.members.size();
                batch.dispatchUs =
                    hedgeWins ? hedgeDispatch : dispatch;
                batch.latencyUs =
                    hedgeWins ? hedgeLatencyUs : latencyUs;
                batch.replica = static_cast<unsigned>(serveReplica);
                report.batches.push_back(std::move(batch));
            }
        }

        std::vector<InferenceRequest> injected;
        if (completed) {
            for (std::size_t i : plan.members) {
                RequestRecord rec;
                rec.request = std::move(queue[i]);
                rec.dispatchUs = dispatch;
                rec.finishUs = doneAt;
                rec.batchSamples = planSamples;
                rec.replica = static_cast<unsigned>(serveReplica);
                if (faultEra) {
                    const auto it = retrying.empty()
                                        ? retrying.end()
                                        : retrying.find(rec.request.id);
                    if (it != retrying.end()) {
                        // A recovered request's latency spans every
                        // attempt since its first arrival.
                        rec.request.arrivalUs =
                            it->second.originalArrivalUs;
                        rec.attempts = it->second.attempts + 1;
                        rec.recovered = true;
                        ++report.requestsRecovered;
                        retrying.erase(it);
                    }
                    rec.hedged = hedged;
                    if (hedged) {
                        ++report.hedgesIssued;
                        if (hedgeWins)
                            ++report.hedgesWon;
                        else if (hedgeDied)
                            ++report.hedgesLost;
                        else
                            ++report.hedgesCancelled;
                    }
                }
                rec.deadlineMissed =
                    rec.request.deadlineUs > 0.0 &&
                    dispatch > rec.request.deadlineUs;
                if (rec.deadlineMissed)
                    ++report.deadlineMisses;
                report.requestCount += 1;
                if (opts_.streamingStats) {
                    report.latencyStream.add(rec.latencyUs());
                    report.queueStream.add(rec.queueUs());
                } else {
                    report.latencySamples.push_back(rec.latencyUs());
                    report.queueSamples.push_back(rec.queueUs());
                }
                onFinish(rec, injected);
                if (opts_.retainRecords)
                    report.requests.push_back(std::move(rec));
            }
        } else {
            // The batch is gone: every member either re-enters the
            // queue after its backoff or is abandoned when its
            // attempts or the global retry budget run out.
            const double lostAt =
                hedged ? std::max(failAt, hedgeFailAt) : failAt;
            for (std::size_t i : plan.members) {
                InferenceRequest req = queue[i];
                const auto emplaced = retrying.try_emplace(req.id);
                RetryState &st = emplaced.first->second;
                if (emplaced.second)
                    st.originalArrivalUs = req.arrivalUs;
                st.attempts += 1;
                ++report.requestLossEvents;
                if (hedged) {
                    ++report.hedgesIssued;
                    ++report.hedgesLost;
                }
                const bool canRetry =
                    opts_.retry.maxAttempts > st.attempts &&
                    (opts_.retry.retryBudget == 0 ||
                     report.retriesIssued < opts_.retry.retryBudget);
                if (canRetry) {
                    ++report.retriesIssued;
                    double backoff =
                        opts_.retry.backoffBaseUs *
                        std::ldexp(1.0,
                                   static_cast<int>(st.attempts) - 1);
                    if (opts_.retry.jitterFrac > 0.0) {
                        backoff *= 1.0 + opts_.retry.jitterFrac *
                                             retryJitter.nextDouble();
                    }
                    req.arrivalUs = lostAt + backoff;
                    injected.push_back(std::move(req));
                } else {
                    ++report.requestsAbandoned;
                    retrying.erase(req.id);
                    // A closed-loop client whose request died gives
                    // up here and issues its next one.
                    onShed(req, lostAt, injected);
                }
            }
        }
        for (auto &req : injected)
            future.push(std::move(req));

        eraseMembers(queue, plan.members, eraseScratch);
    }

    std::stable_sort(report.requests.begin(), report.requests.end(),
                     [](const RequestRecord &a, const RequestRecord &b) {
                         return a.request.id < b.request.id;
                     });
    report.firstArrivalUs =
        std::isfinite(firstArrival) ? firstArrival : 0.0;
    const double utilizationWindowUs = report.throughputWindowUs();
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
        const Replica &replica = replicas_[r];
        ReplicaUsage usage;
        usage.platform = classes_[replica.cls].spec.name;
        usage.batches = replica.batches;
        usage.samples = replica.samples;
        usage.busyUs = replica.busyUs;
        usage.utilization = utilizationWindowUs > 0.0
                                ? replica.busyUs / utilizationWindowUs
                                : 0.0;
        usage.energyJ = replica.energyJ;
        if (faultEra) {
            usage.lostBatches = replica.lostBatches;
            usage.wastedUs = replica.wastedUs;
            if (timeline_ != nullptr)
                usage.downUs =
                    timeline_->downUsWithin(r, report.makespanUs);
            report.fleetDownUs += usage.downUs;
        }
        report.replicas.push_back(std::move(usage));
    }
    if (timeline_ != nullptr) {
        report.lastRecoveryUs =
            timeline_->lastRecoveryBefore(report.makespanUs);
        report.drainAfterRecoveryUs =
            report.lastRecoveryUs > 0.0
                ? report.makespanUs - report.lastRecoveryUs
                : 0.0;
    }
    timeline_ = nullptr;
    report.distinctBatchShapes = memoSize() - shapesBefore;
    report.compiles = cache_->compileCount() - compilesBefore;
    report.cacheHits = cache_->hitCount() - hitsBefore;
    return report;
}

ServeReport
ServingEngine::run(const std::vector<InferenceRequest> &trace)
{
    // The arrival cursor consumes the trace in (arrival, id) order.
    // Parsed and synthetic traces already are; a hand-built trace
    // whose tied arrivals carry descending ids is served from a
    // sorted copy.
    bool tiesOutOfOrder = false;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        if (trace[i].arrivalUs < trace[i - 1].arrivalUs) {
            BF_FATAL("open-loop trace is not arrival-ordered at "
                     "request ",
                     i);
        }
        tiesOutOfOrder |= arrivesBefore(trace[i], trace[i - 1]);
    }
    std::vector<std::string> networks;
    for (const auto &req : trace) {
        if (std::find(networks.begin(), networks.end(), req.network) ==
            networks.end())
            networks.push_back(req.network);
    }
    std::vector<InferenceRequest> sorted;
    if (tiesOutOfOrder) {
        sorted = trace;
        std::stable_sort(sorted.begin(), sorted.end(), arrivesBefore);
    }
    ServeReport report = runLoop(
        tiesOutOfOrder ? sorted : trace, networks,
        [](const RequestRecord &, std::vector<InferenceRequest> &) {},
        [](const InferenceRequest &, double,
           std::vector<InferenceRequest> &) {});
    report.mode = "open-loop";
    return report;
}

ServeReport
ServingEngine::runClosedLoop(const ClosedLoopSpec &spec)
{
    if (spec.clients == 0)
        BF_FATAL("closed loop needs at least one client");
    if (spec.samples == 0)
        BF_FATAL("closed loop needs at least one sample per request");
    if (opts_.maxQueueDepth > 0) {
        BF_FATAL("closed-loop runs cannot shed by queue depth: a "
                 "shed client would reissue at the same instant and "
                 "shed forever (use shedUnmeetable or an open-loop "
                 "trace)");
    }

    std::vector<std::string> networks = spec.networks;
    if (networks.empty()) {
        for (const auto &bench : catalog_)
            networks.push_back(bench.name);
    }

    Prng prng(spec.seed);
    std::uint64_t nextId = 0;
    std::size_t issued = 0;
    const auto makeRequest = [&](double arrivalUs) {
        InferenceRequest req;
        req.id = nextId++;
        req.network = networks[prng.below(networks.size())];
        req.samples = spec.samples;
        req.arrivalUs = arrivalUs;
        if (spec.deadlineSlackUs > 0.0)
            req.deadlineUs = arrivalUs + spec.deadlineSlackUs;
        ++issued;
        return req;
    };

    std::vector<InferenceRequest> initial;
    const std::size_t starters =
        std::min<std::size_t>(spec.clients, spec.requests);
    for (std::size_t c = 0; c < starters; ++c)
        initial.push_back(makeRequest(0.0));

    // Each completion hands its client the next request (arrival =
    // completion time) until the quota is issued; a shed hands the
    // shed client its next request at the shed time the same way.
    // The whole network mix prewarms, not just the starters' random
    // draws.
    ServeReport report = runLoop(
        initial, networks,
        [&](const RequestRecord &rec,
            std::vector<InferenceRequest> &out) {
            if (issued < spec.requests)
                out.push_back(makeRequest(rec.finishUs));
        },
        [&](const InferenceRequest &, double shedAtUs,
            std::vector<InferenceRequest> &out) {
            if (issued < spec.requests)
                out.push_back(makeRequest(shedAtUs));
        });
    report.mode = "closed-loop";
    return report;
}

} // namespace serve
} // namespace bitfusion
