/**
 * @file
 * Pluggable dispatch policies for the serving engine.
 *
 * A Scheduler decides, each time a replica frees up, which queued
 * requests form the next batch and when it leaves: the engine owns
 * the virtual clock, the arrival stream, and the replicas, and hands
 * the scheduler a SchedulerContext view of the pending queue. Four
 * policies ship (see docs/serving.md for the full semantics):
 *
 *  - "fifo"      -- head-of-line coalescing with the timer-based
 *                   batching window; byte-identical to the engine's
 *                   pre-scheduler behavior at one replica.
 *  - "lookahead" -- same-network lookahead: picks the queued network
 *                   that forms the fullest batch, but never lets the
 *                   head-of-line request starve past the batching
 *                   window (maxWaitUs, which it requires).
 *  - "edf"       -- earliest-deadline-first: the tightest deadline
 *                   picks the batch's network and members join in
 *                   deadline order (deadline-free requests sort
 *                   last, FIFO among themselves).
 *  - "slo"       -- SLO-aware batch sizing: grows the batch (and
 *                   waits for future joiners) only while the
 *                   simulated batch latency keeps every member
 *                   inside the latency budget (sloBudgetUs, which it
 *                   requires), instead of filling to a fixed cap.
 *
 * Schedulers are deterministic pure policies: all state they see is
 * the context, so a fixed trace replans identically on every run and
 * worker-thread count.
 */

#ifndef BITFUSION_SERVE_SCHEDULER_H
#define BITFUSION_SERVE_SCHEDULER_H

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/trace.h"

namespace bitfusion {
namespace serve {

/** One planned batch: queue members, size, and departure time. */
struct BatchPlan
{
    /** Indices into SchedulerContext::queue(), in join order. */
    std::vector<std::size_t> members;
    /** The batch's network (every member's). */
    std::string network;
    /** Coalesced sample count (sum over members). */
    unsigned samples = 0;
    /**
     * Virtual dispatch time; must be >= the planning time and >=
     * every member's arrival (the engine clamps defensively).
     */
    double dispatchUs = 0.0;
};

/**
 * The engine-owned view a scheduler plans against: the pending
 * queue, the not-yet-arrived request stream (which a policy may
 * absorb while it waits out a batching window), and the memoized
 * simulated batch latency it can size batches with.
 */
class SchedulerContext
{
  public:
    virtual ~SchedulerContext() = default;

    /** Pending requests, in (arrival, id) order per absorb. */
    virtual const std::deque<InferenceRequest> &queue() const = 0;
    /** Earliest future arrival; nullptr when the stream is dry. */
    virtual const InferenceRequest *nextArrival() const = 0;
    /**
     * Move the earliest future arrival to the back of queue().
     * Returns false when admission control shed it instead (the
     * queue is unchanged; the policy must not touch queue().back()).
     */
    virtual bool absorbNextArrival() = 0;
    /**
     * Cheapest simulated latency of a (network, samples) batch
     * across the platform classes with a replica free at the
     * planning time. The engine routes each batch to the cheapest
     * replica free at dispatch, and the free set only grows between
     * planning and dispatch, so this is an upper bound on the
     * latency the planned batch will actually be charged.
     */
    virtual double batchLatencyUs(const std::string &network,
                                  unsigned samples) = 0;
    /** Coalescing cap in samples. */
    virtual unsigned maxBatch() const = 0;
    /** Batching window / starvation bound (ServeOptions.maxWaitUs). */
    virtual double windowUs() const = 0;
    /** SLO latency budget (ServeOptions.sloBudgetUs; 0 = unset). */
    virtual double sloBudgetUs() const = 0;
    /** Replicas behind the queue. Defaulted so pre-fault contexts
     *  keep compiling. */
    virtual std::size_t totalReplicas() const { return 1; }
    /**
     * Replicas not inside a fault outage at the planning time;
     * equals totalReplicas() when no fault model is active. A
     * policy can compare the two to tell capacity loss from
     * overload (batchLatencyUs already excludes down replicas).
     */
    virtual std::size_t upReplicas() const { return totalReplicas(); }
};

/** Dispatch policy; carries no decision state between plan() calls
 *  (a policy may reuse scratch buffers). */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Registry name ("fifo", "lookahead", "edf", "slo"). */
    virtual const char *name() const = 0;

    /**
     * Plan the next batch at virtual time @p now. The queue is
     * non-empty; the plan must name at least one member and all
     * members must share one network.
     */
    virtual BatchPlan plan(SchedulerContext &ctx, double now) = 0;
};

/**
 * The engine knobs a policy can require at startup (mirrors the
 * relevant ServeOptions fields without depending on them).
 */
struct SchedulerKnobs
{
    /** Batching window / starvation bound (maxWaitUs). */
    double maxWaitUs = 0.0;
    /** SLO latency budget (sloBudgetUs; 0 = unset). */
    double sloBudgetUs = 0.0;
};

/**
 * Factories for every dispatch policy, mirroring PlatformRegistry:
 * the built-in policies pre-register in builtin() through the same
 * add() an out-of-tree scheduler uses at runtime, and the CLI's
 * --scheduler help and error text are generated from the entries.
 */
class SchedulerRegistry
{
  public:
    struct Entry
    {
        /** Policy name (the --scheduler token). */
        std::string name;
        /** One-line description of the policy. */
        std::string help;
        /** Build a fresh policy instance. */
        std::function<std::unique_ptr<Scheduler>()> make;
        /**
         * Fatal-check the engine knobs before a run (a policy that
         * requires a window or budget rejects a mis-paired setup
         * here); nullptr = no requirements.
         */
        std::function<void(const SchedulerKnobs &)> validate;
    };

    /** The registry holding the built-in policies. */
    static SchedulerRegistry &builtin();

    /** Register a policy; fatal on a duplicate name. */
    void add(Entry entry);

    /** Look up a policy; nullptr when unknown. */
    const Entry *find(const std::string &name) const;

    /** Build the named policy; fatal on an unknown name. */
    std::unique_ptr<Scheduler> make(const std::string &name) const;

    const std::vector<Entry> &entries() const { return entries_; }

    /** " | "-joined policy names (for CLI help and errors). */
    std::string names() const;

  private:
    std::vector<Entry> entries_;
};

/** Build the named scheduler; fatal on an unknown name. */
std::unique_ptr<Scheduler> makeScheduler(const std::string &name);

/** "fifo | lookahead | edf | slo" (for CLI help and errors). */
std::string schedulerNames();

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_SCHEDULER_H
