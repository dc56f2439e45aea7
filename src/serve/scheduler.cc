/**
 * @file
 * The four built-in dispatch policies. The FIFO policy is the
 * engine's original head-of-line behavior lifted out verbatim (the
 * R=1 report is locked byte-identical by tests/golden/
 * serve_fifo_r1.json); the others reorder, re-pick, or re-size
 * batches but share its coalescing helpers.
 */

#include "src/serve/scheduler.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "src/common/logging.h"

namespace bitfusion {
namespace serve {

namespace {

/** Deadline sort key: deadline-free requests sort last. */
double
deadlineKey(const InferenceRequest &r)
{
    return r.deadlineUs > 0.0 ? r.deadlineUs
                              : std::numeric_limits<double>::infinity();
}

/**
 * FIFO-coalesce queued requests of @p network into @p plan while
 * whole requests fit under @p cap; returns the coalesced samples.
 */
unsigned
coalesceFifo(const std::deque<InferenceRequest> &queue,
             const std::string &network, unsigned cap, BatchPlan &plan)
{
    unsigned samples = 0;
    for (std::size_t i = 0; i < queue.size() && samples < cap; ++i) {
        const InferenceRequest &r = queue[i];
        if (r.network == network && samples + r.samples <= cap) {
            plan.members.push_back(i);
            samples += r.samples;
        }
    }
    return samples;
}

/** Coalesced sample count @p network's queued requests reach under
 *  @p cap (the fill coalesceFifo would produce, without building
 *  the member list). */
unsigned
coalesceCount(const std::deque<InferenceRequest> &queue,
              const std::string &network, unsigned cap)
{
    unsigned samples = 0;
    for (std::size_t i = 0; i < queue.size() && samples < cap; ++i) {
        const InferenceRequest &r = queue[i];
        if (r.network == network && samples + r.samples <= cap)
            samples += r.samples;
    }
    return samples;
}

/** Clamp the dispatch to the members' arrivals (a member absorbed
 *  during an earlier plan's window can postdate this plan's now). */
double
memberDispatch(const std::deque<InferenceRequest> &queue,
               const BatchPlan &plan, double now)
{
    double dispatch = now;
    for (std::size_t i : plan.members)
        dispatch = std::max(dispatch, queue[i].arrivalUs);
    return dispatch;
}

/**
 * Head-of-line FIFO with the timer-based batching window: the
 * oldest request picks the network, arrived requests join in FIFO
 * order, and an unfilled batch waits for more arrivals until the
 * window set at the head's arrival fires -- never past a member's
 * deadline -- dispatching early the moment it fills.
 */
class FifoScheduler : public Scheduler
{
  public:
    const char *name() const override { return "fifo"; }

    BatchPlan plan(SchedulerContext &ctx, double now) override
    {
        const std::deque<InferenceRequest> &queue = ctx.queue();
        const unsigned cap = ctx.maxBatch();
        const InferenceRequest head = queue.front();

        BatchPlan out;
        out.network = head.network;
        unsigned samples = coalesceFifo(queue, head.network, cap, out);
        double dispatch = memberDispatch(queue, out, now);

        if (samples < cap && ctx.windowUs() > 0.0) {
            double windowEnd = head.arrivalUs + ctx.windowUs();
            for (std::size_t i : out.members) {
                if (queue[i].deadlineUs > 0.0)
                    windowEnd = std::min(windowEnd, queue[i].deadlineUs);
            }
            windowEnd = std::max(windowEnd, now);
            const bool waited = windowEnd > now;
            while (samples < cap && ctx.nextArrival() != nullptr &&
                   ctx.nextArrival()->arrivalUs <= windowEnd) {
                if (!ctx.absorbNextArrival())
                    continue; // shed by admission control
                const InferenceRequest &next = queue.back();
                if (next.network == head.network &&
                    samples + next.samples <= cap) {
                    out.members.push_back(queue.size() - 1);
                    samples += next.samples;
                    dispatch = std::max(dispatch, next.arrivalUs);
                    if (next.deadlineUs > 0.0) {
                        windowEnd = std::min(
                            windowEnd,
                            std::max(next.deadlineUs, dispatch));
                    }
                }
            }
            if (samples < cap && waited)
                dispatch = windowEnd; // the batching timer fires
        }

        out.samples = samples;
        out.dispatchUs = dispatch;
        return out;
    }
};

/**
 * Same-network lookahead: pick the queued network that coalesces
 * into the fullest batch (ties go to the earliest-queued network),
 * unless the head-of-line request has already waited out the
 * batching window -- then the head's network is served, so no
 * request starves longer than the window plus one in-flight batch.
 * Lookahead never waits on a timer; it only reorders what is queued.
 */
class LookaheadScheduler : public Scheduler
{
  public:
    const char *name() const override { return "lookahead"; }

    BatchPlan plan(SchedulerContext &ctx, double now) override
    {
        const std::deque<InferenceRequest> &queue = ctx.queue();
        const unsigned cap = ctx.maxBatch();
        const InferenceRequest &head = queue.front();

        std::string network = head.network;
        if (now < head.arrivalUs + ctx.windowUs()) {
            // Head not yet overdue: the fullest batch wins.
            unsigned bestFill = 0;
            std::set<std::string> seen;
            for (std::size_t i = 0; i < queue.size(); ++i) {
                if (!seen.insert(queue[i].network).second)
                    continue;
                const unsigned fill =
                    coalesceCount(queue, queue[i].network, cap);
                if (fill > bestFill) {
                    bestFill = fill;
                    network = queue[i].network;
                }
            }
        }

        BatchPlan out;
        out.network = network;
        out.samples = coalesceFifo(queue, network, cap, out);
        out.dispatchUs = memberDispatch(queue, out, now);
        return out;
    }
};

/**
 * Earliest-deadline-first: the tightest queued deadline picks the
 * network, and requests of that network join in (deadline, queue
 * position) order while they fit. Dispatches immediately -- when
 * deadlines drive the schedule, idling on a batching timer only
 * burns slack.
 */
class EdfScheduler : public Scheduler
{
  public:
    const char *name() const override { return "edf"; }

    BatchPlan plan(SchedulerContext &ctx, double now) override
    {
        const std::deque<InferenceRequest> &queue = ctx.queue();
        const unsigned cap = ctx.maxBatch();

        std::size_t headIdx = 0;
        double headKey = deadlineKey(queue[0]);
        for (std::size_t i = 1; i < queue.size(); ++i) {
            const double key = deadlineKey(queue[i]);
            if (key < headKey) {
                headIdx = i;
                headKey = key;
            }
        }

        BatchPlan out;
        out.network = queue[headIdx].network;

        // Same-network candidates in (deadline, queue position)
        // order; whole requests join while they fit. The keys are
        // never NaN and the positions are distinct, so the order is
        // total and equals a stable sort on deadline alone.
        candidates_.clear();
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (queue[i].network == out.network)
                candidates_.emplace_back(deadlineKey(queue[i]), i);
        }
        std::sort(candidates_.begin(), candidates_.end());
        // Every member holds at least one sample: one allocation.
        out.members.reserve(
            std::min<std::size_t>(candidates_.size(), cap));
        unsigned samples = 0;
        for (const auto &candidate : candidates_) {
            if (samples >= cap)
                break;
            const std::size_t i = candidate.second;
            if (samples + queue[i].samples <= cap) {
                out.members.push_back(i);
                samples += queue[i].samples;
            }
        }

        out.samples = samples;
        out.dispatchUs = memberDispatch(queue, out, now);
        return out;
    }

  private:
    /** (deadline key, queue position) scratch, reused across plans
     *  so planning allocates only when the queue outgrows it. */
    std::vector<std::pair<double, std::size_t>> candidates_;
};

/**
 * SLO-aware batch sizing: the head-of-line request picks the
 * network, but the batch grows -- over the queue and then over
 * future arrivals -- only while the simulated latency of the grown
 * batch keeps every member's end-to-end latency inside the budget.
 * It dispatches the moment no further joiner can fit, so it never
 * idles on a timer; when even the head alone cannot meet its
 * budget, the batch falls back to a plain FIFO fill (the budget is
 * already lost, so throughput is all that is left to optimize).
 */
class SloScheduler : public Scheduler
{
  public:
    const char *name() const override { return "slo"; }

    BatchPlan plan(SchedulerContext &ctx, double now) override
    {
        const std::deque<InferenceRequest> &queue = ctx.queue();
        const unsigned cap = ctx.maxBatch();
        const double budget = ctx.sloBudgetUs();
        const InferenceRequest head = queue.front();

        BatchPlan out;
        out.network = head.network;
        out.members.push_back(0);
        unsigned samples = head.samples;
        double dispatch = std::max(now, head.arrivalUs);
        double budgetEnd = head.arrivalUs + budget;

        if (dispatch + ctx.batchLatencyUs(head.network, samples) >
            budgetEnd) {
            // The head's budget is already unmeetable: fill the
            // batch FIFO-style and move on.
            out.members.clear();
            out.samples = coalesceFifo(queue, head.network, cap, out);
            out.dispatchUs = memberDispatch(queue, out, now);
            return out;
        }

        // Queued joiners, FIFO order, while every budget holds.
        for (std::size_t i = 1; i < queue.size() && samples < cap;
             ++i) {
            const InferenceRequest &r = queue[i];
            if (r.network != head.network || samples + r.samples > cap)
                continue;
            const double d = std::max(dispatch, r.arrivalUs);
            const double end = std::min(budgetEnd, r.arrivalUs + budget);
            if (d + ctx.batchLatencyUs(head.network, samples + r.samples) <=
                end) {
                out.members.push_back(i);
                samples += r.samples;
                dispatch = d;
                budgetEnd = end;
            }
        }

        // Future joiners: hold the batch on a timer set at the last
        // moment every current member still meets its budget;
        // joiners extend the batch (and pull the timer in) as they
        // arrive, and the batch fires early the moment it fills.
        // The timer is committed causally: when no joiner shows up
        // before it fires, the wait is still paid.
        while (samples < cap) {
            const double latest =
                budgetEnd - ctx.batchLatencyUs(head.network, samples);
            if (latest <= dispatch)
                break; // no slack left to wait with
            const InferenceRequest *next = ctx.nextArrival();
            if (next == nullptr || next->arrivalUs > latest) {
                dispatch = latest; // the budget timer fires
                break;
            }
            if (!ctx.absorbNextArrival())
                continue; // shed by admission control
            const InferenceRequest &joined = queue.back();
            if (joined.network == head.network &&
                samples + joined.samples <= cap) {
                const double d = std::max(dispatch, joined.arrivalUs);
                const double end =
                    std::min(budgetEnd, joined.arrivalUs + budget);
                if (d + ctx.batchLatencyUs(head.network,
                                           samples + joined.samples) <=
                    end) {
                    out.members.push_back(queue.size() - 1);
                    samples += joined.samples;
                    dispatch = d;
                    budgetEnd = end;
                }
            }
            // A non-joiner (or a budget-breaking one) just queues
            // up; the timer keeps running.
        }

        out.samples = samples;
        out.dispatchUs = dispatch;
        return out;
    }
};

} // namespace

SchedulerRegistry &
SchedulerRegistry::builtin()
{
    static SchedulerRegistry registry = [] {
        SchedulerRegistry r;
        r.add({"fifo",
               "head-of-line coalescing with the timer-based "
               "batching window",
               [] { return std::make_unique<FifoScheduler>(); },
               nullptr});
        r.add({"lookahead",
               "fullest same-network batch; head starvation bounded "
               "by the window",
               [] { return std::make_unique<LookaheadScheduler>(); },
               [](const SchedulerKnobs &knobs) {
                   if (knobs.maxWaitUs <= 0.0) {
                       BF_FATAL("the lookahead scheduler needs a "
                                "positive batching window (maxWaitUs) "
                                "as its head-of-line starvation "
                                "bound");
                   }
               }});
        r.add({"edf",
               "earliest-deadline-first batch pick and join order",
               [] { return std::make_unique<EdfScheduler>(); },
               nullptr});
        r.add({"slo",
               "grows batches only while every member meets the "
               "latency budget",
               [] { return std::make_unique<SloScheduler>(); },
               [](const SchedulerKnobs &knobs) {
                   if (knobs.sloBudgetUs <= 0.0) {
                       BF_FATAL("the slo scheduler needs a positive "
                                "latency budget (sloBudgetUs)");
                   }
               }});
        return r;
    }();
    return registry;
}

void
SchedulerRegistry::add(Entry entry)
{
    if (find(entry.name) != nullptr)
        BF_FATAL("duplicate scheduler '", entry.name, "'");
    entries_.push_back(std::move(entry));
}

const SchedulerRegistry::Entry *
SchedulerRegistry::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

std::unique_ptr<Scheduler>
SchedulerRegistry::make(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr) {
        BF_FATAL("unknown scheduler '", name, "' (known: ", names(),
                 ")");
    }
    return entry->make();
}

std::string
SchedulerRegistry::names() const
{
    std::string out;
    for (const auto &entry : entries_)
        out += (out.empty() ? "" : " | ") + entry.name;
    return out;
}

std::unique_ptr<Scheduler>
makeScheduler(const std::string &name)
{
    return SchedulerRegistry::builtin().make(name);
}

std::string
schedulerNames()
{
    return SchedulerRegistry::builtin().names();
}

} // namespace serve
} // namespace bitfusion
