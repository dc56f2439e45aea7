/**
 * @file
 * Shared plumbing of the benchmark workloads: run options, the
 * correctness-check ledger, the raw measurements a workload hands
 * back, and the timed pass loop.
 *
 * The harness only records raw samples (per-pass seconds, set-up
 * seconds, exact counts). Medians, rates and per-layer self times are
 * reduced by perfbench/reduce.py, so that arithmetic lives in one
 * tested place.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/common/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options every workload receives. */
struct BenchOptions
{
    std::uint64_t seed = 1;
    /** Length of the timed measurement. */
    double seconds = 10.0;
    /** Workload input file (serve_replay_day's trace text). */
    std::string input;
};

/** Correctness checks: every expect() is one attempted check. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    bool expect(bool ok, const std::string &what);
};

/** Raw measurements of one workload run. */
struct Measurements
{
    /** What one unit of throughput is ("request", "mac", "cell"). */
    std::string item;
    /** Items every pass processes (fixed for a seed). */
    double itemsPerPass = 0.0;
    /** Most library threads the workload ran on. */
    unsigned threads = 1;
    /** Seconds of each complete set-up. */
    std::vector<double> setupS;
    /** Seconds of each untraced pass. */
    std::vector<double> passS;
    /** Seconds of each traced pass (traced runs only). */
    std::vector<double> tracedPassS;
    /** Seconds of the traced pass run untraced, when it differs from
     *  the timed pass (traced runs only): the base of
     *  trace.overhead_frac. */
    std::vector<double> tracedBaseS;
    /** Seconds of paired untraced passes on one thread and on
     *  Measurements::threads (sweep, traced runs only). */
    std::vector<double> serialPassS;
    std::vector<double> parallelPassS;
    /** Exact counts, identical for a seed on any host. */
    bitfusion::json::Value counts = bitfusion::json::Value::object();
    Checks checks;
};

/** What a traced run traces. */
struct TracedPasses
{
    /**
     * The pass to trace instead of the timed one, for a workload whose
     * timed pass makes one library call that hides the layers below
     * it. A traced run also times it untraced, as the base of
     * trace.overhead_frac. Empty: trace the timed pass itself.
     */
    std::function<void(Tracer &, unsigned)> pass;
    /** Trace only every this-many-th iteration, to bound the trace. */
    unsigned every = 1;
};

/**
 * The timed loop. Until opts.seconds have elapsed (and at least three
 * passes ran) it repeats a round of set-ups and then an untraced pass;
 * in a traced run, every traced.every-th iteration follows that with
 * another round and a traced pass. Every pass thus starts from a
 * fresh set-up, as a new process would.
 *
 * Set-ups repeat within a round until kMinSetupRoundS has passed, so
 * cheap ones give many samples; spreading the rounds over the whole
 * run makes their median describe the run rather than one moment of
 * it. Traced iterations trace their set-ups too, as top-level
 * "perfbench/setup" spans beside the "perfbench/pass" span; nothing
 * else records a span, so the trace holds set-ups and passes in the
 * proportion a run executes them.
 */
template <typename Setup, typename Pass>
void
measure(const BenchOptions &opts, Tracer &tracer, Measurements &m,
        Setup &&setup, Pass &&pass, const TracedPasses &traced = {})
{
    constexpr unsigned kMinPasses = 3;
    constexpr double kMinSetupRoundS = 0.005;
    std::int64_t passId = 0;
    auto setupRound = [&](Tracer &t) {
        const Clock::time_point round = Clock::now();
        do {
            t.setPass(passId++);
            Tracer::Scope scope(t, "perfbench/setup");
            const Clock::time_point start = Clock::now();
            setup(t);
            m.setupS.push_back(secondsSince(start));
        } while (secondsSince(round) < kMinSetupRoundS);
    };

    Tracer off(false);
    const Clock::time_point start = Clock::now();
    for (unsigned n = 0;
         n < kMinPasses || secondsSince(start) < opts.seconds; ++n) {
        setupRound(off);
        {
            const Clock::time_point t = Clock::now();
            pass(off, n);
            m.passS.push_back(secondsSince(t));
        }
        if (!tracer.enabled() || n % traced.every != 0)
            continue;
        if (traced.pass) {
            setupRound(off);
            const Clock::time_point t = Clock::now();
            traced.pass(off, n);
            m.tracedBaseS.push_back(secondsSince(t));
        }
        setupRound(tracer);
        tracer.setPass(passId++);
        Tracer::Scope scope(tracer, "perfbench/pass");
        const Clock::time_point t = Clock::now();
        if (traced.pass)
            traced.pass(tracer, n);
        else
            pass(tracer, n);
        m.tracedPassS.push_back(secondsSince(t));
    }
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
