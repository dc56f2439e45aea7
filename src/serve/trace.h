/**
 * @file
 * Request traces for the serving layer.
 *
 * A trace is an arrival-ordered list of InferenceRequests on the
 * serving engine's virtual clock (microseconds). Traces come from
 * three places: the seeded synthetic generator (a Poisson arrival
 * process over a network mix -- the reproducible open-loop load the
 * bitfusion_serve tool drives by default), a trace file
 * (docs/serving.md documents the format formatTrace/parseTrace
 * round-trip), or a test's hand-built vector.
 */

#ifndef BITFUSION_SERVE_TRACE_H
#define BITFUSION_SERVE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace bitfusion {
namespace serve {

/** One client request: a batch of inputs for one network. */
struct InferenceRequest
{
    /** Dense id; doubles as the FIFO tie-breaker. */
    std::uint64_t id = 0;
    /** Network name, resolved against the engine's catalog. */
    std::string network;
    /** Inputs in this request (coalesced whole into one batch). */
    unsigned samples = 1;
    /** Arrival time on the virtual clock. */
    double arrivalUs = 0.0;
    /**
     * Absolute latest dispatch time; 0 = none. A forming batch never
     * waits past one of its own members' deadlines (a queued request
     * of another network cannot shorten someone else's window), and
     * a dispatch after the deadline counts as a miss in the report.
     */
    double deadlineUs = 0.0;
};

/**
 * Arrival-process selector for the synthetic generator. Poisson is
 * the legacy constant-rate stream (byte-identical to every earlier
 * release for a fixed seed); Mmpp is a two-state Markov-modulated
 * Poisson process whose state flips at seeded exponential dwell
 * times. Both compose with the diurnal envelope and the flash-crowd
 * window below.
 */
enum class ArrivalProcess
{
    Poisson,
    Mmpp,
};

/** Parameters of the synthetic open-loop arrival process. */
struct TraceSpec
{
    /** PRNG seed; equal seeds give byte-identical traces. */
    std::uint64_t seed = 1;
    /** Requests to generate. */
    std::size_t requests = 1000;
    /** Mean exponential inter-arrival gap (Poisson arrivals). */
    double meanGapUs = 5000.0;
    /** Request sizes are uniform in [1, maxSamples]. */
    unsigned maxSamples = 4;
    /**
     * Dispatch deadline granted to every request, relative to its
     * arrival; 0 = no deadlines.
     */
    double deadlineSlackUs = 0.0;
    /** Network mix, uniformly sampled; empty = the eight-paper zoo. */
    std::vector<std::string> networks;

    /** Arrival process; Poisson preserves the legacy stream. */
    ArrivalProcess process = ArrivalProcess::Poisson;
    /**
     * MMPP burst state: the arrival rate is multiplied by
     * burstRateMultiplier while the chain is bursting; the chain
     * dwells an exponential time with the given means in each state
     * (both must be positive when process == Mmpp). The chain starts
     * calm at time 0.
     */
    double burstRateMultiplier = 8.0;
    double meanBurstUs = 20000.0;
    double meanCalmUs = 200000.0;
    /**
     * Diurnal envelope: the rate is modulated by
     * 1 + amplitude * sin(2*pi * t / period). 0 period disables it;
     * amplitude must lie in [0, 1) so the rate stays positive.
     */
    double diurnalPeriodUs = 0.0;
    double diurnalAmplitude = 0.0;
    /**
     * Flash crowd: the rate is multiplied by flashMultiplier inside
     * [flashStartUs, flashStartUs + flashDurationUs). 0 duration
     * disables it.
     */
    double flashStartUs = 0.0;
    double flashDurationUs = 0.0;
    double flashMultiplier = 1.0;

    /** True when any burst feature deviates from plain Poisson. */
    bool bursty() const;
};

/** Generate the deterministic synthetic trace @p spec describes. */
std::vector<InferenceRequest> syntheticTrace(const TraceSpec &spec);

/** Render a trace in the file format above (diffable). */
std::string formatTrace(const std::vector<InferenceRequest> &trace);

/**
 * Parse the trace file format above; fatal -- with @p source and the
 * line number as file:line context -- on a malformed or truncated
 * field, a non-numeric time, a trailing column, or out-of-order
 * arrivals. Fields are split on C-locale whitespace, and every
 * number must be one whole strtod (times) or base-10 strtoll
 * (samples) token, so "12abc" is an error rather than 12. Ids are
 * assigned in line order. docs/serving.md spells out the syntax.
 */
std::vector<InferenceRequest>
parseTrace(const std::string &text,
           const std::string &source = "<trace>");

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_TRACE_H
