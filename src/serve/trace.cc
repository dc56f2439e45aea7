#include "src/serve/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "src/common/logging.h"
#include "src/common/prng.h"
#include "src/dnn/model_zoo.h"

namespace bitfusion {
namespace serve {

namespace {

std::vector<std::string>
defaultNetworks()
{
    std::vector<std::string> names;
    for (const auto &bench : zoo::all())
        names.push_back(bench.name);
    return names;
}

/**
 * Two-state MMPP chain plus the deterministic diurnal / flash-crowd
 * envelopes, evaluated lazily along the virtual clock. rateFactorAt
 * advances the chain to @p t (state flips draw seeded exponential
 * dwell times) and returns the instantaneous rate multiplier; the
 * maximum possible multiplier is precomputed so arrivals can be
 * generated by thinning a Poisson stream at the peak rate.
 */
class RateEnvelope
{
  public:
    RateEnvelope(const TraceSpec &spec, Prng &prng)
        : spec_(spec), prng_(prng)
    {
        if (spec_.process == ArrivalProcess::Mmpp) {
            if (!std::isfinite(spec_.burstRateMultiplier) ||
                spec_.burstRateMultiplier < 1.0)
                BF_FATAL("MMPP burst rate multiplier must be >= 1, "
                         "got ",
                         spec_.burstRateMultiplier);
            if (!std::isfinite(spec_.meanBurstUs) ||
                spec_.meanBurstUs <= 0.0 ||
                !std::isfinite(spec_.meanCalmUs) ||
                spec_.meanCalmUs <= 0.0)
                BF_FATAL("MMPP dwell time means must be positive "
                         "finite values, got burst ",
                         spec_.meanBurstUs, " calm ",
                         spec_.meanCalmUs);
            // The chain starts calm at time 0.
            nextFlipUs_ = prng_.nextExponential(spec_.meanCalmUs);
        }
        if (spec_.diurnalPeriodUs != 0.0) {
            if (!std::isfinite(spec_.diurnalPeriodUs) ||
                spec_.diurnalPeriodUs < 0.0)
                BF_FATAL("diurnal period must be a nonnegative "
                         "finite value, got ",
                         spec_.diurnalPeriodUs);
            if (!std::isfinite(spec_.diurnalAmplitude) ||
                spec_.diurnalAmplitude < 0.0 ||
                spec_.diurnalAmplitude >= 1.0)
                BF_FATAL("diurnal amplitude must lie in [0, 1), "
                         "got ",
                         spec_.diurnalAmplitude);
        }
        if (spec_.flashDurationUs != 0.0) {
            if (!std::isfinite(spec_.flashStartUs) ||
                spec_.flashStartUs < 0.0 ||
                !std::isfinite(spec_.flashDurationUs) ||
                spec_.flashDurationUs < 0.0)
                BF_FATAL("flash crowd window must be nonnegative "
                         "finite values, got start ",
                         spec_.flashStartUs, " duration ",
                         spec_.flashDurationUs);
            if (!std::isfinite(spec_.flashMultiplier) ||
                spec_.flashMultiplier < 1.0)
                BF_FATAL("flash crowd multiplier must be >= 1, got ",
                         spec_.flashMultiplier);
        }
    }

    /** Peak possible rate multiplier over all times. */
    double peakFactor() const
    {
        double peak = 1.0;
        if (spec_.process == ArrivalProcess::Mmpp)
            peak *= spec_.burstRateMultiplier;
        if (spec_.diurnalPeriodUs > 0.0)
            peak *= 1.0 + spec_.diurnalAmplitude;
        if (spec_.flashDurationUs > 0.0)
            peak *= spec_.flashMultiplier;
        return peak;
    }

    /** Advance the MMPP chain to @p t and return the multiplier. */
    double rateFactorAt(double t)
    {
        double factor = 1.0;
        if (spec_.process == ArrivalProcess::Mmpp) {
            while (t >= nextFlipUs_) {
                bursting_ = !bursting_;
                nextFlipUs_ += prng_.nextExponential(
                    bursting_ ? spec_.meanBurstUs
                              : spec_.meanCalmUs);
            }
            if (bursting_)
                factor *= spec_.burstRateMultiplier;
        }
        if (spec_.diurnalPeriodUs > 0.0) {
            const double phase =
                2.0 * M_PI * t / spec_.diurnalPeriodUs;
            factor *=
                1.0 + spec_.diurnalAmplitude * std::sin(phase);
        }
        if (spec_.flashDurationUs > 0.0 && t >= spec_.flashStartUs &&
            t < spec_.flashStartUs + spec_.flashDurationUs)
            factor *= spec_.flashMultiplier;
        return factor;
    }

  private:
    const TraceSpec &spec_;
    Prng &prng_;
    bool bursting_ = false;
    double nextFlipUs_ = std::numeric_limits<double>::infinity();
};

/** Shortest decimal that parses back to exactly @p x. */
void
appendRoundTrip(std::string &out, double x)
{
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), x);
    out.append(buf, res.ptr);
}

} // namespace

bool
TraceSpec::bursty() const
{
    return process != ArrivalProcess::Poisson ||
           diurnalPeriodUs != 0.0 || flashDurationUs != 0.0;
}

std::vector<InferenceRequest>
syntheticTrace(const TraceSpec &spec)
{
    if (!std::isfinite(spec.meanGapUs) || spec.meanGapUs <= 0.0)
        BF_FATAL("trace mean inter-arrival gap must be a positive "
                 "finite value, got ",
                 spec.meanGapUs);
    if (spec.maxSamples == 0)
        BF_FATAL("trace max request samples must be nonzero");
    const std::vector<std::string> networks =
        spec.networks.empty() ? defaultNetworks() : spec.networks;

    Prng prng(spec.seed);
    std::vector<InferenceRequest> trace;
    trace.reserve(spec.requests);
    double clock = 0.0;

    if (!spec.bursty()) {
        // Legacy constant-rate Poisson path: the draw sequence below
        // is byte-identical to every earlier release for a fixed
        // seed (CI smokes and the serve goldens depend on it).
        for (std::size_t i = 0; i < spec.requests; ++i) {
            clock += prng.nextExponential(spec.meanGapUs);
            InferenceRequest req;
            req.id = i;
            req.network = networks[prng.below(networks.size())];
            req.samples = 1 + static_cast<unsigned>(
                                  prng.below(spec.maxSamples));
            req.arrivalUs = clock;
            if (spec.deadlineSlackUs > 0.0)
                req.deadlineUs = clock + spec.deadlineSlackUs;
            trace.push_back(std::move(req));
        }
        return trace;
    }

    // Bursty arrivals via thinning: generate candidate arrivals from
    // a Poisson stream at the peak rate, then accept each with
    // probability (instantaneous rate / peak rate). The MMPP chain,
    // envelope, and acceptance draws all come from the one seeded
    // PRNG, so a fixed spec reproduces the trace to the bit.
    RateEnvelope envelope(spec, prng);
    const double peak = envelope.peakFactor();
    const double candidateGapUs = spec.meanGapUs / peak;
    for (std::size_t i = 0; i < spec.requests; ++i) {
        for (;;) {
            clock += prng.nextExponential(candidateGapUs);
            const double accept =
                envelope.rateFactorAt(clock) / peak;
            if (prng.nextDouble() < accept)
                break;
        }
        InferenceRequest req;
        req.id = i;
        req.network = networks[prng.below(networks.size())];
        req.samples =
            1 + static_cast<unsigned>(prng.below(spec.maxSamples));
        req.arrivalUs = clock;
        if (spec.deadlineSlackUs > 0.0)
            req.deadlineUs = clock + spec.deadlineSlackUs;
        trace.push_back(std::move(req));
    }
    return trace;
}

std::string
formatTrace(const std::vector<InferenceRequest> &trace)
{
    // Arrivals and deadlines are emitted as shortest round-trip
    // decimals (not fixed precision): a dumped trace parses back to
    // exactly the doubles that were served, so a re-served dump
    // cannot diverge from the original run.
    std::string out;
    out += "# arrival_us network samples [deadline_us]\n";
    for (const auto &req : trace) {
        appendRoundTrip(out, req.arrivalUs);
        out += ' ';
        out += req.network;
        out += ' ';
        out += std::to_string(req.samples);
        if (req.deadlineUs > 0.0) {
            out += ' ';
            appendRoundTrip(out, req.deadlineUs);
        }
        out += '\n';
    }
    return out;
}

namespace {

/** The whitespace operator>> skips in the C locale. */
bool
isTraceSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * Strict full-token nonnegative double: "12abc" is a fatal error,
 * not 12 (the old stream extraction would read the 12 and leave the
 * rest to misalign every following field). from_chars covers the
 * plain decimal forms; a token it does not consume whole -- a
 * leading '+', a hex float, a range error, or garbage -- is decided
 * by strtod on a NUL-terminated copy. Both round correctly, so the
 * result is strtod's either way.
 */
double
parseTraceNumber(std::string_view token, const std::string &source,
                 std::size_t lineNo, const char *what)
{
    double value = 0.0;
    const char *last = token.data() + token.size();
    const auto res = std::from_chars(token.data(), last, value);
    bool whole = res.ec == std::errc() && res.ptr == last;
    if (!whole) {
        const std::string copy(token);
        char *end = nullptr;
        value = std::strtod(copy.c_str(), &end);
        whole = end != copy.c_str() && *end == '\0';
    }
    if (!whole || !std::isfinite(value) || value < 0.0) {
        BF_FATAL(source, ":", lineNo, ": malformed ", what, " '",
                 token, "' (want a nonnegative number)");
    }
    return value;
}

/** Full-token positive sample count; strtoll decides the rest. */
unsigned
parseSampleCount(std::string_view token, const std::string &source,
                 std::size_t lineNo)
{
    long long samples = 0;
    const char *last = token.data() + token.size();
    const auto res = std::from_chars(token.data(), last, samples);
    bool whole = res.ec == std::errc() && res.ptr == last;
    if (!whole) {
        const std::string copy(token);
        char *end = nullptr;
        samples = std::strtoll(copy.c_str(), &end, 10);
        whole = end != copy.c_str() && *end == '\0';
    }
    if (!whole || samples <= 0 ||
        samples > std::numeric_limits<unsigned>::max())
        BF_FATAL(source, ":", lineNo, ": bad sample count '", token, "'");
    return static_cast<unsigned>(samples);
}

} // namespace

std::vector<InferenceRequest>
parseTrace(const std::string &text, const std::string &source)
{
    // One pass over the text: lines end at '\n' (string_view::find
    // is a memchr), and every field is a view into the text.
    const std::string_view all(text);
    std::vector<InferenceRequest> trace;
    const auto newlines = std::count(all.begin(), all.end(), '\n');
    trace.reserve(static_cast<std::size_t>(newlines) + 1);
    std::size_t lineNo = 0;
    for (std::size_t pos = 0; pos < all.size();) {
        std::size_t eol = all.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = all.size();
        const std::string_view line = all.substr(pos, eol - pos);
        pos = eol + 1;
        ++lineNo;
        const auto start = line.find_first_not_of(" \t\r");
        if (start == std::string_view::npos || line[start] == '#')
            continue;

        // Tokenize the whole line up front (a fifth field is kept only
        // for its diagnostic): a malformed or truncated field is
        // diagnosed with its file:line, never silently absorbed into a
        // neighboring column.
        std::string_view fields[5];
        std::size_t count = 0;
        for (std::size_t at = 0; count < 5;) {
            while (at < line.size() && isTraceSpace(line[at]))
                ++at;
            if (at == line.size())
                break;
            const std::size_t begin = at;
            while (at < line.size() && !isTraceSpace(line[at]))
                ++at;
            fields[count++] = line.substr(begin, at - begin);
        }
        if (count < 3) {
            BF_FATAL(source, ":", lineNo,
                     ": malformed trace line '", line,
                     "' (want: arrival_us network samples "
                     "[deadline_us])");
        }
        if (count > 4) {
            BF_FATAL(source, ":", lineNo, ": trailing '", fields[4],
                     "' after the deadline column");
        }

        InferenceRequest req;
        req.id = trace.size();
        req.arrivalUs =
            parseTraceNumber(fields[0], source, lineNo,
                             "arrival time");
        req.network = fields[1];
        req.samples = parseSampleCount(fields[2], source, lineNo);
        if (count == 4) {
            req.deadlineUs = parseTraceNumber(fields[3], source,
                                              lineNo, "deadline");
        }
        if (!trace.empty() && req.arrivalUs < trace.back().arrivalUs)
            BF_FATAL(source, ":", lineNo,
                     ": is out of order (arrival ", req.arrivalUs,
                     " before ", trace.back().arrivalUs, ")");
        trace.push_back(std::move(req));
    }
    return trace;
}

} // namespace serve
} // namespace bitfusion
