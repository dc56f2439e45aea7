/**
 * @file
 * Open-loop trace intake: the single-pass trace parser against a
 * verbatim copy of the stream-based parser it replaced (accepted
 * fields bit for bit, rejects with the same file:line message), and
 * the engine's arrival cursor, which must admit requests in
 * (arrival, id) order whether they come from the trace or re-enter
 * as retries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/prng.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/serve/serving_engine.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace {

using serve::FaultEvent;
using serve::InferenceRequest;
using serve::RequestRecord;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServingEngine;

// ------------------------------------------------------ parser oracle

/** An oracle reject: the message BF_FATAL would have printed. */
struct OracleReject
{
    std::string message;
};

// The stream-based parser that the single-pass serve::parseTrace
// replaced, copied verbatim; only BF_FATAL is redefined, to throw
// its message instead of exiting.
#undef BF_FATAL
#define BF_FATAL(...) throw OracleReject{detail::concat(__VA_ARGS__)}

namespace oracle {

namespace {

/**
 * Strict full-token nonnegative double: "12abc" is a fatal error,
 * not 12 (the old stream extraction would read the 12 and leave the
 * rest to misalign every following field).
 */
double
parseTraceNumber(const std::string &token, const std::string &source,
                 std::size_t lineNo, const char *what)
{
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' ||
        !std::isfinite(value) || value < 0.0) {
        BF_FATAL(source, ":", lineNo, ": malformed ", what, " '",
                 token, "' (want a nonnegative number)");
    }
    return value;
}

} // namespace

std::vector<InferenceRequest>
parseTrace(const std::string &text, const std::string &source)
{
    std::vector<InferenceRequest> trace;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#')
            continue;

        // Tokenize the whole line up front: a malformed or truncated
        // field is diagnosed with its file:line, never silently
        // absorbed into a neighboring column.
        std::vector<std::string> fields;
        std::istringstream split(line);
        std::string token;
        while (split >> token)
            fields.push_back(token);
        if (fields.size() < 3) {
            BF_FATAL(source, ":", lineNo,
                     ": malformed trace line '", line,
                     "' (want: arrival_us network samples "
                     "[deadline_us])");
        }
        if (fields.size() > 4) {
            BF_FATAL(source, ":", lineNo, ": trailing '", fields[4],
                     "' after the deadline column");
        }

        InferenceRequest req;
        req.id = trace.size();
        req.arrivalUs =
            parseTraceNumber(fields[0], source, lineNo,
                             "arrival time");
        req.network = fields[1];
        char *end = nullptr;
        const long long samples =
            std::strtoll(fields[2].c_str(), &end, 10);
        if (end == fields[2].c_str() || *end != '\0' ||
            samples <= 0 ||
            samples > std::numeric_limits<unsigned>::max()) {
            BF_FATAL(source, ":", lineNo, ": bad sample count '",
                     fields[2], "'");
        }
        req.samples = static_cast<unsigned>(samples);
        if (fields.size() == 4) {
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

} // namespace oracle

#undef BF_FATAL

// ------------------------------------------------- seeded line source

template <std::size_t N>
std::string
pick(Prng &prng, const char *const (&options)[N])
{
    return options[prng.below(N)];
}

/** A uniformly chosen word of the space-separated @p words. */
std::string
pickWord(Prng &prng, const char *words)
{
    std::vector<std::string> pool;
    std::istringstream in(words);
    for (std::string word; in >> word;)
        pool.push_back(word);
    return pool[prng.below(pool.size())];
}

// Token pools. The odd numbers look wrong but pass strtod's
// full-token rule; the bad ones do not.
const char *const kOddNumbers =
    "-0 1e-400 0x10 +0 1e-310 00012.5 .5 5. 0X1P-2 1E+2";
const char *const kBadNumbers =
    "12abc -1 -0.5 inf nan INF infinity 1e400 abc 0x 1e --1 +-1 . 0x1p "
    "1.0.0 NaN(1) 1,5 +inf -inf";
const char *const kGoodSamples = "1 2 3 4 +2 04 007";
const char *const kBadSamples =
    "0 -1 -0 2x 1.0 4294967296 99999999999999999999 + 0x3 x";
const char *const kNetworks = "netA AlexNet Cifar-10 #net LSTM a.b";
const char *const kSeparators[] = {" ", "\t", "\v", "\f", "\r", "  ", " \t "};
const char *const kLeads[] = {"", "", "", " ", "\t", "\r", " \t"};
const char *const kTrails[] = {"", "", " ", "\t", "\r", "\f"};

/** @p value in one of the spellings strtod accepts. */
std::string
spellNumber(Prng &prng, double value)
{
    char buf[64];
    switch (prng.below(7)) {
        case 0: {
            const auto res = std::to_chars(buf, buf + sizeof(buf), value);
            *res.ptr = '\0';
            break;
        }
        case 1:
            std::snprintf(buf, sizeof(buf), "%.3f", value);
            break;
        case 2:
            std::snprintf(buf, sizeof(buf), "%.6e", value);
            break;
        case 3:
            std::snprintf(buf, sizeof(buf), "%.10E", value);
            break;
        case 4:
            std::snprintf(buf, sizeof(buf), "%a", value);
            break;
        case 5:
            std::snprintf(buf, sizeof(buf), "%.0f", value);
            break;
        default:
            std::snprintf(buf, sizeof(buf), "%.17g", value);
            break;
    }
    return prng.below(5) == 0 ? std::string("+") + buf : std::string(buf);
}

/** @p fields between a random lead and trail, randomly separated. */
std::string
joinFields(Prng &prng, const std::vector<std::string> &fields)
{
    std::string line = pick(prng, kLeads);
    for (std::size_t i = 0; i < fields.size(); ++i)
        line += (i == 0 ? "" : pick(prng, kSeparators)) + fields[i];
    return line + pick(prng, kTrails);
}

/**
 * One trace line, without its terminator, after a request that
 * arrived at @p last: mostly well-formed requests, plus blank and
 * comment lines and every malformed shape the parser diagnoses.
 */
std::string
traceLine(Prng &prng, double last)
{
    const double gap = prng.below(8) == 0 ? 0.0 : prng.nextExponential(100.0);
    std::vector<std::string> fields;
    fields.push_back(spellNumber(prng, last + gap));
    fields.push_back(pickWord(prng, kNetworks));
    fields.push_back(pickWord(prng, kGoodSamples));
    if (prng.below(2) == 0)
        fields.push_back(spellNumber(prng, last + gap + 500.0));

    switch (prng.below(32)) {
        case 0:
        case 1:
            return joinFields(prng, {}); // blank
        case 2:
            return joinFields(prng, {"#", "comment", "1", "2", "3"});
        case 3:
            fields[0] = pickWord(prng, kBadNumbers);
            break;
        case 4:
            fields[2] = pickWord(prng, kBadSamples);
            break;
        case 5:
            fields.resize(3);
            fields.push_back(pickWord(prng, kBadNumbers));
            break;
        case 6:
            fields.resize(3);
            fields.push_back(pickWord(prng, kOddNumbers));
            break;
        case 7:
            fields.resize(1 + prng.below(2)); // too few columns
            break;
        case 8:
            fields.resize(3);
            fields.push_back(spellNumber(prng, last + gap));
            fields.push_back("extra");
            break;
        case 9:
            if (last > 1.0)
                fields[0] = spellNumber(prng, 0.5 * last); // out of order
            break;
        case 10:
            // Whitespace the blank-line rule does not skip.
            return pick(prng, {"\v", "\f", " \v", "\f\t", "\v# x y z"});
        case 11:
            // A request led by such whitespace still parses.
            return pick(prng, {"\v", "\f"}) + joinFields(prng, fields);
        default:
            break;
    }
    return joinFields(prng, fields);
}

std::uint64_t
bits(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

/** Field-by-field equality, doubles compared bit for bit. */
void
expectSameTrace(const std::vector<InferenceRequest> &oracle,
                const std::vector<InferenceRequest> &fast)
{
    ASSERT_EQ(fast.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(fast[i].id, oracle[i].id) << "request " << i;
        ASSERT_EQ(fast[i].network, oracle[i].network) << "request " << i;
        ASSERT_EQ(fast[i].samples, oracle[i].samples) << "request " << i;
        ASSERT_EQ(bits(fast[i].arrivalUs), bits(oracle[i].arrivalUs))
            << "request " << i;
        ASSERT_EQ(bits(fast[i].deadlineUs), bits(oracle[i].deadlineUs))
            << "request " << i;
    }
}

/** @p text as a POSIX extended regex matching it literally. */
std::string
literalRegex(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c != '\0' && std::strchr(".[\\()*+?{|^$", c) != nullptr)
            out += '\\';
        out += c;
    }
    return out;
}

/**
 * parseTrace accepts @p doc with the oracle's fields, or exits 1
 * printing the oracle's message as BF_FATAL would.
 */
void
expectSameOutcome(const std::string &doc, const std::string &source)
{
    SCOPED_TRACE(::testing::PrintToString(doc));
    std::vector<InferenceRequest> expected;
    try {
        expected = oracle::parseTrace(doc, source);
    } catch (const OracleReject &reject) {
        const ::testing::ExitedWithCode exit1(1);
        const std::string fatal =
            "fatal: " + literalRegex(reject.message) + " \\(";
        EXPECT_EXIT(serve::parseTrace(doc, source), exit1, fatal);
        return;
    }
    expectSameTrace(expected, serve::parseTrace(doc, source));
}

/** Kind of a reject: its message between "file:line: " and the
 *  quoted token or parenthesis. */
std::string
rejectKind(const std::string &message)
{
    const std::size_t start = message.find(": ") + 2;
    const std::size_t end = message.find_first_of("'(", start);
    return message.substr(start, end - start - 1);
}

TEST(TraceParseDifferential, SeededLinesMatchTheStreamParser)
{
    const std::string source = "gen.trace";
    Prng prng(20261017);
    std::string doc;
    std::size_t lines = 0;
    double last = 0.0;

    // Rejected lines, reservoir-sampled per diagnosed shape; each is
    // kept as (length of the accepted document before it, the line).
    constexpr std::size_t kPerKind = 6;
    struct Sampled
    {
        std::size_t seen = 0;
        std::vector<std::pair<std::size_t, std::string>> picks;
    };
    std::map<std::string, Sampled> rejects;

    while (lines < 4000) {
        const std::string line =
            traceLine(prng, last) + pick(prng, {"\n", "\n", "\r\n"});
        // The oracle on the line alone tells a request, blank, or
        // comment from a reject; an arrival before the last accepted
        // one is the only reject that spans lines.
        std::string kind;
        try {
            const auto one = oracle::parseTrace(line, source);
            if (!one.empty() && one[0].arrivalUs < last)
                kind = "is out of order";
            else if (!one.empty())
                last = one[0].arrivalUs;
        } catch (const OracleReject &reject) {
            kind = rejectKind(reject.message);
        }
        if (kind.empty()) {
            doc += line;
            ++lines;
            continue;
        }
        Sampled &sampled = rejects[kind];
        ++sampled.seen;
        if (sampled.picks.size() < kPerKind) {
            sampled.picks.emplace_back(doc.size(), line);
        } else {
            const std::size_t slot = prng.below(sampled.seen);
            if (slot < kPerKind)
                sampled.picks[slot] = {doc.size(), line};
        }
    }
    // A final request with no line terminator.
    doc += spellNumber(prng, last + 1.0) + " netA 1";

    EXPECT_GT(oracle::parseTrace(doc, source).size(), 2500u);
    expectSameOutcome(doc, source);
    expectSameOutcome(doc + "\n", source);

    // Every diagnosed shape came up, and the sampled rejects die with
    // the oracle's message, file:line context included.
    EXPECT_EQ(rejects.size(), 6u);
    for (const auto &[kind, sampled] : rejects) {
        SCOPED_TRACE(kind);
        for (const auto &[prefix, line] : sampled.picks)
            expectSameOutcome(doc.substr(0, prefix) + line, source);
    }
}

TEST(TraceParseDifferential, EdgeSpellingsMatchTheStreamParser)
{
    const std::string source = "edge.trace";
    expectSameOutcome("", source);
    expectSameOutcome("1 a 1", source);
    expectSameOutcome("1\ta\t1\r\n", source);
    expectSameOutcome("1\va\f1\v2\r\n", source);
    expectSameOutcome("\v1 a 1\n", source);
    expectSameOutcome("1 a +1 +2\n", source);
    expectSameOutcome("0x1p3 a 1 0x1.8p4\n", source);
    expectSameOutcome("1e-400 a 1 1e-310\n", source);
    expectSameOutcome("-0 a 1 -0\n", source);
    expectSameOutcome(" # c\n\t\n\r\n\n1 a 1\n", source);
    expectSameOutcome("1 a 1\n1 b 2\n1 c 3", source);
    expectSameOutcome("1 a 1\r\n2\ta 1\r\n", source);
    expectSameOutcome("12abc a 1\n", source);
    expectSameOutcome("1 a 2x\n", source);
    expectSameOutcome("inf a 1\n", source);
    expectSameOutcome("nan a 1\n", source);
    expectSameOutcome("1 a 1 inf\n", source);
    expectSameOutcome("1 a 1\n\v\n", source);
    expectSameOutcome("\f# x y z\n", source);
    expectSameOutcome("1 a\n", source);
    expectSameOutcome("1 a 1 2 3\n", source);
    expectSameOutcome("2 a 1\n1 a 1\n", source);
    expectSameOutcome("1e400 a 1\n", source);
    expectSameOutcome("1 a 4294967296\n", source);
    expectSameOutcome("1 a 99999999999999999999\n", source);
    expectSameOutcome("1 a 1\r\n2\ta\r\n", source);
}

// --------------------------------------------------- arrival cursor

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

/** One batch at a time per replica: dispatch order is admission order. */
ServingEngine
serialEngine(ArtifactCache &cache, ServeOptions opts)
{
    opts.threads = 1;
    opts.maxBatch = 1;
    opts.retainRecords = true;
    opts.cache = &cache;
    ServingEngine engine(bfSpec(), opts);
    engine.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});
    return engine;
}

InferenceRequest
req(std::uint64_t id, const std::string &network, double arrivalUs)
{
    InferenceRequest r;
    r.id = id;
    r.network = network;
    r.arrivalUs = arrivalUs;
    return r;
}

/** The served record of request @p id. */
const RequestRecord &
record(const ServeReport &report, std::uint64_t id)
{
    for (const auto &rec : report.requests) {
        if (rec.request.id == id)
            return rec;
    }
    ADD_FAILURE() << "request " << id << " was not served";
    return report.requests.front();
}

bool
arrivesBefore(const InferenceRequest &a, const InferenceRequest &b)
{
    if (a.arrivalUs != b.arrivalUs)
        return a.arrivalUs < b.arrivalUs;
    return a.id < b.id;
}

TEST(ServeArrivalCursor, TiedArrivalsWithDescendingIdsServeSorted)
{
    // Hand-built: tied arrivals whose ids descend, which the cursor
    // cannot consume in place.
    std::vector<InferenceRequest> trace;
    trace.push_back(req(2, "netA", 0.0));
    trace.push_back(req(1, "netB", 0.0));
    trace.push_back(req(0, "netA", 0.0));
    trace.push_back(req(4, "netB", 50.0));
    trace.push_back(req(3, "netA", 50.0));
    trace.push_back(req(5, "netA", 50.0));
    trace.push_back(req(6, "netB", 90.0));
    std::vector<InferenceRequest> sorted = trace;
    std::stable_sort(sorted.begin(), sorted.end(), arrivesBefore);

    ArtifactCache cacheA, cacheB;
    ServingEngine handBuilt = serialEngine(cacheA, {});
    ServingEngine presorted = serialEngine(cacheB, {});
    const ServeReport report = handBuilt.run(trace);
    EXPECT_EQ(report.json(true), presorted.run(sorted).json(true));

    // One replica, one request per batch: the dispatch order of the
    // retained records is the admission order, which must be
    // (arrival, id).
    ASSERT_EQ(report.requests.size(), trace.size());
    std::vector<RequestRecord> byDispatch = report.requests;
    std::stable_sort(byDispatch.begin(), byDispatch.end(),
                     [](const RequestRecord &a, const RequestRecord &b) {
                         return a.dispatchUs < b.dispatchUs;
                     });
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(byDispatch[i].request.id, sorted[i].id) << i;
        if (i > 0) {
            EXPECT_LT(byDispatch[i - 1].dispatchUs,
                      byDispatch[i].dispatchUs);
        }
    }
}

/**
 * Two replicas; replica 0 dies mid-way through the first batch and
 * stays down, so request @p retriedId re-enters exactly at the
 * arrival instant of trace request @p tracedId. Both then compete for
 * replica 1, one batch at a time. Returns the report.
 */
ServeReport
retryMeetsArrival(std::uint64_t retriedId, std::uint64_t tracedId,
                  double &meetUs)
{
    ArtifactCache probeCache;
    ServingEngine probe = serialEngine(probeCache, {});
    const ServeReport alone = probe.run({req(0, "netA", 0.0)});
    const double latency = alone.batches.at(0).latencyUs;

    ServeOptions opts;
    opts.replicas = 2;
    const double failAt = 0.5 * latency;
    opts.faults.replicaEvents.push_back(
        FaultEvent{0, failAt, 100.0 * latency});
    opts.retry.maxAttempts = 2;
    opts.retry.backoffBaseUs = 3.0 * latency;
    // The engine re-injects at lostAt + base * 2^0, the same sum.
    meetUs = failAt + opts.retry.backoffBaseUs;

    ArtifactCache cache;
    ServingEngine engine = serialEngine(cache, opts);
    std::vector<InferenceRequest> trace;
    trace.push_back(req(retriedId, "netA", 0.0));
    trace.push_back(req(tracedId, "netB", meetUs));
    return engine.run(trace);
}

TEST(ServeArrivalCursor, RetryAtATraceArrivalInstantMergesByArrivalThenId)
{
    // (retried id, traced id): the retry wins the tie, then loses it.
    const std::pair<std::uint64_t, std::uint64_t> cases[] = {{0, 1}, {5, 1}};
    for (const auto &[retriedId, tracedId] : cases) {
        SCOPED_TRACE(retriedId);
        double meetUs = 0.0;
        const ServeReport report =
            retryMeetsArrival(retriedId, tracedId, meetUs);
        EXPECT_EQ(report.retriesIssued, 1u);
        EXPECT_EQ(report.requestCount, 2u);
        ASSERT_EQ(report.requests.size(), 2u);
        const RequestRecord &retried = record(report, retriedId);
        const RequestRecord &traced = record(report, tracedId);
        EXPECT_TRUE(retried.recovered);
        EXPECT_EQ(retried.attempts, 2u);
        // At the shared instant the smaller id is admitted first and
        // takes replica 1 at once; the other waits for it.
        const RequestRecord &first = retriedId < tracedId ? retried : traced;
        const RequestRecord &second = retriedId < tracedId ? traced : retried;
        EXPECT_DOUBLE_EQ(first.dispatchUs, meetUs);
        EXPECT_EQ(first.replica, 1u);
        EXPECT_DOUBLE_EQ(second.dispatchUs, first.finishUs);
    }
}

} // namespace
} // namespace bitfusion
