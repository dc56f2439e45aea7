/**
 * @file
 * sweep_grid_cold: every registered figure grid, swept repeatedly
 * with a fresh ArtifactCache per grid, because every bitfusion_sweep
 * invocation pays the compile cost. The work falls on the compiler,
 * the artifact cache, the platform models and the runner.
 *
 * The timed passes run on one thread. On a shared 4-CPU host the
 * 4-thread sweep ran anywhere from 24k to 113k cells/s between runs,
 * as neighbours took the CPUs its thread pool waits on, while one
 * thread stayed within tens of percent. The pool's speedup is reported
 * per layer instead (runner.thread_speedup, from the traced run).
 *
 * A timed pass is one SweepRunner::run per grid, which hides the
 * compiler, cache and platform models below it; a traced run traces
 * a decomposed pass instead (sweepDecomposed), so every layer shows.
 */

#include "perfbench/workloads.h"

#include <sched.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <regex>
#include <thread>

#include "src/core/artifact_cache.h"
#include "src/runner/figures.h"
#include "src/runner/sweep.h"

namespace perfbench {

using namespace bitfusion;

namespace {

/** Every figure with a sweep grid, in a seeded order. */
std::vector<SweepSpec>
gridSpecs(std::uint64_t seed)
{
    std::vector<SweepSpec> specs;
    for (const figures::Figure &fig : figures::all()) {
        SweepSpec spec = fig.spec();
        if (spec.cellCount() > 0)
            specs.push_back(std::move(spec));
    }
    std::mt19937_64 rng(seed);
    std::shuffle(specs.begin(), specs.end(), rng);
    return specs;
}

const Network &
variantFor(const PlatformSpec &platform, const SweepNetwork &net)
{
    return platform.runsQuantized ? net.quantized : net.baseline;
}

/** Sweep @p spec through @p cache on @p threads threads. */
SweepResult
sweepCold(const SweepSpec &spec, unsigned threads, ArtifactCache &cache)
{
    SweepOptions options;
    options.threads = threads;
    options.cache = &cache;
    return SweepRunner(options).run(spec);
}

/** The JSON dump without its thread-count field. */
std::string
threadFreeJson(const SweepResult &result)
{
    static const std::regex threadsField("\"threads\": [0-9]+");
    return std::regex_replace(result.json(), threadsField,
                              "\"threads\": _");
}

/**
 * The traced form of sweeping one grid cold, decomposed on the
 * benchmark's side of the library: ArtifactCache::get for every
 * compiled cell on a fresh cache (compilation runs inside it),
 * SweepRunner::run on the now-warm cache, then Platform::run for
 * every cell, each under its own span. The runner's span still holds
 * the Platform::run calls it makes itself; the sim spans time them on
 * their own.
 */
void
sweepDecomposed(const SweepSpec &spec, Tracer &tracer)
{
    const PlatformRegistry &registry = PlatformRegistry::builtin();
    const std::vector<SweepCell> cells = SweepRunner::expand(spec);

    // One platform per (grid platform, effective batch), as the
    // runner builds them.
    std::map<std::pair<std::size_t, unsigned>, std::unique_ptr<Platform>>
        built;
    std::vector<const Platform *> platforms;
    std::vector<std::string> spanNames;
    for (const SweepCell &cell : cells) {
        PlatformSpec ps = spec.platforms[cell.platformIndex];
        if (cell.batch != 0)
            ps.batch = cell.batch;
        auto &slot = built[{cell.platformIndex, ps.effectiveBatch()}];
        if (!slot)
            slot = registry.build(ps);
        platforms.push_back(slot.get());
        spanNames.push_back("sim/" + slot->describe().kind);
    }

    ArtifactCache cache;
    std::vector<PlatformArtifactPtr> artifacts(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (platforms[i]->compileKey().empty())
            continue;
        const SweepCell &cell = cells[i];
        Tracer::Scope scope(tracer, "core.cache/get");
        const ArtifactCache::Outcome outcome = cache.get(
            *platforms[i],
            variantFor(spec.platforms[cell.platformIndex],
                       spec.networks[cell.networkIndex]));
        artifacts[i] = outcome.artifact;
        scope.arg("compiled", outcome.compiled ? 1.0 : 0.0);
    }
    {
        Tracer::Scope scope(tracer, "runner/run_warm");
        sweepCold(spec, 1, cache);
        scope.arg("cells", static_cast<double>(cells.size()));
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        bitfusion::RunOptions runOpts;
        runOpts.artifact = artifacts[i].get();
        Tracer::Scope scope(tracer, spanNames[i].c_str());
        platforms[i]->run(variantFor(spec.platforms[cell.platformIndex],
                                     spec.networks[cell.networkIndex]),
                          runOpts);
    }
}

/** CPUs this process may run on. */
unsigned
cpuThreads()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
    return std::max(std::thread::hardware_concurrency(), 1u);
}

} // namespace

Measurements
sweepGridCold(const BenchOptions &opts, Tracer &tracer)
{
    Measurements m;
    m.item = "cell";
    m.threads = cpuThreads();
    std::vector<SweepSpec> specs;
    auto setup = [&](Tracer &t) {
        Tracer::Scope scope(t, "runner/specs");
        specs = gridSpecs(opts.seed);
    };

    std::string firstCounts;
    auto pass = [&](Tracer &, unsigned) {
        std::uint64_t compiles = 0, hits = 0, cells = 0;
        for (const SweepSpec &spec : specs) {
            ArtifactCache cache;
            const SweepResult result = sweepCold(spec, 1, cache);
            compiles += cache.compileCount();
            hits += cache.hitCount();
            m.checks.expect(result.cells().size() == spec.cellCount(),
                            spec.name + ": swept cells != grid cells");
            cells += result.cells().size();
        }
        json::Value counts = json::Value::object();
        counts.set("core.cache.compiles", compiles)
            .set("core.cache.hits", hits);
        if (firstCounts.empty()) {
            m.itemsPerPass = static_cast<double>(cells);
            firstCounts = counts.dump();
            m.counts = counts;
        } else {
            m.checks.expect(counts.dump() == firstCounts,
                            "pass: cache counts changed between passes");
        }
    };
    TracedPasses traced;
    traced.pass = [&](Tracer &t, unsigned) {
        for (const SweepSpec &spec : specs)
            sweepDecomposed(spec, t);
    };
    // A decomposed pass opens a span per cell; tracing every
    // sixteenth iteration keeps the trace small.
    traced.every = 16;
    measure(opts, tracer, m, setup, pass, traced);

    if (tracer.enabled()) {
        // runner.thread_speedup: untraced passes on one thread and on
        // every CPU, paired so both sides see the same host load.
        constexpr unsigned kSpeedupPairs = 16;
        for (unsigned i = 0; i < kSpeedupPairs; ++i) {
            for (unsigned threads : {1u, m.threads}) {
                const Clock::time_point start = Clock::now();
                for (const SweepSpec &spec : specs) {
                    ArtifactCache cache;
                    sweepCold(spec, threads, cache);
                }
                (threads == 1 ? m.serialPassS : m.parallelPassS)
                    .push_back(secondsSince(start));
            }
        }
    }

    // Thread-count determinism: each grid's JSON dump is byte-identical
    // at 1 thread and at the process's CPU count, up to the
    // thread-count field itself.
    for (const SweepSpec &spec : specs) {
        ArtifactCache one, many;
        m.checks.expect(threadFreeJson(sweepCold(spec, 1, one)) ==
                            threadFreeJson(
                                sweepCold(spec, m.threads, many)),
                        spec.name + ": JSON differs between 1 and " +
                            std::to_string(m.threads) + " threads");
    }
    return m;
}

} // namespace perfbench
