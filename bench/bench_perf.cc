/**
 * @file
 * Performance benchmark harness: the repo's BENCH trajectory.
 *
 * Times the legacy recursive reference walk against every dispatch
 * tier of the compiled ExecPlan path (src/isa/exec_plan.h: switch,
 * threaded, specialized) on interpreter-bound workloads (AlexNet
 * conv layers at 8 bit, a tiled FC streaming tile-contiguous
 * weights, low-bit and 16-bit configs), the end-to-end analytic
 * sweep wall-clock (fig13, cold vs warm artifact cache), and a host
 * ceiling -- a scalar multiply-accumulate loop and a memcpy-bandwidth
 * probe -- that the specialized tier's rates are reported against.
 * Every measurement lands in a machine-readable JSON dump (--json;
 * CI archives it as BENCH_<pr>.json) so later perf PRs are judged
 * against a recorded baseline; docs/performance.md documents the
 * schema.
 *
 * The library's determinism audit bans wall-clock reads from
 * simulation inputs; here std::chrono::steady_clock is the bench's
 * *output* (measured duration), which is inherently run-dependent.
 * Every simulated/interpreted result is still checked bit-identical
 * across the paths before a time is reported: the harness exits
 * nonzero on an InterpStats mismatch, and --min-speedup (used by
 * the CI perf-smoke job) exits nonzero when the plan path fails to
 * clear the requested multiple on the smoke workload.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/json.h"
#include "src/common/prng.h"
#include "src/compiler/codegen.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/isa/exec_plan.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"
#include "src/runner/figures.h"
#include "src/runner/sweep.h"

namespace {

using namespace bitfusion;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** One interpreter workload: a named network to execute per sample. */
struct Workload
{
    std::string name;
    Network net;
};

/**
 * The classic AlexNet convolution stack at 8x8 bit, spatial dims
 * divided by @p scale -- the paper's canonical interpreter-bound
 * workload and the CI smoke gate.
 */
Workload
alexnetConv8b(unsigned scale)
{
    // The floor is the kernel size (padding keeps every output
    // nonempty), so --scale divides the MAC count by ~scale^2.
    auto dim = [scale](unsigned full, unsigned kernel) {
        return std::max(full / scale, kernel);
    };
    const FusionConfig c8 = zoo::cfg8x8();
    std::vector<Layer> layers = {
        Layer::conv("conv1", 3, dim(227, 11), dim(227, 11), 96, 11, 4,
                    0, c8),
        Layer::conv("conv2", 96, dim(27, 5), dim(27, 5), 256, 5, 1, 2,
                    c8, 2),
        Layer::conv("conv3", 256, dim(13, 3), dim(13, 3), 384, 3, 1, 1,
                    c8),
        Layer::conv("conv4", 384, dim(13, 3), dim(13, 3), 384, 3, 1, 1,
                    c8, 2),
        Layer::conv("conv5", 384, dim(13, 3), dim(13, 3), 256, 3, 1, 1,
                    c8, 2),
    };
    return {"alexnet_conv_8b", Network("alexnet-conv", layers)};
}

Workload
tiledFc8b(unsigned scale)
{
    const unsigned k = std::max(4096u / scale, 256u);
    const unsigned m = std::max(1024u / scale, 128u);
    return {"tiled_fc_8b",
            Network("tiled-fc",
                    {Layer::fc("fc", k, m, zoo::cfg8x8())})};
}

Workload
lowBitFc(unsigned scale)
{
    const unsigned k = std::max(2048u / scale, 256u);
    return {"low_bit_fc_2x2",
            Network("low-bit-fc",
                    {Layer::fc("fc", k, k / 2, zoo::cfg2x2())})};
}

Workload
baselineFc16b(unsigned scale)
{
    const unsigned k = std::max(1024u / scale, 128u);
    return {"baseline_fc_16b",
            Network("baseline-fc",
                    {Layer::fc("fc", k, k / 4, zoo::cfg16x16())})};
}

/**
 * Per-rep wall times of one execution path, reduced to the median
 * (the reported throughput: robust against a noisy neighbor rep) and
 * the min (best case; --reps 1 makes them equal).
 */
struct PathTiming
{
    double medianMs = 0;
    double minMs = 0;
};

PathTiming
reduceTimes(std::vector<double> perRepMs)
{
    PathTiming t;
    if (perRepMs.empty())
        return t;
    std::sort(perRepMs.begin(), perRepMs.end());
    t.minMs = perRepMs.front();
    const std::size_t n = perRepMs.size();
    t.medianMs = (n % 2 == 1)
                     ? perRepMs[n / 2]
                     : 0.5 * (perRepMs[n / 2 - 1] + perRepMs[n / 2]);
    return t;
}

/** Timed result of one interpreter workload, all execution paths. */
struct InterpResult
{
    std::uint64_t macs = 0;
    /** Wall time per path: legacy walk, then one entry per tier. */
    PathTiming legacy;
    PathTiming tier[kDispatchTierCount];
    double planBuildMs = 0;
    /** Stats AND memory bit-identical to legacy on every tier. */
    bool parity = false;
    bool planMemoized = false;
    bool planFused = false;
};

InterpResult
runInterpWorkload(const Workload &w, unsigned reps)
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.batch = 1;
    const Compiler compiler(cfg);
    const CompiledNetwork cn = compiler.compile(w.net);

    // Lower every block once (timed: this is the cost run() pays on
    // the first execution of a distinct block).
    InterpResult r;
    const auto buildStart = Clock::now();
    std::vector<std::shared_ptr<const ExecPlan>> plans;
    for (const LayerSchedule &sched : cn.schedules)
        plans.push_back(ExecPlan::build(sched.block));
    r.planBuildMs = msSince(buildStart);

    std::uint64_t extent = 0;
    for (const auto &plan : plans) {
        extent = std::max(extent, plan->memoryExtent());
        r.planMemoized = r.planMemoized || plan->memoized();
        r.planFused = r.planFused || plan->fused();
    }

    // Words drawn as 0 or 1: representable under every config, and
    // written through writeSpan so every page is mapped at int8, as
    // in a real run. A memory that is only allocate()d stays unmapped
    // and its ld-mem reads zeros without touching a page, skipping the
    // sign-extending load every weight fetch pays.
    MemoryModel seedMem;
    seedMem.allocate(extent);
    Prng prng(1);
    std::generate_n(seedMem.writeSpan(0, extent), extent, [&prng] {
        return static_cast<std::int64_t>(prng.below(2));
    });

    MemoryModel legacyMem = seedMem;
    Interpreter legacy(legacyMem);
    std::vector<double> times;
    times.reserve(reps);
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        for (const LayerSchedule &sched : cn.schedules)
            legacy.runLegacy(sched.block);
        times.push_back(msSince(start));
    }
    r.legacy = reduceTimes(times);
    r.macs = legacy.stats().macs / reps;

    r.parity = true;
    for (unsigned t = 0; t < kDispatchTierCount; ++t) {
        const DispatchTier tierId = static_cast<DispatchTier>(t);
        MemoryModel tierMem = seedMem;
        Interpreter interp(tierMem);
        times.clear();
        for (unsigned rep = 0; rep < reps; ++rep) {
            const auto start = Clock::now();
            for (const auto &p : plans)
                interp.run(*p, tierId);
            times.push_back(msSince(start));
        }
        r.tier[t] = reduceTimes(times);

        // Full-parity check per tier: every InterpStats counter and
        // every off-chip memory word, against the legacy walk.
        bool same = legacy.stats() == interp.stats() &&
                    legacyMem.size() == tierMem.size();
        for (std::uint64_t a = 0; same && a < legacyMem.size(); ++a)
            same = legacyMem.read(a) == tierMem.read(a);
        if (!same) {
            std::fprintf(stderr,
                         "%s: %s tier diverged from the legacy walk\n",
                         w.name.c_str(), dispatchTierName(tierId));
            r.parity = false;
        }
    }
    return r;
}

/**
 * What this host can do without the interpreter: the rate of a
 * scalar int64 multiply-accumulate loop over L1-resident operands
 * (one MAC per step; an empty asm barrier on the accumulator keeps
 * the compiler from vectorizing or dropping it), and memcpy
 * bandwidth over
 * buffers larger than most last-level caches, also expressed as the
 * MAC rate a kernel streaming two 8-byte operands per MAC could
 * reach. Both are medians over @p reps.
 */
struct HostCeiling
{
    double scalarMacMmacsPerS = 0;
    double memcpyGbPerS = 0;
    double memcpyMmacsPerS = 0;
};

HostCeiling
measureHostCeiling(unsigned reps)
{
    HostCeiling c;
    std::vector<double> times;

    constexpr std::size_t kOperands = 2048;
    constexpr std::uint64_t kPasses = 4096;
    std::vector<std::int64_t> a(kOperands), w(kOperands);
    for (std::size_t i = 0; i < kOperands; ++i) {
        a[i] = static_cast<std::int64_t>(i % 255);
        w[i] = static_cast<std::int64_t>(i % 127) - 63;
    }
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        std::uint64_t acc = 0;
        for (std::uint64_t p = 0; p < kPasses; ++p) {
            for (std::size_t i = 0; i < kOperands; ++i) {
                acc += static_cast<std::uint64_t>(a[i]) *
                       static_cast<std::uint64_t>(w[i]);
#if defined(__GNUC__)
                __asm__ volatile("" : "+r"(acc));
#endif
            }
        }
        times.push_back(msSince(start));
    }
    const double macs = static_cast<double>(kOperands * kPasses);
    const PathTiming mac = reduceTimes(times);
    c.scalarMacMmacsPerS = macs / 1e6 / (mac.medianMs / 1e3);

    constexpr std::size_t kBytes = std::size_t{32} << 20;
    std::vector<char> src(kBytes, 1), dst(kBytes, 0);
    times.clear();
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        std::memcpy(dst.data(), src.data(), kBytes);
#if defined(__GNUC__)
        // The copy's result counts as read: it cannot be elided.
        __asm__ volatile("" : : "r"(dst.data()) : "memory");
#endif
        times.push_back(msSince(start));
    }
    const PathTiming copy = reduceTimes(times);
    c.memcpyGbPerS =
        static_cast<double>(kBytes) / 1e9 / (copy.medianMs / 1e3);
    c.memcpyMmacsPerS = c.memcpyGbPerS * 1e3 / 16;
    return c;
}

/** fig13 sweep wall-clock, cold and warm artifact cache. */
struct SweepTimes
{
    double coldMs = 0;
    double warmMs = 0;
    std::size_t cells = 0;
};

SweepTimes
runSweepBench(unsigned threads)
{
    const figures::Figure *fig13 = figures::find("fig13");
    if (fig13 == nullptr) {
        std::fprintf(stderr, "fig13 is not registered\n");
        std::exit(1);
    }
    const SweepSpec spec = fig13->spec();

    ArtifactCache cache;
    SweepOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    const SweepRunner runner(opts);

    SweepTimes t;
    t.cells = spec.cellCount();
    const auto cold = Clock::now();
    runner.run(spec);
    t.coldMs = msSince(cold);
    const auto warm = Clock::now();
    runner.run(spec);
    t.warmMs = msSince(warm);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = 4;
    unsigned reps = 1;
    unsigned threads = 1;
    double minSpeedup = 0;
    double minSpeedup16b = 0;
    std::string jsonPath;
    bool skipSweep = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--scale") {
            scale = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--scale", UINT32_MAX));
            if (scale == 0)
                scale = 1;
        } else if (arg == "--reps") {
            reps = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--reps", UINT32_MAX));
            if (reps == 0)
                reps = 1;
        } else if (arg == "--threads") {
            threads = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--threads", UINT32_MAX));
        } else if (arg == "--quick") {
            scale = 8;
        } else if (arg == "--full") {
            scale = 1;
        } else if (arg == "--min-speedup") {
            minSpeedup = cli::doubleArg(argc, argv, i, "--min-speedup");
        } else if (arg == "--min-speedup-16b") {
            minSpeedup16b =
                cli::doubleArg(argc, argv, i, "--min-speedup-16b");
        } else if (arg == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json needs a path\n");
                return 2;
            }
            jsonPath = argv[++i];
        } else if (arg == "--skip-sweep") {
            skipSweep = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: bench_perf [--scale N] [--quick | --full]\n"
                "                  [--reps N] [--threads N]\n"
                "                  [--min-speedup X]\n"
                "                  [--min-speedup-16b X]\n"
                "                  [--json PATH] [--skip-sweep]\n"
                "\n"
                "Times the legacy interpreter walk against every\n"
                "ExecPlan dispatch tier (switch, threaded,\n"
                "specialized), reports the specialized tier as a\n"
                "fraction of a host ceiling (scalar MAC loop,\n"
                "memcpy bandwidth), and times the fig13 sweep;\n"
                "--reps N reports the median (and records the min)\n"
                "over N timed repetitions. See\n"
                "docs/performance.md.\n");
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return 2;
        }
    }

    // The bench times every tier explicitly, but a BITFUSION_DISPATCH
    // override still steers the end-to-end sweep below (and any
    // Interpreter::run default path); validate it up front so a typo
    // fails loudly instead of being silently ignored under
    // --skip-sweep.
    (void)defaultDispatchTier();

    const std::vector<Workload> workloads = {
        alexnetConv8b(scale),
        tiledFc8b(scale),
        lowBitFc(scale),
        baselineFc16b(scale),
    };

    json::Value entries = json::Value::array();
    const HostCeiling ceiling = measureHostCeiling(std::max(reps, 3u));
    std::printf("host ceiling: scalar MAC loop %.1f Mmac/s, memcpy "
                "%.2f GB/s (%.1f Mmac/s at 16 B per MAC)\n\n",
                ceiling.scalarMacMmacsPerS, ceiling.memcpyGbPerS,
                ceiling.memcpyMmacsPerS);
    auto hostEntry = [&](const char *metric, double value,
                         const char *unit) {
        entries.push(json::Value::object()
                         .set("section", "host")
                         .set("name", "ceiling")
                         .set("metric", metric)
                         .set("value", value)
                         .set("unit", unit));
    };
    hostEntry("scalar_mac_mmacs_per_s", ceiling.scalarMacMmacsPerS,
              "Mmac/s");
    hostEntry("memcpy_gb_per_s", ceiling.memcpyGbPerS, "GB/s");
    hostEntry("memcpy_mmacs_per_s", ceiling.memcpyMmacsPerS, "Mmac/s");

    std::printf("interpreter throughput (scale %u, reps %u, "
                "Mmac/s per path, median over reps)\n",
                scale, reps);
    std::printf("%-18s %9s %9s %9s %9s %9s %9s %9s %7s %7s\n",
                "workload", "Mmacs", "legacy", "switch", "threaded",
                "special", "speedup", "build ms", "/scalar", "/memcpy");

    // The product tables must be built at most once per distinct
    // memoizable config for the whole process: the workload set has
    // two (8x8 and 2x2; 16x16 exceeds the table), and every further
    // plan lowering must hit the cache.
    const ProductTableCacheStats cacheBefore = productTableCacheStats();

    bool parityOk = true;
    double smokeSpeedup = 0;
    double speedup16b = 0;
    for (const Workload &w : workloads) {
        const InterpResult r = runInterpWorkload(w, reps);
        parityOk = parityOk && r.parity;
        const double mmacs = static_cast<double>(r.macs) / 1e6;
        auto rate = [mmacs](double ms) {
            return ms > 0 ? mmacs / (ms / 1e3) : 0;
        };
        const unsigned spec =
            static_cast<unsigned>(DispatchTier::Specialized);
        const double speedup =
            r.tier[spec].medianMs > 0
                ? r.legacy.medianMs / r.tier[spec].medianMs
                : 0;
        if (w.name == "alexnet_conv_8b")
            smokeSpeedup = speedup;
        if (w.name == "baseline_fc_16b")
            speedup16b = speedup;
        // The fused path as a fraction of the host ceiling.
        const double fracScalar =
            rate(r.tier[spec].medianMs) / ceiling.scalarMacMmacsPerS;
        const double fracMemcpy =
            rate(r.tier[spec].medianMs) / ceiling.memcpyMmacsPerS;
        std::printf("%-18s %9.2f %9.1f %9.1f %9.1f %9.1f %8.1fx %9.2f "
                    "%7.2f %7.2f%s\n",
                    w.name.c_str(), mmacs, rate(r.legacy.medianMs),
                    rate(r.tier[0].medianMs), rate(r.tier[1].medianMs),
                    rate(r.tier[spec].medianMs), speedup, r.planBuildMs,
                    fracScalar, fracMemcpy,
                    r.parity ? "" : "  PARITY MISMATCH");

        auto entry = [&](const std::string &metric, double value,
                         const char *unit) {
            entries.push(json::Value::object()
                             .set("section", "interp")
                             .set("name", w.name)
                             .set("metric", metric)
                             .set("value", value)
                             .set("unit", unit));
        };
        entry("macs", static_cast<double>(r.macs), "mac");
        entry("legacy_mmacs_per_s", rate(r.legacy.medianMs), "Mmac/s");
        entry("legacy_mmacs_per_s_min", rate(r.legacy.minMs),
              "Mmac/s");
        for (unsigned t = 0; t < kDispatchTierCount; ++t) {
            const std::string tierName =
                dispatchTierName(static_cast<DispatchTier>(t));
            entry(tierName + "_mmacs_per_s", rate(r.tier[t].medianMs),
                  "Mmac/s");
            entry(tierName + "_mmacs_per_s_min", rate(r.tier[t].minMs),
                  "Mmac/s");
        }
        // plan_* keeps the BENCH trajectory comparable across PRs:
        // the plan path IS the specialized tier (the run() default).
        entry("plan_mmacs_per_s", rate(r.tier[spec].medianMs),
              "Mmac/s");
        entry("speedup", speedup, "x");
        entry("speedup_switch",
              r.tier[0].medianMs > 0
                  ? r.legacy.medianMs / r.tier[0].medianMs
                  : 0,
              "x");
        entry("speedup_threaded",
              r.tier[1].medianMs > 0
                  ? r.legacy.medianMs / r.tier[1].medianMs
                  : 0,
              "x");
        entry("ceiling_frac_scalar_mac", fracScalar, "ratio");
        entry("ceiling_frac_memcpy", fracMemcpy, "ratio");
        entry("plan_build_ms", r.planBuildMs, "ms");
        entry("stats_parity", r.parity ? 1 : 0, "bool");
        // Marks which MAC regime ran: memoized product table vs the
        // exact >8-bit decomposition fallback (trend tooling must
        // not compare speedups across the two).
        entry("memoized", r.planMemoized ? 1 : 0, "bool");
        // Whether the specialized tier bound a fused reduction nest.
        entry("fused", r.planFused ? 1 : 0, "bool");
    }

    const ProductTableCacheStats cacheAfter = productTableCacheStats();
    const std::uint64_t cacheBuilds =
        cacheAfter.builds - cacheBefore.builds;
    const std::uint64_t cacheHits = cacheAfter.hits - cacheBefore.hits;
    if (cacheBuilds > 2 || cacheHits == 0) {
        std::fprintf(stderr,
                     "FAIL: product-table cache rebuilt (%llu builds, "
                     "%llu hits across the workload set; expected at "
                     "most 2 builds and nonzero hits)\n",
                     static_cast<unsigned long long>(cacheBuilds),
                     static_cast<unsigned long long>(cacheHits));
        return 1;
    }

    if (!skipSweep) {
        const SweepTimes t = runSweepBench(threads);
        std::printf("\nfig13 sweep wall-clock (%zu cells, %u "
                    "thread%s): cold %.1f ms, warm %.1f ms\n",
                    t.cells, threads == 0 ? 0 : threads,
                    threads == 1 ? "" : "s", t.coldMs, t.warmMs);
        auto entry = [&](const char *metric, double value) {
            entries.push(json::Value::object()
                             .set("section", "sweep")
                             .set("name", "fig13")
                             .set("metric", metric)
                             .set("value", value)
                             .set("unit", "ms"));
        };
        entry("wall_ms_cold", t.coldMs);
        entry("wall_ms_warm", t.warmMs);
    }

    if (!jsonPath.empty()) {
        json::Value doc = json::Value::object();
        doc.set("schema", "bitfusion-bench-1");
        doc.set("bench", "bench_perf");
        doc.set("scale", scale);
        doc.set("reps", reps);
        doc.set("entries", std::move(entries));
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        out << doc.dump(2) << "\n";
    }

    if (!parityOk) {
        std::fprintf(stderr,
                     "FAIL: a dispatch tier diverged from the legacy "
                     "walk (stats or memory)\n");
        return 1;
    }
    if (minSpeedup > 0 && smokeSpeedup < minSpeedup) {
        std::fprintf(stderr,
                     "FAIL: alexnet_conv_8b speedup %.2fx below the "
                     "--min-speedup %.2fx gate\n",
                     smokeSpeedup, minSpeedup);
        return 1;
    }
    if (minSpeedup16b > 0 && speedup16b < minSpeedup16b) {
        std::fprintf(stderr,
                     "FAIL: baseline_fc_16b speedup %.2fx below the "
                     "--min-speedup-16b %.2fx gate\n",
                     speedup16b, minSpeedup16b);
        return 1;
    }
    return 0;
}
