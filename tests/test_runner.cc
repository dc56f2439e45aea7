/**
 * @file
 * Sweep-runner tests: grid expansion, compiled-network cache
 * behavior (including its concurrency and failure contract),
 * determinism across thread counts, result lookup, and the JSON
 * output shape.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/runner/figures.h"
#include "src/baselines/eyeriss.h"
#include "src/runner/sweep.h"
#include "src/sim/bitfusion_platform.h"
#include "src/sim/simulator.h"

namespace bitfusion {
namespace {

/**
 * Sweep options with a caller-owned artifact cache, so each test's
 * hit/miss accounting is isolated from the process-level cache the
 * other tests (and the serving engine) share.
 */
SweepOptions
isolated(unsigned threads, ArtifactCache &cache)
{
    SweepOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    return opts;
}

/** Small two-layer network so sweeps stay fast. */
Network
tinyNet(const std::string &name, unsigned out_c)
{
    Network net(name, {});
    net.add(Layer::fc("fc1", 64, out_c, zoo::cfg8x8()));
    net.add(Layer::fc("fc2", out_c, 16, zoo::cfg4x4()));
    return net;
}

/** A Bit Fusion simulator whose first compile() throws. */
class FlakySimulator : public Simulator
{
  public:
    using Simulator::Simulator;

    PlatformArtifactPtr
    compile(const Network &net) const override
    {
        if (calls_.fetch_add(1) == 0)
            throw std::runtime_error("transient compile failure");
        return Simulator::compile(net);
    }

  private:
    mutable std::atomic<unsigned> calls_{0};
};

SweepSpec
tinySpec(std::vector<unsigned> batches = {})
{
    SweepSpec spec;
    spec.name = "tiny";
    spec.platforms = {
        bitfusionPlatform(AcceleratorConfig::eyerissMatched45(), "bf-a"),
        bitfusionPlatform(AcceleratorConfig::stripesTileMatched45(), "bf-b"),
        eyerissPlatform(),
    };
    spec.networks = {
        SweepNetwork::uniform("net64", tinyNet("net64", 64)),
        SweepNetwork::uniform("net128", tinyNet("net128", 128)),
    };
    spec.batches = std::move(batches);
    return spec;
}

TEST(SweepGrid, ExpansionIsPlatformMajor)
{
    const SweepSpec spec = tinySpec();
    const auto cells = SweepRunner::expand(spec);
    ASSERT_EQ(cells.size(), spec.cellCount());
    ASSERT_EQ(cells.size(), 3u * 2u);
    // Platform-major, then network; batch 0 = platform default.
    EXPECT_EQ(cells[0].platformIndex, 0u);
    EXPECT_EQ(cells[0].networkIndex, 0u);
    EXPECT_EQ(cells[0].batch, 0u);
    EXPECT_EQ(cells[1].platformIndex, 0u);
    EXPECT_EQ(cells[1].networkIndex, 1u);
    EXPECT_EQ(cells[5].platformIndex, 2u);
    EXPECT_EQ(cells[5].networkIndex, 1u);
}

TEST(SweepGrid, BatchOverridesMultiplyTheGrid)
{
    const SweepSpec spec = tinySpec({1, 8, 32});
    const auto cells = SweepRunner::expand(spec);
    ASSERT_EQ(cells.size(), 3u * 2u * 3u);
    // Batch is the innermost dimension.
    EXPECT_EQ(cells[0].batch, 1u);
    EXPECT_EQ(cells[1].batch, 8u);
    EXPECT_EQ(cells[2].batch, 32u);
    EXPECT_EQ(cells[3].networkIndex, 1u);
    EXPECT_EQ(cells[3].batch, 1u);
}

TEST(SweepCache, OneCompilePerDistinctConfigNetworkBatch)
{
    // Two platforms differing only in bandwidth/frequency share
    // compiled networks: the compile key covers exactly what the
    // Compiler consumes.
    SweepSpec spec;
    spec.name = "cache";
    AcceleratorConfig a = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig b = a;
    b.bwBitsPerCycle = 512;
    b.freqMHz = 980.0;
    spec.platforms = {bitfusionPlatform(a, "slow"),
                      bitfusionPlatform(b, "fast")};
    spec.networks = {SweepNetwork::uniform("net64", tinyNet("net64", 64))};

    ArtifactCache cache;
    const SweepResult result = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(result.compileCount(), 1u);
    EXPECT_EQ(result.cacheHits(), 1u);
    EXPECT_EQ(result.cells().size(), 2u);
    EXPECT_EQ(cache.compileCount(), 1u);
}

TEST(SweepCache, DistinctBatchesCompileSeparately)
{
    // cfg.batch feeds the compiler (schedule n-dimension), so each
    // batch size is its own cache entry.
    SweepSpec spec;
    spec.name = "cache-batch";
    spec.platforms = {bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "bf")};
    spec.networks = {SweepNetwork::uniform("net64", tinyNet("net64", 64))};
    spec.batches = {1, 4, 16};

    ArtifactCache cache;
    const SweepResult result = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(result.compileCount(), 3u);
    EXPECT_EQ(result.cacheHits(), 0u);
}

TEST(SweepCache, SecondSweepReusesTheSharedCache)
{
    // The cache outlives a single run: a repeated sweep (same spec,
    // same cache) performs no new compilation -- visible on the
    // cache's own counters -- while the recorded sweep counters stay
    // a pure function of the spec and the results stay identical.
    const SweepSpec spec = tinySpec();
    ArtifactCache cache;
    const SweepResult first = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_GT(first.compileCount(), 0u);
    EXPECT_EQ(cache.compileCount(), first.compileCount());
    EXPECT_EQ(cache.hitCount(), 0u);

    const SweepResult again = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(again.compileCount(), first.compileCount());
    EXPECT_EQ(again.cacheHits(), first.cacheHits());
    EXPECT_EQ(cache.compileCount(), first.compileCount());
    EXPECT_EQ(cache.hitCount(), first.compileCount());
    ASSERT_EQ(first.cells().size(), again.cells().size());
    for (std::size_t i = 0; i < first.cells().size(); ++i) {
        EXPECT_EQ(first.cells()[i].stats.totalCycles,
                  again.cells()[i].stats.totalCycles);
    }
}

TEST(SweepCache, GeometryChangeSharesCompiledNetwork)
{
    // Tiling is buffer-driven; the array geometry only matters at
    // simulation time, so geometry variants share the cache while
    // a scratchpad change is a genuine miss.
    SweepSpec spec;
    spec.name = "cache-geom";
    AcceleratorConfig a = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig b = a;
    b.rows = 16;
    b.cols = 32;
    AcceleratorConfig c = a;
    c.wbufBits *= 2;
    spec.platforms = {bitfusionPlatform(a, "wide"),
                      bitfusionPlatform(b, "tall"),
                      bitfusionPlatform(c, "bigbuf")};
    spec.networks = {SweepNetwork::uniform("net64", tinyNet("net64", 64))};

    ArtifactCache cache;
    const SweepResult result = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(result.compileCount(), 2u);
    EXPECT_EQ(result.cacheHits(), 1u);
    // The geometry variants still simulate differently.
    EXPECT_NE(result.stats("wide", "net64").totalCycles,
              result.stats("tall", "net64").totalCycles);
}

TEST(SweepCache, SharedCacheResolvesOnceUnderContention)
{
    // Same-key callers racing on a cold entry block on the first
    // caller's future instead of compiling again.
    const Simulator platform(AcceleratorConfig::eyerissMatched45());
    const Network net = tinyNet("net64", 64);
    ArtifactCache cache;
    constexpr unsigned kThreads = 8;
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            ++ready;
            while (ready.load() < kThreads)
                std::this_thread::yield();
            EXPECT_NE(cache.get(platform, net).artifact, nullptr);
        });
    }
    for (auto &w : workers)
        w.join();

    // Exactly one compile happened, however the threads raced.
    EXPECT_EQ(cache.compileCount(), 1u);
    EXPECT_EQ(cache.hitCount(), kThreads - 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SweepCache, ThrowingCompileLeavesNoEntry)
{
    // A compile that throws reaches the caller and erases its entry,
    // so the next lookup of the key compiles again and succeeds.
    const FlakySimulator platform(AcceleratorConfig::eyerissMatched45());
    const Network net = tinyNet("net64", 64);
    ArtifactCache cache;
    EXPECT_THROW(cache.get(platform, net), std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);

    const ArtifactCache::Outcome retry = cache.get(platform, net);
    EXPECT_NE(retry.artifact, nullptr);
    EXPECT_TRUE(retry.compiled);
    EXPECT_EQ(cache.compileCount(), 2u);
    EXPECT_EQ(cache.hitCount(), 0u);

    EXPECT_FALSE(cache.get(platform, net).compiled);
    EXPECT_EQ(cache.hitCount(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SweepRunner, DeterministicAcrossThreadCounts)
{
    const SweepSpec spec = tinySpec({1, 16});
    // One fresh cache per run so the recorded compile/hit counts in
    // the JSON dumps match as well.
    ArtifactCache cacheSerial, cacheParallel;
    const SweepResult serial =
        SweepRunner(isolated(1, cacheSerial)).run(spec);
    const SweepResult parallel =
        SweepRunner(isolated(8, cacheParallel)).run(spec);

    ASSERT_EQ(serial.cells().size(), parallel.cells().size());
    for (std::size_t i = 0; i < serial.cells().size(); ++i) {
        const auto &s = serial.cells()[i];
        const auto &p = parallel.cells()[i];
        EXPECT_EQ(s.platform, p.platform);
        EXPECT_EQ(s.network, p.network);
        EXPECT_EQ(s.batch, p.batch);
        EXPECT_EQ(s.stats.totalCycles, p.stats.totalCycles);
        EXPECT_DOUBLE_EQ(s.stats.energy().totalJ(),
                         p.stats.energy().totalJ());
        ASSERT_EQ(s.stats.layers.size(), p.stats.layers.size());
        for (std::size_t l = 0; l < s.stats.layers.size(); ++l) {
            EXPECT_EQ(s.stats.layers[l].cycles,
                      p.stats.layers[l].cycles);
            EXPECT_EQ(s.stats.layers[l].dramLoadBits,
                      p.stats.layers[l].dramLoadBits);
        }
    }
    // The JSON dumps differ only in the recorded thread count.
    EXPECT_EQ(serial.threadsUsed(), 1u);
    std::string sj = serial.json();
    std::string pj = parallel.json();
    const auto strip = [](std::string &s) {
        const auto pos = s.find("\"threads\"");
        ASSERT_NE(pos, std::string::npos);
        s.erase(pos, s.find(',', pos) - pos);
    };
    strip(sj);
    strip(pj);
    EXPECT_EQ(sj, pj);
}

TEST(SweepResult, LookupByNameAndBatch)
{
    const SweepSpec spec = tinySpec({1, 16});
    const SweepResult result = SweepRunner({2}).run(spec);

    const SweepCellResult *c = result.find("bf-a", "net128", 16);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->batch, 16u);
    EXPECT_EQ(c->stats.batch, 16u);
    // batch 0 matches the first cell of the pair (batch 1 here).
    EXPECT_EQ(result.find("bf-a", "net128")->batch, 1u);
    EXPECT_EQ(result.find("nope", "net128"), nullptr);
    EXPECT_GT(result.stats("eyeriss", "net64", 16).totalCycles, 0u);
}

TEST(SweepResult, JsonShape)
{
    const SweepSpec spec = tinySpec();
    const SweepResult result = SweepRunner({1}).run(spec);
    const std::string doc = result.json();

    EXPECT_NE(doc.find("\"sweep\": \"tiny\""), std::string::npos);
    EXPECT_NE(doc.find("\"threads\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"compiles\""), std::string::npos);
    EXPECT_NE(doc.find("\"cache_hits\""), std::string::npos);
    EXPECT_NE(doc.find("\"cells\""), std::string::npos);
    EXPECT_NE(doc.find("\"platform\": \"bf-a\""), std::string::npos);
    EXPECT_NE(doc.find("\"network\": \"net64\""), std::string::npos);
    EXPECT_NE(doc.find("\"total_cycles\""), std::string::npos);
    EXPECT_NE(doc.find("\"energy_j\""), std::string::npos);
    // Per-layer detail only on request.
    EXPECT_EQ(doc.find("\"layers\""), std::string::npos);
    EXPECT_NE(result.json(true).find("\"layers\""), std::string::npos);
}

TEST(SweepResult, JsonEscapesStrings)
{
    EXPECT_EQ(json::Value::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    json::Value obj = json::Value::object();
    obj.set("k", json::Value::array().push(1u).push(true).push("x"));
    EXPECT_EQ(obj.dump(), "{\"k\":[1,true,\"x\"]}");
}

TEST(SweepRunner, EffectiveThreadsClampsToCells)
{
    SweepRunner runner({64});
    EXPECT_EQ(runner.effectiveThreads(4), 4u);
    EXPECT_EQ(runner.effectiveThreads(1000), 64u);
    // threads=0 resolves to hardware concurrency, at least 1.
    EXPECT_GE(SweepRunner({0}).effectiveThreads(8), 1u);
}

TEST(Figures, RegistryCoversAllPaperFigures)
{
    const char *expected[] = {
        "fig1", "fig10", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "table2", "table3", "ablation-style",
        "ablation-codeopt", "ablation-bitwidth", "dse",
    };
    for (const char *id : expected) {
        const figures::Figure *f = figures::find(id);
        ASSERT_NE(f, nullptr) << id;
        EXPECT_EQ(f->id, id);
        EXPECT_FALSE(f->title.empty());
    }
    EXPECT_EQ(figures::find("fig99"), nullptr);
    EXPECT_EQ(figures::all().size(), std::size(expected));
}

TEST(Figures, SweepSpecsExpandAndName)
{
    // Every figure with a grid must expand, carry its own id as the
    // sweep name, and validate.
    for (const auto &figure : figures::all()) {
        const SweepSpec spec = figure.spec();
        if (spec.platforms.empty())
            continue;
        EXPECT_EQ(spec.name, figure.id);
        const auto cells = SweepRunner::expand(spec);
        EXPECT_EQ(cells.size(), spec.cellCount());
        EXPECT_GT(cells.size(), 0u);
    }
}

} // namespace
} // namespace bitfusion
