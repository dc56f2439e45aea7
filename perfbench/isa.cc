/**
 * @file
 * isa_zoo_mixed: compile, lower and interpret the paper's quantized
 * networks at their Fig. 1 bitwidths on the default
 * Interpreter::run path. Together the networks cover every zoo
 * configuration (8x8, 4x1, 1x1, 2x2, 4x4), conv and recurrent blocks,
 * and one 16x16 baseline network, so a kernel change shows which
 * widths it helps.
 */

#include "perfbench/workloads.h"

#include <algorithm>
#include <memory>

#include "src/common/prng.h"
#include "src/compiler/codegen.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/isa/exec_plan.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"

namespace perfbench {

using namespace bitfusion;

namespace {

/**
 * Copy of @p net with channel counts divided by @p chanDiv and
 * spatial extents by @p spatialDiv, floored so every layer stays
 * valid (channels at the group count, spatial extents at the kernel
 * size). MACs fall by roughly chanDiv^2 * spatialDiv^2.
 */
Network
scaled(const Network &net, unsigned chanDiv, unsigned spatialDiv)
{
    auto channels = [&](unsigned c, unsigned groups) {
        const unsigned v = std::max(c / chanDiv, groups);
        return std::max(v - v % groups, groups);
    };
    auto spatial = [&](unsigned extent, unsigned kernel) {
        return std::max(extent / spatialDiv, kernel);
    };
    Network out(net.name(), {});
    for (Layer layer : net.layers()) {
        // The 3-channel image input keeps its channels.
        if (layer.inC > 3)
            layer.inC = channels(layer.inC, layer.groups);
        layer.outC = channels(layer.outC, layer.groups);
        layer.inH = spatial(layer.inH, layer.kH);
        layer.inW = spatial(layer.inW, layer.kW);
        out.add(layer);
    }
    return out;
}

/**
 * The least scaled-down copy of @p net with at most @p maxMacs MACs,
 * small enough for the reference walk to run in milliseconds.
 */
Network
checkCopy(const Network &net, std::uint64_t maxMacs)
{
    Network copy = net;
    for (unsigned div = 2; copy.totalMacs() > maxMacs && div <= 64;
         div *= 2)
        copy = scaled(net, div, div / 2);
    return copy;
}

struct ZooNet
{
    std::string name;
    Network net;
};

/**
 * The workload's networks. AlexNet-2x (2.7 Gmac) and VGG-7 would
 * dominate a pass, so they are scaled down; the rest run at full
 * size.
 */
std::vector<ZooNet>
zooNetworks()
{
    return {
        {"alexnet_8x8_4x1", scaled(zoo::alexnet().quantized, 8, 1)},
        {"svhn_8x8_1x1", scaled(zoo::svhn().quantized, 2, 1)},
        {"vgg7_8x8_2x2", scaled(zoo::vgg7().quantized, 2, 1)},
        {"lenet5_2x2", zoo::lenet5().quantized},
        {"lstm_4x4", zoo::lstm().quantized},
        {"rnn_4x4", zoo::rnn().quantized},
        {"lenet5_16x16", zoo::lenet5().baseline},
    };
}

AcceleratorConfig
acceleratorConfig()
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.batch = 1;
    return cfg;
}

/** Words of off-chip memory @p plans execute within. */
std::uint64_t
memoryExtent(const std::vector<std::shared_ptr<const ExecPlan>> &plans)
{
    std::uint64_t extent = 0;
    for (const auto &plan : plans)
        extent = std::max(extent, plan->memoryExtent());
    return extent;
}

/**
 * @p count memory words drawn from @p seed as 0 or 1: representable
 * as an operand under every zoo configuration, and nonzero often
 * enough that output mismatches show.
 */
std::vector<std::uint8_t>
seededWords(std::uint64_t count, std::uint64_t seed)
{
    std::vector<std::uint8_t> words(count);
    Prng prng(seed);
    for (std::uint8_t &w : words)
        w = static_cast<std::uint8_t>(prng.below(2));
    return words;
}

/** A memory holding @p words from address 0. */
MemoryModel
loadedMemory(const std::vector<std::uint8_t> &words)
{
    MemoryModel memory;
    memory.allocate(words.size());
    std::copy(words.begin(), words.end(),
              memory.writeSpan(0, words.size()));
    return memory;
}

std::vector<std::shared_ptr<const ExecPlan>>
buildPlans(const CompiledNetwork &cn)
{
    std::vector<std::shared_ptr<const ExecPlan>> plans;
    for (const LayerSchedule &sched : cn.schedules)
        plans.push_back(ExecPlan::build(sched.block));
    return plans;
}

/** One network ready to interpret. */
struct Prepared
{
    std::string name;
    CompiledNetwork compiled;
    std::vector<std::shared_ptr<const ExecPlan>> plans;
    std::uint64_t analyticMacs = 0;
    std::unique_ptr<MemoryModel> memory;
    std::unique_ptr<Interpreter> interp;
};

/**
 * Oracle check on a scaled copy of @p net: the default run() path
 * and runLegacy() must agree on every InterpStats counter and every
 * memory word, and both must interpret the analytic MAC count.
 */
void
checkAgainstLegacy(const ZooNet &zn, std::uint64_t seed, Checks &checks)
{
    const Network copy = checkCopy(zn.net, 400000);
    const CompiledNetwork cn = Compiler(acceleratorConfig()).compile(copy);
    MemoryModel fastMem =
        loadedMemory(seededWords(memoryExtent(buildPlans(cn)), seed));
    MemoryModel legacyMem = fastMem;
    ArtifactCache planCache;
    Interpreter fast(fastMem, &planCache);
    Interpreter legacy(legacyMem);
    for (const LayerSchedule &sched : cn.schedules) {
        fast.run(sched.block);
        legacy.runLegacy(sched.block);
    }
    bool same = fast.stats() == legacy.stats() &&
                fastMem.size() == legacyMem.size();
    for (std::uint64_t a = 0; same && a < fastMem.size(); ++a)
        same = fastMem.read(a) == legacyMem.read(a);
    checks.expect(same, zn.name + ": run() diverged from runLegacy() "
                                  "on the scaled copy");
    checks.expect(legacy.stats().macs == copy.totalMacs(),
                  zn.name + ": legacy MACs != analytic MACs on the "
                            "scaled copy");
}

} // namespace

Measurements
isaZooMixed(const BenchOptions &opts, Tracer &tracer)
{
    Measurements m;
    m.item = "mac";
    const std::vector<ZooNet> nets = zooNetworks();
    const AcceleratorConfig cfg = acceleratorConfig();

    // The seeded memory images are the workload's input, drawn once
    // before set-up.
    std::vector<std::vector<std::uint8_t>> images;
    for (const ZooNet &zn : nets) {
        const CompiledNetwork cn = Compiler(cfg).compile(zn.net);
        images.push_back(
            seededWords(memoryExtent(buildPlans(cn)), opts.seed));
    }

    // Set-up: compile, lower every block through a fresh plan cache,
    // and allocate and load the memories.
    std::vector<Prepared> prepared;
    std::unique_ptr<ArtifactCache> planCache;
    auto setup = [&](Tracer &t) {
        prepared.clear();
        planCache = std::make_unique<ArtifactCache>();
        const Compiler compiler(cfg);
        for (std::size_t i = 0; i < nets.size(); ++i) {
            const ZooNet &zn = nets[i];
            Prepared p;
            p.name = zn.name;
            p.analyticMacs = zn.net.totalMacs();
            {
                Tracer::Scope scope(t, "compiler/compile");
                p.compiled = compiler.compile(zn.net);
                scope.arg("blocks",
                          static_cast<double>(p.compiled.schedules.size()));
            }
            {
                Tracer::Scope scope(t, "isa.plan/build");
                for (const LayerSchedule &sched : p.compiled.schedules)
                    p.plans.push_back(planCache->plan(sched.block));
            }
            p.memory =
                std::make_unique<MemoryModel>(loadedMemory(images[i]));
            p.interp =
                std::make_unique<Interpreter>(*p.memory, planCache.get());
            prepared.push_back(std::move(p));
        }
    };

    std::vector<std::string> spanNames;
    for (const ZooNet &zn : nets)
        spanNames.push_back("isa.interp/" + zn.name);

    auto pass = [&](Tracer &t, unsigned n) {
        std::uint64_t passMacs = 0;
        for (std::size_t i = 0; i < prepared.size(); ++i) {
            Prepared &p = prepared[i];
            const std::uint64_t before = p.interp->stats().macs;
            {
                Tracer::Scope scope(t, spanNames[i].c_str());
                for (const LayerSchedule &sched : p.compiled.schedules)
                    p.interp->run(sched.block);
                scope.arg("macs", static_cast<double>(p.analyticMacs));
            }
            const std::uint64_t macs = p.interp->stats().macs - before;
            m.checks.expect(macs == p.analyticMacs,
                            p.name + ": interpreted MACs != analytic "
                                     "MACs");
            passMacs += macs;
        }
        if (n > 0)
            return;
        std::uint64_t plans = 0, fused = 0, memoized = 0;
        for (const Prepared &p : prepared) {
            for (const auto &plan : p.plans) {
                ++plans;
                fused += plan->fused() ? 1 : 0;
                memoized += plan->memoized() ? 1 : 0;
            }
        }
        m.itemsPerPass = static_cast<double>(passMacs);
        m.counts.set("isa.interp.macs", passMacs)
            .set("isa.plan.fused_frac",
                 static_cast<double>(fused) / static_cast<double>(plans))
            .set("isa.plan.memoized_frac", static_cast<double>(memoized) /
                                               static_cast<double>(plans))
            .set("isa.product_table.builds",
                 productTableCacheStats().builds);
    };
    measure(opts, tracer, m, setup, pass);

    for (const ZooNet &zn : nets)
        checkAgainstLegacy(zn, opts.seed, m.checks);
    return m;
}

} // namespace perfbench
