/**
 * @file
 * Integration tests: the headline claims of the paper must hold in
 * the reproduction -- Bit Fusion beats Eyeriss and Stripes on every
 * benchmark with the right ordering, the energy model reproduces the
 * Fig. 14 shape, and the interpreter's traffic counts reconcile with
 * the analytical simulator on a fully-resident layer.
 */

#include <gtest/gtest.h>

#include "src/baselines/eyeriss.h"
#include "src/baselines/stripes.h"
#include "src/common/table.h"
#include "src/core/accelerator.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/tensor.h"
#include "src/isa/interpreter.h"

namespace bitfusion {
namespace {

TEST(Headline, BitFusionBeatsEyerissEverywhere)
{
    Accelerator acc(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    std::vector<double> speedups, energy;
    for (const auto &b : zoo::all()) {
        const RunStats bf = acc.run(b.quantized);
        const RunStats ey = eyeriss.run(b.baseline);
        const double sp = ey.secondsPerSample() / bf.secondsPerSample();
        const double er = ey.energyPerSampleJ() / bf.energyPerSampleJ();
        EXPECT_GT(sp, 1.0) << b.name;
        EXPECT_GT(er, 1.0) << b.name;
        speedups.push_back(sp);
        energy.push_back(er);
    }
    // Paper: 3.9x / 5.1x geomean. The reproduction lands in the same
    // regime (see EXPERIMENTS.md for the per-benchmark record).
    EXPECT_GT(geomean(speedups), 3.0);
    EXPECT_LT(geomean(speedups), 10.0);
    EXPECT_GT(geomean(energy), 3.5);
    EXPECT_LT(geomean(energy), 12.0);
}

TEST(Headline, OrderingMatchesPaper)
{
    Accelerator acc(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    auto speedup = [&](const zoo::Benchmark &b) {
        return eyeriss.run(b.baseline).secondsPerSample() /
               acc.run(b.quantized).secondsPerSample();
    };
    // Cifar-10 (binary, deep) gains the most; the 2x-wide ResNet-18
    // gains the least; the bandwidth-bound recurrent models and the
    // wide AlexNet sit in the low group (Fig. 13).
    const double cifar = speedup(zoo::cifar10());
    EXPECT_GT(cifar, speedup(zoo::svhn()));
    EXPECT_GT(speedup(zoo::svhn()), speedup(zoo::resnet18()));
    EXPECT_GT(speedup(zoo::vgg7()), speedup(zoo::lstm()));
    EXPECT_GT(cifar, speedup(zoo::alexnet()));
}

TEST(Headline, BitFusionBeatsStripesEverywhere)
{
    Accelerator acc(AcceleratorConfig::stripesTileMatched45());
    const StripesModel stripes;
    std::vector<double> speedups, energy;
    for (const auto &b : zoo::all()) {
        const RunStats bf = acc.run(b.quantized);
        const RunStats st = stripes.run(b.quantized);
        const double sp = st.secondsPerSample() / bf.secondsPerSample();
        const double er = st.energyPerSampleJ() / bf.energyPerSampleJ();
        // The weight-traffic-bound recurrent models tie (both
        // platforms fetch identical weight bits); everything else
        // Bit Fusion wins outright.
        EXPECT_GE(sp, 0.95) << b.name;
        EXPECT_GE(er, 0.95) << b.name;
        speedups.push_back(sp);
        energy.push_back(er);
    }
    EXPECT_GT(geomean(speedups), 1.2);
    EXPECT_GT(geomean(energy), 1.2);
}

TEST(Headline, EnergyBreakdownShape)
{
    // Fig. 14: Bit Fusion is DRAM-dominated with zero RF energy;
    // Eyeriss spends a large share in register files; both spend
    // >60% on memory (buffers + RF + DRAM).
    Accelerator acc(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    for (const auto &b : zoo::all()) {
        const ComponentEnergy bf = acc.run(b.quantized).energy();
        EXPECT_EQ(bf.rfJ, 0.0) << b.name;
        EXPECT_GT(bf.dramJ / bf.totalJ(), 0.1) << b.name;
        const double bf_mem =
            (bf.bufferJ + bf.dramJ) / bf.totalJ();
        EXPECT_GT(bf_mem, 0.4) << b.name;

        const ComponentEnergy ey = eyeriss.run(b.baseline).energy();
        EXPECT_GT(ey.rfJ / ey.totalJ(), 0.1) << b.name;
        // RF always costs more than the multipliers themselves
        // (4 x 16-bit accesses per MAC).
        EXPECT_GT(ey.rfJ, ey.computeJ) << b.name;
        const double ey_mem =
            (ey.bufferJ + ey.rfJ + ey.dramJ) / ey.totalJ();
        EXPECT_GT(ey_mem, 0.6) << b.name;
    }
}

TEST(Headline, AlexNetPerLayerConv1MatchesPaper)
{
    // §V-B1 table: the 8b/8b conv1 gains 1.67x over Eyeriss (the
    // one per-layer datum our model reproduces almost exactly).
    Accelerator acc(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    const auto b = zoo::alexnet();
    const RunStats bf = acc.run(b.quantized);
    const RunStats ey = eyeriss.run(b.baseline);
    ASSERT_FALSE(bf.layers.empty());
    ASSERT_FALSE(ey.layers.empty());
    EXPECT_EQ(bf.layers[0].name, "conv1");
    const double sp = static_cast<double>(ey.layers[0].cycles) /
                      static_cast<double>(bf.layers[0].cycles);
    EXPECT_NEAR(sp, 1.67, 0.5);
}

TEST(Integration, InterpreterTrafficReconcilesWithSimulator)
{
    // For a layer whose working set is fully resident, the
    // analytical simulator's DRAM traffic must equal what the
    // interpreter actually moves: weights once, inputs once,
    // outputs once.
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const Compiler compiler(cfg);
    const Layer fc = Layer::fc("f", 64, 32, zoo::cfg8x8());

    Network net("tiny", {fc});
    CompiledNetwork cn = compiler.compile(net);
    ASSERT_EQ(cn.schedules.size(), 1u);
    const Simulator sim(cfg);
    const LayerStats st = sim.runSchedule(cn.schedules[0]);

    // Interpreter side (single sample).
    Prng prng(50);
    Tensor input(static_cast<std::size_t>(64));
    input.fillRandom(prng, 8, false);
    Tensor weights(fc.weightCount());
    weights.fillRandom(prng, 8, true);
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(64);
    for (unsigned i = 0; i < 64; ++i)
        mem.write(bases.input + i, input[i]);
    const std::uint64_t mt = cn.schedules[0].tile.mt;
    const std::uint64_t kt = cn.schedules[0].tile.kt;
    const std::vector<std::int64_t> image =
        Compiler::fcWeightLayout(fc, mt, kt).pack(weights.raw());
    bases.weights = mem.allocate(image.size());
    for (std::size_t i = 0; i < image.size(); ++i)
        mem.write(bases.weights + i, image[i]);
    bases.output = mem.allocate(32);
    Interpreter interp(mem);
    interp.run(compiler.emitFc(fc, bases, mt, kt));

    const auto &is = interp.stats();
    const std::uint64_t interp_load_bits =
        is.dramLoadElems[0] * 8 +        // IBUF at 8-bit activations
        is.dramLoadElems[2] * 8;         // WBUF at 8-bit weights
    // Simulator counts the full batch; inputs scale with batch,
    // weights are fetched once.
    const std::uint64_t weights_bits = fc.weightCount() * 8;
    const std::uint64_t inputs_bits = 64 * 8;
    EXPECT_EQ(interp_load_bits, weights_bits + inputs_bits);
    EXPECT_EQ(st.dramLoadBits,
              weights_bits + inputs_bits * cfg.batch);
    // Outputs once on both sides.
    EXPECT_EQ(is.dramStoreElems[1], 32u);
}

TEST(Integration, CompiledBlocksDisassembleForWholeZoo)
{
    const Compiler compiler(AcceleratorConfig::eyerissMatched45());
    for (const auto &b : zoo::all()) {
        const CompiledNetwork cn = compiler.compile(b.quantized);
        for (const auto &s : cn.schedules) {
            const std::string d = s.block.disassemble();
            EXPECT_NE(d.find("setup"), std::string::npos);
            EXPECT_NE(d.find("block-end"), std::string::npos);
        }
    }
}

TEST(Integration, RunStatsTimeConversions)
{
    Accelerator acc(AcceleratorConfig::eyerissMatched45());
    const RunStats rs = acc.run(zoo::lenet5().quantized);
    EXPECT_NEAR(rs.seconds(),
                static_cast<double>(rs.totalCycles) / 500e6, 1e-12);
    EXPECT_NEAR(rs.secondsPerSample() * rs.batch, rs.seconds(), 1e-12);
    EXPECT_GT(rs.energyPerSampleJ(), 0.0);
}

} // namespace
} // namespace bitfusion
