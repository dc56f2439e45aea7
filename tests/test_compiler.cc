/**
 * @file
 * Compiler tests: tile feasibility and traffic properties, loop
 * ordering decisions, layer fusion, and whole-network compilation
 * invariants across the model zoo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/compiler/codegen.h"
#include "src/compiler/tiling.h"
#include "src/dnn/model_zoo.h"

namespace bitfusion {
namespace {

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    return cfg;
}

TEST(Tiler, TilesRespectBufferBudgets)
{
    const AcceleratorConfig cfg = smallConfig();
    const Tiler tiler(cfg);
    const struct
    {
        std::uint64_t m, k, n;
        FusionConfig bits;
    } cases[] = {
        {8192, 18432, 16, zoo::cfg4x1()},   // AlexNet 2x fc6
        {512, 2400, 11664, zoo::cfg4x1()},  // AlexNet 2x conv2
        {128, 1152, 16384, zoo::cfg1x1()},  // Cifar conv2
        {2915, 5830, 16, zoo::cfg4x4()},    // RNN
        {10, 10, 1, zoo::cfg8x8()},         // tiny
        {1, 1, 1, zoo::cfg16x16()},         // degenerate
    };
    for (const auto &c : cases) {
        const Tiling t = tiler.chooseTiles(c.m, c.k, c.n, c.bits, 8);
        EXPECT_GE(t.mt, 1u);
        EXPECT_GE(t.kt, 1u);
        EXPECT_GE(t.nt, 1u);
        EXPECT_LE(t.mt, c.m);
        EXPECT_LE(t.kt, c.k);
        EXPECT_LE(t.nt, c.n);
        // Weight tile fits half the weight buffer (or is minimal).
        if (t.mt * t.kt > 1) {
            EXPECT_LE(t.mt * t.kt * c.bits.wBits, cfg.wbufBits / 2)
                << c.m << "x" << c.k;
        }
        // Input and output tiles fit their halves.
        EXPECT_LE(t.kt * t.nt * c.bits.aBits, cfg.ibufBits / 2 +
                      t.kt * c.bits.aBits);
        EXPECT_LE(t.mt * t.nt * 32, cfg.obufBits / 2 + t.mt * 32);
    }
}

TEST(Tiler, SmallLayersStayResident)
{
    const Tiler tiler(smallConfig());
    // Weights fit entirely -> whole-matrix tile, whole-stream nt.
    const Tiling t = tiler.chooseTiles(32, 64, 100, zoo::cfg8x8(), 8);
    EXPECT_EQ(t.mt, 32u);
    EXPECT_EQ(t.kt, 64u);
    EXPECT_LE(t.nt, 100u); // OBUF residency may tile the stream
    // One weight fetch, one input fetch: resident weights are never
    // refetched even when the stream is tiled.
    EXPECT_EQ(Tiler::trafficBits(LoopOrder::InputStationary, t, 32, 64,
                                 100, 1000, 2000, 500),
              3500u);
}

TEST(Tiler, TrafficFormulas)
{
    const Tiling t{16, 32, 8};
    // n_total 32 -> 4 n-tiles; m 64 -> 4 m-tiles.
    EXPECT_EQ(Tiler::trafficBits(LoopOrder::InputStationary, t, 64, 320,
                                 32, 100, 10, 1),
              10 + 100 * 4 + 1u);
    EXPECT_EQ(Tiler::trafficBits(LoopOrder::WeightStationary, t, 64, 320,
                                 32, 100, 10, 1),
              100 + 10 * 4 + 1u);
}

TEST(Tiler, OrderPicksCheaperDirection)
{
    const AcceleratorConfig cfg = smallConfig();
    const Tiler tiler(cfg);
    const Tiling t{16, 32, 8};
    // Huge weights, small inputs -> keep weights resident.
    EXPECT_EQ(tiler.chooseOrder(t, 64, 320, 32, 1'000'000, 10, 1),
              LoopOrder::WeightStationary);
    // Huge inputs, small weights -> keep inputs resident.
    EXPECT_EQ(tiler.chooseOrder(t, 64, 320, 32, 10, 1'000'000, 1),
              LoopOrder::InputStationary);
}

TEST(Tiler, DisabledOrderingFallsBackToInputStationary)
{
    AcceleratorConfig cfg = smallConfig();
    cfg.loopOrdering = false;
    const Tiler tiler(cfg);
    const Tiling t{16, 32, 8};
    EXPECT_EQ(tiler.chooseOrder(t, 64, 320, 32, 1'000'000, 10, 1),
              LoopOrder::InputStationary);
}

TEST(Compiler, CompilesEveryZooNetwork)
{
    const Compiler compiler(smallConfig());
    for (const auto &b : zoo::all()) {
        const CompiledNetwork cn = compiler.compile(b.quantized);
        EXPECT_FALSE(cn.schedules.empty()) << b.name;
        for (const auto &s : cn.schedules) {
            s.block.validate();
            if (s.usesMacArray) {
                // GEMM dims conserve the layer's MACs.
                EXPECT_EQ(s.m * s.k * s.n,
                          s.layer.macsPerSample())
                    << b.name << "/" << s.layer.name;
            }
        }
    }
}

TEST(Compiler, LayerFusionAbsorbsActAndPool)
{
    const Compiler compiler(smallConfig());
    const CompiledNetwork cn =
        compiler.compile(zoo::cifar10().quantized);
    // conv1 is followed by act; conv2 by act+pool.
    ASSERT_GE(cn.schedules.size(), 2u);
    EXPECT_EQ(cn.schedules[0].layer.name, "conv1");
    EXPECT_TRUE(cn.schedules[0].fusedActivation);
    EXPECT_EQ(cn.schedules[1].layer.name, "conv2");
    EXPECT_TRUE(cn.schedules[1].fusedActivation);
    EXPECT_TRUE(cn.schedules[1].fusedPool);
    // Fused pool shrinks the DRAM output footprint.
    EXPECT_EQ(cn.schedules[1].outElems,
              cn.schedules[1].layer.outputCount() / 4);
    // No standalone act/pool schedules for fused layers.
    for (const auto &s : cn.schedules)
        EXPECT_TRUE(s.usesMacArray) << s.layer.name;
}

TEST(Compiler, FusionDisabledKeepsAuxLayers)
{
    AcceleratorConfig cfg = smallConfig();
    cfg.layerFusion = false;
    const Compiler compiler(cfg);
    const CompiledNetwork cn =
        compiler.compile(zoo::cifar10().quantized);
    EXPECT_EQ(cn.schedules.size(),
              zoo::cifar10().quantized.layers().size());
    bool any_aux = false;
    for (const auto &s : cn.schedules)
        any_aux |= !s.usesMacArray;
    EXPECT_TRUE(any_aux);
}

TEST(Compiler, FusedOutputBitsTrackConsumer)
{
    const Compiler compiler(smallConfig());
    const CompiledNetwork cn =
        compiler.compile(zoo::cifar10().quantized);
    // conv1 (8b/8b) feeds the binary conv2 -> outputs stored at 1 bit.
    EXPECT_EQ(cn.schedules[0].outBits, 1u);
    // Unfused outputs would be 32-bit; fused ones never are.
    for (const auto &s : cn.schedules) {
        if (s.fusedActivation) {
            EXPECT_LT(s.outBits, 32u) << s.layer.name;
        }
    }
}

TEST(Compiler, TotalMacsScaleWithBatch)
{
    const Compiler compiler(smallConfig());
    const CompiledNetwork cn = compiler.compile(zoo::lenet5().quantized);
    EXPECT_EQ(cn.totalMacs(),
              zoo::lenet5().quantized.totalMacs() * cn.batch);
}

TEST(Compiler, BlocksCarryLayerBitwidths)
{
    const Compiler compiler(smallConfig());
    for (const auto &b : zoo::all()) {
        const CompiledNetwork cn = compiler.compile(b.quantized);
        for (const auto &s : cn.schedules) {
            if (s.usesMacArray) {
                EXPECT_EQ(s.block.config, s.layer.bits)
                    << b.name << "/" << s.layer.name;
            }
        }
    }
}

TEST(Compiler, ConvBlockLoopsCoverAllMacs)
{
    const Compiler compiler(smallConfig());
    const Layer conv =
        Layer::conv("c", 8, 10, 10, 16, 3, 1, 1, zoo::cfg4x4(), 2);
    const InstructionBlock blk =
        compiler.emitConv(conv, BlockBases{}, 8);
    EXPECT_EQ(blk.innermostIterations(), conv.macsPerSample());
}

TEST(Compiler, FcBlockLoopsCoverAllMacs)
{
    const Compiler compiler(smallConfig());
    const Layer fc = Layer::fc("f", 128, 64, zoo::cfg2x2());
    const InstructionBlock blk =
        compiler.emitFc(fc, BlockBases{}, 16, 32);
    EXPECT_EQ(blk.innermostIterations(), fc.macsPerSample());
}

/**
 * @p layout must map the (oc, ic) grid one-to-one onto
 * [0, weightCount) and agree with @p block, whose Wbuf address of
 * weight (oc, ic) is tile base (Mem) plus offset in the tile
 * (BufAccess) over the loops (t_oc, t_ic, oc, ic).
 *
 * The zoo's FC layers hold up to 151M weights, so a bitmap over
 * every weight runs only up to 2^20 of them. Every layer gets the
 * structural proof instead: the block's four strides number the
 * loop box in mixed radix (sorted by stride, each is the product of
 * the smaller dims' trip counts, ending at weightCount), so the
 * block's address is a bijection onto [0, weightCount); and the
 * helper matches it on every weight of the first and last tile and
 * at both corners of every tile.
 */
void
expectFcLayoutBijective(const Layer &layer, const FcWeightLayout &layout,
                        const InstructionBlock &block)
{
    const std::uint64_t count = layer.weightCount();
    ASSERT_EQ(layout.ocTotal * layout.icTotal, count) << layer.name;
    ASSERT_EQ(layout.ocTotal % layout.toc, 0u) << layer.name;
    ASSERT_EQ(layout.icTotal % layout.tic, 0u) << layer.name;
    std::uint64_t stride[4] = {}, trips[4] = {};
    for (const Instruction &inst : block.instructions) {
        if (inst.op == Opcode::Loop && inst.id < 4)
            trips[inst.id] = inst.fullImm();
        if (inst.op != Opcode::GenAddr ||
            inst.buffer() != BufferId::Wbuf)
            continue;
        ASSERT_LT(inst.id, 4u) << layer.name;
        ASSERT_NE(inst.space(), AddrSpace::BufFill) << layer.name;
        stride[inst.id] += inst.fullImm();
    }
    ASSERT_EQ(trips[0], layout.ocTotal / layout.toc) << layer.name;
    ASSERT_EQ(trips[1], layout.icTotal / layout.tic) << layer.name;
    ASSERT_EQ(trips[2], layout.toc) << layer.name;
    ASSERT_EQ(trips[3], layout.tic) << layer.name;

    std::vector<unsigned> dims;
    for (unsigned d = 0; d < 4; ++d)
        if (trips[d] > 1)
            dims.push_back(d);
    std::sort(dims.begin(), dims.end(), [&](unsigned x, unsigned y) {
        return stride[x] < stride[y];
    });
    std::uint64_t radix = 1;
    for (unsigned d : dims) {
        ASSERT_EQ(stride[d], radix) << layer.name << " loop " << d;
        radix *= trips[d];
    }
    ASSERT_EQ(radix, count) << layer.name;

    // Plain checks in the loops: they run on millions of weights.
    auto agree = [&](std::uint64_t oc, std::uint64_t ic) {
        const std::uint64_t pos[4] = {oc / layout.toc, ic / layout.tic,
                                      oc % layout.toc, ic % layout.tic};
        std::uint64_t emitted = 0;
        for (unsigned d = 0; d < 4; ++d)
            emitted += pos[d] * stride[d];
        if (emitted == layout.offset(oc, ic))
            return true;
        ADD_FAILURE() << layer.name << ": weight (" << oc << ", " << ic
                      << ") at " << layout.offset(oc, ic)
                      << ", the block reads it at " << emitted;
        return false;
    };
    const std::uint64_t lastOc = layout.ocTotal - layout.toc;
    const std::uint64_t lastIc = layout.icTotal - layout.tic;
    for (std::uint64_t oc = 0; oc < layout.toc; ++oc)
        for (std::uint64_t ic = 0; ic < layout.tic; ++ic)
            if (!agree(oc, ic) || !agree(lastOc + oc, lastIc + ic))
                return;
    for (std::uint64_t oc = 0; oc < layout.ocTotal; oc += layout.toc)
        for (std::uint64_t ic = 0; ic < layout.icTotal; ic += layout.tic)
            if (!agree(oc, ic) ||
                !agree(oc + layout.toc - 1, ic + layout.tic - 1))
                return;

    if (count > (1u << 20))
        return;
    std::vector<bool> seen(count, false);
    for (std::uint64_t oc = 0; oc < layout.ocTotal; ++oc) {
        for (std::uint64_t ic = 0; ic < layout.icTotal; ++ic) {
            const std::uint64_t off = layout.offset(oc, ic);
            if (off >= count || seen[off]) {
                FAIL() << layer.name << ": weight (" << oc << ", " << ic
                       << ") at " << off << " is out of range or taken";
            }
            seen[off] = true;
        }
    }
}

TEST(FcWeightLayout, BijectiveOnZooAndDegenerateTiles)
{
    const Compiler compiler(smallConfig());
    unsigned layers = 0;
    for (const auto &b : zoo::all()) {
        for (const Network *net : {&b.quantized, &b.baseline}) {
            const CompiledNetwork cn = compiler.compile(*net);
            for (const LayerSchedule &s : cn.schedules) {
                if (!s.usesMacArray || s.layer.kind == LayerKind::Conv)
                    continue;
                expectFcLayoutBijective(
                    s.layer,
                    Compiler::fcWeightLayout(s.layer, s.tile.mt,
                                             s.tile.kt),
                    s.block);
                ++layers;
            }
        }
    }
    EXPECT_GT(layers, 0u);

    // toc = 1 and tic = 1; toc = oc_total and tic = ic_total; an RNN
    // and an LSTM (concatenated inputs, 4 gates) with ragged tiles.
    const struct
    {
        Layer layer;
        std::uint64_t outTile, inTile;
    } cases[] = {
        {Layer::fc("f", 16, 8, zoo::cfg8x8()), 1, 1},
        {Layer::fc("f", 16, 8, zoo::cfg8x8()), 8, 16},
        {Layer::fc("f", 16, 8, zoo::cfg8x8()), 1, 16},
        {Layer::fc("f", 16, 8, zoo::cfg8x8()), 8, 1},
        {Layer::rnn("r", 12, 10, zoo::cfg4x4()), 5, 11},
        {Layer::lstm("l", 6, 9, zoo::cfg4x4()), 12, 5},
    };
    for (const auto &c : cases) {
        const FcWeightLayout layout =
            Compiler::fcWeightLayout(c.layer, c.outTile, c.inTile);
        expectFcLayoutBijective(
            c.layer, layout,
            compiler.emitFc(c.layer, BlockBases{}, c.outTile, c.inTile));
    }
}

TEST(FcWeightLayout, PackPlacesEveryRowMajorWeight)
{
    const Layer fc = Layer::fc("f", 6, 4, zoo::cfg8x8());
    const FcWeightLayout layout = Compiler::fcWeightLayout(fc, 2, 3);
    EXPECT_EQ(layout.toc, 2u);
    EXPECT_EQ(layout.tic, 3u);
    std::vector<std::int64_t> rowMajor(fc.weightCount());
    for (std::size_t i = 0; i < rowMajor.size(); ++i)
        rowMajor[i] = static_cast<std::int64_t>(i);
    // Tiles [t_oc][t_ic], each [ic][oc]: weight (oc, ic) is oc*6 + ic.
    const std::vector<std::int64_t> want = {
        0,  6,  1,  7,  2,  8,  3,  9,  4,  10, 5,  11,
        12, 18, 13, 19, 14, 20, 15, 21, 16, 22, 17, 23};
    EXPECT_EQ(layout.pack(rowMajor), want);
}

TEST(LargestDivisor, PinnedResults)
{
    // The sqrt-enumeration rewrite must reproduce the old linear
    // scan exactly: the largest divisor of value that is <= cap.
    EXPECT_EQ(Compiler::largestDivisor(12, 5), 4u);
    EXPECT_EQ(Compiler::largestDivisor(13, 5), 1u);   // prime
    EXPECT_EQ(Compiler::largestDivisor(16, 16), 16u); // cap == value
    EXPECT_EQ(Compiler::largestDivisor(16, 100), 16u);
    EXPECT_EQ(Compiler::largestDivisor(100, 10), 10u);
    EXPECT_EQ(Compiler::largestDivisor(100, 9), 5u);
    EXPECT_EQ(Compiler::largestDivisor(36, 35), 18u);
    EXPECT_EQ(Compiler::largestDivisor(97, 96), 1u);  // prime, big cap
    EXPECT_EQ(Compiler::largestDivisor(1, 1), 1u);
    EXPECT_EQ(Compiler::largestDivisor(7, 0), 1u);    // degenerate cap
    // Perfect squares hit the d * d == value boundary.
    EXPECT_EQ(Compiler::largestDivisor(49, 48), 7u);
    EXPECT_EQ(Compiler::largestDivisor(49, 7), 7u);
    EXPECT_EQ(Compiler::largestDivisor(49, 6), 1u);
    // A paper-sized case: AlexNet 2x fc6 output dim.
    EXPECT_EQ(Compiler::largestDivisor(8192, 100), 64u);
}

TEST(LargestDivisor, MatchesLinearReference)
{
    for (std::uint64_t value = 1; value <= 400; ++value) {
        for (std::uint64_t cap : {std::uint64_t{1}, std::uint64_t{2},
                                  std::uint64_t{7}, std::uint64_t{19},
                                  value / 2, value}) {
            if (cap == 0)
                continue;
            std::uint64_t expect = 1;
            for (std::uint64_t d = std::min(cap, value); d >= 1; --d) {
                if (value % d == 0) {
                    expect = d;
                    break;
                }
            }
            ASSERT_EQ(Compiler::largestDivisor(value, cap), expect)
                << "value " << value << " cap " << cap;
        }
    }
}

} // namespace
} // namespace bitfusion
