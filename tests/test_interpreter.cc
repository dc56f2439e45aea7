/**
 * @file
 * End-to-end functional verification: Fusion-ISA blocks emitted by
 * the compiler, executed by the interpreter (through the BitBrick
 * decomposition path), must reproduce the golden nested-loop
 * reference bit-exactly -- across layer kinds, bitwidths, strides,
 * padding, groups, tiling factors, and fused activations.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "src/compiler/codegen.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/reference.h"
#include "src/dnn/tensor.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"

namespace bitfusion {
namespace {

/** Write a CHW tensor into memory with zero padding. */
std::uint64_t
writePadded(MemoryModel &mem, const Tensor &t, unsigned pad)
{
    const unsigned hp = t.h() + 2 * pad;
    const unsigned wp = t.w() + 2 * pad;
    const std::uint64_t base =
        mem.allocate(static_cast<std::size_t>(t.c()) * hp * wp);
    for (unsigned c = 0; c < t.c(); ++c)
        for (unsigned y = 0; y < t.h(); ++y)
            for (unsigned x = 0; x < t.w(); ++x)
                mem.write(base +
                              (static_cast<std::uint64_t>(c) * hp +
                               (y + pad)) * wp + (x + pad),
                          t.at(c, y, x));
    return base;
}

std::uint64_t
writeFlat(MemoryModel &mem, const Tensor &t)
{
    const std::uint64_t base = mem.allocate(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        mem.write(base + i, t[i]);
    return base;
}

/**
 * Write row-major [oc][ic] FC/LSTM/RNN weights in the layout
 * emitFc(@p layer, ..., @p out_tile, @p in_tile) reads.
 */
std::uint64_t
writeFcWeights(MemoryModel &mem, const Layer &layer,
               std::uint64_t out_tile, std::uint64_t in_tile,
               const Tensor &weights)
{
    const std::vector<std::int64_t> image =
        Compiler::fcWeightLayout(layer, out_tile, in_tile)
            .pack(weights.raw());
    const std::uint64_t base = mem.allocate(image.size());
    for (std::size_t i = 0; i < image.size(); ++i)
        mem.write(base + i, image[i]);
    return base;
}

Compiler
testCompiler()
{
    return Compiler(AcceleratorConfig::eyerissMatched45());
}

/** Run a conv block through the interpreter and compare. */
void
checkConv(const Layer &layer, std::uint64_t out_tile, unsigned seed,
          const ActFusion &act = {})
{
    Prng prng(seed);
    Tensor input(layer.inC, layer.inH, layer.inW);
    input.fillRandom(prng, layer.bits.aBits, layer.bits.aSigned);
    Tensor weights(layer.weightCount());
    weights.fillRandom(prng, layer.bits.wBits, layer.bits.wSigned);

    MemoryModel mem;
    BlockBases bases;
    bases.input = writePadded(mem, input, layer.pad);
    bases.weights = writeFlat(mem, weights);
    bases.output = mem.allocate(layer.outputCount());

    const Compiler compiler = testCompiler();
    const InstructionBlock block =
        compiler.emitConv(layer, bases, out_tile, act);
    Interpreter interp(mem);
    interp.run(block);

    Tensor expect = Reference::conv(layer, input, weights);
    if (act.enabled) {
        expect = Reference::relu(expect);
        expect = Reference::requantize(expect, act.outBits, act.shift);
    }
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(mem.read(bases.output + i), expect[i])
            << layer.name << " output " << i;

    // MAC count conservation.
    EXPECT_EQ(interp.stats().macs, layer.macsPerSample());
}

void
checkFc(const Layer &layer, std::uint64_t out_tile,
        std::uint64_t in_tile, unsigned seed, const ActFusion &act = {})
{
    Prng prng(seed);
    Tensor input(static_cast<std::size_t>(layer.inC));
    input.fillRandom(prng, layer.bits.aBits, layer.bits.aSigned);
    Tensor weights(layer.weightCount());
    weights.fillRandom(prng, layer.bits.wBits, layer.bits.wSigned);

    MemoryModel mem;
    BlockBases bases;
    bases.input = writeFlat(mem, input);
    bases.weights = writeFcWeights(mem, layer, out_tile, in_tile, weights);
    bases.output = mem.allocate(layer.outC);

    const Compiler compiler = testCompiler();
    const InstructionBlock block =
        compiler.emitFc(layer, bases, out_tile, in_tile, act);
    Interpreter interp(mem);
    interp.run(block);

    Tensor expect = Reference::fullyConnected(layer, input, weights);
    if (act.enabled) {
        expect = Reference::relu(expect);
        expect = Reference::requantize(expect, act.outBits, act.shift);
    }
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(mem.read(bases.output + i), expect[i])
            << layer.name << " output " << i;
    EXPECT_EQ(interp.stats().macs, layer.macsPerSample());
}

TEST(InterpreterConv, BasicEightBit)
{
    checkConv(Layer::conv("c", 3, 8, 8, 8, 3, 1, 1, zoo::cfg8x8()), 4,
              1);
}

TEST(InterpreterConv, Binary)
{
    checkConv(Layer::conv("c", 4, 6, 6, 8, 3, 1, 1, zoo::cfg1x1()), 8,
              2);
}

TEST(InterpreterConv, TernaryWeights)
{
    checkConv(Layer::conv("c", 4, 7, 7, 6, 3, 1, 1, zoo::cfg2x2()), 2,
              3);
}

TEST(InterpreterConv, MixedFourOne)
{
    checkConv(Layer::conv("c", 5, 9, 9, 10, 3, 2, 0, zoo::cfg4x1()), 5,
              4);
}

TEST(InterpreterConv, SixteenBitSigned)
{
    checkConv(Layer::conv("c", 2, 5, 5, 4, 3, 1, 1, zoo::cfg16x16()), 4,
              5);
}

TEST(InterpreterConv, StridedNoPad)
{
    checkConv(Layer::conv("c", 3, 11, 11, 4, 3, 2, 0, zoo::cfg8x8()), 4,
              6);
}

TEST(InterpreterConv, LargeKernelWithPad)
{
    checkConv(Layer::conv("c", 2, 12, 12, 4, 5, 1, 2, zoo::cfg8x8()), 2,
              7);
}

TEST(InterpreterConv, GroupedConvolution)
{
    checkConv(Layer::conv("c", 8, 6, 6, 8, 3, 1, 1, zoo::cfg4x4(), 2),
              4, 8);
}

TEST(InterpreterConv, FourGroups)
{
    checkConv(Layer::conv("c", 8, 5, 5, 16, 3, 1, 1, zoo::cfg4x4(), 4),
              2, 9);
}

TEST(InterpreterConv, TileOfOne)
{
    checkConv(Layer::conv("c", 3, 6, 6, 5, 3, 1, 1, zoo::cfg8x8()), 1,
              10);
}

TEST(InterpreterConv, NonDividingTileShrinksToDivisor)
{
    // out_tile 7 against 10 output channels -> emitter picks 5.
    checkConv(Layer::conv("c", 3, 6, 6, 10, 3, 1, 1, zoo::cfg8x8()), 7,
              11);
}

TEST(InterpreterConv, FusedActivation)
{
    ActFusion act;
    act.enabled = true;
    act.shift = 4;
    act.outBits = 8;
    checkConv(Layer::conv("c", 3, 8, 8, 8, 3, 1, 1, zoo::cfg8x8()), 4,
              12, act);
}

TEST(InterpreterConv, OneByOneKernel)
{
    checkConv(Layer::conv("c", 6, 5, 5, 8, 1, 1, 0, zoo::cfg4x4()), 4,
              13);
}

TEST(InterpreterFc, BasicEightBit)
{
    checkFc(Layer::fc("f", 32, 16, zoo::cfg8x8()), 8, 8, 20);
}

TEST(InterpreterFc, Binary)
{
    checkFc(Layer::fc("f", 64, 10, zoo::cfg1x1()), 5, 16, 21);
}

TEST(InterpreterFc, FourFour)
{
    checkFc(Layer::fc("f", 48, 24, zoo::cfg4x4()), 6, 12, 22);
}

TEST(InterpreterFc, SixteenBit)
{
    checkFc(Layer::fc("f", 20, 12, zoo::cfg16x16()), 4, 5, 23);
}

TEST(InterpreterFc, DegenerateTiles)
{
    checkFc(Layer::fc("f", 16, 8, zoo::cfg8x8()), 1, 1, 24);
    checkFc(Layer::fc("f", 16, 8, zoo::cfg8x8()), 8, 16, 25);
}

TEST(InterpreterFc, FusedActivation)
{
    ActFusion act;
    act.enabled = true;
    act.shift = 2;
    act.outBits = 4;
    checkFc(Layer::fc("f", 32, 16, zoo::cfg8x8()), 4, 8, 26, act);
}

TEST(InterpreterFc, RnnCellAsConcatenatedFc)
{
    // The compiler lowers an RNN cell to an FC over [x; h]; the
    // reference computes the same pre-activation values with a
    // rearranged weight layout.
    const Layer rnn = Layer::rnn("r", 12, 10, zoo::cfg4x4());
    Prng prng(27);
    Tensor x(static_cast<std::size_t>(12)), h(static_cast<std::size_t>(10));
    x.fillRandom(prng, 4, false);
    h.fillRandom(prng, 4, false);
    Tensor weights(rnn.weightCount());
    weights.fillRandom(prng, 4, true);

    // Concatenated input and per-row [Wx | Wh] weights.
    Tensor cat(static_cast<std::size_t>(22));
    for (unsigned i = 0; i < 12; ++i)
        cat[i] = x[i];
    for (unsigned i = 0; i < 10; ++i)
        cat[12 + i] = h[i];
    Tensor wcat(rnn.weightCount());
    for (unsigned j = 0; j < 10; ++j) {
        for (unsigned i = 0; i < 12; ++i)
            wcat[j * 22 + i] = weights[j * 12 + i];
        for (unsigned i = 0; i < 10; ++i)
            wcat[j * 22 + 12 + i] = weights[120 + j * 10 + i];
    }

    MemoryModel mem;
    BlockBases bases;
    bases.input = writeFlat(mem, cat);
    bases.weights = writeFcWeights(mem, rnn, 5, 11, wcat);
    bases.output = mem.allocate(10);
    const Compiler compiler = testCompiler();
    const InstructionBlock block = compiler.emitFc(rnn, bases, 5, 11);
    Interpreter interp(mem);
    interp.run(block);

    const Tensor expect = Reference::rnnCell(rnn, x, h, weights);
    for (unsigned j = 0; j < 10; ++j) {
        // Reference applies relu; the raw block does not.
        const std::int64_t raw = mem.read(bases.output + j);
        EXPECT_EQ(std::max<std::int64_t>(raw, 0), expect[j]);
    }
}

TEST(InterpreterPool, MatchesReference)
{
    const Layer pool = Layer::pool("p", 4, 8, 8, 2, 2);
    Prng prng(30);
    Tensor input(4, 8, 8);
    input.fillRandom(prng, 8, false);

    MemoryModel mem;
    BlockBases bases;
    bases.input = writeFlat(mem, input);
    bases.output = mem.allocate(pool.outputCount());
    const Compiler compiler = testCompiler();
    Interpreter interp(mem);
    interp.run(compiler.emitPool(pool, bases));

    const Tensor expect = Reference::maxPool(pool, input);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(mem.read(bases.output + i), expect[i]);
}

TEST(InterpreterPool, OverlappingWindows)
{
    // AlexNet-style 3x3 stride-2 pooling.
    const Layer pool = Layer::pool("p", 2, 13, 13, 3, 2);
    Prng prng(31);
    Tensor input(2, 13, 13);
    input.fillRandom(prng, 8, true);

    MemoryModel mem;
    BlockBases bases;
    bases.input = writeFlat(mem, input);
    bases.output = mem.allocate(pool.outputCount());
    const Compiler compiler = testCompiler();
    Interpreter interp(mem);
    interp.run(compiler.emitPool(pool, bases));

    const Tensor expect = Reference::maxPool(pool, input);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(mem.read(bases.output + i), expect[i]);
}

TEST(InterpreterActivation, ReluRequantMatchesReference)
{
    const Layer act = Layer::activation("a", 3, 5, 5);
    Prng prng(32);
    Tensor input(3, 5, 5);
    input.fillRandom(prng, 16, true); // signed inputs exercise relu

    MemoryModel mem;
    BlockBases bases;
    bases.input = writeFlat(mem, input);
    bases.output = mem.allocate(act.outputCount());
    const Compiler compiler = testCompiler();
    Interpreter interp(mem);
    interp.run(compiler.emitActivation(act, bases, 3, 8));

    const Tensor expect =
        Reference::requantize(Reference::relu(input), 8, 3);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(mem.read(bases.output + i), expect[i]);
}

/** Random sweep across conv shapes and bitwidth configs. */
class InterpreterConvSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(InterpreterConvSweep, RandomLayerMatchesReference)
{
    const int cfg_idx = std::get<0>(GetParam());
    const int shape_idx = std::get<1>(GetParam());
    const FusionConfig cfgs[] = {zoo::cfg1x1(), zoo::cfg2x2(),
                                 zoo::cfg4x1(), zoo::cfg4x4(),
                                 zoo::cfg8x8(), zoo::cfg16x16()};
    struct Shape
    {
        unsigned c, h, oc, k, s, p, g;
    };
    const Shape shapes[] = {
        {3, 8, 6, 3, 1, 1, 1},  {4, 10, 8, 5, 2, 2, 1},
        {2, 6, 4, 1, 1, 0, 1},  {6, 7, 6, 3, 1, 0, 3},
        {8, 6, 12, 3, 2, 1, 4},
    };
    const Shape &s = shapes[shape_idx];
    checkConv(Layer::conv("sweep", s.c, s.h, s.h, s.oc, s.k, s.s, s.p,
                          cfgs[cfg_idx], s.g),
              3, 100 + cfg_idx * 8 + shape_idx);
}

INSTANTIATE_TEST_SUITE_P(Shapes, InterpreterConvSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 5)));

TEST(InterpreterStats, TracksTrafficAndOccupancy)
{
    const Layer fc = Layer::fc("f", 32, 16, zoo::cfg8x8());
    Prng prng(40);
    Tensor input(static_cast<std::size_t>(32));
    input.fillRandom(prng, 8, false);
    Tensor weights(fc.weightCount());
    weights.fillRandom(prng, 8, true);

    MemoryModel mem;
    BlockBases bases;
    bases.input = writeFlat(mem, input);
    bases.weights = writeFcWeights(mem, fc, 8, 16, weights);
    bases.output = mem.allocate(16);
    const Compiler compiler = testCompiler();
    Interpreter interp(mem);
    interp.run(compiler.emitFc(fc, bases, 8, 16));

    const InterpStats &st = interp.stats();
    // Weights loaded exactly once (each tile fetched once).
    EXPECT_EQ(st.dramLoadElems[static_cast<unsigned>(BufferId::Wbuf)],
              fc.weightCount());
    // Outputs stored exactly once.
    EXPECT_EQ(st.dramStoreElems[static_cast<unsigned>(BufferId::Obuf)],
              16u);
    // Every MAC reads one input and one weight from the buffers.
    EXPECT_EQ(st.bufReads[static_cast<unsigned>(BufferId::Ibuf)],
              fc.macsPerSample());
    EXPECT_EQ(st.bufReads[static_cast<unsigned>(BufferId::Wbuf)],
              fc.macsPerSample());
    EXPECT_EQ(st.macs, fc.macsPerSample());
    EXPECT_GT(st.bitBrickOps, 0u);
    // 8x8 -> 16 BitBrick ops per MAC.
    EXPECT_EQ(st.bitBrickOps, st.macs * 16);
}

} // namespace
} // namespace bitfusion
