/**
 * @file
 * Compiled-plan vs reference-walk interpreter parity.
 *
 * The ExecPlan fast path (src/isa/exec_plan.h) must be bit-identical
 * to Interpreter::runLegacy in everything observable -- final memory
 * contents and every InterpStats field (including bufHighWater and
 * bitBrickOps, which the plan derives from static analysis and the
 * memoized product table instead of executing the slow way) -- on
 * EVERY dispatch tier: the portable switch loop, computed-goto
 * threaded code, and the specialized program with the fused MAC-nest
 * kernels (src/isa/dispatch.h). This
 * suite checks that across the model zoo (shrunken to interpreter
 * scale, quantized and baseline variants), across randomized
 * compiler-emitted conv/fc blocks on every paper bitwidth config,
 * on randomized hand-built blocks that stress nest shapes the
 * compiler never emits (sparse loop ids, set-rows DMA, pooling and
 * activation ops at odd levels), and on a zero-trip nest (reachable
 * through decoded word streams, which bypass the builder's
 * nonzero-iterations assert). It also covers the memoized product
 * table directly and the plan cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/arch/decompose.h"
#include "src/common/bitutils.h"
#include "src/common/prng.h"
#include "src/compiler/codegen.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/tensor.h"
#include "src/isa/exec_kernels.h"
#include "src/isa/exec_plan.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"

namespace bitfusion {
namespace {

AcceleratorConfig
batch1Config()
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.batch = 1;
    return cfg;
}

/** Compare every InterpStats field with a named message. */
void
expectStatsEqual(const InterpStats &legacy, const InterpStats &plan,
                 const std::string &what)
{
    for (unsigned b = 0; b < 3; ++b) {
        EXPECT_EQ(legacy.dramLoadElems[b], plan.dramLoadElems[b])
            << what << " dramLoadElems[" << b << "]";
        EXPECT_EQ(legacy.dramStoreElems[b], plan.dramStoreElems[b])
            << what << " dramStoreElems[" << b << "]";
        EXPECT_EQ(legacy.bufReads[b], plan.bufReads[b])
            << what << " bufReads[" << b << "]";
        EXPECT_EQ(legacy.bufWrites[b], plan.bufWrites[b])
            << what << " bufWrites[" << b << "]";
        EXPECT_EQ(legacy.bufHighWater[b], plan.bufHighWater[b])
            << what << " bufHighWater[" << b << "]";
    }
    EXPECT_EQ(legacy.macs, plan.macs) << what << " macs";
    EXPECT_EQ(legacy.bitBrickOps, plan.bitBrickOps)
        << what << " bitBrickOps";
    EXPECT_EQ(legacy.auxOps, plan.auxOps) << what << " auxOps";
    EXPECT_TRUE(legacy == plan) << what << " InterpStats operator==";
}

void
expectMemoryEqual(const MemoryModel &a, const MemoryModel &b,
                  const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::uint64_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.read(i), b.read(i)) << what << " address " << i;
}

constexpr DispatchTier kAllTiers[kDispatchTierCount] = {
    DispatchTier::Switch, DispatchTier::Threaded,
    DispatchTier::Specialized};

/**
 * Run one block through the reference walk and through the compiled
 * plan on every dispatch tier, each on its own copy of @p seed; all
 * four executions must agree on stats and memory bit-for-bit.
 */
void
checkBlockParity(const InstructionBlock &block, const MemoryModel &seed,
                 const std::string &what)
{
    MemoryModel legacyMem = seed;
    Interpreter legacy(legacyMem);
    legacy.runLegacy(block);

    const auto plan = ExecPlan::build(block);
    for (DispatchTier tier : kAllTiers) {
        const std::string where =
            what + " [" + dispatchTierName(tier) + "]";
        MemoryModel planMem = seed;
        Interpreter interp(planMem);
        interp.run(*plan, tier);
        expectStatsEqual(legacy.stats(), interp.stats(), where);
        expectMemoryEqual(legacyMem, planMem, where);
    }
}

// ------------------------------------------------ model-zoo parity

/**
 * Shrink a zoo layer to interpreter scale while preserving its kind,
 * bitwidths, signedness, kernel, stride, padding, and groups -- the
 * properties the lowering actually branches on. Channel counts stay
 * multiples of the group count so the layer remains valid.
 */
Layer
shrinkLayer(const Layer &l)
{
    Layer s = l;
    const unsigned g = std::max(1u, l.groups);
    auto capChannels = [g](unsigned c, unsigned cap) {
        unsigned limit = std::max(g, cap - cap % g);
        unsigned v = std::min(c, limit);
        v -= v % g;
        return std::max(v, g);
    };
    switch (l.kind) {
      case LayerKind::Conv:
        s.inC = capChannels(l.inC, 8);
        s.outC = capChannels(l.outC, 8);
        s.inH = std::min(l.inH, std::max(l.kH, 6u));
        s.inW = std::min(l.inW, std::max(l.kW, 6u));
        break;
      case LayerKind::FullyConnected:
      case LayerKind::Rnn:
      case LayerKind::Lstm:
        s.inC = std::min(l.inC, 48u);
        s.outC = std::min(l.outC, 24u);
        break;
      case LayerKind::Pool:
        s.inC = std::min(l.inC, 6u);
        s.inH = std::min(l.inH, std::max(l.kH * 2, 8u));
        s.inW = std::min(l.inW, std::max(l.kW * 2, 8u));
        break;
      case LayerKind::Activation:
        s.inC = std::min(l.inC, 4u);
        s.inH = std::min(l.inH, 6u);
        s.inW = std::min(l.inW, 6u);
        break;
    }
    return s;
}

Network
shrinkNetwork(const Network &net)
{
    std::vector<Layer> layers;
    for (const Layer &l : net.layers())
        layers.push_back(shrinkLayer(l));
    return Network(net.name() + "-small", layers);
}

/**
 * Memory image for a compiled network: every block's input and
 * weight regions filled with representable random values (the
 * output regions stay zero; MAC blocks preload them as initial
 * accumulators, which needs no representability).
 */
MemoryModel
seedMemory(const CompiledNetwork &cn, unsigned seed)
{
    // The plans' static memory-extent analysis bounds every address
    // any block can touch (the gemm view of RNN/LSTM blocks reads
    // and writes more than the per-layer element counts suggest).
    std::uint64_t total = 0;
    for (const LayerSchedule &sched : cn.schedules)
        total = std::max(
            total, ExecPlan::build(sched.block)->memoryExtent());

    MemoryModel mem;
    mem.allocate(total);
    Prng prng(seed);
    for (const LayerSchedule &sched : cn.schedules) {
        const Layer &l = sched.layer;
        const auto &base = sched.block.baseAddr;
        const std::uint64_t inElems =
            l.kind == LayerKind::Conv
                ? static_cast<std::uint64_t>(l.inC) *
                      (l.inH + 2 * l.pad) * (l.inW + 2 * l.pad)
                : l.inputCount();
        for (std::uint64_t i = 0; i < inElems; ++i)
            mem.write(base[0] + i,
                      l.bits.aSigned ? prng.nextSigned(l.bits.aBits)
                                     : prng.nextUnsigned(l.bits.aBits));
        if (sched.usesMacArray) {
            for (std::uint64_t i = 0; i < l.weightCount(); ++i)
                mem.write(base[2] + i,
                          l.bits.wSigned
                              ? prng.nextSigned(l.bits.wBits)
                              : prng.nextUnsigned(l.bits.wBits));
        }
    }
    return mem;
}

TEST(PlanParity, ModelZooStatsAndMemoryIdentical)
{
    const Compiler compiler(batch1Config());
    unsigned seed = 100;
    for (const zoo::Benchmark &bench : zoo::all()) {
        for (const Network *variant :
             {&bench.quantized, &bench.baseline}) {
            const Network net = shrinkNetwork(*variant);
            const CompiledNetwork cn = compiler.compile(net);
            const MemoryModel seedMem = seedMemory(cn, ++seed);

            MemoryModel legacyMem = seedMem;
            Interpreter legacy(legacyMem);
            for (const LayerSchedule &sched : cn.schedules)
                legacy.runLegacy(sched.block);
            // The zoo exercises both MAC paths: memoized (<= 8x8)
            // and exact 16-bit fallback.
            EXPECT_GT(legacy.stats().macs, 0u) << net.name();

            for (DispatchTier tier : kAllTiers) {
                const std::string where = net.name() + " [" +
                                          dispatchTierName(tier) + "]";
                MemoryModel planMem = seedMem;
                Interpreter plan(planMem);
                for (const LayerSchedule &sched : cn.schedules)
                    plan.run(*ExecPlan::build(sched.block), tier);
                expectStatsEqual(legacy.stats(), plan.stats(), where);
                expectMemoryEqual(legacyMem, planMem, where);
            }
        }
    }
}

// --------------------------------------- compiler-emitted blocks

/** A compiler-emitted block and the memory image it runs on. */
struct BlockCase
{
    InstructionBlock block;
    BlockBases bases;
    MemoryModel mem;
};

/**
 * Emit @p layer as a conv block (output tile @p outTile, fused
 * activation) over random representable inputs and weights drawn
 * from @p seed; the padded input border stays zero.
 */
BlockCase
seededConv(const Layer &layer, unsigned seed, std::uint64_t outTile = 3)
{
    const FusionConfig &cfg = layer.bits;
    Prng prng(seed);
    Tensor input(layer.inC, layer.inH, layer.inW);
    input.fillRandom(prng, cfg.aBits, cfg.aSigned);
    Tensor weights(layer.weightCount());
    weights.fillRandom(prng, cfg.wBits, cfg.wSigned);

    BlockCase c;
    MemoryModel &mem = c.mem;
    const unsigned hp = layer.inH + 2 * layer.pad;
    const unsigned wp = layer.inW + 2 * layer.pad;
    c.bases.input =
        mem.allocate(static_cast<std::size_t>(layer.inC) * hp * wp);
    for (unsigned ch = 0; ch < layer.inC; ++ch)
        for (unsigned y = 0; y < layer.inH; ++y)
            for (unsigned x = 0; x < layer.inW; ++x)
                mem.write(c.bases.input +
                              (static_cast<std::uint64_t>(ch) * hp +
                               (y + layer.pad)) *
                                  wp +
                              (x + layer.pad),
                          input.at(ch, y, x));
    c.bases.weights = mem.allocate(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        mem.write(c.bases.weights + i, weights[i]);
    c.bases.output = mem.allocate(layer.outputCount());

    ActFusion act;
    act.enabled = true;
    act.shift = 3;
    act.outBits = 8;
    c.block = Compiler(batch1Config())
                  .emitConv(layer, c.bases, outTile, act);
    return c;
}

/**
 * Emit @p layer as an FC block (tiles @p outTile x @p inTile) over
 * random representable inputs and weights drawn from @p seed, the
 * weights written in the layout the block reads.
 */
BlockCase
seededFc(const Layer &layer, unsigned seed, std::uint64_t outTile,
         std::uint64_t inTile)
{
    const FusionConfig &cfg = layer.bits;
    Prng prng(seed);
    Tensor input(static_cast<std::size_t>(layer.inputCount()));
    input.fillRandom(prng, cfg.aBits, cfg.aSigned);
    Tensor weights(layer.weightCount());
    weights.fillRandom(prng, cfg.wBits, cfg.wSigned);
    const std::vector<std::int64_t> image =
        Compiler::fcWeightLayout(layer, outTile, inTile)
            .pack(weights.raw());

    BlockCase c;
    MemoryModel &mem = c.mem;
    c.bases.input = mem.allocate(input.size());
    for (std::size_t i = 0; i < input.size(); ++i)
        mem.write(c.bases.input + i, input[i]);
    c.bases.weights = mem.allocate(image.size());
    for (std::size_t i = 0; i < image.size(); ++i)
        mem.write(c.bases.weights + i, image[i]);
    c.bases.output = mem.allocate(layer.outputCount());
    c.block = Compiler(batch1Config())
                  .emitFc(layer, c.bases, outTile, inTile);
    return c;
}

TEST(PlanParity, RandomConvBlocksAllConfigs)
{
    const FusionConfig cfgs[] = {zoo::cfg1x1(), zoo::cfg2x2(),
                                 zoo::cfg4x1(), zoo::cfg4x4(),
                                 zoo::cfg8x8(), zoo::cfg16x16()};
    unsigned seed = 500;
    for (const FusionConfig &cfg : cfgs) {
        const BlockCase c = seededConv(
            Layer::conv("c", 4, 7, 7, 6, 3, 1, 1, cfg, 2), ++seed);
        checkBlockParity(c.block, c.mem, "conv " + cfg.toString());
    }
}

TEST(PlanParity, StridedAndGroupedConvTiles)
{
    // Strided rows take the gather path of the row kernel; wide
    // stride-1 rows take full vector blocks plus a masked tail; groups
    // move the tile's operand bases per group. Every shape must
    // absorb all three output loops and stay bit-identical.
    struct Shape
    {
        unsigned inC, in, outC, k, stride, pad, groups;
    };
    const Shape shapes[] = {
        {3, 39, 8, 11, 4, 0, 1}, // AlexNet conv1 style
        {4, 17, 6, 3, 2, 1, 1},
        {4, 17, 6, 3, 2, 1, 2},
        {6, 21, 6, 5, 1, 2, 3}, // 21-wide rows: 16 + 5
        {2, 14, 2, 3, 1, 1, 1}, // 14-wide rows: 3 vectors + 2 lanes
        {4, 9, 4, 1, 1, 0, 2},  // 1x1 grouped
    };
    const FusionConfig cfgs[] = {zoo::cfg8x8(), zoo::cfg4x1(),
                                 zoo::cfg16x16()};
    unsigned seed = 900;
    for (const Shape &sh : shapes) {
        for (const FusionConfig &cfg : cfgs) {
            const Layer layer =
                Layer::conv("c", sh.inC, sh.in, sh.in, sh.outC, sh.k,
                            sh.stride, sh.pad, cfg, sh.groups);
            const BlockCase c = seededConv(layer, ++seed, 2);
            const std::string what =
                "conv k" + std::to_string(sh.k) + " s" +
                std::to_string(sh.stride) + " g" +
                std::to_string(sh.groups) + " " + cfg.toString();
            const auto plan = ExecPlan::build(c.block);
            EXPECT_EQ(plan->fusedOutDims(), 3u) << what;
            checkBlockParity(c.block, c.mem, what);
        }
    }
}

TEST(PlanParity, RandomFcBlocksAllConfigs)
{
    const FusionConfig cfgs[] = {zoo::cfg1x1(), zoo::cfg2x2(),
                                 zoo::cfg4x1(), zoo::cfg4x4(),
                                 zoo::cfg8x8(), zoo::cfg16x16()};
    unsigned seed = 600;
    for (const FusionConfig &cfg : cfgs) {
        // 2 x 3 tiles of 5 x 8: each tile one contiguous weight DMA,
        // run on the row kernel with the operand roles swapped.
        const BlockCase c =
            seededFc(Layer::fc("f", 24, 10, cfg), ++seed, 5, 8);
        checkBlockParity(c.block, c.mem, "fc " + cfg.toString());
    }
}

// --------------------------------------------- randomized blocks

/**
 * Build a random valid block the compiler would never emit: sparse
 * loop ids, random per-level placement of transfers, set-rows 2-D
 * weight DMA, and a MAC or pooling body. Every rd-buf is covered by
 * a prior ld-mem fill, so both interpreter paths stay within their
 * bounds contracts.
 */
InstructionBlock
fuzzBlock(Prng &prng, MemoryModel &mem)
{
    const FusionConfig cfgs[] = {zoo::cfg1x1(), zoo::cfg2x2(),
                                 zoo::cfg4x1(), zoo::cfg4x4(),
                                 zoo::cfg8x8(), zoo::cfg16x16()};
    const FusionConfig cfg = cfgs[prng.below(6)];
    const unsigned depth = 1 + static_cast<unsigned>(prng.below(4));

    // Sparse, shuffled loop ids in [0, 48).
    std::vector<unsigned> ids;
    for (unsigned i = 0; i < 48; ++i)
        ids.push_back(i);
    for (unsigned i = 47; i > 0; --i)
        std::swap(ids[i], ids[prng.below(i + 1)]);
    ids.resize(depth);

    // 1..3 iterations each (the ISA forbids zero-trip loops).
    std::vector<std::uint64_t> iters(depth);
    for (unsigned d = 0; d < depth; ++d)
        iters[d] = 1 + prng.below(3);

    InstructionBlock b;
    b.name = "fuzz";
    b.config = cfg;
    b.actShift = static_cast<unsigned>(prng.below(4));
    b.actOutBits = prng.below(2) ? 8 : 0;

    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(cfg.aBits, cfg.wBits, cfg.aSigned,
                                     cfg.wSigned));
    for (unsigned d = 0; d < depth; ++d)
        ins.push_back(Instruction::loop(ids[d], iters[d]));

    const auto IB = BufferId::Ibuf;
    const auto OB = BufferId::Obuf;
    const auto WB = BufferId::Wbuf;
    const auto ACC = AddrSpace::BufAccess;
    const auto MEM = AddrSpace::Mem;
    const auto FILL = AddrSpace::BufFill;

    // The OBUF read/write level; IB/WB are read at the innermost
    // level, OB at obLevel (mirroring the compiler's accumulator
    // placement, but at a random height).
    const unsigned obLevel =
        1 + static_cast<unsigned>(prng.below(depth));

    // Access expressions: random (declared-loop, stride) terms whose
    // loops are active at the op's level.
    auto maxAddr = [&](unsigned buf) {
        std::uint64_t top = 0;
        for (const Instruction &inst : ins) {
            if (inst.op != Opcode::GenAddr ||
                inst.buffer() != static_cast<BufferId>(buf) ||
                inst.space() != ACC) {
                continue;
            }
            for (unsigned d = 0; d < depth; ++d)
                if (ids[d] == inst.id && iters[d] > 0)
                    top += (iters[d] - 1) * inst.fullImm();
        }
        return top;
    };
    auto emitAccess = [&](BufferId buf, unsigned level) {
        for (unsigned d = 0; d < level; ++d)
            if (prng.below(2))
                ins.push_back(Instruction::genAddr(
                    buf, ACC, ids[d], 1 + prng.below(3)));
    };
    emitAccess(IB, depth);
    emitAccess(WB, depth);
    emitAccess(OB, obLevel);

    const std::uint64_t ibufNeed =
        maxAddr(static_cast<unsigned>(IB)) + 1;
    const std::uint64_t obufNeed =
        maxAddr(static_cast<unsigned>(OB)) + 1;
    const std::uint64_t wbufAccessNeed =
        maxAddr(static_cast<unsigned>(WB)) + 1;

    // WBUF loads through a set-rows 2-D DMA; rows * words covers the
    // access range.
    const std::uint64_t wbRows = 1 + prng.below(3);
    const std::uint64_t wbWords = divCeil(wbufAccessNeed, wbRows);
    ins.push_back(
        Instruction::genAddr(WB, MEM, addr_id::dmaRow, wbWords));
    ins.push_back(
        Instruction::genAddr(WB, FILL, addr_id::dmaRow, wbWords));

    // Memory regions (base addresses via the shared bump model).
    const std::uint64_t ibufBase = mem.allocate(ibufNeed);
    const std::uint64_t obufBase = mem.allocate(obufNeed);
    const std::uint64_t wbufBase = mem.allocate(wbRows * wbWords);
    b.baseAddr = {ibufBase, obufBase, wbufBase};
    Prng fill(prng.next());
    for (std::uint64_t i = 0; i < ibufNeed; ++i)
        mem.write(ibufBase + i,
                  cfg.aSigned ? fill.nextSigned(cfg.aBits)
                              : fill.nextUnsigned(cfg.aBits));
    for (std::uint64_t i = 0; i < wbRows * wbWords; ++i)
        mem.write(wbufBase + i,
                  cfg.wSigned ? fill.nextSigned(cfg.wBits)
                              : fill.nextUnsigned(cfg.wBits));

    // Body: fills at a level above the reads, a MAC or pooling
    // reduction at the innermost level, a store on the way out.
    const unsigned ldLevel =
        static_cast<unsigned>(prng.below(obLevel + 1));
    ins.push_back(Instruction::ldMem(IB, ldLevel, ibufNeed));
    ins.push_back(Instruction::setRows(ldLevel, wbRows));
    ins.push_back(Instruction::ldMem(WB, ldLevel, wbWords));
    ins.push_back(Instruction::ldMem(OB, ldLevel, obufNeed));
    const bool pooling = prng.below(4) == 0;
    ins.push_back(Instruction::rdBuf(OB, obLevel));
    if (pooling) {
        ins.push_back(Instruction::compute(ComputeFn::Reset, obLevel));
        ins.push_back(Instruction::rdBuf(IB, depth));
        ins.push_back(Instruction::compute(ComputeFn::Max, depth));
    } else {
        ins.push_back(Instruction::rdBuf(IB, depth));
        ins.push_back(Instruction::rdBuf(WB, depth));
        ins.push_back(Instruction::compute(ComputeFn::Mac, depth));
    }
    ins.push_back(Instruction::wrBuf(OB, obLevel, true));
    ins.push_back(Instruction::stMem(OB, ldLevel, obufNeed, true,
                                     prng.below(2) != 0));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();
    return b;
}

TEST(PlanParity, FuzzedBlocks)
{
    Prng prng(20260731);
    unsigned tiles = 0;
    for (unsigned round = 0; round < 60; ++round) {
        MemoryModel mem;
        const InstructionBlock block = fuzzBlock(prng, mem);
        tiles += ExecPlan::build(block)->fusedOutDims() > 0 ? 1 : 0;
        checkBlockParity(block, mem,
                         "fuzz round " + std::to_string(round));
    }
    // The corpus must reach the output-tile kernels, aliased and
    // zero-stride accumulator addresses included.
    EXPECT_GT(tiles, 10u);
}

TEST(PlanParity, ZeroTripLoopRunsPrologueAndEpilogueOnly)
{
    // The Instruction::loop builder rejects zero iterations, but a
    // decoded word stream does not: a block arriving through
    // decodeWords can carry a zero-trip loop, and both paths must
    // agree (pre/post spans outside the loop still run; the body
    // and its stats never happen).
    InstructionBlock b;
    b.name = "zero-trip";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(3, 2));
    ins.push_back(Instruction::loop(7, 1)); // imm zeroed below
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 3, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 3, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Wbuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    // Zero the inner loop's iteration count the way a word stream
    // would deliver it.
    for (Instruction &inst : ins)
        if (inst.op == Opcode::Loop && inst.id == 7)
            inst.imm = 0;
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(4);
    mem.write(base + 0, 5);
    mem.write(base + 1, 7);
    b.baseAddr = {base, base + 2, base};
    checkBlockParity(b, mem, "zero-trip");

    // The inner body never ran: no MACs, no WBUF reads; the outer
    // level's rd/wr and the transfers did.
    MemoryModel planMem = mem;
    Interpreter interp(planMem);
    interp.run(*ExecPlan::build(b));
    EXPECT_EQ(interp.stats().macs, 0u);
    EXPECT_EQ(interp.stats().bufReads[2], 0u);
    EXPECT_EQ(interp.stats().bufReads[0], 2u);
    EXPECT_EQ(interp.stats().bufWrites[1], 2u);
    EXPECT_EQ(interp.stats().dramLoadElems[0], 2u);
    EXPECT_EQ(interp.stats().dramStoreElems[1], 2u);
}

TEST(PlanParity, UnknownComputeFnIsANoOpOnBothPaths)
{
    // fn() is a raw 3-bit field: a decoded word stream can carry
    // 4..7, which the reference walk's switch executes as a silent
    // no-op. The lowering must drop it the same way (and count
    // nothing), not execute garbage.
    InstructionBlock b;
    b.name = "unknown-fn";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 3));
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 3));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 1));
    Instruction bogus = Instruction::compute(ComputeFn::Mac, 1);
    bogus.spec = (bogus.spec & ~0x7u) | 0x5; // fn 5: undefined
    ins.push_back(bogus);
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 3, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(6);
    for (unsigned i = 0; i < 3; ++i)
        mem.write(base + i, i + 1);
    b.baseAddr = {base, base + 3, base};
    checkBlockParity(b, mem, "unknown-fn");

    MemoryModel planMem = mem;
    Interpreter interp(planMem);
    interp.run(*ExecPlan::build(b));
    EXPECT_EQ(interp.stats().macs, 0u);
    EXPECT_EQ(interp.stats().auxOps, 0u);
}

// ----------------------------------------------- plan internals

TEST(ExecPlanStatic, BufferSizesCoverDynamicHighWater)
{
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 96, 40, zoo::cfg8x8());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const InstructionBlock block = compiler.emitFc(layer, bases, 8, 16);

    const auto plan = ExecPlan::build(block);
    Interpreter interp(mem);
    interp.run(*plan);
    for (unsigned b = 0; b < 3; ++b)
        EXPECT_GE(plan->bufferSizes()[b],
                  interp.stats().bufHighWater[b])
            << "buffer " << b;
    EXPECT_TRUE(plan->memoized());
}

TEST(ExecPlanStatic, SixteenBitFallsBackToExactDecomposition)
{
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 8, 4, zoo::cfg16x16());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const auto plan =
        ExecPlan::build(compiler.emitFc(layer, bases, 4, 8));
    EXPECT_FALSE(plan->memoized());
}

// ------------------------------------------- fused-nest recognition

TEST(ExecPlanFusion, CompilerConvNestIsFused)
{
    const Compiler compiler(batch1Config());
    const Layer layer =
        Layer::conv("c", 4, 7, 7, 6, 3, 1, 1, zoo::cfg8x8(), 2);
    MemoryModel mem;
    BlockBases bases;
    const unsigned hp = layer.inH + 2 * layer.pad;
    const unsigned wp = layer.inW + 2 * layer.pad;
    bases.input =
        mem.allocate(static_cast<std::size_t>(layer.inC) * hp * wp);
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const auto plan =
        ExecPlan::build(compiler.emitConv(layer, bases, 3, ActFusion{}));
    // The conv reduction nest is icpg x kH x kW.
    EXPECT_TRUE(plan->fused());
    EXPECT_EQ(plan->fusedDims(), 3u);
    // One dispatch covers the whole toc x oh x ow output tile.
    EXPECT_EQ(plan->fusedOutDims(), 3u);
    EXPECT_EQ(plan->kernelName(), "mac8u.8s");
    EXPECT_TRUE(plan->memoized());
}

TEST(ExecPlanFusion, CompilerFcNestIsFusedOnEveryWidth)
{
    const Compiler compiler(batch1Config());
    auto fcPlan = [&](const FusionConfig &cfg) {
        const Layer layer = Layer::fc("f", 16, 6, cfg);
        MemoryModel mem;
        BlockBases bases;
        bases.input = mem.allocate(layer.inputCount());
        bases.weights = mem.allocate(layer.weightCount());
        bases.output = mem.allocate(layer.outputCount());
        return ExecPlan::build(compiler.emitFc(layer, bases, 4, 8));
    };

    const auto p8 = fcPlan(zoo::cfg8x8());
    EXPECT_TRUE(p8->fused());
    EXPECT_EQ(p8->fusedDims(), 1u);
    // The oc loop is absorbed; t_ic's level carries the tile DMAs.
    EXPECT_EQ(p8->fusedOutDims(), 1u);
    EXPECT_TRUE(p8->memoized());
    EXPECT_EQ(p8->kernelName(), "mac8u.8s");

    // 16-bit has no product table, but the fused kernel covers it:
    // the 1x legacy-speed fallback of earlier revisions is gone.
    const auto p16 = fcPlan(zoo::cfg16x16());
    EXPECT_TRUE(p16->fused());
    EXPECT_EQ(p16->fusedDims(), 1u);
    EXPECT_EQ(p16->fusedOutDims(), 1u);
    EXPECT_FALSE(p16->memoized());
    EXPECT_EQ(p16->kernelName(), "mac16s.16s");

    const auto p41 = fcPlan(zoo::cfg4x1());
    EXPECT_TRUE(p41->fused());
    EXPECT_EQ(p41->kernelName(), "mac4u.1u");
}

TEST(ExecPlanFusion, PoolingBodyIsNotFused)
{
    // A pooling reduction (Reset / rd-buf / Max) must not match the
    // MAC-nest pattern.
    InstructionBlock b;
    b.name = "pool";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 2));
    ins.push_back(Instruction::loop(1, 2));
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 2));
    ins.push_back(Instruction::ldMem(BufferId::Obuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Obuf, 1));
    ins.push_back(Instruction::compute(ComputeFn::Reset, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Max, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(4);
    mem.write(base + 0, 9);
    mem.write(base + 1, 4);
    b.baseAddr = {base, base + 2, base};

    const auto plan = ExecPlan::build(b);
    EXPECT_FALSE(plan->fused());
    EXPECT_EQ(plan->fusedDims(), 0u);
    EXPECT_EQ(plan->fusedOutDims(), 0u);
    EXPECT_EQ(plan->kernelName(), "");
    checkBlockParity(b, mem, "pool");
}

TEST(PlanParity, RegistersObservableAfterFusedNest)
{
    // An op outside the fused nest that reads the operand registers
    // (a MAC at the accumulator level) must see exactly the values
    // the last per-element body iteration would have left: the last
    // elements read from IBUF and WBUF.
    InstructionBlock b;
    b.name = "register-observer";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 2));
    ins.push_back(Instruction::loop(1, 3));
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Wbuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 3));
    ins.push_back(Instruction::ldMem(BufferId::Wbuf, 0, 3));
    ins.push_back(Instruction::ldMem(BufferId::Obuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Obuf, 1));
    // Observer: on the second outer iteration this MACs the register
    // values left by the first fused-nest dispatch.
    ins.push_back(Instruction::compute(ComputeFn::Mac, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Wbuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();

    MemoryModel mem;
    const std::uint64_t ib = mem.allocate(3);
    const std::uint64_t ob = mem.allocate(2);
    const std::uint64_t wb = mem.allocate(3);
    const std::int64_t acts[3] = {5, 2, 7};
    const std::int64_t wgts[3] = {3, -1, -4};
    for (unsigned i = 0; i < 3; ++i) {
        mem.write(ib + i, acts[i]);
        mem.write(wb + i, wgts[i]);
    }
    b.baseAddr = {ib, ob, wb};

    const auto plan = ExecPlan::build(b);
    EXPECT_TRUE(plan->fused());
    EXPECT_EQ(plan->fusedDims(), 1u);
    // The observer MAC shares the accumulator's level, so the output
    // loop stays outside the fused op.
    EXPECT_EQ(plan->fusedOutDims(), 0u);
    checkBlockParity(b, mem, "register-observer");

    // Spell the expectation out: output 1 is (regIn * regWgt after
    // nest 0) + the second nest, i.e. 7 * -4 + (5*3 + 2*-1 + 7*-4).
    MemoryModel specMem = mem;
    Interpreter interp(specMem);
    interp.run(*plan, DispatchTier::Specialized);
    EXPECT_EQ(specMem.read(ob + 0), 5 * 3 + 2 * -1 + 7 * -4);
    EXPECT_EQ(specMem.read(ob + 1),
              7 * -4 + (5 * 3 + 2 * -1 + 7 * -4));
}

TEST(PlanParity, ZeroTripFusedNestExecutesNothing)
{
    // A recognized MAC nest whose static trip count is zero (decoded
    // word streams can deliver zero-trip loops) must run no body at
    // all on any tier -- the specialized program simply omits the
    // fused op.
    InstructionBlock b;
    b.name = "zero-trip-fused";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 2));
    ins.push_back(Instruction::loop(1, 1)); // imm zeroed below
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Wbuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Wbuf, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Obuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Obuf, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Wbuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    for (Instruction &inst : ins)
        if (inst.op == Opcode::Loop && inst.id == 1)
            inst.imm = 0;
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(4);
    mem.write(base + 0, 11);
    b.baseAddr = {base, base + 2, base + 1};

    const auto plan = ExecPlan::build(b);
    EXPECT_TRUE(plan->fused());
    // The zero-trip reduction keeps its output loop unabsorbed: the
    // per-output rd-buf/wr-buf of the accumulator still run.
    EXPECT_EQ(plan->fusedOutDims(), 0u);
    checkBlockParity(b, mem, "zero-trip-fused");

    MemoryModel specMem = mem;
    Interpreter interp(specMem);
    interp.run(*plan, DispatchTier::Specialized);
    EXPECT_EQ(interp.stats().macs, 0u);
    EXPECT_EQ(interp.stats().bufReads[0], 0u);
    EXPECT_EQ(interp.stats().bufReads[2], 0u);
    EXPECT_EQ(interp.stats().bufReads[1], 2u);
    EXPECT_EQ(interp.stats().bufWrites[1], 2u);
}

/** (loop position, stride) term of a hand-built access expression. */
struct Term
{
    unsigned loop;
    std::uint64_t stride;
};

/**
 * A hand-built 8x8 MAC block: loops of @p iters (ids are positions),
 * the accumulator read and written back at level @p obLevel, operand
 * reads and the MAC at the innermost level, with the given access
 * terms. Each buffer is loaded once in the prologue from random
 * representable memory drawn from @p seed (random initial
 * accumulators) and stored back in the epilogue.
 */
InstructionBlock
handTile(const std::vector<std::uint64_t> &iters, unsigned obLevel,
         const std::vector<Term> &ib, const std::vector<Term> &wb,
         const std::vector<Term> &ob, unsigned seed, MemoryModel &mem)
{
    const FusionConfig cfg = zoo::cfg8x8();
    const auto IB = BufferId::Ibuf;
    const auto OB = BufferId::Obuf;
    const auto WB = BufferId::Wbuf;
    InstructionBlock b;
    b.name = "hand-tile";
    b.config = cfg;
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(cfg.aBits, cfg.wBits, cfg.aSigned,
                                     cfg.wSigned));
    for (unsigned d = 0; d < iters.size(); ++d)
        ins.push_back(Instruction::loop(d, iters[d]));
    auto access = [&](BufferId buf, const std::vector<Term> &terms) {
        std::uint64_t top = 0;
        for (const Term &t : terms) {
            ins.push_back(Instruction::genAddr(buf, AddrSpace::BufAccess,
                                               t.loop, t.stride));
            top += (iters[t.loop] - 1) * t.stride;
        }
        return top + 1;
    };
    const std::uint64_t ibN = access(IB, ib);
    const std::uint64_t wbN = access(WB, wb);
    const std::uint64_t obN = access(OB, ob);

    const std::uint64_t ibBase = mem.allocate(ibN);
    const std::uint64_t obBase = mem.allocate(obN);
    const std::uint64_t wbBase = mem.allocate(wbN);
    b.baseAddr = {ibBase, obBase, wbBase};
    Prng prng(seed);
    for (std::uint64_t i = 0; i < ibN; ++i)
        mem.write(ibBase + i, prng.nextUnsigned(cfg.aBits));
    for (std::uint64_t i = 0; i < wbN; ++i)
        mem.write(wbBase + i, prng.nextSigned(cfg.wBits));
    for (std::uint64_t i = 0; i < obN; ++i)
        mem.write(obBase + i, prng.nextSigned(20));

    const unsigned depth = static_cast<unsigned>(iters.size());
    ins.push_back(Instruction::ldMem(IB, 0, ibN));
    ins.push_back(Instruction::ldMem(WB, 0, wbN));
    ins.push_back(Instruction::ldMem(OB, 0, obN));
    ins.push_back(Instruction::rdBuf(OB, obLevel));
    ins.push_back(Instruction::rdBuf(IB, depth));
    ins.push_back(Instruction::rdBuf(WB, depth));
    ins.push_back(Instruction::compute(ComputeFn::Mac, depth));
    ins.push_back(Instruction::wrBuf(OB, obLevel, true));
    ins.push_back(Instruction::stMem(OB, 0, obN, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();
    return b;
}

TEST(PlanParity, AliasedOutputTiles)
{
    // Outputs whose accumulator addresses coincide (an Obuf stride of
    // 0 over an output loop) must add up as the sequential walk does:
    // each output's sum lands on the value the previous one wrote.
    struct Case
    {
        const char *what;
        std::vector<std::uint64_t> iters;
        unsigned obLevel;
        std::vector<Term> ib, wb, ob;
        unsigned outDims;
    };
    const Case cases[] = {
        // Row order (the weight is fixed along the row), and the
        // whole row adds into one accumulator.
        {"row, aliased row",
         {2, 5, 3},
         2,
         {{1, 1}, {2, 2}},
         {{0, 3}, {2, 1}},
         {{0, 1}},
         2},
        // Dot order (both operands move along the innermost output
        // loop), aliased over the outer output loop.
        {"dot, aliased outer loop",
         {3, 4, 5},
         2,
         {{1, 1}, {2, 1}},
         {{1, 5}, {2, 1}},
         {{1, 1}},
         2},
        // Swapped row order (the activation is fixed along the row,
        // as in FC tiles), aliased over the outer output loop.
        {"swapped row, aliased outer loop",
         {3, 4, 5},
         2,
         {{2, 1}},
         {{1, 5}, {2, 1}},
         {{1, 1}},
         2},
        // Three absorbed output loops, every output at address 0.
        {"row, one accumulator",
         {2, 3, 6, 4},
         3,
         {{0, 1}, {1, 2}, {2, 1}, {3, 1}},
         {{3, 1}},
         {},
         3},
    };
    unsigned seed = 70;
    for (const Case &c : cases) {
        MemoryModel mem;
        const InstructionBlock b =
            handTile(c.iters, c.obLevel, c.ib, c.wb, c.ob, ++seed, mem);
        const auto plan = ExecPlan::build(b);
        EXPECT_EQ(plan->fusedOutDims(), c.outDims) << c.what;
        checkBlockParity(b, mem, c.what);
    }
}

TEST(ExecPlanFusion, OutputAbsorptionStopsAtBusyLevels)
{
    // An output loop is absorbed only while the levels between it and
    // the reduction are empty: with a MAC next to the accumulator
    // read nothing is absorbed, and an op one level further out
    // stops absorption there.
    MemoryModel mem;
    InstructionBlock b = handTile({2, 3, 4}, 2, {{1, 1}, {2, 1}},
                                  {{2, 1}}, {{0, 3}, {1, 1}}, 80, mem);
    EXPECT_EQ(ExecPlan::build(b)->fusedOutDims(), 2u);

    InstructionBlock busy = b;
    auto &ins = busy.instructions;
    ins.insert(ins.end() - 1, Instruction::compute(ComputeFn::Max, 1));
    busy.validate();
    EXPECT_EQ(ExecPlan::build(busy)->fusedOutDims(), 1u);
    checkBlockParity(busy, mem, "busy level 1");

    InstructionBlock beside = b;
    beside.instructions.insert(beside.instructions.end() - 1,
                               Instruction::compute(ComputeFn::Max, 2));
    beside.validate();
    EXPECT_EQ(ExecPlan::build(beside)->fusedOutDims(), 0u);
    checkBlockParity(beside, mem, "op beside the accumulator");
}

using ExecPlanDeathTest = ::testing::Test;

TEST(ExecPlanDeathTest, SpecializedTierRejectsUnrepresentableWeight)
{
    // The fused kernel's range mask must reproduce the reference
    // walk's representability failure, not silently accumulate an
    // out-of-range operand.
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 8, 4, zoo::cfg8x8());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const InstructionBlock block = compiler.emitFc(layer, bases, 4, 8);
    const auto plan = ExecPlan::build(block);
    ASSERT_TRUE(plan->fused());

    // 200 does not fit 8-bit signed weights.
    mem.write(bases.weights, 200);
    Interpreter interp(mem);
    EXPECT_DEATH(interp.run(*plan, DispatchTier::Specialized),
                 "not representable");
}

/**
 * Run @p c on the reference walk and on the Specialized tier, whose
 * fused kernel covers @p outDims output loops; both must die with a
 * message matching @p pattern.
 */
void
expectSameDeath(const BlockCase &c, unsigned outDims,
                const std::string &pattern)
{
    const auto plan = ExecPlan::build(c.block);
    ASSERT_TRUE(plan->fused());
    ASSERT_EQ(plan->fusedOutDims(), outDims);
    EXPECT_DEATH(
        {
            MemoryModel mem = c.mem;
            Interpreter legacy(mem);
            legacy.runLegacy(c.block);
        },
        pattern);
    EXPECT_DEATH(
        {
            MemoryModel mem = c.mem;
            Interpreter interp(mem);
            interp.run(*plan, DispatchTier::Specialized);
        },
        pattern);
}

TEST(ExecPlanDeathTest, ConvTileRejectsOperandsOneStepOutOfRange)
{
    // One step past either end of each operand's range, activations
    // at a column inside a full vector block and at the last column
    // of a 21-wide stride-1 row (16 + 5 outputs), must fail like the
    // reference walk. Unsigned (8x8) and signed (16x16) activations.
    unsigned seed = 1000;
    for (const FusionConfig &cfg : {zoo::cfg8x8(), zoo::cfg16x16()}) {
        const Layer layer = Layer::conv("c", 2, 21, 21, 2, 3, 1, 1, cfg);
        const std::int64_t aMin =
            cfg.aSigned ? signedMin(cfg.aBits) : 0;
        const std::int64_t aMax = cfg.aSigned ? signedMax(cfg.aBits)
                                               : unsignedMax(cfg.aBits);
        const std::int64_t wMin =
            cfg.wSigned ? signedMin(cfg.wBits) : 0;
        const std::int64_t wMax = cfg.wSigned ? signedMax(cfg.wBits)
                                               : unsignedMax(cfg.wBits);
        const std::uint64_t wp = layer.inW + 2;
        const std::uint64_t hp = layer.inH + 2;
        for (std::int64_t bad : {aMax + 1, aMin - 1}) {
            for (std::uint64_t column : {4u, 20u}) {
                BlockCase c = seededConv(layer, ++seed);
                // Channel 1, row 5 (padded coordinates add 1).
                c.mem.write(c.bases.input + (1 * hp + 6) * wp + column + 1,
                            bad);
                expectSameDeath(c, 3,
                                "activation " + std::to_string(bad) +
                                    " not representable");
            }
        }
        for (std::int64_t bad : {wMax + 1, wMin - 1}) {
            BlockCase c = seededConv(layer, ++seed);
            c.mem.write(c.bases.weights + 7, bad);
            expectSameDeath(c, 3, "weight " + std::to_string(bad) +
                                      " not representable");
        }
    }
}

TEST(ExecPlanDeathTest, ConvTileReportsTheFirstOffenderInWalkOrder)
{
    // The kernel only flags a tile; the report re-walks it in the
    // reference order, so with two bad operands the one the walk
    // meets first names the panic.
    const Layer layer =
        Layer::conv("c", 2, 21, 21, 2, 3, 1, 1, zoo::cfg8x8());
    const std::uint64_t wp = layer.inW + 2;
    // Output (oc 0, 0, 0) reads input (ic 0, y 0, x 0) at reduction
    // step 4 and its last weight (index 17) at the final step.
    BlockCase act = seededConv(layer, 1100);
    act.mem.write(act.bases.input + 1 * wp + 1, 256);
    act.mem.write(act.bases.weights + 17, -129);
    expectSameDeath(act, 3, "activation 256 not representable");

    BlockCase wgt = seededConv(layer, 1101);
    wgt.mem.write(wgt.bases.input + 1 * wp + 1, 256);
    wgt.mem.write(wgt.bases.weights + 0, -129);
    expectSameDeath(wgt, 3, "weight -129 not representable");
}

TEST(ExecPlanDeathTest, FcTileRejectsOperandsOneStepOutOfRange)
{
    // FC tiles run on the row kernel with the operand roles swapped.
    // A weight in the last (t_oc, t_ic) tile, then an activation in
    // the last t_ic slice, one step past either end of its range,
    // must fail like the reference walk: 40 x 24 in 20 x 8 tiles, so
    // each weight row is one full 16-lane block plus a masked 4-lane
    // tail. Unsigned (8x8) and signed (16x16) activations.
    unsigned seed = 1200;
    for (const FusionConfig &cfg : {zoo::cfg8x8(), zoo::cfg16x16()}) {
        const Layer layer = Layer::fc("f", 24, 40, cfg);
        const FcWeightLayout layout =
            Compiler::fcWeightLayout(layer, 20, 8);
        ASSERT_EQ(layout.toc, 20u);
        ASSERT_EQ(layout.tic, 8u);
        const std::int64_t aMin =
            cfg.aSigned ? signedMin(cfg.aBits) : 0;
        const std::int64_t aMax = cfg.aSigned ? signedMax(cfg.aBits)
                                               : unsignedMax(cfg.aBits);
        const std::int64_t wMin =
            cfg.wSigned ? signedMin(cfg.wBits) : 0;
        const std::int64_t wMax = cfg.wSigned ? signedMax(cfg.wBits)
                                               : unsignedMax(cfg.wBits);
        // Weights in the last tile: in the vector block and in the
        // masked tail of a row.
        for (std::int64_t bad : {wMax + 1, wMin - 1}) {
            for (std::uint64_t oc : {21u, 39u}) {
                BlockCase c = seededFc(layer, ++seed, 20, 8);
                c.mem.write(c.bases.weights + layout.offset(oc, 19), bad);
                expectSameDeath(c, 1, "weight " + std::to_string(bad) +
                                          " not representable");
            }
        }
        // The last activation, read only by the last t_ic tiles.
        for (std::int64_t bad : {aMax + 1, aMin - 1}) {
            BlockCase c = seededFc(layer, ++seed, 20, 8);
            c.mem.write(c.bases.input + 23, bad);
            expectSameDeath(c, 1, "activation " + std::to_string(bad) +
                                      " not representable");
        }
    }
}

TEST(ExecPlanDeathTest, FcTileReportsTheFirstOffenderInWalkOrder)
{
    // The swapped kernel flags the tile; the report re-walks the
    // caller's unswapped tile, outputs outermost, so the pair the
    // reference walk meets first names the panic.
    const Layer layer = Layer::fc("f", 24, 40, zoo::cfg8x8());
    const FcWeightLayout layout = Compiler::fcWeightLayout(layer, 20, 8);
    // Both in tile (t_oc 0, t_ic 2): output 0 reads activation 23 at
    // its last step, before output 1 reads weight (1, 16) at its
    // first. The swapped, ic-major order would meet the weight first.
    BlockCase act = seededFc(layer, 1300, 20, 8);
    act.mem.write(act.bases.input + 23, 256);
    act.mem.write(act.bases.weights + layout.offset(1, 16), -129);
    expectSameDeath(act, 1, "activation 256 not representable");

    // Weight (0, 16) comes before activation 17 in output 0.
    BlockCase wgt = seededFc(layer, 1301, 20, 8);
    wgt.mem.write(wgt.bases.input + 17, 256);
    wgt.mem.write(wgt.bases.weights + layout.offset(0, 16), -129);
    expectSameDeath(wgt, 1, "weight -129 not representable");
}

// --------------------------------------------- tile kernels

/** Element offsets of every iteration of a nest, in walk order. */
std::vector<std::uint64_t>
nestOffsets(unsigned dims, const std::uint64_t *iters,
            const std::uint64_t *strides)
{
    std::vector<std::uint64_t> offs{0};
    for (unsigned d = 0; d < dims; ++d) {
        std::vector<std::uint64_t> next;
        for (std::uint64_t base : offs)
            for (std::uint64_t i = 0; i < iters[d]; ++i)
                next.push_back(base + i * strides[d]);
        offs = std::move(next);
    }
    return offs;
}

TEST(MacTileKernel, PortableAndAvx2AgreeOnRandomTiles)
{
    // The AVX2 kernels against the portable ones and the sequential
    // walk, on the same random tiles (dot-order tiles run the
    // portable kernel on both): row order (the weight fixed
    // along the innermost output loop, rows of 1..40 outputs: full
    // vector blocks and masked tails, unit-stride and gathered),
    // swapped row order (the activation fixed instead, weight rows at
    // stride 1, 2 or 4, as FC tiles run) and dot order (unit-stride
    // and strided), 1..3 output loops with aliased accumulators,
    // 1..4-deep reductions, operands at the range ends and, in every
    // third tile, one of either operand a step outside.
    if (!hostHasAvx2())
        GTEST_SKIP() << "the host CPU does not run AVX2";

    Prng prng(4242);
    unsigned rows = 0, swappedRows = 0;
    for (const FusionConfig &cfg :
         {zoo::cfg1x1(), zoo::cfg2x2(), zoo::cfg4x1(), zoo::cfg4x4(),
          zoo::cfg8x8(), zoo::cfg16x16()}) {
        MacTileArgs t;
        t.aMin = cfg.aSigned ? signedMin(cfg.aBits) : 0;
        t.aMax = cfg.aSigned ? signedMax(cfg.aBits)
                             : unsignedMax(cfg.aBits);
        t.wMin = cfg.wSigned ? signedMin(cfg.wBits) : 0;
        t.wMax = cfg.wSigned ? signedMax(cfg.wBits)
                             : unsignedMax(cfg.wBits);
        auto draw = [&prng](std::int64_t lo, std::int64_t hi) {
            switch (prng.below(4)) {
              case 0: return lo;
              case 1: return hi;
              default:
                return lo + static_cast<std::int64_t>(prng.below(
                                static_cast<std::uint64_t>(hi - lo) + 1));
            }
        };
        for (unsigned round = 0; round < 90; ++round) {
            const std::uint64_t steps[] = {0, 1, 1, 2, 4};
            t.outDims = 1 + static_cast<unsigned>(prng.below(3));
            t.dims = 1 + static_cast<unsigned>(prng.below(4));
            const unsigned last = t.outDims - 1;
            for (unsigned d = 0; d < t.outDims; ++d) {
                t.outIters[d] = d == last ? 1 + prng.below(40)
                                          : 1 + prng.below(3);
                t.aOut[d] = d == last ? steps[prng.below(5)]
                                      : prng.below(50);
                t.wOut[d] = prng.below(4);
                t.oOut[d] = prng.below(3);
            }
            // 0: weight fixed (row), 1: activation fixed (swapped
            // row), 2: neither (dot).
            const unsigned shape = static_cast<unsigned>(prng.below(3));
            if (shape == 0) {
                t.wOut[last] = 0;
            } else if (shape == 1) {
                t.aOut[last] = 0;
                t.wOut[last] = steps[2 + prng.below(3)];
            } else {
                t.aOut[last] = steps[1 + prng.below(4)];
                t.wOut[last] = 1 + prng.below(6);
            }
            rows += shape == 0 ? 1 : 0;
            swappedRows += shape == 1 ? 1 : 0;
            const bool unitDot = prng.below(2) == 0;
            for (unsigned d = 0; d < t.dims; ++d) {
                t.iters[d] = 1 + prng.below(d + 1 == t.dims ? 9 : 3);
                t.aStride[d] = unitDot ? 1 : prng.below(4);
                t.wStride[d] = unitDot ? 1 : 1 + prng.below(3);
            }

            // Every (output, reduction step) pair the tile reads, in
            // the reference walk's order.
            const auto aOut = nestOffsets(t.outDims, t.outIters, t.aOut);
            const auto wOut = nestOffsets(t.outDims, t.outIters, t.wOut);
            const auto oOut = nestOffsets(t.outDims, t.outIters, t.oOut);
            const auto aRed = nestOffsets(t.dims, t.iters, t.aStride);
            const auto wRed = nestOffsets(t.dims, t.iters, t.wStride);
            auto top = [](const std::vector<std::uint64_t> &v) {
                return *std::max_element(v.begin(), v.end());
            };
            // Exactly sized operands: an over-read shows under ASan.
            std::vector<std::int64_t> a(top(aOut) + top(aRed) + 1);
            std::vector<std::int64_t> w(top(wOut) + top(wRed) + 1);
            std::vector<std::int64_t> o(top(oOut) + 1);
            for (std::int64_t &v : a)
                v = draw(t.aMin, t.aMax);
            for (std::int64_t &v : w)
                v = draw(t.wMin, t.wMax);
            for (std::int64_t &v : o)
                v = static_cast<std::int64_t>(prng.next());

            const bool inject = round % 3 == 2;
            if (inject) {
                const std::uint64_t out = prng.below(aOut.size());
                const std::uint64_t red = prng.below(aRed.size());
                switch (prng.below(4)) {
                  case 0: a[aOut[out] + aRed[red]] = t.aMax + 1; break;
                  case 1: a[aOut[out] + aRed[red]] = t.aMin - 1; break;
                  case 2: w[wOut[out] + wRed[red]] = t.wMax + 1; break;
                  default: w[wOut[out] + wRed[red]] = t.wMin - 1; break;
                }
            }

            std::vector<std::int64_t> want = o;
            for (std::size_t i = 0; i < oOut.size(); ++i)
                for (std::size_t j = 0; j < aRed.size(); ++j)
                    want[oOut[i]] = static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(want[oOut[i]]) +
                        static_cast<std::uint64_t>(
                            a[aOut[i] + aRed[j]] *
                            w[wOut[i] + wRed[j]]));

            const char *shapeName[] = {" row", " swapped row", " dot"};
            const std::string what = cfg.toString() + " round " +
                                     std::to_string(round) +
                                     shapeName[shape];
            t.a = a.data();
            t.w = w.data();
            for (bool avx2 : {false, true}) {
                std::vector<std::int64_t> got = o;
                t.o = got.data();
                const MacTileFn kernel = macTileKernel(t, avx2);
                EXPECT_EQ(kernel(t), inject)
                    << what << (avx2 ? " avx2" : " portable");
                if (!inject) {
                    EXPECT_EQ(got, want)
                        << what << (avx2 ? " avx2" : " portable");
                }
            }
        }
    }
    EXPECT_GT(rows, 100u);
    EXPECT_GT(swappedRows, 100u);
}

// --------------------------------------------- dispatch tiers

TEST(DispatchTierTest, NamesParseRoundTrip)
{
    for (DispatchTier tier : kAllTiers) {
        DispatchTier parsed;
        ASSERT_TRUE(parseDispatchTier(dispatchTierName(tier), parsed))
            << dispatchTierName(tier);
        EXPECT_EQ(parsed, tier);
    }
    DispatchTier out;
    EXPECT_FALSE(parseDispatchTier("", out));
    EXPECT_FALSE(parseDispatchTier("fast", out));
    EXPECT_FALSE(parseDispatchTier("Switch", out));

    // The default is the top rung unless BITFUSION_DISPATCH says
    // otherwise (the CI parity jobs set it; a plain test run won't).
    if (std::getenv("BITFUSION_DISPATCH") == nullptr) {
        EXPECT_EQ(defaultDispatchTier(), DispatchTier::Specialized);
    }
}

TEST(ProductTable, MatchesExactDecomposition)
{
    for (const FusionConfig &cfg :
         {zoo::cfg1x1(), zoo::cfg2x2(), zoo::cfg4x1(), zoo::cfg4x4(),
          zoo::cfg8x8()}) {
        const ProductTable *table = productTableFor(cfg);
        ASSERT_NE(table, nullptr) << cfg.toString();
        // The decomposition size is value-independent.
        EXPECT_EQ(table->opsPerMac,
                  static_cast<std::uint64_t>(bitBrickLanes(cfg.aBits)) *
                      bitBrickLanes(cfg.wBits))
            << cfg.toString();
        // Exhaustive: every raw pair reproduces the exact path.
        for (std::uint64_t ra = 0; ra < (1ULL << cfg.aBits); ++ra) {
            const std::int64_t a =
                cfg.aSigned ? signExtend(ra, cfg.aBits)
                            : static_cast<std::int64_t>(ra);
            for (std::uint64_t rw = 0; rw < (1ULL << cfg.wBits);
                 ++rw) {
                const std::int64_t w =
                    cfg.wSigned ? signExtend(rw, cfg.wBits)
                                : static_cast<std::int64_t>(rw);
                const auto ops = decomposeMultiply(a, w, cfg);
                ASSERT_EQ(table->products[(ra << cfg.wBits) | rw],
                          evaluateDecomposition(ops))
                    << cfg.toString() << " a=" << a << " w=" << w;
                ASSERT_EQ(table->products[(ra << cfg.wBits) | rw],
                          a * w)
                    << cfg.toString() << " a=" << a << " w=" << w;
            }
        }
    }
    EXPECT_EQ(productTableFor(zoo::cfg16x16()), nullptr);
}

TEST(ProductTable, AllSignednessCombosMatchNativeProducts)
{
    // The memo entries are filled with native a*w; every signedness
    // combination must still equal the exact decomposition path.
    for (bool aSigned : {false, true}) {
        for (bool wSigned : {false, true}) {
            const FusionConfig cfg{4, 4, aSigned, wSigned};
            const ProductTable *table = productTableFor(cfg);
            ASSERT_NE(table, nullptr);
            for (std::uint64_t ra = 0; ra < 16; ++ra) {
                const std::int64_t a =
                    aSigned ? signExtend(ra, 4)
                            : static_cast<std::int64_t>(ra);
                for (std::uint64_t rw = 0; rw < 16; ++rw) {
                    const std::int64_t w =
                        wSigned ? signExtend(rw, 4)
                                : static_cast<std::int64_t>(rw);
                    const std::int64_t memo =
                        table->products[(ra << 4) | rw];
                    ASSERT_EQ(memo, a * w)
                        << cfg.toString() << " a=" << a << " w=" << w;
                    ASSERT_EQ(memo, evaluateDecomposition(
                                        decomposeMultiply(a, w, cfg)))
                        << cfg.toString() << " a=" << a << " w=" << w;
                }
            }
        }
    }
}

TEST(ProductTable, CacheCountersTrackBuildsAndHits)
{
    const ProductTableCacheStats s0 = productTableCacheStats();
    const ProductTable *first = productTableFor(zoo::cfg8x8());
    const ProductTableCacheStats s1 = productTableCacheStats();
    // Whether another test built this table already or not, the call
    // was one build or one hit -- never more.
    EXPECT_EQ((s1.builds - s0.builds) + (s1.hits - s0.hits), 1u);
    EXPECT_LE(s1.builds - s0.builds, 1u);

    const ProductTable *again = productTableFor(zoo::cfg8x8());
    const ProductTableCacheStats s2 = productTableCacheStats();
    EXPECT_EQ(again, first);
    EXPECT_EQ(s2.builds, s1.builds) << "table was rebuilt";
    EXPECT_EQ(s2.hits, s1.hits + 1);
}

TEST(WideConfigProducts, SampledPairsMatchExactDecomposition)
{
    // The configs with no product table run the fused kernel's
    // native multiply; this pins a*w == the BitBrick decomposition
    // on the 16-bit and mixed-width configs at the range corners and
    // on random samples.
    const FusionConfig cfgs[] = {FusionConfig{16, 16, true, true},
                                 FusionConfig{16, 16, false, false},
                                 FusionConfig{16, 8, true, true},
                                 FusionConfig{8, 16, false, true},
                                 FusionConfig{16, 4, true, false},
                                 FusionConfig{2, 16, false, true}};
    Prng prng(20260808);
    for (const FusionConfig &cfg : cfgs) {
        auto corners = [](unsigned bits, bool sgn) {
            return sgn ? std::vector<std::int64_t>{signedMin(bits), -1,
                                                   0, 1,
                                                   signedMax(bits)}
                       : std::vector<std::int64_t>{0, 1,
                                                   unsignedMax(bits)};
        };
        std::vector<std::int64_t> as = corners(cfg.aBits, cfg.aSigned);
        std::vector<std::int64_t> ws = corners(cfg.wBits, cfg.wSigned);
        for (unsigned i = 0; i < 24; ++i) {
            as.push_back(cfg.aSigned ? prng.nextSigned(cfg.aBits)
                                     : prng.nextUnsigned(cfg.aBits));
            ws.push_back(cfg.wSigned ? prng.nextSigned(cfg.wBits)
                                     : prng.nextUnsigned(cfg.wBits));
        }
        for (std::int64_t a : as) {
            for (std::int64_t w : ws) {
                ASSERT_EQ(a * w, evaluateDecomposition(
                                     decomposeMultiply(a, w, cfg)))
                    << cfg.toString() << " a=" << a << " w=" << w;
            }
        }
    }
}

// --------------------------------------------------- plan cache

TEST(PlanCache, SameContentSharesOneLowering)
{
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 16, 8, zoo::cfg8x8());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    InstructionBlock block = compiler.emitFc(layer, bases, 4, 8);

    ArtifactCache cache;
    const auto first = cache.plan(block);
    const auto again = cache.plan(block);
    EXPECT_EQ(first.get(), again.get());
    EXPECT_EQ(cache.planCount(), 1u);
    EXPECT_EQ(cache.planHitCount(), 1u);
    EXPECT_EQ(cache.planSize(), 1u);

    // The name is display-only: a renamed copy shares the plan.
    InstructionBlock renamed = block;
    renamed.name = "other";
    EXPECT_EQ(cache.plan(renamed).get(), first.get());
    EXPECT_EQ(cache.planCount(), 1u);

    // Different content (a shifted base address) lowers separately.
    InstructionBlock moved = block;
    moved.baseAddr[0] += 1;
    EXPECT_NE(ExecPlan::blockKey(moved), ExecPlan::blockKey(block));
    EXPECT_NE(cache.plan(moved).get(), first.get());
    EXPECT_EQ(cache.planCount(), 2u);

    cache.clear();
    EXPECT_EQ(cache.planCount(), 0u);
    EXPECT_EQ(cache.planSize(), 0u);
}

TEST(PlanCache, InjectedCacheIsolatesAccounting)
{
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 20, 10, zoo::cfg8x8());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const InstructionBlock block = compiler.emitFc(layer, bases, 5, 10);

    // A private cache sees exactly this interpreter's traffic, no
    // matter what other tests did to the process cache.
    ArtifactCache cache;
    Interpreter interp(mem, &cache);
    interp.run(block);
    interp.run(block);
    interp.run(block);
    EXPECT_EQ(cache.planCount(), 1u);
    EXPECT_EQ(cache.planHitCount(), 2u);
    EXPECT_EQ(cache.planSize(), 1u);
}

TEST(PlanCache, InterpreterRunUsesProcessCache)
{
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 12, 6, zoo::cfg4x4());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const InstructionBlock block = compiler.emitFc(layer, bases, 3, 6);

    ArtifactCache &cache = ArtifactCache::process();
    const std::size_t builds0 = cache.planCount();
    const std::size_t hits0 = cache.planHitCount();
    Interpreter interp(mem);
    interp.run(block);
    interp.run(block);
    EXPECT_EQ(cache.planCount() + cache.planHitCount(),
              builds0 + hits0 + 2);
    // The second run is served from the cache (the first may be a
    // hit too when another test already lowered this block).
    EXPECT_GE(cache.planHitCount(), hits0 + 1);
}

} // namespace
} // namespace bitfusion
