#include "src/compiler/codegen.h"

#include <algorithm>

#include "src/common/bitutils.h"
#include "src/common/logging.h"

namespace bitfusion {

Compiler::Compiler(const AcceleratorConfig &cfg) : cfg(cfg), tiler(this->cfg)
{
    this->cfg.validate();
}

std::uint64_t
Compiler::largestDivisor(std::uint64_t value, std::uint64_t cap)
{
    // sqrt(value) divisor enumeration instead of the old linear scan
    // down from cap (which was O(value) per layer for prime-ish layer
    // dimensions). Divisors pair up as (d, value / d) with d <=
    // sqrt(value) <= value / d: the cofactors value / d shrink as d
    // grows, so the first cofactor <= cap is the answer; if no
    // cofactor qualifies the best small divisor <= cap wins.
    BF_ASSERT(value >= 1);
    if (cap >= value)
        return value;
    std::uint64_t best = 1;
    for (std::uint64_t d = 1; d * d <= value; ++d) {
        if (value % d != 0)
            continue;
        const std::uint64_t cofactor = value / d;
        if (cofactor <= cap)
            return cofactor;
        if (d <= cap)
            best = d;
    }
    return best;
}

InstructionBlock
Compiler::emitConv(const Layer &layer, const BlockBases &bases,
                   std::uint64_t out_tile, const ActFusion &act) const
{
    BF_ASSERT(layer.kind == LayerKind::Conv, "emitConv on non-conv layer");
    const unsigned icpg = layer.inC / layer.groups;
    const unsigned ocpg = layer.outC / layer.groups;
    const std::uint64_t toc = largestDivisor(ocpg, out_tile);
    const std::uint64_t hp = layer.inH + 2 * layer.pad;
    const std::uint64_t wp = layer.inW + 2 * layer.pad;
    const std::uint64_t oh = layer.outH(), ow = layer.outW();
    const std::uint64_t ohw = oh * ow;
    const std::uint64_t khw = static_cast<std::uint64_t>(layer.kH) *
                              layer.kW;

    InstructionBlock b;
    b.name = layer.name;
    b.config = layer.bits;
    b.baseAddr = {bases.input, bases.output, bases.weights};
    b.actShift = act.shift;
    b.actOutBits = act.outBits;

    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(layer.bits.aBits, layer.bits.wBits,
                                     layer.bits.aSigned,
                                     layer.bits.wSigned));

    // Loop nest (ids are nest positions): tg, tocg, oc, oy, ox, ic,
    // ky, kx. Six layer loops plus the two tiling loops -- the
    // "six ... increases to 12 after tiling" growth the paper
    // describes, halved here because the input stays resident.
    ins.push_back(Instruction::loop(0, layer.groups));
    ins.push_back(Instruction::loop(1, ocpg / toc));
    ins.push_back(Instruction::loop(2, toc));
    ins.push_back(Instruction::loop(3, oh));
    ins.push_back(Instruction::loop(4, ow));
    ins.push_back(Instruction::loop(5, icpg));
    ins.push_back(Instruction::loop(6, layer.kH));
    ins.push_back(Instruction::loop(7, layer.kW));

    // Address expressions (Eq. 4).
    const auto IB = BufferId::Ibuf;
    const auto OB = BufferId::Obuf;
    const auto WB = BufferId::Wbuf;
    const auto MEM = AddrSpace::Mem;
    const auto ACC = AddrSpace::BufAccess;
    // IBUF access: padded input element (tg*icpg + ic, oy*s + ky,
    // ox*s + kx).
    ins.push_back(Instruction::genAddr(IB, ACC, 0, icpg * hp * wp));
    ins.push_back(Instruction::genAddr(IB, ACC, 5, hp * wp));
    ins.push_back(Instruction::genAddr(IB, ACC, 3, layer.stride * wp));
    ins.push_back(Instruction::genAddr(IB, ACC, 6, wp));
    ins.push_back(Instruction::genAddr(IB, ACC, 4, layer.stride));
    ins.push_back(Instruction::genAddr(IB, ACC, 7, 1));
    // WBUF fill: weight tile of (toc x icpg x kH x kW), contiguous.
    ins.push_back(Instruction::genAddr(WB, MEM, 0, ocpg * icpg * khw));
    ins.push_back(Instruction::genAddr(WB, MEM, 1, toc * icpg * khw));
    // WBUF access within the tile.
    ins.push_back(Instruction::genAddr(WB, ACC, 2, icpg * khw));
    ins.push_back(Instruction::genAddr(WB, ACC, 5, khw));
    ins.push_back(Instruction::genAddr(WB, ACC, 6, layer.kW));
    ins.push_back(Instruction::genAddr(WB, ACC, 7, 1));
    // OBUF tile of toc output channels, contiguous in memory.
    ins.push_back(Instruction::genAddr(OB, MEM, 0, ocpg * ohw));
    ins.push_back(Instruction::genAddr(OB, MEM, 1, toc * ohw));
    ins.push_back(Instruction::genAddr(OB, ACC, 2, ohw));
    ins.push_back(Instruction::genAddr(OB, ACC, 3, ow));
    ins.push_back(Instruction::genAddr(OB, ACC, 4, 1));

    // Body. The whole (padded) input is loaded once.
    ins.push_back(Instruction::ldMem(IB, 0, layer.inC * hp * wp));
    ins.push_back(Instruction::ldMem(WB, 2, toc * icpg * khw));
    ins.push_back(Instruction::ldMem(OB, 2, toc * ohw));
    ins.push_back(Instruction::rdBuf(OB, 5));
    ins.push_back(Instruction::rdBuf(IB, 8));
    ins.push_back(Instruction::rdBuf(WB, 8));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 8));
    ins.push_back(Instruction::wrBuf(OB, 5, true));
    ins.push_back(Instruction::stMem(OB, 2, toc * ohw, true,
                                     act.enabled));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();
    return b;
}

std::vector<std::int64_t>
FcWeightLayout::pack(const std::vector<std::int64_t> &rowMajor) const
{
    BF_ASSERT(rowMajor.size() == ocTotal * icTotal,
              "fc weight image of ", rowMajor.size(), " words, expected ",
              ocTotal * icTotal);
    std::vector<std::int64_t> image(rowMajor.size());
    for (std::uint64_t oc = 0; oc < ocTotal; ++oc)
        for (std::uint64_t ic = 0; ic < icTotal; ++ic)
            image[offset(oc, ic)] = rowMajor[oc * icTotal + ic];
    return image;
}

FcWeightLayout
Compiler::fcWeightLayout(const Layer &layer, std::uint64_t out_tile,
                         std::uint64_t in_tile)
{
    const auto gemm = layer.gemmShape();
    FcWeightLayout l;
    l.ocTotal = gemm.m;
    l.icTotal = gemm.k;
    l.toc = largestDivisor(l.ocTotal, out_tile);
    l.tic = largestDivisor(l.icTotal, in_tile);
    return l;
}

InstructionBlock
Compiler::emitFc(const Layer &layer, const BlockBases &bases,
                 std::uint64_t out_tile, std::uint64_t in_tile,
                 const ActFusion &act) const
{
    // FC, RNN and LSTM all lower to a dense matrix-vector product
    // over (possibly concatenated) inputs.
    BF_ASSERT(layer.kind == LayerKind::FullyConnected ||
              layer.kind == LayerKind::Rnn ||
              layer.kind == LayerKind::Lstm,
              "emitFc on unsupported layer kind");
    const FcWeightLayout wl = fcWeightLayout(layer, out_tile, in_tile);
    const std::uint64_t oc_total = wl.ocTotal;
    const std::uint64_t ic_total = wl.icTotal;
    const std::uint64_t toc = wl.toc;
    const std::uint64_t tic = wl.tic;

    InstructionBlock b;
    b.name = layer.name;
    b.config = layer.bits;
    b.baseAddr = {bases.input, bases.output, bases.weights};
    b.actShift = act.shift;
    b.actOutBits = act.outBits;

    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(layer.bits.aBits, layer.bits.wBits,
                                     layer.bits.aSigned,
                                     layer.bits.wSigned));

    // Fig. 12(b): tiled, output-stationary nest.
    ins.push_back(Instruction::loop(0, oc_total / toc)); // t_oc
    ins.push_back(Instruction::loop(1, ic_total / tic)); // t_ic
    ins.push_back(Instruction::loop(2, toc));            // oc
    ins.push_back(Instruction::loop(3, tic));            // ic

    const auto IB = BufferId::Ibuf;
    const auto OB = BufferId::Obuf;
    const auto WB = BufferId::Wbuf;
    const auto MEM = AddrSpace::Mem;
    const auto ACC = AddrSpace::BufAccess;

    ins.push_back(Instruction::genAddr(IB, MEM, 1, tic));
    ins.push_back(Instruction::genAddr(IB, ACC, 3, 1));
    // Weight tile: toc x tic words stored contiguously, ic-major
    // (FcWeightLayout), so one ld-mem streams the whole tile and the
    // toc outputs of one ic step sit side by side in the buffer.
    ins.push_back(Instruction::genAddr(WB, MEM, 0, toc * ic_total));
    ins.push_back(Instruction::genAddr(WB, MEM, 1, toc * tic));
    ins.push_back(Instruction::genAddr(WB, ACC, 2, 1));
    ins.push_back(Instruction::genAddr(WB, ACC, 3, toc));
    ins.push_back(Instruction::genAddr(OB, MEM, 0, toc));
    ins.push_back(Instruction::genAddr(OB, ACC, 2, 1));

    ins.push_back(Instruction::ldMem(OB, 1, toc));
    ins.push_back(Instruction::ldMem(IB, 2, tic));
    ins.push_back(Instruction::ldMem(WB, 2, toc * tic));
    ins.push_back(Instruction::rdBuf(OB, 3));
    ins.push_back(Instruction::rdBuf(IB, 4));
    ins.push_back(Instruction::rdBuf(WB, 4));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 4));
    ins.push_back(Instruction::wrBuf(OB, 3, true));
    ins.push_back(Instruction::stMem(OB, 1, toc, true, act.enabled));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();
    return b;
}

InstructionBlock
Compiler::emitPool(const Layer &layer, const BlockBases &bases) const
{
    BF_ASSERT(layer.kind == LayerKind::Pool, "emitPool on non-pool layer");
    const std::uint64_t hw = static_cast<std::uint64_t>(layer.inH) *
                             layer.inW;
    const std::uint64_t oh = layer.outH(), ow = layer.outW();
    const std::uint64_t ohw = oh * ow;

    InstructionBlock b;
    b.name = layer.name;
    // Pooling compares whatever precision flows through; the config
    // only matters for operand footprints.
    b.config = layer.bits;
    b.baseAddr = {bases.input, bases.output, bases.weights};

    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(layer.bits.aBits, layer.bits.wBits,
                                     layer.bits.aSigned,
                                     layer.bits.wSigned));
    ins.push_back(Instruction::loop(0, layer.inC));
    ins.push_back(Instruction::loop(1, oh));
    ins.push_back(Instruction::loop(2, ow));
    ins.push_back(Instruction::loop(3, layer.kH));
    ins.push_back(Instruction::loop(4, layer.kW));

    const auto IB = BufferId::Ibuf;
    const auto OB = BufferId::Obuf;
    const auto ACC = AddrSpace::BufAccess;
    ins.push_back(Instruction::genAddr(IB, ACC, 0, hw));
    ins.push_back(Instruction::genAddr(IB, ACC, 1, layer.stride *
                                                       layer.inW));
    ins.push_back(Instruction::genAddr(IB, ACC, 3, layer.inW));
    ins.push_back(Instruction::genAddr(IB, ACC, 2, layer.stride));
    ins.push_back(Instruction::genAddr(IB, ACC, 4, 1));
    ins.push_back(Instruction::genAddr(OB, ACC, 0, ohw));
    ins.push_back(Instruction::genAddr(OB, ACC, 1, ow));
    ins.push_back(Instruction::genAddr(OB, ACC, 2, 1));

    ins.push_back(Instruction::ldMem(IB, 0, layer.inC * hw));
    ins.push_back(Instruction::compute(ComputeFn::Reset, 3));
    ins.push_back(Instruction::rdBuf(IB, 5));
    ins.push_back(Instruction::compute(ComputeFn::Max, 5));
    ins.push_back(Instruction::wrBuf(OB, 3, true));
    ins.push_back(Instruction::stMem(OB, 0, layer.inC * ohw, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();
    return b;
}

InstructionBlock
Compiler::emitActivation(const Layer &layer, const BlockBases &bases,
                         unsigned shift, unsigned out_bits) const
{
    BF_ASSERT(layer.kind == LayerKind::Activation,
              "emitActivation on non-activation layer");
    const std::uint64_t n = layer.inputCount();

    InstructionBlock b;
    b.name = layer.name;
    b.config = layer.bits;
    b.baseAddr = {bases.input, bases.output, bases.weights};

    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(layer.bits.aBits, layer.bits.wBits,
                                     layer.bits.aSigned,
                                     layer.bits.wSigned));
    ins.push_back(Instruction::loop(0, n));

    const auto IB = BufferId::Ibuf;
    const auto OB = BufferId::Obuf;
    ins.push_back(Instruction::genAddr(IB, AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::genAddr(OB, AddrSpace::BufAccess, 0, 1));

    ins.push_back(Instruction::ldMem(IB, 0, n));
    ins.push_back(Instruction::rdBuf(IB, 1));
    ins.push_back(Instruction::compute(
        ComputeFn::ReluQuant, 1,
        static_cast<unsigned>((out_bits << 8) | (shift & 0xff))));
    ins.push_back(Instruction::wrBuf(OB, 1, true));
    ins.push_back(Instruction::stMem(OB, 0, n, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();
    return b;
}

CompiledNetwork
Compiler::compile(const Network &net) const
{
    CompiledNetwork out;
    out.networkName = net.name();
    out.batch = cfg.batch;

    const auto &layers = net.layers();
    // Virtual bump allocator for memory bases (elements).
    std::uint64_t next_base = 0;
    auto alloc = [&next_base](std::uint64_t elems) {
        const std::uint64_t base = next_base;
        next_base += elems;
        return base;
    };

    for (std::size_t i = 0; i < layers.size(); ++i) {
        const Layer &layer = layers[i];
        LayerSchedule sched;
        sched.layer = layer;
        sched.usesMacArray = layer.usesMacArray();

        if (layer.usesMacArray()) {
            // Layer fusion: absorb a following activation, then a
            // following pool, into the drain path.
            std::size_t j = i;
            ActFusion act;
            if (cfg.layerFusion && j + 1 < layers.size() &&
                layers[j + 1].kind == LayerKind::Activation) {
                sched.fusedActivation = true;
                ++j;
            }
            if (cfg.layerFusion && j + 1 < layers.size() &&
                layers[j + 1].kind == LayerKind::Pool) {
                sched.fusedPool = true;
                ++j;
            }
            // Output precision after the fused drain path: the next
            // MAC layer's activation width, or 8 bits at the network
            // edge. Without a fused activation the raw 32-bit
            // partial sums go to DRAM.
            unsigned consumer_bits = 8;
            for (std::size_t k2 = j + 1; k2 < layers.size(); ++k2) {
                if (layers[k2].usesMacArray()) {
                    consumer_bits = layers[k2].bits.aBits;
                    break;
                }
            }
            sched.outBits = sched.fusedActivation ? consumer_bits : 32;
            if (sched.fusedActivation) {
                act.enabled = true;
                // Static requantization: keep the top consumer_bits
                // of a full-precision accumulator (shape only; the
                // shift does not affect timing).
                act.shift = 8;
                act.outBits = consumer_bits;
            }

            const auto gemm = layer.gemmShape();
            sched.m = gemm.m;
            sched.k = gemm.k;
            const bool spatial = layer.kind == LayerKind::Conv;
            sched.n = spatial ? gemm.n : 1;
            const std::uint64_t n_total =
                sched.n * static_cast<std::uint64_t>(cfg.batch);
            sched.tile = tiler.chooseTiles(sched.m, sched.k, n_total,
                                           layer.bits, sched.outBits);
            sched.outElems = layer.outputCount();
            if (sched.fusedPool) {
                const Layer &pool = layers[j];
                sched.outElems = pool.outputCount();
            }

            const std::uint64_t w_bits = layer.weightBits();
            const std::uint64_t i_bits = layer.inputCount() *
                                         layer.bits.aBits * cfg.batch;
            const std::uint64_t o_bits =
                sched.outElems * sched.outBits * cfg.batch;
            sched.order = tiler.chooseOrder(sched.tile, sched.m, sched.k,
                                            n_total,
                                            w_bits, i_bits, o_bits);

            BlockBases bases;
            const std::uint64_t hp = layer.inH + 2 * layer.pad;
            const std::uint64_t wpad = layer.inW + 2 * layer.pad;
            bases.input = alloc(layer.kind == LayerKind::Conv
                                    ? layer.inC * hp * wpad
                                    : layer.inputCount());
            bases.weights = alloc(layer.weightCount());
            bases.output = alloc(layer.outputCount());

            if (layer.kind == LayerKind::Conv) {
                sched.block = emitConv(layer, bases, sched.tile.mt, act);
            } else {
                sched.block =
                    emitFc(layer, bases, sched.tile.mt, sched.tile.kt,
                           act);
            }
            i = j; // skip fused layers
        } else if (layer.kind == LayerKind::Pool) {
            BlockBases bases;
            bases.input = alloc(layer.inputCount());
            bases.output = alloc(layer.outputCount());
            sched.outBits = layer.bits.aBits;
            sched.outElems = layer.outputCount();
            sched.block = emitPool(layer, bases);
        } else {
            BlockBases bases;
            bases.input = alloc(layer.inputCount());
            bases.output = alloc(layer.outputCount());
            sched.outBits = layer.bits.aBits;
            sched.outElems = layer.outputCount();
            sched.block = emitActivation(layer, bases, 8, 8);
        }
        out.schedules.push_back(std::move(sched));
    }
    return out;
}

} // namespace bitfusion
