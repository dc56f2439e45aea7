/**
 * @file
 * Fusion-ISA code generation.
 *
 * Emits one instruction block per layer (or fused layer group),
 * realizing the paper's block structure: setup / loop nest /
 * gen-addr address expressions / ld-st-rd-wr / compute / block-end,
 * with the tiling and loop-ordering optimizations of §IV-B applied.
 */

#ifndef BITFUSION_COMPILER_CODEGEN_H
#define BITFUSION_COMPILER_CODEGEN_H

#include <cstdint>
#include <vector>

#include "src/compiler/schedule.h"
#include "src/compiler/tiling.h"
#include "src/dnn/network.h"
#include "src/sim/config.h"

namespace bitfusion {

/** Memory bases an emitted block binds to. */
struct BlockBases
{
    std::uint64_t input = 0;
    std::uint64_t output = 0;
    std::uint64_t weights = 0;
};

/** Fused-activation parameters applied on the OBUF drain path. */
struct ActFusion
{
    bool enabled = false;
    /** Right shift applied during requantization. */
    unsigned shift = 0;
    /** Output bitwidth after requantization (0 = no clamp). */
    unsigned outBits = 0;
};

/**
 * Off-chip layout of an FC/LSTM/RNN weight image as emitFc reads it:
 * tile-contiguous and ic-major, [t_oc][t_ic][ic][oc], so each
 * toc x tic tile is one contiguous span a single ld-mem streams.
 * Weights are indexed by their row-major (oc, ic) position in the
 * layer's gemmShape() (m x k), the order src/dnn/reference.cc uses.
 * This is the only place that knows the layout: every loader writes
 * FC weights through it.
 */
struct FcWeightLayout
{
    std::uint64_t ocTotal = 0, icTotal = 0;
    /** Tile extents (divisors of ocTotal and icTotal). */
    std::uint64_t toc = 0, tic = 0;

    /** Offset of weight (oc, ic) from the weight base. */
    std::uint64_t
    offset(std::uint64_t oc, std::uint64_t ic) const
    {
        return (oc / toc) * toc * icTotal + (ic / tic) * toc * tic +
               (ic % tic) * toc + oc % toc;
    }

    /** The image of row-major [oc][ic] weights @p rowMajor. */
    std::vector<std::int64_t>
    pack(const std::vector<std::int64_t> &rowMajor) const;
};

/** The Bit Fusion compiler. */
class Compiler
{
  public:
    explicit Compiler(const AcceleratorConfig &cfg);

    /**
     * Compile a network: apply layer fusion, choose tiles and loop
     * orders, and emit one block per schedule. Memory bases are
     * assigned from a virtual bump allocator.
     */
    CompiledNetwork compile(const Network &net) const;

    // Block emitters (public so tests can wire blocks to a real
    // MemoryModel).

    /**
     * Convolution block. The input is expected stored padded:
     * (inC, inH + 2 pad, inW + 2 pad) row-major.
     * @p out_tile output channels kept per tile; must divide
     * outC/groups (the emitter shrinks it to the nearest divisor).
     */
    InstructionBlock emitConv(const Layer &layer, const BlockBases &bases,
                              std::uint64_t out_tile,
                              const ActFusion &act = {}) const;

    /**
     * Fully-connected block (Fig. 12(b) shape: tiled, output
     * stationary). @p out_tile / @p in_tile shrink to divisors of
     * outC / inC. Weights are read in fcWeightLayout()'s layout.
     */
    InstructionBlock emitFc(const Layer &layer, const BlockBases &bases,
                            std::uint64_t out_tile, std::uint64_t in_tile,
                            const ActFusion &act = {}) const;

    /** Weight layout of emitFc(@p layer, ..., @p out_tile, @p in_tile). */
    static FcWeightLayout fcWeightLayout(const Layer &layer,
                                         std::uint64_t out_tile,
                                         std::uint64_t in_tile);

    /** Max-pooling block (pooling unit). */
    InstructionBlock emitPool(const Layer &layer,
                              const BlockBases &bases) const;

    /** Activation block (activation unit): relu + requantize. */
    InstructionBlock emitActivation(const Layer &layer,
                                    const BlockBases &bases,
                                    unsigned shift,
                                    unsigned out_bits) const;

    const AcceleratorConfig &config() const { return cfg; }

    /**
     * Largest divisor of @p value that is <= @p cap (1 when @p cap
     * is 0). Runs a sqrt(value) divisor enumeration; public so the
     * unit tests can pin its results against a linear reference.
     */
    static std::uint64_t largestDivisor(std::uint64_t value,
                                        std::uint64_t cap);

  private:
    AcceleratorConfig cfg;
    Tiler tiler;
};

} // namespace bitfusion

#endif // BITFUSION_COMPILER_CODEGEN_H
