/**
 * @file
 * Output-tile MAC kernels for compiled execution plans.
 *
 * When ExecPlan::build recognizes the compiler's innermost
 * RdBuf/RdBuf/Mac reduction nest (see exec_plan.cc), it binds the
 * whole nest -- and, where the per-output RdBuf/WrBuf of the
 * accumulator allow it, up to kMaxOutDims enclosing output loops --
 * to one of these kernels instead of dispatching the body ops per
 * element. One kernel call then computes a whole output tile: every
 * output of the tile accumulates its reduction's product sum.
 *
 * Two loop orders, chosen at plan-build time from the strides:
 *
 *  - Row order, when one operand does not move along the innermost
 *    output loop. A row of outputs accumulates together: each
 *    reduction step broadcasts the fixed operand and reads the other
 *    along the row. Conv fixes the weight along the ox loop and reads
 *    activations (unit stride for stride-1 conv). FC/LSTM/RNN fix the
 *    activation along the oc loop; their tile-contiguous weights
 *    (FcWeightLayout) put the toc outputs of one ic step side by
 *    side, so the kernel swaps the operand roles -- pointers, strides
 *    and ranges -- and reads unit-stride weight rows. Products
 *    commute and each operand keeps its own range, so the sums and
 *    the bad-operand flag are the same either way.
 *  - Dot order otherwise: each output runs its reduction innermost
 *    as a dot product. No compiler-emitted block has this shape;
 *    it keeps hand-written blocks and single-output tiles exact.
 *
 * Bit-exactness contract: for every representable operand pair the
 * BitBrick decomposition is an exact radix-4 signed-digit multiply,
 * so evaluateDecomposition(decomposeMultiply(a, w, cfg)) == a * w.
 * The memoized ProductTable build asserts this exhaustively for
 * <= 8x8-bit configs and tests/test_interp_plan.cc pins it for the
 * 16-bit and mixed-width configs, so the kernels can use the native
 * multiplier while reproducing the reference walk bit-for-bit --
 * including the InterpStats counters, whose per-MAC decomposition
 * size is value-independent (aLanes x wLanes). Accumulation is
 * wraparound uint64, so summing in a different order than the
 * reference walk gives the same bits, and outputs are written back
 * as `out += acc`, so aliased output addresses still match the
 * sequential walk.
 *
 * Operands outside the configured representable range must fail
 * exactly like the reference walk (decomposeMultiply's assert).
 * Every representable range is [min, min + 2^bits - 1], so a kernel
 * ORs (v - min) over every operand it reads and tests the bits above
 * the range once per tile; on a hit the caller invokes
 * reportUnrepresentable, which re-walks the tile in the original
 * iteration order and routes the first offending pair through
 * decomposeMultiply for the identical panic.
 *
 * On x86 the row loop has an AVX2 variant, compiled with
 * `__attribute__((target("avx2")))` and picked at plan build when
 * the CPU reports AVX2; every other host, and dot-order tiles, run
 * the portable loops.
 */

#ifndef BITFUSION_ISA_EXEC_KERNELS_H
#define BITFUSION_ISA_EXEC_KERNELS_H

#include <cstdint>

#include "src/arch/fusion_config.h"

namespace bitfusion {

/** Upper bound on fused reduction-nest depth (deeper nests do not
 *  fuse and run on the general dispatch loop). */
constexpr unsigned kMaxFusedDims = 4;

/** Upper bound on the output loops one kernel call covers. */
constexpr unsigned kMaxOutDims = 3;

/**
 * One output tile. Base pointers are already offset for the
 * enclosing (non-fused) loop counters; trip counts and strides are
 * per dimension, outermost first. All trip counts are nonzero (the
 * caller skips empty tiles). With outDims == 0 the tile is a single
 * output at @c o[0].
 */
struct MacTileArgs
{
    const std::int64_t *a = nullptr;
    const std::int64_t *w = nullptr;
    std::int64_t *o = nullptr;
    /** Output loops: trip counts and the a, w and o strides. */
    unsigned outDims = 0;
    std::uint64_t outIters[kMaxOutDims] = {0, 0, 0};
    std::uint64_t aOut[kMaxOutDims] = {0, 0, 0};
    std::uint64_t wOut[kMaxOutDims] = {0, 0, 0};
    std::uint64_t oOut[kMaxOutDims] = {0, 0, 0};
    /** Reduction loops: trip counts and the a and w strides. */
    unsigned dims = 0;
    std::uint64_t iters[kMaxFusedDims] = {0, 0, 0, 0};
    std::uint64_t aStride[kMaxFusedDims] = {0, 0, 0, 0};
    std::uint64_t wStride[kMaxFusedDims] = {0, 0, 0, 0};
    /** Representable operand ranges. */
    std::int64_t aMin = 0, aMax = 0, wMin = 0, wMax = 0;
};

/**
 * Execute the tile: every output gets `o += sum of products` in
 * wraparound (mod 2^64) arithmetic. Returns true when some operand
 * was not representable; the outputs are then meaningless and the
 * caller must report through reportUnrepresentable.
 */
using MacTileFn = bool (*)(const MacTileArgs &args);

/**
 * Re-walk the tile in the reference walk's iteration order and fail
 * exactly like it on the first operand pair outside @p cfg's
 * representable range (decomposeMultiply's assert). Panics
 * unconditionally: only called when a kernel reported a bad operand.
 */
[[noreturn]] void reportUnrepresentable(const MacTileArgs &args,
                                        const FusionConfig &cfg);

/** True when the host CPU runs AVX2 (always false off x86). */
bool hostHasAvx2();

/**
 * Kernel for tiles shaped like @p shape (its pointers are ignored):
 * row or dot order from the strides, and the AVX2 row kernel when
 * @p avx2 is set and the host runs it. Never null. Plans pass
 * hostHasAvx2(); tests run both variants on the same tiles.
 */
MacTileFn macTileKernel(const MacTileArgs &shape, bool avx2);

} // namespace bitfusion

#endif // BITFUSION_ISA_EXEC_KERNELS_H
