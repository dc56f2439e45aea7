/**
 * @file
 * Compiled execution plans for Fusion-ISA blocks.
 *
 * The interpreter's reference walk (Interpreter::runLegacy) re-derives
 * everything per element: a recursive descent over the loop nest, a
 * std::map lookup per address term, a fresh BitBrick decomposition per
 * MAC, and resize churn on every transfer. An ExecPlan lowers a block
 * ONCE into a flat threaded-code program and executes it many times:
 *
 *  - the loop nest becomes a linear instruction stream with explicit
 *    LoopHead/LoopBack jumps, driven either by a portable switch loop
 *    or by computed-goto threaded dispatch (DispatchTier, see
 *    src/isa/dispatch.h);
 *  - every gen-addr expression is resolved to (loop depth, stride)
 *    terms evaluated against a dense iteration-counter array;
 *  - the compiler's innermost RdBuf/RdBuf/Mac reduction nest is
 *    recognized at lowering time, together with up to three enclosing
 *    output loops whose only body is the accumulator's RdBuf/WrBuf,
 *    and bound to an output-tile kernel (src/isa/exec_kernels.h)
 *    that executes the whole tile per dispatch -- including the
 *    16-bit and mixed-width configs the memo table cannot cover;
 *  - scratchpad sizes come from a static high-water analysis, so the
 *    hot loop never calls resize;
 *  - ld-mem / st-mem move whole rows through MemoryModel::load /
 *    store (one bounds check per row instead of per element);
 *  - for operand pairs of at most 8x8 bits the unfused MAC op reads a
 *    process-cached per-config product table whose entries equal the
 *    exact decomposeMultiply path (pinned exhaustively by
 *    tests/test_interp_plan.cc), so results AND the bitBrickOps /
 *    macs counters stay bit-identical to the reference walk.
 *
 * Plans are immutable after build() and safe to execute concurrently;
 * all run state lives on the caller's stack. The process-level
 * ArtifactCache (src/core/artifact_cache.h) caches one plan per
 * distinct block content, shared by tests, benches, and serving.
 */

#ifndef BITFUSION_ISA_EXEC_PLAN_H
#define BITFUSION_ISA_EXEC_PLAN_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/arch/fusion_config.h"
#include "src/isa/block.h"
#include "src/isa/dispatch.h"
#include "src/isa/exec_kernels.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"

namespace bitfusion {

/**
 * Memoized BitBrick products for one fusion configuration with both
 * operands at most 8 bits wide. products[(rawA << wBits) | rawW] is
 * exactly evaluateDecomposition(decomposeMultiply(a, w, cfg)) -- the
 * decomposition is an exact multiply for representable operands, so
 * the table is filled with native products and the equality is pinned
 * exhaustively by tests/test_interp_plan.cc -- and opsPerMac is the
 * (value-independent) decomposition size, so the memoized MAC path
 * reproduces the reference walk bit-for-bit.
 */
struct ProductTable
{
    unsigned aBits = 0;
    unsigned wBits = 0;
    /** BitBrick ops per MAC: aLanes x wLanes, value-independent. */
    std::uint64_t opsPerMac = 0;
    /** Representable operand ranges (the reference walk asserts). */
    std::int64_t aMin = 0, aMax = 0, wMin = 0, wMax = 0;
    /** Shifted-product sums, indexed by the raw operand encodings. */
    std::vector<std::int64_t> products;
};

/**
 * Process-level memo table for @p cfg, built on first use and shared
 * by every plan with that config; nullptr when either operand
 * exceeds 8 bits (the table would not fit).
 */
const ProductTable *productTableFor(const FusionConfig &cfg);

/** Process-level product-table cache traffic (monotonic). */
struct ProductTableCacheStats
{
    /** Tables built (one per distinct memoizable config, ever). */
    std::uint64_t builds = 0;
    /** Lookups served from an already-built table. */
    std::uint64_t hits = 0;
};

/** Snapshot of the product-table cache counters. */
ProductTableCacheStats productTableCacheStats();

/** One lowered, recursion-free Fusion-ISA block. See file docs. */
class ExecPlan
{
  public:
    /** Lower @p block into a plan. The block must validate(). */
    static std::shared_ptr<const ExecPlan>
    build(const InstructionBlock &block);

    /**
     * Content identity of a block: two blocks with equal keys lower
     * to interchangeable plans (the name is deliberately excluded).
     * This is the ArtifactCache's plan-cache key.
     */
    static std::string blockKey(const InstructionBlock &block);

    /**
     * Execute the plan on the process-default dispatch tier.
     * @p buffers are the interpreter's scratchpads: resized once to
     * the static high-water sizes and zero-filled, so the hot loop
     * never reallocates. Stats accumulate into @p stats exactly as
     * the reference walk would.
     */
    void execute(MemoryModel &memory, InterpStats &stats,
                 std::array<std::vector<std::int64_t>, 3> &buffers) const;

    /** Execute on an explicit dispatch tier (parity tests, benches). */
    void execute(MemoryModel &memory, InterpStats &stats,
                 std::array<std::vector<std::int64_t>, 3> &buffers,
                 DispatchTier tier) const;

    /** Static per-buffer size (elements) the plan executes within. */
    const std::array<std::uint64_t, 3> &
    bufferSizes() const
    {
        return bufSize_;
    }

    /**
     * One past the largest off-chip address any transfer can touch:
     * a MemoryModel of at least this size executes the plan without
     * tripping the bounds checks. Harness code (parity tests, the
     * perf bench) sizes synthetic memories from this.
     */
    std::uint64_t memoryExtent() const { return memExtent_; }

    /** Nest depth (number of loops). */
    unsigned depth() const { return static_cast<unsigned>(iters_.size()); }

    /** True when the unfused MAC path runs on the product table. */
    bool memoized() const { return memo_ != nullptr; }

    /**
     * True when the Specialized tier binds the innermost reduction
     * nest to a fused kernel (the Switch/Threaded tiers always run
     * the per-op program).
     */
    bool fused() const { return fused_.dims > 0; }

    /** Reduction loops the fused kernel covers (0 when unfused). */
    unsigned fusedDims() const { return fused_.dims; }

    /**
     * Output loops absorbed into the fused kernel: one dispatch then
     * computes a whole output tile (3 on the compiler's conv: toc,
     * oy, ox; 1 on FC/LSTM/RNN: oc; 0 when unfused or vetoed).
     */
    unsigned fusedOutDims() const { return fused_.outDims; }

    /** Fused-kernel identifier like "mac8u.8s" ("" when unfused). */
    const std::string &kernelName() const { return kernelName_; }

  private:
    ExecPlan() = default;

    /** One (loop depth, stride) address term. */
    struct AddrTerm
    {
        unsigned depth;
        std::uint64_t stride;
    };

    /** A fully resolved gen-addr expression for one (buffer, space). */
    struct AddrExpr
    {
        /** Constant part (the memory base for the Mem space). */
        std::uint64_t base = 0;
        /** Stride of the 2-D DMA row counter (addr_id::dmaRow). */
        std::uint64_t rowStride = 0;
        std::vector<AddrTerm> terms;
    };

    /** Lowered program operation. */
    enum class OpKind : std::uint8_t
    {
        LdMem = 0,
        StMem,
        SetRows,
        RdBuf,
        WrBuf,
        Mac,
        MaxOp,
        ReluQuant,
        Reset,
        /** Loop entry: reset the counter; jump past LoopBack when the
         *  trip count is zero. */
        LoopHead,
        /** Loop latch: bump the counter; jump to the loop top while
         *  iterations remain. */
        LoopBack,
        /** The fused reduction nest (Specialized program only). */
        FusedMac,
        /** End of program. */
        Halt,
    };
    static constexpr unsigned kOpKindCount = 13;

    struct CodeOp
    {
        OpKind kind;
        std::uint8_t buf = 0;
        /** Loop depth (LoopHead/LoopBack). */
        std::uint16_t loop = 0;
        /** Jump target (LoopHead: past the latch; LoopBack: top). */
        std::uint32_t target = 0;
        /** Words per row (transfers) or row count (set-rows). */
        std::uint64_t imm = 0;
        /** Relu-quant requantization shift. */
        unsigned shift = 0;
        /** Relu-quant output width (0 = no clamp). */
        unsigned outBits = 0;
        /** St-mem drain-path activation flag. */
        bool activate = false;
    };

    /** The fused output tile: everything static precomputed. */
    struct FusedNest
    {
        /** First loop the FusedMac op replaces: the outermost
         *  absorbed output loop, else the reduction's first loop. */
        unsigned firstLoop = 0;
        /** Reduction loops; dims == 0 means no nest was recognized. */
        unsigned dims = 0;
        /** Absorbed output loops (0: the op accumulates into regOut
         *  and the per-output RdBuf/WrBuf stay separate ops). */
        unsigned outDims = 0;
        /** Outputs and MACs per dispatch (0 MACs skips the op). */
        std::uint64_t outputs = 1;
        std::uint64_t total = 0;
        /** bitBrickOps per MAC (value-independent). */
        std::uint64_t opsPerMac = 0;
        /** Offset of the last element read (a, w) or written (o). */
        std::uint64_t lastOffA = 0, lastOffW = 0, lastOffO = 0;
        /** Outer-loop parts of the operand access expressions. */
        AddrExpr aOuter, wOuter, oOuter;
        /** Tile shape prototype (pointers patched per call). */
        MacTileArgs proto;
        MacTileFn kernel = nullptr;
    };

    /** Build-time view of one nest level's body: levels[l] runs
     *  inside loops 0..l-1 (levels[0] is the block prologue and
     *  epilogue). */
    struct Level
    {
        std::vector<CodeOp> pre;
        std::vector<CodeOp> post;
    };

    struct Runtime;

    /** Bind the recognized reduction nest starting at loop @p g,
     *  absorbing the output loops around it where allowed. */
    void bindFusedTile(const std::vector<Level> &levels, unsigned g);

    std::uint64_t evalMax(const AddrExpr &e) const;
    void transfer(const CodeOp &op, bool to_buffer, Runtime &rt) const;
    void doRdBuf(const CodeOp &op, Runtime &rt) const;
    void doWrBuf(const CodeOp &op, Runtime &rt) const;
    void doMac(Runtime &rt) const;
    void doMax(Runtime &rt) const;
    void doReluQuant(const CodeOp &op, Runtime &rt) const;
    void doReset(Runtime &rt) const;
    void doFusedMac(Runtime &rt) const;
    void runSwitch(const std::vector<CodeOp> &code, Runtime &rt) const;
    void runThreaded(const std::vector<CodeOp> &code, Runtime &rt) const;

    /** Iteration counts by loop depth. */
    std::vector<std::uint64_t> iters_;
    /** The lowered per-op program (Switch/Threaded tiers). */
    std::vector<CodeOp> code_;
    /** The program with the reduction nest fused (Specialized tier);
     *  empty when no nest was recognized (code_ runs instead). */
    std::vector<CodeOp> fusedCode_;
    FusedNest fused_;
    std::string kernelName_;
    /** exprs_[buffer][space]; see AddrSpace. */
    AddrExpr exprs_[3][3];
    /** Static high-water scratchpad sizes. */
    std::array<std::uint64_t, 3> bufSize_{0, 0, 0};
    /** Largest set-rows immediate (row bound of the 2-D DMAs). */
    std::uint64_t maxRows_ = 1;
    /** Static bound on off-chip addresses; see memoryExtent(). */
    std::uint64_t memExtent_ = 0;

    FusionConfig config_;
    unsigned actShift_ = 0;
    unsigned actOutBits_ = 0;
    /** Memoized MAC products; nullptr -> exact decomposition. */
    const ProductTable *memo_ = nullptr;
};

} // namespace bitfusion

#endif // BITFUSION_ISA_EXEC_PLAN_H
