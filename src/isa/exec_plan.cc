#include "src/isa/exec_plan.h"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

#include "src/arch/decompose.h"
#include "src/common/bitutils.h"
#include "src/common/logging.h"

// Threaded-code dispatch wants the GCC/Clang labels-as-values
// extension (&&label dispatch tables). Other compilers -- or a build
// with BITFUSION_NO_COMPUTED_GOTO defined -- run the Threaded tier
// on the portable switch loop instead; parity is unaffected, only
// dispatch cost.
#if defined(__GNUC__) && !defined(BITFUSION_NO_COMPUTED_GOTO)
#define BITFUSION_HAVE_COMPUTED_GOTO 1
#endif

namespace bitfusion {

// ------------------------------------------------------- product table

namespace {

/** Representable operand ranges for @p cfg. */
void
operandRanges(const FusionConfig &cfg, std::int64_t &aMin,
              std::int64_t &aMax, std::int64_t &wMin, std::int64_t &wMax)
{
    aMin = cfg.aSigned ? signedMin(cfg.aBits) : 0;
    aMax = cfg.aSigned ? signedMax(cfg.aBits) : unsignedMax(cfg.aBits);
    wMin = cfg.wSigned ? signedMin(cfg.wBits) : 0;
    wMax = cfg.wSigned ? signedMax(cfg.wBits) : unsignedMax(cfg.wBits);
}

ProductTable
buildProductTable(const FusionConfig &cfg)
{
    ProductTable t;
    t.aBits = cfg.aBits;
    t.wBits = cfg.wBits;
    operandRanges(cfg, t.aMin, t.aMax, t.wMin, t.wMax);
    // The decomposition size is value-independent (one BitBrick op
    // per digit pair); one exact call pins it.
    t.opsPerMac = decomposeMultiply(0, 0, cfg).size();
    // The table entries are native products: the BitBrick
    // decomposition is an exact multiply for every representable
    // operand pair, an equality tests/test_interp_plan.cc re-derives
    // exhaustively against decomposeMultiply for each paper config.
    // Filling with a*w instead of 2^(aBits+wBits) decomposition
    // evaluations cuts the one-time 8x8 build from ~15 ms to
    // microseconds (the BENCH_7 plan_build_ms satellite).
    const std::uint64_t aSpan = 1ULL << cfg.aBits;
    const std::uint64_t wSpan = 1ULL << cfg.wBits;
    t.products.resize(aSpan * wSpan, 0);
    for (std::uint64_t ra = 0; ra < aSpan; ++ra) {
        const std::int64_t a =
            cfg.aSigned ? signExtend(ra, cfg.aBits)
                        : static_cast<std::int64_t>(ra);
        for (std::uint64_t rw = 0; rw < wSpan; ++rw) {
            const std::int64_t w =
                cfg.wSigned ? signExtend(rw, cfg.wBits)
                            : static_cast<std::int64_t>(rw);
            t.products[(ra << cfg.wBits) | rw] = a * w;
        }
    }
    return t;
}

std::mutex &
tableMutex()
{
    static std::mutex mutex;
    return mutex;
}

ProductTableCacheStats &
tableStats()
{
    static ProductTableCacheStats stats;
    return stats;
}

} // namespace

const ProductTable *
productTableFor(const FusionConfig &cfg)
{
    cfg.validate();
    if (cfg.aBits > 8 || cfg.wBits > 8)
        return nullptr;

    using Key = std::tuple<unsigned, unsigned, bool, bool>;
    static std::map<Key, std::unique_ptr<ProductTable>> tables;

    const Key key{cfg.aBits, cfg.wBits, cfg.aSigned, cfg.wSigned};
    std::lock_guard<std::mutex> lock(tableMutex());
    auto &slot = tables[key];
    if (!slot) {
        slot = std::make_unique<ProductTable>(buildProductTable(cfg));
        ++tableStats().builds;
    } else {
        ++tableStats().hits;
    }
    return slot.get();
}

ProductTableCacheStats
productTableCacheStats()
{
    std::lock_guard<std::mutex> lock(tableMutex());
    return tableStats();
}

// ------------------------------------------------------------ lowering

std::string
ExecPlan::blockKey(const InstructionBlock &block)
{
    std::string key;
    key.reserve(64 + block.instructions.size() * 16);
    auto num = [&key](std::uint64_t v) {
        key += std::to_string(v);
        key += ',';
    };
    num(block.config.aBits);
    num(block.config.wBits);
    num(block.config.aSigned);
    num(block.config.wSigned);
    for (std::uint64_t base : block.baseAddr)
        num(base);
    num(block.actShift);
    num(block.actOutBits);
    key += '#';
    for (const Instruction &inst : block.instructions) {
        num(static_cast<unsigned>(inst.op));
        num(inst.id);
        num(inst.spec);
        num(inst.imm);
        num(inst.immHi);
    }
    return key;
}

std::uint64_t
ExecPlan::evalMax(const AddrExpr &e) const
{
    // Largest address the expression can produce over the whole nest;
    // a zero-trip loop's body never runs, so its term contributes 0.
    std::uint64_t addr = e.base;
    for (const AddrTerm &t : e.terms)
        if (iters_[t.depth] > 0)
            addr += (iters_[t.depth] - 1) * t.stride;
    return addr;
}

std::shared_ptr<const ExecPlan>
ExecPlan::build(const InstructionBlock &block)
{
    block.validate();
    std::shared_ptr<ExecPlan> plan(new ExecPlan);
    plan->config_ = block.config;
    plan->actShift_ = block.actShift;
    plan->actOutBits_ = block.actOutBits;
    plan->memo_ = productTableFor(block.config);

    // Loop ids -> nest depth (ids are 6-bit; dmaRow is a pseudo id).
    int idToDepth[64];
    std::fill(std::begin(idToDepth), std::end(idToDepth), -1);
    for (const Instruction &inst : block.instructions) {
        if (inst.op == Opcode::Loop) {
            idToDepth[inst.id] =
                static_cast<int>(plan->iters_.size());
            plan->iters_.push_back(inst.fullImm());
        }
    }
    const unsigned depth = static_cast<unsigned>(plan->iters_.size());

    // Pre/post body spans per nest level; the plan stores only the
    // linearized program.
    std::vector<Level> levels(depth + 1);

    for (const Instruction &inst : block.instructions) {
        switch (inst.op) {
          case Opcode::Setup:
          case Opcode::Loop:
          case Opcode::BlockEnd:
            break;
          case Opcode::GenAddr: {
            AddrExpr &e =
                plan->exprs_[static_cast<unsigned>(inst.buffer())]
                            [static_cast<unsigned>(inst.space())];
            if (inst.id == addr_id::dmaRow) {
                e.rowStride += inst.fullImm();
            } else {
                const int d = idToDepth[inst.id];
                BF_ASSERT(d >= 0, "gen-addr references loop ",
                          static_cast<int>(inst.id),
                          " outside the nest in ", block.name);
                e.terms.push_back(
                    {static_cast<unsigned>(d), inst.fullImm()});
            }
            break;
          }
          default: {
            const unsigned level = inst.id;
            BF_ASSERT(level < levels.size(),
                      "body level out of range in ", block.name);
            CodeOp op{};
            switch (inst.op) {
              case Opcode::LdMem:
                op.kind = OpKind::LdMem;
                op.buf = static_cast<std::uint8_t>(inst.buffer());
                op.imm = inst.fullImm();
                break;
              case Opcode::StMem:
                op.kind = OpKind::StMem;
                op.buf = static_cast<std::uint8_t>(inst.buffer());
                op.imm = inst.fullImm();
                op.activate = inst.isActivate();
                break;
              case Opcode::SetRows:
                op.kind = OpKind::SetRows;
                op.imm = inst.fullImm();
                plan->maxRows_ =
                    std::max<std::uint64_t>(plan->maxRows_, op.imm);
                break;
              case Opcode::RdBuf:
                op.kind = OpKind::RdBuf;
                op.buf = static_cast<std::uint8_t>(inst.buffer());
                break;
              case Opcode::WrBuf:
                op.kind = OpKind::WrBuf;
                op.buf = static_cast<std::uint8_t>(inst.buffer());
                break;
              case Opcode::Compute:
                switch (inst.fn()) {
                  case ComputeFn::Mac:
                    op.kind = OpKind::Mac;
                    break;
                  case ComputeFn::Max:
                    op.kind = OpKind::MaxOp;
                    break;
                  case ComputeFn::ReluQuant:
                    op.kind = OpKind::ReluQuant;
                    op.shift = inst.imm & 0xff;
                    op.outBits = (inst.imm >> 8) & 0xff;
                    break;
                  case ComputeFn::Reset:
                    op.kind = OpKind::Reset;
                    break;
                  default:
                    // fn() is a raw 3-bit field; a decoded word
                    // stream can carry 4..7, which the reference
                    // walk executes as a silent no-op. Lower it to
                    // nothing for bit-identical parity.
                    continue;
                }
                break;
              default:
                BF_PANIC("unexpected opcode in block body");
            }
            if (inst.isPost())
                levels[level].post.push_back(op);
            else
                levels[level].pre.push_back(op);
            break;
          }
        }
    }

    // Memory-side bases come from the block; buffer-side expressions
    // start at zero, exactly like the reference walk.
    for (unsigned b = 0; b < 3; ++b)
        plan->exprs_[b][static_cast<unsigned>(AddrSpace::Mem)].base =
            block.baseAddr[b];

    // Static high-water analysis: the largest address each buffer can
    // see through any transfer fill or any rd-buf/wr-buf access. The
    // row bound of 2-D transfers is the largest set-rows immediate
    // (conservative when a smaller set-rows reaches a transfer, which
    // only over-allocates; the dynamic bufHighWater stat stays exact).
    for (const Level &level : levels) {
        for (const auto *span : {&level.pre, &level.post}) {
            for (const CodeOp &op : *span) {
                if (op.kind == OpKind::LdMem ||
                    op.kind == OpKind::StMem) {
                    const AddrExpr &fill =
                        plan->exprs_[op.buf][static_cast<unsigned>(
                            AddrSpace::BufFill)];
                    const std::uint64_t need =
                        plan->evalMax(fill) +
                        (plan->maxRows_ - 1) * fill.rowStride + op.imm;
                    plan->bufSize_[op.buf] =
                        std::max(plan->bufSize_[op.buf], need);
                    const AddrExpr &mem =
                        plan->exprs_[op.buf][static_cast<unsigned>(
                            AddrSpace::Mem)];
                    plan->memExtent_ = std::max(
                        plan->memExtent_,
                        plan->evalMax(mem) +
                            (plan->maxRows_ - 1) * mem.rowStride +
                            op.imm);
                } else if (op.kind == OpKind::RdBuf ||
                           op.kind == OpKind::WrBuf) {
                    const AddrExpr &acc =
                        plan->exprs_[op.buf][static_cast<unsigned>(
                            AddrSpace::BufAccess)];
                    plan->bufSize_[op.buf] =
                        std::max(plan->bufSize_[op.buf],
                                 plan->evalMax(acc) + 1);
                }
            }
        }
    }

    // ------------------------------------------ fused-nest recognition
    //
    // The compiler's MAC reduction is an innermost body of exactly
    // {RdBuf(Ibuf), RdBuf(Wbuf)} (either order) followed by Mac,
    // wrapped in loops whose intermediate levels carry no other ops.
    // That whole sub-nest collapses into one FusedMac op bound to an
    // output-tile kernel. Fusion is vetoed when anything outside the
    // nest touches the operand buffers' counters or scratchpads in a
    // way the kernel would not reproduce:
    //  - another RdBuf/WrBuf on Ibuf/Wbuf outside the fused body
    //    (their addresses share the fused access expressions);
    //  - any other address expression referencing a fused loop (the
    //    fused program never advances those counters).
    // bindFusedTile then widens the op over enclosing output loops.
    const unsigned IBv = static_cast<unsigned>(BufferId::Ibuf);
    const unsigned WBv = static_cast<unsigned>(BufferId::Wbuf);
    const unsigned ACCv = static_cast<unsigned>(AddrSpace::BufAccess);
    if (depth > 0) {
        std::vector<CodeOp> body = levels[depth].pre;
        body.insert(body.end(), levels[depth].post.begin(),
                    levels[depth].post.end());
        const bool shape =
            body.size() == 3 && body[0].kind == OpKind::RdBuf &&
            body[1].kind == OpKind::RdBuf &&
            body[2].kind == OpKind::Mac &&
            ((body[0].buf == IBv && body[1].buf == WBv) ||
             (body[0].buf == WBv && body[1].buf == IBv));
        if (shape) {
            unsigned g = depth - 1;
            while (g > 0 && levels[g].pre.empty() &&
                   levels[g].post.empty())
                --g;
            if (depth - g > kMaxFusedDims)
                g = depth - kMaxFusedDims;

            bool ok = true;
            for (unsigned b = 0; b < 3 && ok; ++b) {
                for (unsigned s = 0; s < 3 && ok; ++s) {
                    if (s == ACCv && (b == IBv || b == WBv))
                        continue;
                    for (const AddrTerm &t : plan->exprs_[b][s].terms)
                        if (t.depth >= g)
                            ok = false;
                }
            }
            for (unsigned l = 0; l < depth && ok; ++l) {
                for (const auto *span : {&levels[l].pre,
                                         &levels[l].post}) {
                    for (const CodeOp &op : *span) {
                        if ((op.kind == OpKind::RdBuf ||
                             op.kind == OpKind::WrBuf) &&
                            (op.buf == IBv || op.buf == WBv))
                            ok = false;
                    }
                }
            }

            if (ok)
                plan->bindFusedTile(levels, g);
        }
    }

    // ------------------------------------------- program linearization
    //
    // The nest becomes a flat instruction stream: LoopHead resets the
    // counter and skips a zero-trip loop; LoopBack jumps to the loop
    // top while iterations remain. The fused program replaces loops
    // [firstLoop, depth) and the body with one FusedMac op (or
    // nothing, when the static trip count is zero -- the reference
    // walk would never reach the body either).
    auto emitProgram = [&](bool withFusion) {
        std::vector<CodeOp> code;
        auto emitSpan = [&code](const std::vector<CodeOp> &span) {
            code.insert(code.end(), span.begin(), span.end());
        };
        const unsigned cut = (withFusion && plan->fused_.dims > 0)
                                 ? plan->fused_.firstLoop
                                 : depth;
        emitSpan(levels[0].pre);
        std::vector<std::size_t> heads;
        for (unsigned d = 0; d < cut; ++d) {
            heads.push_back(code.size());
            CodeOp head{};
            head.kind = OpKind::LoopHead;
            head.loop = static_cast<std::uint16_t>(d);
            code.push_back(head);
            emitSpan(levels[d + 1].pre);
        }
        if (cut < depth && plan->fused_.total > 0) {
            CodeOp f{};
            f.kind = OpKind::FusedMac;
            code.push_back(f);
        }
        for (unsigned d = cut; d-- > 0;) {
            emitSpan(levels[d + 1].post);
            CodeOp back{};
            back.kind = OpKind::LoopBack;
            back.loop = static_cast<std::uint16_t>(d);
            back.target = static_cast<std::uint32_t>(heads[d] + 1);
            code.push_back(back);
            code[heads[d]].target =
                static_cast<std::uint32_t>(code.size());
        }
        emitSpan(levels[0].post);
        CodeOp halt{};
        halt.kind = OpKind::Halt;
        code.push_back(halt);
        return code;
    };
    plan->code_ = emitProgram(false);
    if (plan->fused_.dims > 0)
        plan->fusedCode_ = emitProgram(true);

    return plan;
}

void
ExecPlan::bindFusedTile(const std::vector<Level> &levels, unsigned g)
{
    const unsigned IBv = static_cast<unsigned>(BufferId::Ibuf);
    const unsigned WBv = static_cast<unsigned>(BufferId::Wbuf);
    const unsigned OBv = static_cast<unsigned>(BufferId::Obuf);
    const unsigned ACCv = static_cast<unsigned>(AddrSpace::BufAccess);
    FusedNest &f = fused_;
    f.dims = depth() - g;
    std::uint64_t reduction = 1;
    for (unsigned d = g; d < depth(); ++d)
        reduction *= iters_[d];

    // Output-loop absorption. The reduction's own level must be
    // exactly the accumulator's per-output read and write-back, and
    // nothing else may access Obuf (its access expression references
    // the absorbed loops, whose counters the fused program never
    // advances). A zero-trip reduction stays unabsorbed: its
    // per-output RdBuf/WrBuf still run. Each absorbed loop's own body
    // level must be empty (apart from the reduction's), and no Mem or
    // BufFill expression may reference it.
    auto accumulatorOnly = [&](const std::vector<CodeOp> &span,
                               OpKind kind) {
        return span.size() == 1 && span[0].kind == kind &&
               span[0].buf == OBv;
    };
    bool absorb = g > 0 && reduction > 0 &&
                  accumulatorOnly(levels[g].pre, OpKind::RdBuf) &&
                  accumulatorOnly(levels[g].post, OpKind::WrBuf);
    for (unsigned l = 0; l < g && absorb; ++l) {
        for (const auto *span : {&levels[l].pre, &levels[l].post}) {
            for (const CodeOp &op : *span) {
                if ((op.kind == OpKind::RdBuf ||
                     op.kind == OpKind::WrBuf) &&
                    op.buf == OBv)
                    absorb = false;
            }
        }
    }
    unsigned first = g;
    while (absorb && first > 0 && g - first < kMaxOutDims) {
        const unsigned loop = first - 1;
        const Level &body = levels[loop + 1];
        if (loop + 1 < g && (!body.pre.empty() || !body.post.empty()))
            break;
        bool referenced = false;
        for (unsigned b = 0; b < 3; ++b)
            for (AddrSpace sp : {AddrSpace::Mem, AddrSpace::BufFill})
                for (const AddrTerm &t :
                     exprs_[b][static_cast<unsigned>(sp)].terms)
                    referenced = referenced || t.depth == loop;
        if (referenced)
            break;
        first = loop;
    }
    f.firstLoop = first;
    f.outDims = g - first;

    MacTileArgs &p = f.proto;
    p.dims = f.dims;
    p.outDims = f.outDims;
    operandRanges(config_, p.aMin, p.aMax, p.wMin, p.wMax);
    // Split an access expression into the tile's output and
    // reduction strides and the outer part evaluated per dispatch.
    // (Obuf's expression references no reduction loop: any other
    // expression that does vetoes fusion outright.)
    auto split = [&](const AddrExpr &e, AddrExpr &outer,
                     std::uint64_t *out, std::uint64_t *red) {
        outer.base = e.base;
        for (const AddrTerm &t : e.terms) {
            if (t.depth >= g)
                red[t.depth - g] += t.stride;
            else if (t.depth >= first)
                out[t.depth - first] += t.stride;
            else
                outer.terms.push_back(t);
        }
    };
    split(exprs_[IBv][ACCv], f.aOuter, p.aOut, p.aStride);
    split(exprs_[WBv][ACCv], f.wOuter, p.wOut, p.wStride);
    if (f.outDims > 0) {
        std::uint64_t none[kMaxFusedDims] = {0, 0, 0, 0};
        split(exprs_[OBv][ACCv], f.oOuter, p.oOut, none);
    }

    // Strides are non-negative, so the last iteration touches the
    // largest address of every operand.
    for (unsigned d = 0; d < f.outDims; ++d) {
        const std::uint64_t it = iters_[first + d];
        p.outIters[d] = it;
        f.outputs *= it;
        if (it > 0) {
            f.lastOffA += (it - 1) * p.aOut[d];
            f.lastOffW += (it - 1) * p.wOut[d];
            f.lastOffO += (it - 1) * p.oOut[d];
        }
    }
    for (unsigned d = 0; d < f.dims; ++d) {
        const std::uint64_t it = iters_[g + d];
        p.iters[d] = it;
        if (it > 0) {
            f.lastOffA += (it - 1) * p.aStride[d];
            f.lastOffW += (it - 1) * p.wStride[d];
        }
    }
    f.total = f.outputs * reduction;
    f.kernel = macTileKernel(p, hostHasAvx2());
    f.opsPerMac = memo_ ? memo_->opsPerMac
                        : decomposeMultiply(0, 0, config_).size();
    kernelName_ = "mac" + std::to_string(config_.aBits) +
                  (config_.aSigned ? "s" : "u") + "." +
                  std::to_string(config_.wBits) +
                  (config_.wSigned ? "s" : "u");
}

// ----------------------------------------------------------- execution

struct ExecPlan::Runtime
{
    MemoryModel &memory;
    InterpStats &stats;
    std::array<std::vector<std::int64_t>, 3> &buffers;
    std::uint64_t *pos;
    std::uint64_t pendingRows = 1;
    std::int64_t regIn = 0, regWgt = 0, regOut = 0;
    std::vector<std::int64_t> row{}; ///< activation drain scratch
};

void
ExecPlan::transfer(const CodeOp &op, bool to_buffer, Runtime &rt) const
{
    const unsigned b = op.buf;
    const std::uint64_t words = op.imm;
    const std::uint64_t rows = rt.pendingRows;
    rt.pendingRows = 1;
    if (rows == 0)
        return;

    const AddrExpr &mem_e =
        exprs_[b][static_cast<unsigned>(AddrSpace::Mem)];
    const AddrExpr &fill_e =
        exprs_[b][static_cast<unsigned>(AddrSpace::BufFill)];
    std::uint64_t mem0 = mem_e.base;
    for (const AddrTerm &t : mem_e.terms)
        mem0 += rt.pos[t.depth] * t.stride;
    std::uint64_t buf0 = fill_e.base;
    for (const AddrTerm &t : fill_e.terms)
        buf0 += rt.pos[t.depth] * t.stride;

    auto &store = rt.buffers[b];
    // The fill range is inside the static high-water size; the stat
    // itself tracks the dynamically reached mark (bit-identical to
    // the reference walk's per-row maximum: row strides are
    // non-negative, so the last row is the high-water row).
    const std::uint64_t top =
        buf0 + (rows - 1) * fill_e.rowStride + words;
    BF_ASSERT(top <= store.size(), "transfer beyond planned size");
    rt.stats.bufHighWater[b] =
        std::max<std::uint64_t>(rt.stats.bufHighWater[b], top);

    if (words > 0) {
        const bool activate = !to_buffer && op.activate;
        if (activate && rt.row.size() < words)
            rt.row.resize(words);
        for (std::uint64_t r = 0; r < rows; ++r) {
            if (to_buffer) {
                rt.memory.load(mem0, words, &store[buf0]);
            } else if (activate) {
                // Activation unit on the drain path (Fig. 3): relu
                // then requantize, per element, into the row scratch.
                for (std::uint64_t kk = 0; kk < words; ++kk) {
                    std::int64_t v = store[buf0 + kk];
                    v = std::max<std::int64_t>(v, 0) >> actShift_;
                    if (actOutBits_)
                        v = clampUnsigned(v, actOutBits_);
                    rt.row[kk] = v;
                }
                rt.memory.store(mem0, words, rt.row.data());
                rt.stats.auxOps += words;
            } else {
                rt.memory.store(mem0, words, &store[buf0]);
            }
            mem0 += mem_e.rowStride;
            buf0 += fill_e.rowStride;
        }
    }
    if (to_buffer)
        rt.stats.dramLoadElems[b] += rows * words;
    else
        rt.stats.dramStoreElems[b] += rows * words;
}

inline void
ExecPlan::doRdBuf(const CodeOp &op, Runtime &rt) const
{
    const AddrExpr &e =
        exprs_[op.buf][static_cast<unsigned>(AddrSpace::BufAccess)];
    std::uint64_t addr = e.base;
    for (const AddrTerm &t : e.terms)
        addr += rt.pos[t.depth] * t.stride;
    const auto &store = rt.buffers[op.buf];
    BF_ASSERT(addr < store.size(), "rd-buf beyond planned size");
    const std::int64_t v = store[addr];
    switch (static_cast<BufferId>(op.buf)) {
      case BufferId::Ibuf: rt.regIn = v; break;
      case BufferId::Wbuf: rt.regWgt = v; break;
      case BufferId::Obuf: rt.regOut = v; break;
    }
    ++rt.stats.bufReads[op.buf];
}

inline void
ExecPlan::doWrBuf(const CodeOp &op, Runtime &rt) const
{
    const AddrExpr &e =
        exprs_[op.buf][static_cast<unsigned>(AddrSpace::BufAccess)];
    std::uint64_t addr = e.base;
    for (const AddrTerm &t : e.terms)
        addr += rt.pos[t.depth] * t.stride;
    auto &store = rt.buffers[op.buf];
    BF_ASSERT(addr < store.size(), "wr-buf beyond planned size");
    store[addr] = rt.regOut;
    rt.stats.bufHighWater[op.buf] = std::max<std::uint64_t>(
        rt.stats.bufHighWater[op.buf], addr + 1);
    ++rt.stats.bufWrites[op.buf];
}

inline void
ExecPlan::doMac(Runtime &rt) const
{
    if (memo_) {
        BF_ASSERT(rt.regIn >= memo_->aMin && rt.regIn <= memo_->aMax,
                  "activation ", rt.regIn, " not representable in ",
                  memo_->aBits, "b");
        BF_ASSERT(rt.regWgt >= memo_->wMin && rt.regWgt <= memo_->wMax,
                  "weight ", rt.regWgt, " not representable in ",
                  memo_->wBits, "b");
        const std::uint64_t idx =
            ((static_cast<std::uint64_t>(rt.regIn) &
              lowMask(memo_->aBits))
             << memo_->wBits) |
            (static_cast<std::uint64_t>(rt.regWgt) &
             lowMask(memo_->wBits));
        rt.regOut += memo_->products[idx];
        ++rt.stats.macs;
        rt.stats.bitBrickOps += memo_->opsPerMac;
    } else {
        const auto ops_vec =
            decomposeMultiply(rt.regIn, rt.regWgt, config_);
        rt.regOut += evaluateDecomposition(ops_vec);
        ++rt.stats.macs;
        rt.stats.bitBrickOps += ops_vec.size();
    }
}

inline void
ExecPlan::doMax(Runtime &rt) const
{
    rt.regOut = std::max(rt.regOut, rt.regIn);
    ++rt.stats.auxOps;
}

inline void
ExecPlan::doReluQuant(const CodeOp &op, Runtime &rt) const
{
    const std::int64_t v =
        std::max<std::int64_t>(rt.regIn, 0) >> op.shift;
    rt.regOut = op.outBits ? clampUnsigned(v, op.outBits) : v;
    ++rt.stats.auxOps;
}

inline void
ExecPlan::doReset(Runtime &rt) const
{
    rt.regOut = std::numeric_limits<std::int64_t>::min();
}

inline void
ExecPlan::doFusedMac(Runtime &rt) const
{
    const FusedNest &f = fused_;
    auto outerAddr = [&rt](const AddrExpr &e) {
        std::uint64_t addr = e.base;
        for (const AddrTerm &t : e.terms)
            addr += rt.pos[t.depth] * t.stride;
        return addr;
    };
    const unsigned ib = static_cast<unsigned>(BufferId::Ibuf);
    const unsigned wb = static_cast<unsigned>(BufferId::Wbuf);
    const unsigned ob = static_cast<unsigned>(BufferId::Obuf);
    const auto &ibuf = rt.buffers[ib];
    const auto &wbuf = rt.buffers[wb];
    auto &obuf = rt.buffers[ob];
    const std::uint64_t aBase = outerAddr(f.aOuter);
    const std::uint64_t wBase = outerAddr(f.wOuter);
    const std::uint64_t oBase = f.outDims > 0 ? outerAddr(f.oOuter) : 0;
    // One bounds check per buffer per tile instead of one per element
    // (addresses are monotone in the fused counters).
    BF_ASSERT(aBase + f.lastOffA < ibuf.size(),
              "rd-buf beyond planned size");
    BF_ASSERT(wBase + f.lastOffW < wbuf.size(),
              "rd-buf beyond planned size");
    BF_ASSERT(f.outDims == 0 || oBase + f.lastOffO < obuf.size(),
              "wr-buf beyond planned size");

    MacTileArgs args = f.proto;
    args.a = ibuf.data() + aBase;
    args.w = wbuf.data() + wBase;
    // Without output loops the tile is the accumulator register.
    std::int64_t acc = rt.regOut;
    args.o = f.outDims > 0 ? obuf.data() + oBase : &acc;
    if (f.kernel(args))
        reportUnrepresentable(args, config_); // [[noreturn]]

    // Same observable end state as per-element execution: the operand
    // registers hold the last elements read, and the accumulator the
    // value the walk wrote last, at the last output address.
    rt.regIn = args.a[f.lastOffA];
    rt.regWgt = args.w[f.lastOffW];
    rt.regOut = args.o[f.lastOffO];
    if (f.outDims > 0) {
        rt.stats.bufReads[ob] += f.outputs;
        rt.stats.bufWrites[ob] += f.outputs;
        rt.stats.bufHighWater[ob] = std::max<std::uint64_t>(
            rt.stats.bufHighWater[ob], oBase + f.lastOffO + 1);
    }
    rt.stats.bufReads[ib] += f.total;
    rt.stats.bufReads[wb] += f.total;
    rt.stats.macs += f.total;
    rt.stats.bitBrickOps += f.total * f.opsPerMac;
}

void
ExecPlan::runSwitch(const std::vector<CodeOp> &code, Runtime &rt) const
{
    std::size_t pc = 0;
    for (;;) {
        const CodeOp &op = code[pc];
        switch (op.kind) {
          case OpKind::LdMem: transfer(op, true, rt); break;
          case OpKind::StMem: transfer(op, false, rt); break;
          case OpKind::SetRows: rt.pendingRows = op.imm; break;
          case OpKind::RdBuf: doRdBuf(op, rt); break;
          case OpKind::WrBuf: doWrBuf(op, rt); break;
          case OpKind::Mac: doMac(rt); break;
          case OpKind::MaxOp: doMax(rt); break;
          case OpKind::ReluQuant: doReluQuant(op, rt); break;
          case OpKind::Reset: doReset(rt); break;
          case OpKind::LoopHead:
            rt.pos[op.loop] = 0;
            if (iters_[op.loop] == 0) {
                pc = op.target;
                continue;
            }
            break;
          case OpKind::LoopBack:
            if (++rt.pos[op.loop] < iters_[op.loop]) {
                pc = op.target;
                continue;
            }
            break;
          case OpKind::FusedMac: doFusedMac(rt); break;
          case OpKind::Halt: return;
        }
        ++pc;
    }
}

void
ExecPlan::runThreaded(const std::vector<CodeOp> &code, Runtime &rt) const
{
#if defined(BITFUSION_HAVE_COMPUTED_GOTO)
    // One indirect jump per op, from the op's own handler -- the
    // classic threaded-code layout: the branch predictor sees one
    // distinct jump site per opcode instead of a single shared
    // switch dispatch point.
    static const void *const kLabels[kOpKindCount] = {
        &&lLdMem,     &&lStMem,    &&lSetRows, &&lRdBuf, &&lWrBuf,
        &&lMac,       &&lMaxOp,    &&lReluQuant, &&lReset,
        &&lLoopHead,  &&lLoopBack, &&lFusedMac, &&lHalt,
    };
    const CodeOp *const base = code.data();
    const CodeOp *ip = base;
#define BF_DISPATCH() goto *kLabels[static_cast<unsigned>(ip->kind)]
    BF_DISPATCH();
lLdMem:
    transfer(*ip, true, rt);
    ++ip;
    BF_DISPATCH();
lStMem:
    transfer(*ip, false, rt);
    ++ip;
    BF_DISPATCH();
lSetRows:
    rt.pendingRows = ip->imm;
    ++ip;
    BF_DISPATCH();
lRdBuf:
    doRdBuf(*ip, rt);
    ++ip;
    BF_DISPATCH();
lWrBuf:
    doWrBuf(*ip, rt);
    ++ip;
    BF_DISPATCH();
lMac:
    doMac(rt);
    ++ip;
    BF_DISPATCH();
lMaxOp:
    doMax(rt);
    ++ip;
    BF_DISPATCH();
lReluQuant:
    doReluQuant(*ip, rt);
    ++ip;
    BF_DISPATCH();
lReset:
    doReset(rt);
    ++ip;
    BF_DISPATCH();
lLoopHead:
    rt.pos[ip->loop] = 0;
    ip = (iters_[ip->loop] == 0) ? base + ip->target : ip + 1;
    BF_DISPATCH();
lLoopBack:
    ip = (++rt.pos[ip->loop] < iters_[ip->loop]) ? base + ip->target
                                                 : ip + 1;
    BF_DISPATCH();
lFusedMac:
    doFusedMac(rt);
    ++ip;
    BF_DISPATCH();
lHalt:
    return;
#undef BF_DISPATCH
#else
    runSwitch(code, rt);
#endif
}

void
ExecPlan::execute(MemoryModel &memory, InterpStats &stats,
                  std::array<std::vector<std::int64_t>, 3> &buffers)
    const
{
    execute(memory, stats, buffers, defaultDispatchTier());
}

void
ExecPlan::execute(MemoryModel &memory, InterpStats &stats,
                  std::array<std::vector<std::int64_t>, 3> &buffers,
                  DispatchTier tier) const
{
    for (unsigned b = 0; b < 3; ++b)
        buffers[b].assign(bufSize_[b], 0);

    std::vector<std::uint64_t> pos(depth(), 0);
    Runtime rt{memory, stats, buffers, pos.data()};

    const std::vector<CodeOp> &code =
        (tier == DispatchTier::Specialized && !fusedCode_.empty())
            ? fusedCode_
            : code_;
    if (tier == DispatchTier::Switch)
        runSwitch(code, rt);
    else
        runThreaded(code, rt);
}

} // namespace bitfusion
