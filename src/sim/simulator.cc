#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/bitutils.h"
#include "src/common/logging.h"
#include "src/compiler/codegen.h"
#include "src/compiler/tiling.h"
#include "src/energy/energy_model.h"

namespace bitfusion {

namespace {

/** Artifact wrapper around the compiler output. */
struct CompiledNetworkArtifact : PlatformArtifact
{
    explicit CompiledNetworkArtifact(CompiledNetwork net)
        : net(std::move(net))
    {
    }
    CompiledNetwork net;
};

} // namespace

Simulator::Simulator(const AcceleratorConfig &cfg)
    : cfg(cfg), array(this->cfg)
{
    this->cfg.validate();
}

PlatformInfo
Simulator::describe() const
{
    PlatformInfo info;
    info.name = cfg.name;
    info.kind = "bitfusion";
    info.compute = std::to_string(cfg.fusionUnits()) + " FUs (" +
                   std::to_string(cfg.fusionUnits() * cfg.bricksPerUnit) +
                   " BitBricks)";
    info.freqMHz = cfg.freqMHz;
    info.onChipBits = cfg.onChipBits();
    info.bwBitsPerCycle = cfg.bwBitsPerCycle;
    info.batch = cfg.batch;
    return info;
}

std::string
Simulator::compileKey() const
{
    return cfg.compileKey();
}

PlatformArtifactPtr
Simulator::compile(const Network &net) const
{
    return std::make_shared<CompiledNetworkArtifact>(
        Compiler(cfg).compile(net));
}

LayerStats
Simulator::runMacLayer(const LayerSchedule &sched,
                       LayerPhases &phases) const
{
    const Layer &layer = sched.layer;
    const FusionConfig &bits = layer.bits;
    LayerStats st;
    st.name = layer.name;
    st.config = bits.toString();

    const std::uint64_t batch = cfg.batch;
    const std::uint64_t n_total = sched.n * batch;
    st.macs = layer.macsPerSample() * batch;

    // --- Compute timing --------------------------------------
    // Data-parallel tiles split the batch; each tile runs the same
    // per-layer mapping over its share of the samples.
    const std::uint64_t n_per_tile =
        sched.n * divCeil(batch, cfg.tiles);
    const SystolicTiming timing =
        array.map(sched.m, sched.k, n_per_tile, sched.tile.nt, bits);
    st.computeCycles = timing.cycles;
    st.utilization = timing.utilization;

    // --- Off-chip traffic -------------------------------------
    // Weights are shared across the batch; activations scale with it.
    const std::uint64_t w_bits = layer.weightBits();
    const std::uint64_t i_bits = layer.inputCount() * bits.aBits * batch;
    const std::uint64_t o_bits = sched.outElems * sched.outBits * batch;
    st.dramLoadBits =
        Tiler::trafficBits(sched.order, sched.tile, sched.m, sched.k,
                           n_total, w_bits, i_bits, 0);
    st.dramStoreBits = o_bits;
    st.memCycles =
        divCeil(st.dramLoadBits + st.dramStoreBits, cfg.bwBitsPerCycle);

    // --- On-chip traffic --------------------------------------
    // IBUF: each streamed input element feeds all columns at once
    // (one read per row per cycle); re-streamed per output pass.
    st.sramBits += divCeil(st.macs * bits.aBits,
                           static_cast<std::uint64_t>(cfg.cols) *
                               bits.fusedPEs(cfg.bricksPerUnit));
    // WBUF: every Fused-PE reads its weight each cycle; this is
    // where narrow weights directly cut access energy (paper §II-C).
    st.sramBits += st.macs * bits.wBits;
    // OBUF: accumulated partial written and drained once per output.
    st.sramBits += 2 * sched.m * n_total * 32;

    // Phases: off-chip transfers double-buffer against compute at
    // streaming-tile granularity; the systolic array pays one
    // rows + cols pipeline fill.
    phases = LayerPhases::fromBits(st.computeCycles, st.dramLoadBits,
                                   st.dramStoreBits, cfg.bwBitsPerCycle,
                                   cfg.rows + cfg.cols);

    EnergyModel::applyBitFusion(st, bits.aBits, bits.wBits,
                                cfg.onChipBits(), cfg.tech);
    return st;
}

LayerStats
Simulator::runAuxLayer(const LayerSchedule &sched,
                       LayerPhases &phases) const
{
    const Layer &layer = sched.layer;
    LayerStats st;
    st.name = layer.name;
    st.config = toString(layer.kind);

    const std::uint64_t batch = cfg.batch;
    const std::uint64_t ops = layer.auxOpsPerSample() * batch;
    // One pooling and one activation unit per column (Fig. 3).
    const std::uint64_t auxUnits =
        static_cast<std::uint64_t>(cfg.cols) * cfg.tiles;
    st.computeCycles = divCeil(ops, auxUnits);

    const std::uint64_t in_bits =
        layer.inputCount() * layer.bits.aBits * batch;
    const std::uint64_t out_bits =
        sched.outElems * sched.outBits * batch;
    st.dramLoadBits = in_bits;
    st.dramStoreBits = out_bits;
    st.memCycles =
        divCeil(st.dramLoadBits + st.dramStoreBits, cfg.bwBitsPerCycle);
    st.sramBits = in_bits + out_bits;
    // Aux units process one op per unit per cycle; utilization is
    // the issued ops over that capacity during the busy cycles.
    st.utilization =
        st.computeCycles == 0
            ? 0.0
            : static_cast<double>(ops) /
                  static_cast<double>(st.computeCycles * auxUnits);

    phases = LayerPhases::fromBits(st.computeCycles, st.dramLoadBits,
                                   st.dramStoreBits, cfg.bwBitsPerCycle,
                                   0);

    EnergyModel::applyBitFusion(st, layer.bits.aBits, layer.bits.wBits,
                                cfg.onChipBits(), cfg.tech);
    return st;
}

LayerStats
Simulator::statsFor(const LayerSchedule &sched, LayerPhases &phases) const
{
    return sched.usesMacArray ? runMacLayer(sched, phases)
                              : runAuxLayer(sched, phases);
}

LayerStats
Simulator::runSchedule(const LayerSchedule &sched) const
{
    LayerPhases phases;
    LayerStats st = statsFor(sched, phases);
    st.cycles =
        static_cast<std::uint64_t>(LayerWalk::simpleUnits(phases));
    return st;
}

RunStats
Simulator::run(const CompiledNetwork &net, TimingModel timing) const
{
    RunStats rs;
    rs.platform = cfg.name;
    rs.network = net.networkName;
    rs.batch = cfg.batch;
    rs.freqMHz = cfg.freqMHz;

    // Layers fused into a preceding MAC block were absorbed by the
    // compiler and do not appear as separate schedules.
    LayerWalk walk(timing);
    for (const auto &sched : net.schedules) {
        LayerPhases phases;
        LayerStats st = statsFor(sched, phases);
        walk.add(std::move(st), phases);
    }
    walk.finish(rs);
    return rs;
}

RunStats
Simulator::run(const Network &net, const RunOptions &opts) const
{
    if (opts.artifact != nullptr) {
        const auto *compiled =
            dynamic_cast<const CompiledNetworkArtifact *>(opts.artifact);
        BF_ASSERT(compiled != nullptr,
                  "artifact is not a compiled network");
        return run(compiled->net, opts.timing);
    }
    return run(Compiler(cfg).compile(net), opts.timing);
}

} // namespace bitfusion
