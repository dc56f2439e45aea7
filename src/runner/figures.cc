/**
 * @file
 * The figure registry: one sweep grid + reporter per paper figure,
 * run by the bitfusion_sweep CLI.
 *
 * Reporters consume only the deterministic SweepResult (cells are in
 * grid order: platform-major, then network, then batch), so their
 * output is identical for any --threads value.
 */

#include "src/runner/figures.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/arch/hw_model.h"
#include "src/arch/spatial_fusion.h"
#include "src/arch/temporal_unit.h"
#include "src/baselines/eyeriss.h"
#include "src/baselines/gpu.h"
#include "src/baselines/stripes.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace figures {

namespace {

/** The eight paper benchmarks as sweep networks, in figure order. */
std::vector<SweepNetwork>
paperNetworks()
{
    std::vector<SweepNetwork> nets;
    for (const auto &bench : zoo::all())
        nets.push_back(SweepNetwork::fromBenchmark(bench));
    return nets;
}

/**
 * The one comparison-grid builder: any platform mix over the eight
 * paper benchmarks. fig13/14 (vs Eyeriss), fig17 (vs the GPUs),
 * fig18 (vs Stripes), and the --platform CLI all come through here.
 */
SweepSpec
comparisonSpec(const std::string &name,
               std::vector<PlatformSpec> platforms)
{
    SweepSpec spec;
    spec.name = name;
    spec.platforms = std::move(platforms);
    spec.networks = paperNetworks();
    return spec;
}

/** Cells of one platform, in grid (network-major) order. */
std::vector<const SweepCellResult *>
cellsFor(const SweepResult &result, const std::string &platform)
{
    std::vector<const SweepCellResult *> cells;
    for (const auto &c : result.cells()) {
        if (c.platform == platform)
            cells.push_back(&c);
    }
    return cells;
}

std::string
pct(double part, double total)
{
    return TextTable::num(100.0 * part / total, 1) + "%";
}

// ------------------------------------------------------------- Fig. 1

void
reportFig1(const SweepResult &, const FigureOptions &)
{
    const auto benches = zoo::all();

    std::printf("=== Fig. 1(a): multiply-add bitwidth distribution "
                "(input/weight) ===\n\n");
    std::set<std::string> configs;
    for (const auto &b : benches)
        for (const auto &[k, v] : b.quantized.macBitwidthProfile())
            configs.insert(k);

    std::vector<std::string> headers = {"Config"};
    for (const auto &b : benches)
        headers.push_back(b.name);
    TextTable macs(headers);
    for (const auto &c : configs) {
        std::vector<std::string> row = {c};
        for (const auto &b : benches) {
            const auto prof = b.quantized.macBitwidthProfile();
            const auto it = prof.find(c);
            row.push_back(TextTable::num(
                it == prof.end() ? 0.0 : 100.0 * it->second, 1));
        }
        macs.addRow(row);
    }
    macs.print();

    std::printf("\n=== Fig. 1(b): weight bitwidth distribution (%%) "
                "===\n\n");
    std::set<unsigned> wbits;
    for (const auto &b : benches)
        for (const auto &[k, v] : b.quantized.weightBitwidthProfile())
            wbits.insert(k);
    TextTable weights(headers);
    for (unsigned wb : wbits) {
        std::vector<std::string> row = {std::to_string(wb) + "-bit"};
        for (const auto &b : benches) {
            const auto prof = b.quantized.weightBitwidthProfile();
            const auto it = prof.find(wb);
            row.push_back(TextTable::num(
                it == prof.end() ? 0.0 : 100.0 * it->second, 1));
        }
        weights.addRow(row);
    }
    weights.print();

    std::printf("\n=== Fig. 1 table: %% of ops that are multiply-adds "
                "===\n\n");
    TextTable frac({"DNN", "% Multiply-Add", "(paper)"});
    const double paper_frac[] = {99.8, 99.8, 99.9, 99.4,
                                 99.9, 99.9, 99.8, 99.5};
    BF_ASSERT(benches.size() == std::size(paper_frac));
    for (std::size_t i = 0; i < benches.size(); ++i) {
        frac.addRow({benches[i].name,
                     TextTable::num(
                         100.0 * benches[i].quantized.macFraction(), 2),
                     TextTable::num(paper_frac[i], 1)});
    }
    frac.print();
    std::printf("\npaper: on average 97.3%% of multiply-adds need four "
                "or fewer bits; >99%% of all ops are multiply-adds\n");
}

// ------------------------------------------------------------ Fig. 10

void
reportFig10(const SweepResult &, const FigureOptions &)
{
    const UnitCost fu = HwModel::fusionUnit45();
    const UnitCost tmp = HwModel::temporalDesign45();

    std::printf("=== Fig. 10: Fusion Unit vs temporal design "
                "(45 nm, 16 BitBricks) ===\n\n");

    TextTable area({"Area (um^2)", "BitBricks", "Shift-Add", "Register",
                    "Total"});
    area.addRow({"Temporal", TextTable::num(tmp.bitBricksAreaUm2, 0),
                 TextTable::num(tmp.shiftAddAreaUm2, 0),
                 TextTable::num(tmp.registerAreaUm2, 0),
                 TextTable::num(tmp.totalAreaUm2(), 0)});
    area.addRow({"Fusion Unit", TextTable::num(fu.bitBricksAreaUm2, 0),
                 TextTable::num(fu.shiftAddAreaUm2, 0),
                 TextTable::num(fu.registerAreaUm2, 0),
                 TextTable::num(fu.totalAreaUm2(), 0)});
    area.addRow({"Reduction",
                 TextTable::times(tmp.bitBricksAreaUm2 /
                                  fu.bitBricksAreaUm2, 1),
                 TextTable::times(tmp.shiftAddAreaUm2 /
                                  fu.shiftAddAreaUm2, 1),
                 TextTable::times(tmp.registerAreaUm2 /
                                  fu.registerAreaUm2, 1),
                 TextTable::times(tmp.totalAreaUm2() / fu.totalAreaUm2(),
                                  1)});
    area.print();

    std::printf("\n");
    TextTable power({"Power (nW)", "BitBricks", "Shift-Add", "Register",
                     "Total"});
    power.addRow({"Temporal", TextTable::num(tmp.bitBricksPowerNw, 0),
                  TextTable::num(tmp.shiftAddPowerNw, 0),
                  TextTable::num(tmp.registerPowerNw, 0),
                  TextTable::num(tmp.totalPowerNw(), 0)});
    power.addRow({"Fusion Unit", TextTable::num(fu.bitBricksPowerNw, 0),
                  TextTable::num(fu.shiftAddPowerNw, 0),
                  TextTable::num(fu.registerPowerNw, 0),
                  TextTable::num(fu.totalPowerNw(), 0)});
    power.addRow({"Reduction",
                  TextTable::times(tmp.bitBricksPowerNw /
                                   fu.bitBricksPowerNw, 1),
                  TextTable::times(tmp.shiftAddPowerNw /
                                   fu.shiftAddPowerNw, 1),
                  TextTable::times(tmp.registerPowerNw /
                                   fu.registerPowerNw, 1),
                  TextTable::times(tmp.totalPowerNw() / fu.totalPowerNw(),
                                   1)});
    power.print();

    const SpatialFusionTree tree(16);
    std::printf("\nshift-add tree over 16 BitBricks: %u levels, "
                "%u four-input adders, %u shift units\n",
                tree.levels(), tree.adderCount(), tree.shifterCount());
    std::printf("Fusion Units in the 1.1 mm^2 compute budget: %u\n",
                HwModel::fusionUnitsForBudget(1.1));
    std::printf("paper reference: 3.5x area and 3.2x power reduction; "
                "512 Fusion Units per 1.1 mm^2 tile\n");
}

// ----------------------------------------------------- Fig. 13 / Fig. 14

SweepSpec
specEyerissComparison(const std::string &name)
{
    return comparisonSpec(
        name,
        {bitfusionPlatform(AcceleratorConfig::eyerissMatched45(), "bitfusion"),
         eyerissPlatform()});
}

struct PaperRow
{
    double perf;
    double energy;
};

// Fig. 13 per-benchmark values from the paper's data table.
const PaperRow paperFig13[] = {
    {1.9, 1.5},   // AlexNet
    {13.0, 14.0}, // Cifar-10
    {2.4, 4.8},   // LSTM
    {2.7, 4.3},   // LeNet-5
    {1.9, 1.9},   // ResNet-18
    {2.7, 5.1},   // RNN
    {8.6, 10.0},  // SVHN
    {7.7, 9.9},   // VGG-7
};

void
reportFig13(const SweepResult &result, const FigureOptions &options)
{
    const auto bf = cellsFor(result, "bitfusion");
    const auto ey = cellsFor(result, "eyeriss");
    BF_ASSERT(bf.size() == ey.size() && bf.size() == 8);

    std::printf("=== Fig. 13: Bit Fusion improvement over Eyeriss "
                "(45 nm, area-matched, batch %u) ===\n\n", bf[0]->batch);

    TextTable table({"Benchmark", "Speedup", "(paper)", "EnergyRed",
                     "(paper)"});
    std::vector<double> speedups, energy_reds;
    for (std::size_t i = 0; i < bf.size(); ++i) {
        const double speedup = ey[i]->stats.secondsPerSample() /
                               bf[i]->stats.secondsPerSample();
        const double energy_red = ey[i]->stats.energyPerSampleJ() /
                                  bf[i]->stats.energyPerSampleJ();
        speedups.push_back(speedup);
        energy_reds.push_back(energy_red);
        table.addRow({bf[i]->network, TextTable::times(speedup, 1),
                      TextTable::times(paperFig13[i].perf, 1),
                      TextTable::times(energy_red, 1),
                      TextTable::times(paperFig13[i].energy, 1)});
    }
    table.addRow({"geomean", TextTable::times(geomean(speedups), 2),
                  "3.90x", TextTable::times(geomean(energy_reds), 2),
                  "5.10x"});
    table.print();

    if (options.perLayer) {
        std::printf("\n=== AlexNet per-layer improvement over Eyeriss "
                    "(paper §V-B1 table) ===\n\n");
        const RunStats &bfs = result.stats("bitfusion", "AlexNet");
        const RunStats &eys = result.stats("eyeriss", "AlexNet");
        TextTable pl({"Layer", "Config", "Speedup", "EnergyRed",
                      "BF util"});
        for (std::size_t i = 0;
             i < bfs.layers.size() && i < eys.layers.size(); ++i) {
            const auto &lb = bfs.layers[i];
            const auto &le = eys.layers[i];
            const double sp = static_cast<double>(le.cycles) /
                              static_cast<double>(lb.cycles);
            const double er = le.energy.totalJ() / lb.energy.totalJ();
            pl.addRow({lb.name, lb.config, TextTable::times(sp, 2),
                       TextTable::times(er, 2),
                       pct(lb.utilization, 1.0)});
        }
        pl.print();
        std::printf("\npaper: conv 8/8 1.67x/6.5x, conv 4/1 6.4x/16.8x, "
                    "fc 4/1 3.3x/30.7x, fc 8/8 1.0x/10.3x\n");
    }
}

void
reportFig14(const SweepResult &result, const FigureOptions &)
{
    const auto bf = cellsFor(result, "bitfusion");
    const auto ey = cellsFor(result, "eyeriss");
    BF_ASSERT(bf.size() == ey.size());

    std::printf("=== Fig. 14: energy breakdown, Bit Fusion vs Eyeriss "
                "===\n\n");
    TextTable table({"Benchmark", "Platform", "Compute", "Buffers",
                     "RegFile", "DRAM", "Total uJ/sample"});
    for (std::size_t i = 0; i < bf.size(); ++i) {
        const ComponentEnergy be = bf[i]->stats.energy();
        const ComponentEnergy ee = ey[i]->stats.energy();
        table.addRow({bf[i]->network, "BitFusion",
                      pct(be.computeJ, be.totalJ()),
                      pct(be.bufferJ, be.totalJ()),
                      pct(be.rfJ, be.totalJ()),
                      pct(be.dramJ, be.totalJ()),
                      TextTable::num(
                          be.totalJ() / bf[i]->stats.batch * 1e6, 2)});
        table.addRow({ey[i]->network, "Eyeriss",
                      pct(ee.computeJ, ee.totalJ()),
                      pct(ee.bufferJ, ee.totalJ()),
                      pct(ee.rfJ, ee.totalJ()),
                      pct(ee.dramJ, ee.totalJ()),
                      TextTable::num(
                          ee.totalJ() / ey[i]->stats.batch * 1e6, 2)});
    }
    table.print();
    std::printf("\npaper shape: Bit Fusion ~67-75%% DRAM, ~13-25%% "
                "buffers, ~7-11%% compute, 0%% RF;\n"
                "Eyeriss ~21-69%% DRAM with a large register-file "
                "share (row-stationary per-PE RFs).\n");
}

// ------------------------------------------------------------ Fig. 15

const std::uint64_t fig15Widths[] = {32, 64, 128, 256, 512};

SweepSpec
specFig15()
{
    SweepSpec spec;
    spec.name = "fig15";
    for (std::uint64_t w : fig15Widths) {
        AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
        cfg.bwBitsPerCycle = w;
        spec.platforms.push_back(
            bitfusionPlatform(cfg, "bw" + std::to_string(w)));
    }
    spec.networks = paperNetworks();
    return spec;
}

void
reportFig15(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Fig. 15: speedup vs off-chip bandwidth (baseline "
                "128 bits/cycle) ===\n\n");

    std::vector<std::string> headers = {"Benchmark"};
    for (std::uint64_t w : fig15Widths)
        headers.push_back(std::to_string(w) + "b/cyc");
    TextTable table(headers);

    const auto base = cellsFor(result, "bw128");
    std::vector<std::vector<const SweepCellResult *>> byWidth;
    for (std::uint64_t w : fig15Widths)
        byWidth.push_back(cellsFor(result, "bw" + std::to_string(w)));
    std::vector<std::vector<double>> cols(std::size(fig15Widths));
    for (std::size_t bi = 0; bi < base.size(); ++bi) {
        std::vector<std::string> row = {base[bi]->network};
        for (std::size_t wi = 0; wi < std::size(fig15Widths); ++wi) {
            const double speedup =
                base[bi]->stats.secondsPerSample() /
                byWidth[wi][bi]->stats.secondsPerSample();
            cols[wi].push_back(speedup);
            row.push_back(TextTable::times(speedup, 2));
        }
        table.addRow(row);
    }
    std::vector<std::string> geo = {"geomean"};
    for (auto &c : cols)
        geo.push_back(TextTable::times(geomean(c), 2));
    table.addRow(geo);
    table.print();
    std::printf("\npaper geomean: 0.25x  0.51x  1.00x  1.91x  2.86x\n");
}

// ------------------------------------------------------------ Fig. 16

const unsigned fig16Batches[] = {1, 4, 16, 64, 256};

SweepSpec
specFig16()
{
    SweepSpec spec;
    spec.name = "fig16";
    spec.platforms = {bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "bitfusion")};
    spec.networks = paperNetworks();
    spec.batches.assign(std::begin(fig16Batches), std::end(fig16Batches));
    return spec;
}

void
reportFig16(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Fig. 16: per-sample speedup vs batch size "
                "(baseline batch 1) ===\n\n");

    std::vector<std::string> headers = {"Benchmark"};
    for (unsigned b : fig16Batches)
        headers.push_back("B=" + std::to_string(b));
    TextTable table(headers);

    std::vector<std::vector<double>> cols(std::size(fig16Batches));
    for (const auto &bench : zoo::all()) {
        std::vector<std::string> row = {bench.name};
        const double base_sec = result.stats("bitfusion", bench.name, 1)
                                    .secondsPerSample();
        for (std::size_t bi = 0; bi < std::size(fig16Batches); ++bi) {
            const double sec =
                result.stats("bitfusion", bench.name, fig16Batches[bi])
                    .secondsPerSample();
            const double speedup = base_sec / sec;
            cols[bi].push_back(speedup);
            row.push_back(TextTable::times(speedup, 2));
        }
        table.addRow(row);
    }
    std::vector<std::string> geo = {"geomean"};
    for (auto &c : cols)
        geo.push_back(TextTable::times(geomean(c), 2));
    table.addRow(geo);
    table.print();
    std::printf("\npaper geomean: 1.00  1.66  2.43  2.68  2.68 "
                "(RNN/LSTM up to 21x, CNNs ~1.2-1.5x)\n");
}

// ------------------------------------------------------------ Fig. 17

SweepSpec
specFig17()
{
    return comparisonSpec(
        "fig17",
        {bitfusionPlatform(AcceleratorConfig::gpuScale16(), "bitfusion-16nm"),
         gpuPlatform(GpuSpec::tegraX2Fp32()),
         gpuPlatform(GpuSpec::titanXpFp32()),
         gpuPlatform(GpuSpec::titanXpInt8())});
}

void
reportFig17(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Fig. 17: speedup over Tegra X2 (FP32), 16 nm "
                "===\n\n");

    TextTable table({"Benchmark", "TitanXp-FP32", "TitanXp-INT8",
                     "BitFusion-16nm"});
    std::vector<double> g_fp32, g_int8, g_bf;
    for (const auto &bench : zoo::all()) {
        const double tx2_sec =
            result.stats("tegra-x2-fp32", bench.name).secondsPerSample();
        const double fp32_sec =
            result.stats("titan-xp-fp32", bench.name).secondsPerSample();
        // INT8 TensorRT runs the quantized graph topology at the
        // regular width (GPUs cannot exploit the 2x-wide low-bit
        // models, so they keep the regular ones; paper §V-A).
        const double int8_sec =
            result.stats("titan-xp-int8", bench.name).secondsPerSample();
        const double bf_sec =
            result.stats("bitfusion-16nm", bench.name).secondsPerSample();

        const double s_fp32 = tx2_sec / fp32_sec;
        const double s_int8 = tx2_sec / int8_sec;
        const double s_bf = tx2_sec / bf_sec;
        g_fp32.push_back(s_fp32);
        g_int8.push_back(s_int8);
        g_bf.push_back(s_bf);
        table.addRow({bench.name, TextTable::times(s_fp32, 1),
                      TextTable::times(s_int8, 1),
                      TextTable::times(s_bf, 1)});
    }
    table.addRow({"geomean", TextTable::times(geomean(g_fp32), 2),
                  TextTable::times(geomean(g_int8), 2),
                  TextTable::times(geomean(g_bf), 2)});
    table.print();
    std::printf("\npaper geomean: 12x (FP32), 19x (INT8), 16x "
                "(Bit Fusion, 895 mW vs the GPU's 250 W TDP)\n");
}

// ------------------------------------------------------------ Fig. 18

// Fig. 18 per-benchmark values from the paper's data table.
const PaperRow paperFig18[] = {
    {1.8, 2.7}, // AlexNet
    {4.0, 6.0}, // Cifar-10
    {2.1, 3.1}, // LSTM
    {5.2, 7.8}, // LeNet-5
    {2.6, 4.4}, // ResNet-18
    {2.0, 3.0}, // RNN
    {1.8, 2.7}, // SVHN
    {2.9, 4.4}, // VGG-7
};

SweepSpec
specFig18()
{
    return comparisonSpec(
        "fig18",
        {bitfusionPlatform(AcceleratorConfig::stripesTileMatched45(),
                           "bitfusion"),
         // Both platforms run the same quantized models (Stripes also
         // benefits from the reduced weight bitwidths).
         stripesPlatform()});
}

void
reportFig18(const SweepResult &result, const FigureOptions &)
{
    const auto bf = cellsFor(result, "bitfusion");
    const auto st = cellsFor(result, "stripes");
    BF_ASSERT(bf.size() == st.size() && bf.size() == 8);

    std::printf("=== Fig. 18: Bit Fusion improvement over Stripes "
                "(45 nm, tile-matched) ===\n\n");

    TextTable table({"Benchmark", "Speedup", "(paper)", "EnergyRed",
                     "(paper)"});
    std::vector<double> speedups, energy_reds;
    for (std::size_t i = 0; i < bf.size(); ++i) {
        const double speedup = st[i]->stats.secondsPerSample() /
                               bf[i]->stats.secondsPerSample();
        const double energy_red = st[i]->stats.energyPerSampleJ() /
                                  bf[i]->stats.energyPerSampleJ();
        speedups.push_back(speedup);
        energy_reds.push_back(energy_red);
        table.addRow({bf[i]->network, TextTable::times(speedup, 1),
                      TextTable::times(paperFig18[i].perf, 1),
                      TextTable::times(energy_red, 1),
                      TextTable::times(paperFig18[i].energy, 1)});
    }
    table.addRow({"geomean", TextTable::times(geomean(speedups), 2),
                  "2.61x", TextTable::times(geomean(energy_reds), 2),
                  "3.97x"});
    table.print();
}

// ----------------------------------------------------------- Table II

void
reportTable2(const SweepResult &, const FigureOptions &)
{
    std::printf("=== Table II: evaluated CNN/RNN benchmarks ===\n\n");
    TextTable table({"DNN", "Mops", "(paper)", "Weights MB", "(paper)",
                     "Params M", "Layers"});
    for (const auto &b : zoo::all()) {
        const auto &net = b.quantized;
        table.addRow({
            b.name,
            TextTable::num(static_cast<double>(net.totalMacs()) / 1e6, 0),
            TextTable::num(b.paperMops, 0),
            TextTable::num(static_cast<double>(net.totalWeightBits()) /
                               (8.0 * 1024 * 1024), 2),
            TextTable::num(b.paperWeightMB, 1),
            TextTable::num(static_cast<double>(net.totalWeights()) / 1e6,
                           2),
            std::to_string(net.layers().size()),
        });
    }
    table.print();

    std::printf("\n(regular-width baselines used on Eyeriss/GPU)\n\n");
    TextTable base({"DNN", "Mops", "Params M"});
    for (const auto &b : zoo::all()) {
        base.addRow({
            b.name,
            TextTable::num(
                static_cast<double>(b.baseline.totalMacs()) / 1e6, 0),
            TextTable::num(
                static_cast<double>(b.baseline.totalWeights()) / 1e6, 2),
        });
    }
    base.print();
}

// ---------------------------------------------------------- Table III

void
reportTable3(const SweepResult &, const FigureOptions &)
{
    std::printf("=== Table III: evaluated platforms ===\n\n");

    TextTable asic({"ASIC", "Compute", "Freq MHz", "On-chip", "Tech",
                    "bits/cyc"});
    const auto bf45 = AcceleratorConfig::eyerissMatched45();
    asic.addRow({bf45.name,
                 std::to_string(bf45.fusionUnits()) + " FUs (" +
                     std::to_string(bf45.fusionUnits() *
                                    bf45.bricksPerUnit) +
                     " BitBricks)",
                 TextTable::num(bf45.freqMHz, 0),
                 TextTable::num(static_cast<double>(bf45.onChipBits()) /
                                (8 * 1024), 0) + " KB",
                 "45 nm", std::to_string(bf45.bwBitsPerCycle)});
    const EyerissConfig ey;
    asic.addRow({"eyeriss", std::to_string(ey.totalPEs()) + " PEs (" +
                     std::to_string(ey.peRows) + "x" +
                     std::to_string(ey.peCols) + ", 16-bit)",
                 TextTable::num(ey.freqMHz, 0),
                 TextTable::num(static_cast<double>(ey.sramBits) /
                                (8 * 1024), 1) + " KB",
                 "45 nm", std::to_string(ey.bwBitsPerCycle)});
    const StripesConfig st;
    asic.addRow({"stripes", std::to_string(st.tiles) + " tiles x " +
                     std::to_string(st.sips) + " SIPs",
                 TextTable::num(st.freqMHz, 0),
                 TextTable::num(static_cast<double>(st.sramBits *
                                                    st.tiles) /
                                (8 * 1024), 0) + " KB",
                 "45 nm", std::to_string(st.bwBitsPerCycle)});
    const auto bf16 = AcceleratorConfig::gpuScale16();
    asic.addRow({bf16.name,
                 std::to_string(bf16.fusionUnits()) + " FUs (" +
                     std::to_string(bf16.tiles) + " tiles)",
                 TextTable::num(bf16.freqMHz, 0),
                 TextTable::num(static_cast<double>(bf16.onChipBits()) /
                                (8 * 1024), 0) + " KB",
                 "16 nm", std::to_string(bf16.bwBitsPerCycle)});
    asic.print();

    std::printf("\n");
    TextTable gpu({"GPU", "Peak Gmac/s", "Mem GB/s", "Bytes/elem",
                   "Kernel eff"});
    for (const auto &spec : {GpuSpec::tegraX2Fp32(),
                             GpuSpec::titanXpFp32(),
                             GpuSpec::titanXpInt8()}) {
        gpu.addRow({spec.name,
                    TextTable::num(spec.peakMacsPerSec / 1e9, 0),
                    TextTable::num(spec.memBytesPerSec / 1e9, 0),
                    TextTable::num(spec.bytesPerElem, 0),
                    TextTable::num(spec.efficiency, 2)});
    }
    gpu.print();

    std::printf("\nderived: Fusion Unit %.0f um^2 at 45 nm; %u units "
                "per 1.1 mm^2 compute budget;\n16 nm scaling 0.86x V, "
                "0.42x C -> %.2fx energy, %.2fx area\n",
                HwModel::fusionUnit45().totalAreaUm2(),
                HwModel::fusionUnitsForBudget(1.1),
                HwModel::energyScale(TechNode::Nm16),
                HwModel::areaScale(TechNode::Nm16));
}

// ----------------------------------------------- Ablation: fusion style

void
reportAblationStyle(const SweepResult &, const FigureOptions &)
{
    std::printf("=== Ablation 1: spatial vs temporal vs hybrid fusion "
                "(throughput per area) ===\n\n");
    const double a_fu = HwModel::fusionUnit45().totalAreaUm2();
    const double a_tmp = HwModel::temporalDesign45().totalAreaUm2();

    TextTable t({"Config", "Hybrid MACs/cyc/unit", "Temporal",
                 "Hybrid MACs/cyc/mm2", "Temporal", "Advantage"});
    const FusionConfig configs[] = {
        {1, 1, false, false}, {2, 2, false, true}, {4, 2, false, true},
        {4, 4, false, true},  {8, 4, false, true}, {8, 8, false, true},
        {16, 8, true, true},  {16, 16, true, true}};
    for (const auto &c : configs) {
        // Hybrid: spatial PEs with temporal passes for 16-bit.
        const double hybrid =
            static_cast<double>(c.fusedPEs(16)) / c.temporalPasses();
        // Temporal: 16 serial units, each one product per
        // lanes(a)*lanes(w) cycles.
        const double temporal = 16.0 / TemporalUnit::cyclesPerProduct(c);
        const double h_mm2 = hybrid / a_fu * 1e6;
        const double t_mm2 = temporal / a_tmp * 1e6;
        t.addRow({c.toString(), TextTable::num(hybrid, 2),
                  TextTable::num(temporal, 2), TextTable::num(h_mm2, 0),
                  TextTable::num(t_mm2, 0),
                  TextTable::times(h_mm2 / t_mm2, 2)});
    }
    t.print();
    std::printf("\n(same 2-bit multiplier count; the temporal design "
                "pays for per-unit wide shifters/registers, Fig. 10)\n");
}

// -------------------------------------------- Ablation: code optimizations

SweepSpec
specAblationCodeopt()
{
    SweepSpec spec;
    spec.name = "ablation-codeopt";
    const struct
    {
        const char *name;
        bool loopOrdering;
        bool layerFusion;
    } variants[] = {
        {"opt", true, true},
        {"no-loop-order", false, true},
        {"no-layer-fusion", true, false},
        {"neither", false, false},
    };
    for (const auto &v : variants) {
        AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
        cfg.loopOrdering = v.loopOrdering;
        cfg.layerFusion = v.layerFusion;
        spec.platforms.push_back(bitfusionPlatform(cfg, v.name));
    }
    spec.networks = paperNetworks();
    return spec;
}

void
reportAblationCodeopt(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Ablation 2: code optimizations (loop ordering + "
                "layer fusion) ===\n\n");
    TextTable t({"Benchmark", "Optimized us", "NoLoopOrder",
                 "NoLayerFusion", "Neither", "Opt gain"});
    for (const auto &bench : zoo::all()) {
        const double opt =
            result.stats("opt", bench.name).secondsPerSample() * 1e6;
        const double no_lo =
            result.stats("no-loop-order", bench.name).secondsPerSample() *
            1e6;
        const double no_lf =
            result.stats("no-layer-fusion", bench.name)
                .secondsPerSample() * 1e6;
        const double none =
            result.stats("neither", bench.name).secondsPerSample() * 1e6;
        t.addRow({bench.name, TextTable::num(opt, 1),
                  TextTable::times(no_lo / opt, 2),
                  TextTable::times(no_lf / opt, 2),
                  TextTable::times(none / opt, 2),
                  TextTable::times(none / opt, 2)});
    }
    t.print();
}

// ----------------------------------------------- Ablation: bitwidth sweep

const unsigned ablationWidths[] = {16, 8, 4, 2, 1};

FusionConfig
uniformConfig(unsigned width)
{
    FusionConfig c;
    c.aBits = width;
    c.wBits = width;
    c.aSigned = false;
    c.wSigned = width > 1;
    return c;
}

SweepSpec
specAblationBitwidth()
{
    SweepSpec spec;
    spec.name = "ablation-bitwidth";
    spec.platforms = {bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "bitfusion")};
    const auto bench = zoo::vgg7();
    for (unsigned w : ablationWidths) {
        const FusionConfig c = uniformConfig(w);
        // Rebuild the VGG-7 topology with one uniform config.
        std::vector<Layer> layers = bench.quantized.layers();
        for (auto &l : layers)
            l.bits = c;
        spec.networks.push_back(SweepNetwork::uniform(
            c.toString(),
            Network(bench.quantized.name(), std::move(layers))));
    }
    return spec;
}

void
reportAblationBitwidth(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Ablation 3: uniform-bitwidth sweep (VGG-7 "
                "topology) ===\n\n");
    TextTable t({"Config", "us/sample", "Speedup vs 16b",
                 "Energy uJ/sample", "Reduction vs 16b"});
    const std::string base_name = uniformConfig(16).toString();
    const double base_sec =
        result.stats("bitfusion", base_name).secondsPerSample();
    const double base_e =
        result.stats("bitfusion", base_name).energyPerSampleJ();
    for (unsigned w : ablationWidths) {
        const std::string name = uniformConfig(w).toString();
        const RunStats &rs = result.stats("bitfusion", name);
        const double sec = rs.secondsPerSample();
        const double e = rs.energyPerSampleJ();
        t.addRow({name, TextTable::num(sec * 1e6, 1),
                  TextTable::times(base_sec / sec, 2),
                  TextTable::num(e * 1e6, 1),
                  TextTable::times(base_e / e, 2)});
    }
    t.print();
    std::printf("\n(compute scales ~quadratically with operand width; "
                "traffic scales linearly -- the core Bit Fusion "
                "observation)\n");
}

// ------------------------------------- Design-space exploration sweep

SweepSpec
specDse()
{
    SweepSpec spec;
    spec.name = "dse";
    const struct
    {
        unsigned rows, cols;
    } geometries[] = {{8, 32}, {8, 64}, {16, 32}, {16, 64}};
    const std::uint64_t bandwidths[] = {64, 128, 256, 512};
    for (const auto &g : geometries) {
        for (std::uint64_t bw : bandwidths) {
            AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
            cfg.rows = g.rows;
            cfg.cols = g.cols;
            cfg.bwBitsPerCycle = bw;
            spec.platforms.push_back(bitfusionPlatform(
                cfg, std::to_string(g.rows) + "x" +
                         std::to_string(g.cols) + "-bw" +
                         std::to_string(bw)));
        }
    }
    spec.networks = paperNetworks();
    spec.batches = {1, 4, 16, 64, 256};
    return spec;
}

void
reportDse(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Design-space exploration: array geometry x "
                "bandwidth x batch ===\n\n");
    // Deliberately no thread count here: the ASCII report must be
    // byte-identical for any --threads value (JSON carries it).
    std::printf("grid: %zu cells, %zu compiles, %zu cache hits\n\n",
                result.cells().size(), result.compileCount(),
                result.cacheHits());

    // Best configuration per network at the paper's batch 16,
    // by latency and by energy-delay product.
    TextTable t({"Benchmark", "Best latency", "us/sample",
                 "Best EDP", "uJ*us"});
    for (const auto &bench : zoo::all()) {
        const SweepCellResult *best_lat = nullptr;
        const SweepCellResult *best_edp = nullptr;
        double best_sec = 0.0, best_e = 0.0;
        for (const auto &c : result.cells()) {
            if (c.network != bench.name || c.batch != 16)
                continue;
            const double sec = c.stats.secondsPerSample();
            const double edp = sec * c.stats.energyPerSampleJ();
            if (best_lat == nullptr || sec < best_sec) {
                best_lat = &c;
                best_sec = sec;
            }
            if (best_edp == nullptr || edp < best_e) {
                best_edp = &c;
                best_e = edp;
            }
        }
        BF_ASSERT(best_lat != nullptr && best_edp != nullptr);
        t.addRow({bench.name, best_lat->platform,
                  TextTable::num(best_sec * 1e6, 1), best_edp->platform,
                  TextTable::num(best_e * 1e12, 1)});
    }
    t.print();
    std::printf("\n(full per-cell data available via --json)\n");
}

// ----------------------------------------------------------- registry

SweepSpec
emptySpec()
{
    return SweepSpec{};
}

const std::vector<Figure> &
registry()
{
    static const std::vector<Figure> figures = {
        {"fig1", "bitwidth distribution of the benchmark DNNs",
         emptySpec, reportFig1},
        {"fig10", "Fusion Unit vs temporal design area/power",
         emptySpec, reportFig10},
        {"fig13", "speedup and energy reduction over Eyeriss",
         [] { return specEyerissComparison("fig13"); }, reportFig13},
        {"fig14", "energy breakdown vs Eyeriss",
         [] { return specEyerissComparison("fig14"); }, reportFig14},
        {"fig15", "performance vs off-chip bandwidth",
         specFig15, reportFig15},
        {"fig16", "per-sample throughput vs batch size",
         specFig16, reportFig16},
        {"fig17", "speedup over the GPUs at 16 nm",
         specFig17, reportFig17},
        {"fig18", "speedup and energy reduction over Stripes",
         specFig18, reportFig18},
        {"table2", "benchmark MAC counts and weight footprints",
         emptySpec, reportTable2},
        {"table3", "evaluated platform parameters",
         emptySpec, reportTable3},
        {"ablation-style", "spatial vs temporal vs hybrid fusion",
         emptySpec, reportAblationStyle},
        {"ablation-codeopt", "loop-ordering/layer-fusion optimizations",
         specAblationCodeopt, reportAblationCodeopt},
        {"ablation-bitwidth", "uniform-bitwidth sweep of VGG-7",
         specAblationBitwidth, reportAblationBitwidth},
        {"dse", "design-space sweep: geometry x bandwidth x batch",
         specDse, reportDse},
    };
    return figures;
}

} // namespace

const std::vector<Figure> &
all()
{
    return registry();
}

const Figure *
find(const std::string &id)
{
    for (const auto &figure : registry()) {
        if (figure.id == id)
            return &figure;
    }
    return nullptr;
}

int
runPlatforms(const std::vector<std::string> &tokens, unsigned batch,
             const FigureOptions &options)
{
    const PlatformRegistry &registry = PlatformRegistry::builtin();
    std::vector<PlatformSpec> platforms;
    for (const auto &token : tokens) {
        PlatformSpec spec = registry.parse(token);
        if (batch != 0)
            spec.batch = batch;
        platforms.push_back(std::move(spec));
    }
    SweepSpec spec = comparisonSpec("custom", std::move(platforms));

    SweepRunner runner({options.threads, options.timing});
    const SweepResult result = runner.run(spec);

    std::printf("=== Custom platform comparison (timing=%s) ===\n\n",
                toString(options.timing));
    std::vector<std::string> headers = {"Benchmark"};
    for (const auto &p : spec.platforms)
        headers.push_back(p.name);
    TextTable lat(headers);
    TextTable energy(headers);
    for (const auto &net : spec.networks) {
        std::vector<std::string> lrow = {net.name};
        std::vector<std::string> erow = {net.name};
        for (const auto &p : spec.platforms) {
            const RunStats &rs = result.stats(p.name, net.name);
            lrow.push_back(
                TextTable::num(rs.secondsPerSample() * 1e6, 2));
            const double uj = rs.energyPerSampleJ() * 1e6;
            // Defensive: an out-of-tree platform without an energy
            // model prints "-" rather than a misleading 0 uJ.
            erow.push_back(uj > 0.0 ? TextTable::num(uj, 2) : "-");
        }
        lat.addRow(lrow);
        energy.addRow(erow);
    }
    std::printf("latency (us/sample):\n\n");
    lat.print();
    std::printf("\nenergy (uJ/sample):\n\n");
    energy.print();

    if (!options.jsonPath.empty()) {
        std::ofstream out(options.jsonPath);
        if (!out)
            BF_FATAL("cannot write JSON to '", options.jsonPath, "'");
        out << result.json(options.perLayer) << "\n";
    }
    return 0;
}

int
run(const Figure &figure, const FigureOptions &options)
{
    const SweepSpec spec = figure.spec();
    SweepResult result;
    if (!spec.platforms.empty()) {
        SweepRunner runner({options.threads, options.timing});
        result = runner.run(spec);
    }
    figure.report(result, options);

    if (!options.jsonPath.empty()) {
        if (spec.platforms.empty()) {
            BF_WARN("figure '", figure.id,
                    "' has no sweep grid; no JSON written");
            return 0;
        }
        std::ofstream out(options.jsonPath);
        if (!out)
            BF_FATAL("cannot write JSON to '", options.jsonPath, "'");
        out << result.json(options.perLayer) << "\n";
    }
    return 0;
}

int
runAll(const std::vector<std::string> &ids, const FigureOptions &options)
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Figure *figure = find(ids[i]);
        if (figure == nullptr)
            BF_FATAL("unknown figure '", ids[i], "'");
        if (i > 0)
            std::printf("\n");
        FigureOptions figureOptions = options;
        if (!options.jsonPath.empty() && ids.size() > 1) {
            figureOptions.jsonPath =
                options.jsonPath + "." + figure->id + ".json";
        }
        const int rc = run(*figure, figureOptions);
        if (rc != 0)
            return rc;
    }
    return 0;
}

} // namespace figures
} // namespace bitfusion
