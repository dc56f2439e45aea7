/**
 * @file
 * Registry of the paper's figures and tables, each expressed as a
 * sweep grid plus an ASCII reporter.
 *
 * The bitfusion_sweep CLI resolves figures here, so one declaration
 * drives a figure end to end: the grid feeds the parallel
 * SweepRunner, the reporter renders the paper-style table from the
 * deterministic result, and the JSON dump comes for free.
 */

#ifndef BITFUSION_RUNNER_FIGURES_H
#define BITFUSION_RUNNER_FIGURES_H

#include <functional>
#include <string>
#include <vector>

#include "src/runner/sweep.h"

namespace bitfusion {
namespace figures {

/** Options of one figure run (the sweep CLI's flags). */
struct FigureOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** When nonempty, dump the SweepResult as JSON to this path. */
    std::string jsonPath;
    /** Include per-layer detail (fig13 table, JSON layers). */
    bool perLayer = false;
    /**
     * Phase-time composition (core/layer_walk.h). Simple is the
     * seed-equivalent default every paper figure is calibrated
     * against; Overlap enables the cross-tile/cross-layer pipeline.
     */
    TimingModel timing = TimingModel::Simple;
};

/** One reproducible figure or table. */
struct Figure
{
    /** Identifier used by --figure (e.g. "fig13"). */
    std::string id;
    /** One-line description shown by --list. */
    std::string title;
    /**
     * Build the sweep grid. Figures that only print model/topology
     * properties (fig1, fig10, table2, table3) return an empty grid
     * and do all their work in report().
     */
    std::function<SweepSpec()> spec;
    /** Render the paper-style ASCII table from the sweep result. */
    std::function<void(const SweepResult &, const FigureOptions &)> report;
};

/** All registered figures, in paper order. */
const std::vector<Figure> &all();

/** Look up a figure by id; nullptr when unknown. */
const Figure *find(const std::string &id);

/** Run one figure end-to-end: sweep, report, optional JSON dump. */
int run(const Figure &figure, const FigureOptions &options);

/**
 * Run an ad-hoc heterogeneous sweep: the platforms named by
 * --platform tokens (see PlatformRegistry::parse) over the eight
 * paper benchmarks, reported as latency/energy-per-sample tables.
 * @p batch overrides every platform's batch when nonzero.
 */
int runPlatforms(const std::vector<std::string> &tokens, unsigned batch,
                 const FigureOptions &options);

/**
 * Run several figures in order with a blank line between reports;
 * a --json path is suffixed ".<id>.json" per figure when more than
 * one runs so the dumps don't overwrite each other. Fatals on an
 * unknown id.
 */
int runAll(const std::vector<std::string> &ids,
           const FigureOptions &options);

} // namespace figures
} // namespace bitfusion

#endif // BITFUSION_RUNNER_FIGURES_H
