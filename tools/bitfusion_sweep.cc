/**
 * @file
 * bitfusion_sweep: reproduce any paper figure from one binary.
 *
 *   bitfusion_sweep --list
 *   bitfusion_sweep --figure fig13 [--threads N] [--json PATH]
 *                   [--per-layer] [--timing simple|overlap]
 *   bitfusion_sweep --all [--threads N]
 *   bitfusion_sweep --platform eyeriss --platform bitfusion
 *                   [--batch N] [--timing ...]
 *
 * Figures run on the parallel sweep engine; output is the
 * paper-style ASCII table, plus optional machine-readable JSON.
 * --platform runs an ad-hoc heterogeneous comparison of any
 * registered platforms (kind[:variant], e.g. eyeriss, stripes,
 * gpu:titan-xp-int8, bitfusion:16nm) over the eight paper
 * benchmarks.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/core/platform_registry.h"
#include "src/runner/figures.h"
#include "src/serve/scheduler.h"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --figure ID [--threads N] [--json PATH] "
                 "[--per-layer] [--timing simple|overlap]\n"
                 "       %s --all [--threads N]\n"
                 "       %s --platform KIND[:VARIANT] [...] [--batch N]\n"
                 "       %s --list | --list-platforms | "
                 "--list-schedulers\n",
                 argv0, argv0, argv0, argv0);
    return 2;
}

/** One line per registered platform kind: kind, variants, help. */
void
printPlatforms()
{
    std::printf("platforms (--platform KIND[:VARIANT]):\n");
    for (const auto &entry :
         bitfusion::PlatformRegistry::builtin().entries()) {
        std::printf("  %-11s %-40s %s\n", entry.kind.c_str(),
                    entry.variants.c_str(), entry.help.c_str());
    }
}

/** One line per registered scheduler: name and help. */
void
printSchedulers()
{
    std::printf("schedulers (--scheduler NAME, bitfusion_serve):\n");
    for (const auto &entry :
         bitfusion::serve::SchedulerRegistry::builtin().entries()) {
        std::printf("  %-11s %s\n", entry.name.c_str(),
                    entry.help.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bitfusion;
    using namespace bitfusion::figures;

    std::vector<std::string> ids;
    std::vector<std::string> platforms;
    FigureOptions options;
    unsigned batch = 0;
    bool list = false, run_all = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--figure" && i + 1 < argc) {
            ids.push_back(argv[++i]);
        } else if (arg == "--platform" && i + 1 < argc) {
            platforms.push_back(argv[++i]);
        } else if (arg == "--batch") {
            batch = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--batch", UINT32_MAX));
            if (batch == 0) {
                std::fprintf(stderr,
                             "--batch needs a positive integer, got "
                             "'%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--threads") {
            options.threads = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--threads", UINT32_MAX));
        } else if (arg == "--json" && i + 1 < argc) {
            options.jsonPath = argv[++i];
        } else if (arg == "--per-layer") {
            options.perLayer = true;
        } else if (arg == "--timing") {
            options.timing = timingArg(argc, argv, i);
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--list-platforms") {
            printPlatforms();
            return 0;
        } else if (arg == "--list-schedulers") {
            printSchedulers();
            return 0;
        } else if (arg == "--all") {
            run_all = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (list) {
        for (const auto &figure : all())
            std::printf("%-18s %s\n", figure.id.c_str(),
                        figure.title.c_str());
        std::printf("\n");
        printPlatforms();
        return 0;
    }
    if (!platforms.empty()) {
        if (run_all || !ids.empty())
            return usage(argv[0]);
        return runPlatforms(platforms, batch, options);
    }
    if (run_all) {
        for (const auto &figure : all())
            ids.push_back(figure.id);
    }
    if (ids.empty())
        return usage(argv[0]);

    for (const auto &id : ids) {
        if (find(id) == nullptr) {
            std::fprintf(stderr, "unknown figure '%s' (try --list)\n",
                         id.c_str());
            return 2;
        }
    }
    return runAll(ids, options);
}
