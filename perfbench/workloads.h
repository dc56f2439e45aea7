/**
 * @file
 * The benchmark's workloads. Each sets up, measures for
 * BenchOptions::seconds and checks its outputs; see perfbench/README.md
 * for why each was chosen and which layers it exercises.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "perfbench/harness.h"

namespace perfbench {

Measurements serveReplayDay(const BenchOptions &opts, Tracer &tracer);
Measurements serveChaosFleet(const BenchOptions &opts, Tracer &tracer);
Measurements isaZooMixed(const BenchOptions &opts, Tracer &tracer);
Measurements sweepGridCold(const BenchOptions &opts, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
