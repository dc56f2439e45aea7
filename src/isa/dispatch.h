/**
 * @file
 * Execution-engine dispatch tiers for compiled plans.
 *
 * An ExecPlan's linear program can be driven three ways, each a rung
 * of the execution-engine ladder (docs/performance.md):
 *
 *  - Switch: portable switch dispatch over the opcode, one case per
 *    CodeOp kind.
 *  - Threaded: computed-goto threaded code (GCC/Clang `&&label`
 *    dispatch tables); falls back to the switch loop on compilers
 *    without the extension.
 *  - Specialized: threaded dispatch over the program whose innermost
 *    RdBuf/RdBuf/Mac reduction nest, with the output loops around
 *    it where allowed, was fused at lowering time into one
 *    output-tile kernel call (src/isa/exec_kernels.h).
 *
 * Every tier is bit-identical to Interpreter::runLegacy in memory,
 * scratchpad, and InterpStats terms; the parity suite in
 * tests/test_interp_plan.cc pins this. The default tier is
 * Specialized, overridable per process with
 * BITFUSION_DISPATCH=switch|threaded|specialized (unknown values are
 * a fatal configuration error).
 */

#ifndef BITFUSION_ISA_DISPATCH_H
#define BITFUSION_ISA_DISPATCH_H

#include <string>

namespace bitfusion {

/** How the plan runtime dispatches its lowered program. */
enum class DispatchTier : unsigned
{
    Switch = 0,
    Threaded = 1,
    Specialized = 2,
};

/** Number of tiers (for iteration in tests and benches). */
constexpr unsigned kDispatchTierCount = 3;

/** "switch" / "threaded" / "specialized". */
const char *dispatchTierName(DispatchTier tier);

/** Parse a tier name; returns false on unknown input. */
bool parseDispatchTier(const std::string &text, DispatchTier &out);

/**
 * The process-wide default tier: Specialized, unless the
 * BITFUSION_DISPATCH environment variable selects another (read
 * once, on first use; an unrecognized value is fatal).
 */
DispatchTier defaultDispatchTier();

} // namespace bitfusion

#endif // BITFUSION_ISA_DISPATCH_H
