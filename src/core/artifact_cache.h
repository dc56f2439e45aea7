/**
 * @file
 * Process-level cache of compiled platform artifacts.
 *
 * Compilation (Bit Fusion's Fusion-ISA codegen) is the expensive,
 * perfectly reusable step of a run: the artifact depends only on the
 * platform's compileKey() and the network, never on who asks. The
 * sweep runner used to keep a cache per SweepRunner::run; this class
 * hoists it to one process-wide table shared by every sweep and by
 * the serving engine (src/serve), so repeated CLI figure runs,
 * back-to-back sweeps, and a serving workload all compile each
 * distinct (compile key, network) pair exactly once.
 *
 * Thread safety: get() may be called concurrently for any mix of
 * keys. The first caller of a key compiles; concurrent callers of
 * the same key block on a shared future instead of compiling twice.
 * Distinct keys compile fully in parallel. A compile that throws
 * rethrows to every waiter and leaves no entry behind, so the next
 * get() of that key compiles again.
 */

#ifndef BITFUSION_CORE_ARTIFACT_CACHE_H
#define BITFUSION_CORE_ARTIFACT_CACHE_H

#include <cstddef>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/core/platform.h"
#include "src/dnn/network.h"

namespace bitfusion {

class ExecPlan;
struct InstructionBlock;

/**
 * Structural identity of a network: name plus every schedule-
 * relevant layer field. Two Network objects with equal fingerprints
 * compile to interchangeable artifacts on platforms with equal
 * compileKey().
 */
std::string networkFingerprint(const Network &net);

/** Shared compiled-artifact cache; see file docs. */
class ArtifactCache
{
  public:
    ArtifactCache() = default;
    ArtifactCache(const ArtifactCache &) = delete;
    ArtifactCache &operator=(const ArtifactCache &) = delete;

    /** The process-wide instance shared by sweeps and serving. */
    static ArtifactCache &process();

    /** Result of one lookup. */
    struct Outcome
    {
        PlatformArtifactPtr artifact;
        /** True when this call compiled the artifact. */
        bool compiled = false;
    };

    /**
     * Return the artifact for (platform.compileKey(), net),
     * compiling through @p platform on a miss. Platforms with an
     * empty compileKey() have no compile step: returns a null
     * artifact and touches no counters.
     */
    Outcome get(const Platform &platform, const Network &net);

    /**
     * Return the compiled execution plan for @p block, lowering it on
     * a miss. Keyed by ExecPlan::blockKey (block content), so every
     * Interpreter in the process -- reconcile tests, benches, future
     * functional serving -- shares one lowering per distinct block.
     * Same concurrency contract as get().
     */
    std::shared_ptr<const ExecPlan> plan(const InstructionBlock &block);

    /** Compilations performed since construction/clear(). */
    std::size_t compileCount() const;
    /** Lookups served from an existing entry. */
    std::size_t hitCount() const;
    /** Distinct artifacts currently held. */
    std::size_t size() const;

    /** Plan lowerings performed since construction/clear(). */
    std::size_t planCount() const;
    /** Plan lookups served from an existing entry. */
    std::size_t planHitCount() const;
    /** Distinct plans currently held. */
    std::size_t planSize() const;

    /** Drop every entry and reset the counters (tests). */
    void clear();

  private:
    /**
     * The shared memoized-future pattern behind get() and plan():
     * the first caller of a key builds outside the lock, concurrent
     * same-key callers block on the shared future, and a throwing
     * build erases its entry so a later call can retry. @p builds
     * counts the builds started; @p ownerOut (optional) reports
     * whether this call built.
     */
    template <typename Value, typename Build>
    Value lookupOrBuild(
        std::unordered_map<std::string, std::shared_future<Value>> &map,
        std::size_t &hits, std::size_t &builds, const std::string &key,
        Build &&build, bool *ownerOut = nullptr);

    mutable std::mutex mutex_;
    std::unordered_map<std::string,
                       std::shared_future<PlatformArtifactPtr>>
        entries_;
    std::unordered_map<
        std::string,
        std::shared_future<std::shared_ptr<const ExecPlan>>>
        plans_;
    std::size_t compiles_ = 0;
    std::size_t hits_ = 0;
    std::size_t planBuilds_ = 0;
    std::size_t planHits_ = 0;
};

} // namespace bitfusion

#endif // BITFUSION_CORE_ARTIFACT_CACHE_H
