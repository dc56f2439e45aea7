#include "src/core/artifact_cache.h"

#include <utility>

#include "src/isa/exec_plan.h"

namespace bitfusion {

std::string
networkFingerprint(const Network &net)
{
    std::string key = net.name();
    for (const Layer &l : net.layers()) {
        key += '|';
        key += l.name;
        key += ';';
        key += toString(l.kind);
        key += ';';
        key += l.bits.toString();
        const unsigned dims[] = {l.inC, l.inH, l.inW,   l.outC,
                                 l.kH,  l.kW,  l.stride, l.pad,
                                 l.groups};
        for (unsigned d : dims) {
            key += ',';
            key += std::to_string(d);
        }
    }
    return key;
}

ArtifactCache &
ArtifactCache::process()
{
    static ArtifactCache cache;
    return cache;
}

template <typename Value, typename Build>
Value
ArtifactCache::lookupOrBuild(
    std::unordered_map<std::string, std::shared_future<Value>> &map,
    std::size_t &hits, std::size_t &builds, const std::string &key,
    Build &&build, bool *ownerOut)
{
    std::promise<Value> promise;
    std::shared_future<Value> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map.find(key);
        if (it != map.end()) {
            ++hits;
            future = it->second;
        } else {
            owner = true;
            ++builds;
            future = promise.get_future().share();
            map.emplace(key, future);
        }
    }

    // The entry's creator builds outside the lock so distinct keys
    // build fully in parallel; concurrent callers of the same key
    // block on the shared future instead of building twice.
    if (owner) {
        try {
            promise.set_value(build());
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            map.erase(key);
            throw;
        }
    }
    if (ownerOut != nullptr)
        *ownerOut = owner;
    return future.get();
}

ArtifactCache::Outcome
ArtifactCache::get(const Platform &platform, const Network &net)
{
    const std::string platformKey = platform.compileKey();
    if (platformKey.empty())
        return {};

    const std::string key = platformKey + '#' + networkFingerprint(net);
    bool compiled = false;
    PlatformArtifactPtr artifact = lookupOrBuild(
        entries_, hits_, compiles_, key,
        [&] { return platform.compile(net); }, &compiled);
    return {std::move(artifact), compiled};
}

std::shared_ptr<const ExecPlan>
ArtifactCache::plan(const InstructionBlock &block)
{
    const std::string key = ExecPlan::blockKey(block);
    return lookupOrBuild(plans_, planHits_, planBuilds_, key,
                         [&] { return ExecPlan::build(block); });
}

std::size_t
ArtifactCache::compileCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compiles_;
}

std::size_t
ArtifactCache::hitCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
ArtifactCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
ArtifactCache::planCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return planBuilds_;
}

std::size_t
ArtifactCache::planHitCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return planHits_;
}

std::size_t
ArtifactCache::planSize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return plans_.size();
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    plans_.clear();
    compiles_ = 0;
    hits_ = 0;
    planBuilds_ = 0;
    planHits_ = 0;
}

} // namespace bitfusion
