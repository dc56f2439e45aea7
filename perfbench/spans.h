/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span wraps one call from the benchmark into a library layer. It
 * holds a name of the form "<layer>/<operation>", start and end times
 * on the steady clock, its parent span, the pass it belongs to, and a
 * few numeric arguments (work counts the reduction divides by).
 * Spans stay in memory and are written once, as Chrome Trace Event
 * JSON, when the run ends. A disabled recorder records nothing, so
 * the untraced measurement pays one branch per call site.
 *
 * Single-threaded: spans are opened and closed on the benchmark's
 * own thread, around calls that may fan out internally.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Pass id stamped on spans opened from now on. */
    void setPass(std::int64_t pass) { pass_ = pass; }

    /** RAII span; a no-op when the recorder is disabled. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Attach a numeric argument to the span. */
        void arg(const char *key, double value);

      private:
        Tracer &tracer_;
        std::size_t index_ = 0;
    };

    /** Write every span as Chrome Trace Event JSON; false on error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        std::int64_t parent = -1;
        std::int64_t pass = -1;
        std::vector<std::pair<std::string, double>> args;
    };

    double nowUs() const;

    bool enabled_ = false;
    std::int64_t pass_ = -1;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    /** Indices of the spans currently open, innermost last. */
    std::vector<std::size_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
