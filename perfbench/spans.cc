#include "perfbench/spans.h"

#include <fstream>

#include "src/common/json.h"

namespace perfbench {

using bitfusion::json::Value;

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    Span span;
    span.name = name;
    span.parent = tracer_.open_.empty()
                      ? -1
                      : static_cast<std::int64_t>(tracer_.open_.back());
    span.pass = tracer_.pass_;
    index_ = tracer_.spans_.size();
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
    // Read the clock last so the bookkeeping above stays outside.
    tracer_.spans_[index_].startUs = tracer_.nowUs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_.enabled_)
        return;
    tracer_.spans_[index_].endUs = tracer_.nowUs();
    tracer_.open_.pop_back();
}

void
Tracer::Scope::arg(const char *key, double value)
{
    if (tracer_.enabled_)
        tracer_.spans_[index_].args.emplace_back(key, value);
}

bool
Tracer::write(const std::string &path) const
{
    Value events = Value::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Value args = Value::object();
        args.set("id", static_cast<std::uint64_t>(i))
            .set("parent", s.parent)
            .set("pass", s.pass);
        for (const auto &[key, value] : s.args)
            args.set(key, value);
        const std::string layer = s.name.substr(0, s.name.find('/'));
        events.push(Value::object()
                        .set("name", s.name)
                        .set("cat", layer)
                        .set("ph", "X")
                        .set("ts", s.startUs)
                        .set("dur", s.endUs - s.startUs)
                        .set("pid", 1)
                        .set("tid", 1)
                        .set("args", std::move(args)));
    }
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
