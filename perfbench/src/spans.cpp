#include "spans.hpp"

#include <cstdio>

#include "support/json.hpp"

namespace perfbench
{

uint32_t
Recorder::beginOp(std::string id)
{
    ops_.push_back(std::move(id));
    curOp_ = static_cast<uint32_t>(ops_.size() - 1);
    return curOp_;
}

int32_t
Recorder::open(const char *name, int64_t start)
{
    if (!enabled_)
        return -1;
    SpanRecord r;
    r.name = name;
    r.startNs = start;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.op = curOp_;
    spans_.push_back(r);
    const auto idx = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
}

void
Recorder::close(int32_t idx, int64_t end)
{
    if (idx < 0)
        return;
    spans_[static_cast<size_t>(idx)].endNs = end;
    // Spans are RAII scopes, so they close innermost first.
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

void
Recorder::child(int32_t parent, const char *name, int64_t start,
                int64_t end)
{
    if (parent < 0)
        return;
    SpanRecord r;
    r.name = name;
    r.startNs = start;
    r.endNs = end;
    r.parent = parent;
    r.op = spans_[static_cast<size_t>(parent)].op;
    spans_.push_back(r);
}

std::vector<int64_t>
Recorder::selfTimes() const
{
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.endNs - s.startNs;
    return self;
}

std::map<std::string, int64_t>
Recorder::layerSelfNs() const
{
    const std::vector<int64_t> self = selfTimes();
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const std::string name = spans_[i].name;
        out[name.substr(0, name.find('.'))] += self[i];
    }
    return out;
}

int64_t
Recorder::topLevelNs() const
{
    int64_t total = 0;
    for (const SpanRecord &s : spans_)
        if (s.parent < 0)
            total += s.endNs - s.startNs;
    return total;
}

std::vector<double>
Recorder::selfNsOf(const std::string &name) const
{
    const std::vector<int64_t> self = selfTimes();
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            out.push_back(static_cast<double>(self[i]));
    return out;
}

bool
Recorder::write(const std::string &path) const
{
    using support::json::Value;
    Value ops = Value::array();
    for (const std::string &id : ops_)
        ops.push(Value::str(id));
    Value spans = Value::array();
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    for (const SpanRecord &s : spans_) {
        Value v = Value::object();
        v.set("name", Value::str(s.name));
        v.set("start_ns", Value::integer(static_cast<uint64_t>(s.startNs - t0)));
        v.set("end_ns", Value::integer(static_cast<uint64_t>(s.endNs - t0)));
        v.set("parent", Value::number(s.parent));
        v.set("op", Value::integer(s.op));
        spans.push(std::move(v));
    }
    Value doc = Value::object();
    doc.set("schema", Value::str("perfbench-spans-v1"));
    doc.set("ops", std::move(ops));
    doc.set("spans", std::move(spans));
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string text = doc.dump() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
