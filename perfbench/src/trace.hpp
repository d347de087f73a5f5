/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans live in one array sized up front; recording a span writes one
 * slot and allocates nothing.  Spans are only written out (and reduced
 * to per-layer self times) after the measured loop ends.  A span's
 * parent is the span open on the recorder when it started, so callers
 * nest spans by scope.  Every span carries the id of the operation
 * (compile, request, evaluation) it belongs to.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanRecorder
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int32_t parent; ///< Slot of the enclosing span; -1 at root.
        std::uint32_t request;
    };

    explicit SpanRecorder(std::size_t capacity)
        : slots_(new Span[capacity]), capacity_(capacity)
    {
    }

    /** Opens a span; returns its slot, or -1 once the array is full
     *  (the span is then counted as dropped). */
    std::int32_t
    open(const char *name, std::uint32_t request)
    {
        if (size_ == capacity_) {
            ++dropped_;
            return -1;
        }
        const auto slot = static_cast<std::int32_t>(size_++);
        slots_[static_cast<std::size_t>(slot)] = {name, nowNs(), 0, current_,
                                                  request};
        current_ = slot;
        return slot;
    }

    void
    close(std::int32_t slot)
    {
        if (slot < 0)
            return;
        Span &s = slots_[static_cast<std::size_t>(slot)];
        s.end_ns = nowNs();
        current_ = s.parent;
    }

    std::size_t size() const { return size_; }
    std::size_t dropped() const { return dropped_; }

    /** Self time (duration minus the children's durations) of the
     *  closed spans, in milliseconds, summed per operation id and
     *  grouped by span name: one value per operation that entered the
     *  span (an operation may enter it several times). */
    std::map<std::string, std::vector<double>>
    selfTimesMs() const
    {
        const std::vector<std::int64_t> child_ns = childNs();
        std::map<std::pair<std::string, std::uint32_t>, std::int64_t> sums;
        for (std::size_t i = 0; i < size_; ++i) {
            const Span &s = slots_[i];
            sums[{s.name, s.request}] += s.end_ns - s.start_ns - child_ns[i];
        }
        std::map<std::string, std::vector<double>> out;
        for (const auto &[key, ns] : sums)
            out[key.first].push_back(static_cast<double>(ns) * 1e-6);
        return out;
    }

    /** Time the root spans' children cover, in milliseconds: the part
     *  of each operation that named layers account for. */
    double
    coveredMs() const
    {
        const std::vector<std::int64_t> child_ns = childNs();
        std::int64_t covered = 0;
        for (std::size_t i = 0; i < size_; ++i)
            if (slots_[i].parent < 0)
                covered += child_ns[i];
        return static_cast<double>(covered) * 1e-6;
    }

    /** Writes every span as CSV (slot,parent,request,name,start,end). */
    void
    writeCsv(const std::string &path) const
    {
        std::ofstream out(path);
        out << "slot,parent,request,name,start_ns,end_ns\n";
        for (std::size_t i = 0; i < size_; ++i) {
            const Span &s = slots_[i];
            out << i << ',' << s.parent << ',' << s.request << ','
                << s.name << ',' << s.start_ns << ',' << s.end_ns << '\n';
        }
    }

  private:
    /** Summed durations of each span's direct children. */
    std::vector<std::int64_t>
    childNs() const
    {
        std::vector<std::int64_t> child_ns(size_, 0);
        for (std::size_t i = 0; i < size_; ++i)
            if (slots_[i].parent >= 0)
                child_ns[static_cast<std::size_t>(slots_[i].parent)] +=
                    slots_[i].end_ns - slots_[i].start_ns;
        return child_ns;
    }

    std::unique_ptr<Span[]> slots_;
    std::size_t capacity_;
    std::size_t size_ = 0;
    std::size_t dropped_ = 0;
    std::int32_t current_ = -1;
};

/** Scope guard for one span; a null recorder records nothing, so the
 *  untraced and traced runs share one code path. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, std::uint32_t request)
        : rec_(rec), slot_(rec ? rec->open(name, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(slot_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    std::int32_t slot_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
