/**
 * @file
 * The benchmark's one statistics helper and its metric ledger.
 *
 * Every timing is reported as a median plus a tail percentile, each
 * with its sample count.  A tail is only trusted when at least
 * kTailSamples samples lie beyond it, so summarize() also names the
 * highest percentile of a fixed ladder that the sample supports.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a percentile before it is reported. */
inline constexpr double kTailSamples = 10.0;


/** Quantile @p q in [0, 1] of ascending @p sorted, linear interpolation
 *  between closest ranks (the convention of numpy's default). */
inline double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** True when @p n samples leave at least kTailSamples beyond @p q. */
inline bool
supportsPercentile(std::size_t n, double q)
{
    return static_cast<double>(n) * (1.0 - q) >= kTailSamples - 1e-9;
}

inline double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

/** Distribution summary of one sample set. */
struct Summary
{
    std::size_t n = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    /** Highest percentile of {99.9, 99, 95, 90, 75, 50} with at least
     *  kTailSamples beyond it; 0 when none is supported. */
    double tail_q = 0.0;
    double tail = 0.0; ///< Value at tail_q.
};

inline Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.n = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    s.mean = sum(values) / static_cast<double>(values.size());
    s.p50 = quantileSorted(values, 0.50);
    s.p99 = quantileSorted(values, 0.99);
    for (double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
        if (supportsPercentile(values.size(), q)) {
            s.tail_q = q;
            s.tail = quantileSorted(values, q);
            break;
        }
    }
    return s;
}

/**
 * The fastest of repeated timings of one operation, taken as its time.
 * The shared 4-core virtual machine the benchmark was written on ran
 * the same code at two speeds, switching every few milliseconds: a
 * fixed 1.2 ms kernel took 1.9 ms at the slower one, and the share of
 * each speed changed from minute to minute, so medians, and even lower
 * deciles, over a 30-second run moved by a fifth to a third between
 * runs.  The fastest repeat of a short operation usually ran at the
 * faster speed; SpeedProbe corrects for runs that seldom did.
 */
inline double
fastest(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

inline double
median(std::vector<double> values)
{
    return summarize(std::move(values)).p50;
}

/** One named metric with its unit and the samples behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note; ///< How the value was formed (statistic, source).
};

/** Ordered metric list of one run; written into the ledger. */
class Ledger
{
  public:
    void
    add(std::string name, double value, std::string unit,
        std::size_t samples, std::string note)
    {
        metrics_.push_back({std::move(name), value, std::move(unit),
                            samples, std::move(note)});
    }

    /** Median of @p values under @p name. */
    void
    addMedian(const std::string &name, const std::vector<double> &values,
              const std::string &unit)
    {
        add(name, median(values), unit, values.size(), "median");
    }

    /** Mean of @p values under @p name. */
    void
    addMean(const std::string &name, const std::vector<double> &values,
            const std::string &unit)
    {
        add(name, summarize(values).mean, unit, values.size(), "mean");
    }

    /** 99th percentile of @p values; the note says whether the sample
     *  supports it and names the highest percentile it does support. */
    void
    addP99(const std::string &name, const std::vector<double> &values,
           const std::string &unit)
    {
        const Summary s = summarize(values);
        std::string note = "p99";
        if (!supportsPercentile(s.n, 0.99))
            note += " (UNSUPPORTED: fewer than 10 samples beyond)";
        note += "; highest supported p" + trimmed(s.tail_q * 100.0) +
                " = " + trimmed(s.tail);
        add(name, s.p99, unit, s.n, note);
    }

    /** Re-publishes metric @p source under the generic name @p alias,
     *  multiplied by @p factor (a SpeedProbe's, for a time or a rate). */
    void
    alias(const std::string &alias, const std::string &source,
          double factor = 1.0)
    {
        for (const Metric &m : metrics_) {
            if (m.name == source) {
                Metric copy = m;
                copy.name = alias;
                copy.value *= factor;
                copy.note = "= " + source +
                            (factor == 1.0 ? "" : " x " + trimmed(factor)) +
                            " (" + m.note + ")";
                metrics_.push_back(copy);
                return;
            }
        }
        throw std::logic_error("ledger: no metric named " + source);
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    static std::string
    trimmed(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        return buf;
    }

    std::vector<Metric> metrics_;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
