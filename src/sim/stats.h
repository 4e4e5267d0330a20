/**
 * @file
 * Lightweight statistics package for the cycle-level models, loosely
 * following gem5's Stats: named scalar counters, averages, and
 * fixed-bucket histograms (used for the feature-fetch latency variance
 * of Fig. 12(d)). All stats belong to a StatGroup that can dump itself.
 */

#ifndef FUSION3D_SIM_STATS_H_
#define FUSION3D_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/quantiles.h"

namespace fusion3d::sim
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

/** Streaming mean/variance/min/max accumulator (Welford). */
class Distribution
{
  public:
    Distribution() = default;
    explicit Distribution(std::string name) : name_(std::move(name)) {}

    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const { return count_ ? m2_ / static_cast<double>(count_) : 0.0; }
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double total() const { return sum_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Integer-bucket histogram: one bucket per distinct sampled value. */
class Histogram
{
  public:
    Histogram() = default;
    explicit Histogram(std::string name) : name_(std::move(name)) {}

    void sample(std::uint64_t v, std::uint64_t weight = 1);
    void reset();

    std::uint64_t count() const { return count_; }
    const std::map<std::uint64_t, std::uint64_t> &buckets() const { return buckets_; }
    /** Fraction of samples equal to @p v. */
    double fraction(std::uint64_t v) const;
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::map<std::uint64_t, std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

/**
 * A registry of stats that dumps them in a stable text format. Models
 * register their stats at construction; benches call dump().
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    Counter &addCounter(const std::string &name);
    Distribution &addDistribution(const std::string &name);
    Histogram &addHistogram(const std::string &name);
    obs::Quantiles &addQuantiles(const std::string &name);

    /** Reset every registered stat. */
    void resetAll();

    /** Write "<group>.<stat> <value>" lines. */
    void dump(std::ostream &os) const;

    /**
     * Append every stat as flat "<group>.<stat>" metric samples
     * (counters as counters; distribution moments, quantiles and
     * histogram buckets as gauges/labelled counters). Not synchronized:
     * thread-safe wrappers (serve::ServerStats) call this under their
     * own lock from a registered obs::MetricsRegistry collector.
     */
    void collect(obs::MetricSink &sink) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    // Deques-of-values via unique ownership keeps references stable.
    std::vector<std::unique_ptr<Counter>> counters_;
    std::vector<std::unique_ptr<Distribution>> distributions_;
    std::vector<std::unique_ptr<Histogram>> histograms_;
    std::vector<std::unique_ptr<obs::Quantiles>> quantiles_;
};

} // namespace fusion3d::sim

#endif // FUSION3D_SIM_STATS_H_
