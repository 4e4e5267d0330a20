/**
 * @file
 * Shared machinery of the repository benchmark: exact order statistics,
 * the metric table every result is checked against, and the result
 * printer.
 *
 * Every workload fills one Report. In an untraced run (--trace 0) the
 * report must carry every end-to-end metric of the table; in a traced
 * run (--trace 1) every per-layer metric. The last line of stdout is
 * the JSON object {"correct", "attempted", "failed", "metrics"}.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for artifacts (.f3dm files) of this run. */
    std::string workdir = ".";
    /** Worker threads a workload may load the machine with (nproc). */
    int threads = 1;
};

// ---------------------------------------------------------------------
// Exact order statistics.

/**
 * Nearest-rank percentile of @p values (q in [0,100]): the smallest
 * sample with at least q % of the samples at or below it. Always an
 * observed value; 0 for an empty input.
 */
double percentile(std::vector<double> values, double q);

/** percentile(values, 50). */
double median(std::vector<double> values);

/**
 * The highest percentile with at least ten samples above it under the
 * nearest-rank rule: 100 * (n - 10) / n, or 0 when n <= 10.
 */
double maxSupportedPercentile(std::size_t n);

/**
 * The tail percentile a population of @p n supports: the highest with
 * at least ten samples beyond it, capped at 99 and floored at 50.
 */
double tailPercentile(std::size_t n);

/** Median, p90, tail and the sample count of one latency population. */
struct LatencySummary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    /** The tailPercentile(n)-th percentile (p99 once n >= 1000). */
    double tail = 0.0;
    double tailPct = 0.0;
};

LatencySummary summarize(const std::vector<double> &values);

/**
 * Summarize each window on its own and report the medians of the
 * windows' p50, p90 and tail: a neighbour that slows the shared host
 * for fewer than half the windows moves none of them. n counts every
 * sample; tailPct is the shallowest window's tail percentile.
 */
LatencySummary windowedSummary(const std::vector<std::vector<double>> &windows);

/** Cut @p values into @p k consecutive windows of (nearly) equal size. */
std::vector<std::vector<double>> splitWindows(const std::vector<double> &values, int k);

// ---------------------------------------------------------------------
// Metrics and the result record.

struct MetricDef
{
    const char *name;
    const char *unit;
    /** False: end-to-end metric (untraced run); true: per-layer
     *  metric (traced run). */
    bool perLayer;
};

/** Every metric the benchmark can print; BENCHMARK.json mirrors it. */
const std::vector<MetricDef> &metricTable();

/** Accumulates one run's metrics, checks and details. */
class Report
{
  public:
    explicit Report(const Options &opts) : opts_(opts) {}

    /** Set metric @p name (must be in metricTable()). */
    void metric(const std::string &name, double value);

    /** Set each of @p names to 0: per-layer metrics of layers that do
     *  not run on the workload. */
    void zero(std::initializer_list<const char *> names);

    /** Count one attempted operation; a false @p ok counts it failed
     *  and logs @p what to stderr. Returns @p ok. */
    bool attempt(bool ok, const std::string &what = "");

    /** Count @p n attempts, @p failed of them failed. */
    void attempts(std::uint64_t n, std::uint64_t failed, const std::string &what);

    /** A free-form number recorded in the detail line (not a metric). */
    void detail(const std::string &key, double value) { details_[key] = value; }

    /** Print the provenance and detail lines, then the result line.
     *  Returns the process exit code. */
    int finish();

  private:
    const Options &opts_;
    std::map<std::string, double> metrics_;
    std::map<std::string, double> details_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** CPU time of this process (every thread), seconds. */
double processCpuSeconds();

/** CPU time of the calling thread, seconds. */
double threadCpuSeconds();

/** Peak resident set of this process, MiB. */
double peakRssMiB();

/** Run the harness self-tests; returns the number of failures. */
int selfTest();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
