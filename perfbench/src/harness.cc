#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "common/simd.h"
#include "obs/build_info.h"

namespace perfbench
{

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    // Nearest rank: the ceil(q/100 * n)-th smallest sample (1-based).
    std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
maxSupportedPercentile(std::size_t n)
{
    if (n <= 10)
        return 0.0;
    return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double
tailPercentile(std::size_t n)
{
    return std::clamp(maxSupportedPercentile(n), 50.0, 99.0);
}

LatencySummary
summarize(const std::vector<double> &values)
{
    LatencySummary s;
    s.n = values.size();
    s.p50 = percentile(values, 50.0);
    s.p90 = percentile(values, 90.0);
    s.tailPct = tailPercentile(values.size());
    s.tail = percentile(values, s.tailPct);
    return s;
}

LatencySummary
windowedSummary(const std::vector<std::vector<double>> &windows)
{
    LatencySummary s;
    std::vector<double> p50s, p90s, tails;
    s.tailPct = 99.0;
    for (const std::vector<double> &w : windows) {
        if (w.empty())
            continue;
        const LatencySummary ws = summarize(w);
        s.n += ws.n;
        p50s.push_back(ws.p50);
        p90s.push_back(ws.p90);
        tails.push_back(ws.tail);
        s.tailPct = std::min(s.tailPct, ws.tailPct);
    }
    s.p50 = median(p50s);
    s.p90 = median(p90s);
    s.tail = median(tails);
    return s;
}

std::vector<std::vector<double>>
splitWindows(const std::vector<double> &values, int k)
{
    std::vector<std::vector<double>> windows(static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < values.size(); ++i)
        windows[i * static_cast<std::size_t>(k) / values.size()].push_back(values[i]);
    return windows;
}

const std::vector<MetricDef> &
metricTable()
{
    static const std::vector<MetricDef> table = {
        // End-to-end: what a trainer, a client or a simulator user sees
        // (CPU cost, throughput and quality of the workload's operation).
        // Latency percentiles are in the detail line: on a shared
        // virtual machine an open loop's median frame latency moves by
        // more than any bound between runs of the same code.
        {"setup_s", "s", false},
        {"cpu_ms", "ms", false},
        {"rate_per_s", "1/s", false},
        {"psnr_db", "dB", false},
        {"ok_frac", "fraction", false},
        // Per-layer: nerf stages (replayed at the workload's batch sizes).
        {"nerf.stage1.ns_per_ray", "ns", true},
        {"nerf.stage2.ns_per_sample", "ns", true},
        {"nerf.mlp.ns_per_sample", "ns", true},
        {"nerf.stage3.ns_per_ray", "ns", true},
        {"nerf.trace_rays.ns_per_sample", "ns", true},
        {"nerf.samples_per_ray", "count", true},
        {"nerf.mlp_visible_frac", "fraction", true},
        {"nerf.batch_samples.p50", "count", true},
        // nerf training only.
        {"nerf.backward.ns_per_sample", "ns", true},
        {"nerf.optimizer.ms_per_step", "ms", true},
        {"nerf.occupancy_update.ms", "ms", true},
        // serve: queueing, execution, registry, reprojection.
        {"serve.queue_wait_ms.p50", "ms", true},
        {"serve.queue_wait_ms.p99", "ms", true},
        {"serve.dispatch_wait_ms.p99", "ms", true},
        {"serve.execute_ms.p50", "ms", true},
        {"serve.batch.mean", "count", true},
        {"serve.registry.hit_frac", "fraction", true},
        {"serve.registry.reloads", "count", true},
        {"serve.registry.reload_ms.p50", "ms", true},
        {"serve.session.reproject_frac", "fraction", true},
        {"serve.reproject.ray_frac", "fraction", true},
        {"serve.reproject.warp_ms.p50", "ms", true},
        {"serve.reproject.tiles_ms.p50", "ms", true},
        // Load generator validity.
        {"loadgen.late_ms.p99", "ms", true},
        // chip / multichip host time.
        {"chip.capture.ns_per_ray", "ns", true},
        {"chip.stage1_model.ms", "ms", true},
        {"chip.perf_model.us", "us", true},
        {"multichip.capture.ns_per_ray", "ns", true},
        // obs: headline metric untraced vs traced.
        {"obs.trace_overhead_frac", "fraction", true},
    };
    return table;
}

namespace
{

const MetricDef *
findMetric(const std::string &name)
{
    for (const MetricDef &m : metricTable())
        if (name == m.name)
            return &m;
    return nullptr;
}

/** JSON number: full precision, finite (non-finite becomes an error). */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

void
Report::metric(const std::string &name, double value)
{
    if (!findMetric(name)) {
        std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
        attempt(false, "metric table");
        return;
    }
    metrics_[name] = value;
}

void
Report::zero(std::initializer_list<const char *> names)
{
    for (const char *name : names)
        metric(name, 0.0);
}

bool
Report::attempt(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Report::attempts(std::uint64_t n, std::uint64_t failed, const std::string &what)
{
    attempted_ += n;
    failed_ += failed;
    if (failed > 0)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s (%llu of %llu)\n",
                     what.c_str(), static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(n));
}

int
Report::finish()
{
    // The run must report exactly its mode's metric set, all finite.
    bool complete = true;
    for (const MetricDef &m : metricTable()) {
        if (m.perLayer != opts_.trace)
            continue;
        const auto it = metrics_.find(m.name);
        if (it == metrics_.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "perfbench: metric '%s' missing or not finite\n",
                         m.name);
            complete = false;
        }
    }
    for (const auto &[name, value] : metrics_) {
        (void)value;
        if (findMetric(name)->perLayer != opts_.trace) {
            std::fprintf(stderr, "perfbench: metric '%s' belongs to the other mode\n",
                         name.c_str());
            complete = false;
        }
    }
    if (!complete)
        return 3;

    // git_configured is the commit the build was configured at; run.py
    // adds "git", `git describe` at run time.
    const fusion3d::obs::BuildInfo &bi = fusion3d::obs::buildInfo();
    std::printf("provenance: {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
                "\"trace\":%d,\"dispatch\":%s,\"nproc\":%u,\"threads\":%d,"
                "\"compiler\":%s,\"build_type\":%s,\"sanitizer\":%s,"
                "\"git_configured\":%s}\n",
                jsonString(opts_.workload).c_str(),
                static_cast<unsigned long long>(opts_.seed),
                jsonNumber(opts_.seconds).c_str(), opts_.trace ? 1 : 0,
                jsonString(fusion3d::simd::dispatchName()).c_str(),
                std::thread::hardware_concurrency(), opts_.threads,
                jsonString(bi.compiler).c_str(), jsonString(bi.buildType).c_str(),
                jsonString(bi.sanitizer).c_str(), jsonString(bi.git).c_str());

    std::string detail = "detail: {";
    bool first = true;
    for (const auto &[key, value] : details_) {
        if (!first)
            detail += ",";
        detail += jsonString(key) + ":";
        detail += std::isfinite(value) ? jsonNumber(value) : "null";
        first = false;
    }
    std::printf("%s}\n", detail.c_str());

    std::string line = "{\"correct\": ";
    line += failed_ == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    first = true;
    for (const auto &[name, value] : metrics_) {
        if (!first)
            line += ", ";
        line += jsonString(name) + ": {\"value\": " + jsonNumber(value) +
                ", \"unit\": " + jsonString(findMetric(name)->unit) + "}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

int
selfTest()
{
    int failures = 0;
    const auto expect = [&failures](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest FAILED: %s\n", what);
            ++failures;
        }
    };

    // Nearest-rank percentiles on known inputs.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i); // 1..100, unsorted on purpose
    expect(percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
    expect(percentile(v, 99.0) == 99.0, "p99 of 1..100 is 99");
    expect(percentile(v, 100.0) == 100.0, "p100 of 1..100 is 100");
    expect(percentile(v, 0.0) == 1.0, "p0 of 1..100 is the minimum");
    expect(percentile({7.0}, 99.0) == 7.0, "percentile of one sample");
    expect(percentile({}, 50.0) == 0.0, "percentile of nothing is 0");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.0, "nearest-rank median of four");
    expect(maxSupportedPercentile(1000) == 99.0, "1000 samples support p99");
    expect(maxSupportedPercentile(500) == 98.0, "500 samples support p98");
    expect(maxSupportedPercentile(10) == 0.0, "10 samples support nothing");
    expect(tailPercentile(5000) == 99.0, "the tail is capped at p99");
    expect(tailPercentile(5) == 50.0, "the tail is floored at p50");
    const LatencySummary s = summarize(v);
    expect(s.n == 100 && s.p50 == 50.0 && s.p90 == 90.0 && s.tailPct == 90.0 &&
               s.tail == 90.0,
           "summary of 1..100: the tail is p90, ten samples beyond it");

    // Windowed summaries: medians over the windows' own statistics.
    std::vector<std::vector<double>> windows = {v, v, {}};
    for (double &x : windows[1])
        x *= 10.0; // one slow window
    std::vector<double> fast(v);
    for (double &x : fast)
        x *= 0.5;
    windows.push_back(fast);
    const LatencySummary ws = windowedSummary(windows);
    expect(ws.n == 300 && ws.p50 == 50.0 && ws.p90 == 90.0 && ws.tail == 90.0 &&
               ws.tailPct == 90.0,
           "windowed summary takes the median window, ignores empty ones");

    const auto split = splitWindows({1, 2, 3, 4, 5, 6, 7}, 3);
    expect(split.size() == 3 && split[0] == std::vector<double>{1, 2, 3} &&
               split[1] == std::vector<double>{4, 5} &&
               split[2] == std::vector<double>{6, 7},
           "split into consecutive near-equal windows");

    // The metric table has unique, non-empty names.
    std::set<std::string> names;
    for (const MetricDef &m : metricTable())
        expect(names.insert(m.name).second, "metric names unique");

    std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures;
}

} // namespace perfbench
