/**
 * @file
 * The workloads. Each fills @p rep with its mode's metric set
 * (end-to-end untraced, per-layer traced) and counts every operation
 * and correctness check it attempts.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <pthread.h>
#include <sched.h>

#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench
{

/** Set-up runs per benchmark run; setup_s is their median. Cheap
 *  set-ups repeat until they add up to kSetupMinSeconds. On a shared
 *  virtual machine each vCPU's speed moves by tens of percent from
 *  second to second, so the repeats run on every CPU in turn. */
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupMinSeconds = 2.0;
inline constexpr int kSetupMaxRepeats = 25;

/** Windows per measured phase; timing metrics report the median
 *  window (see windowedSummary). */
inline constexpr int kWindows = 5;

/**
 * Time one set-up of @p make and return its state: the set-up the
 * workload then measures. A process sets up once, so peak_rss_mb is
 * read before repeatSetup() adds the other timings.
 */
template <class MakeFn>
auto
timedSetup(MakeFn &&make, std::vector<double> &times)
{
    const auto t0 = Clock::now();
    auto state = make();
    times.push_back(secondsSince(t0));
    return state;
}

/** Time one set-up of @p make on a thread pinned to the @p k-th CPU
 *  (cyclically) this process may run on, and drop its state; returns
 *  the seconds it took. */
template <class MakeFn>
double
setupOnCpu(MakeFn &&make, int k)
{
    int cpu = -1;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0 && CPU_COUNT(&allowed) > 0) {
        int target = k % CPU_COUNT(&allowed);
        for (int c = 0; c < CPU_SETSIZE && cpu < 0; ++c)
            if (CPU_ISSET(c, &allowed) && target-- == 0)
                cpu = c;
    }
    double seconds = 0.0;
    std::thread worker([&] {
        if (cpu >= 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        }
        const auto t0 = Clock::now();
        const auto state = make();
        seconds = secondsSince(t0);
    });
    worker.join();
    return seconds;
}

/** The remaining set-ups, timed and dropped, the k-th on the k-th
 *  CPU; run them after the measured state is gone. */
template <class MakeFn>
void
repeatSetup(MakeFn &&make, std::vector<double> &times)
{
    double total = 0.0;
    for (const double t : times)
        total += t;
    for (int k = static_cast<int>(times.size());
         k < kSetupRepeats || (total < kSetupMinSeconds && k < kSetupMaxRepeats); ++k) {
        times.push_back(setupOnCpu(make, k));
        total += times.back();
    }
}

void runReconstruct(const Options &opts, Report &rep);
void runStreamFleet(const Options &opts, Report &rep);
void runChipSim(const Options &opts, Report &rep);

/** Self-test: stream_fleet's open-loop send schedule is a pure function
 *  of its seed. Returns the number of failures. */
int streamScheduleSelfTest();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
