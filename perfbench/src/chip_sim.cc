/**
 * @file
 * Workload "chip_sim": host time of the cycle-level accelerator models.
 * One job is Chip::evaluateInference on an 800x800 lego view,
 * Chip::evaluateTraining on a lego minibatch, and
 * MultiChipSystem::evaluateInference on an 800x800 view of the garden
 * MoE. The single-chip pipeline is trained during set-up (as the
 * Table III bench does) and its occupancy gate, like every MoE expert
 * gate, is bootstrapped from the scene's density (as the figure and
 * Table IV benches do).
 *
 * Jobs run on nproc workers, each with its own copy of the models (the
 * capture path mutates the pipeline's visitor), so host time is spread
 * over every core as a simulation farm would use them. Job k simulates
 * its own seeded rays from its own view angle. Every simulated statistic of a
 * job (per-stage cycles, seconds, FPS, samples/s, energy) feeds a
 * digest. After the window every kRecheckEvery-th job reruns on another
 * worker's model copies and must reproduce its digest; in the traced
 * run every job's digest must match its untraced twin. Each comparison
 * is one attempt.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "chip/chip.h"
#include "models.h"
#include "multichip/system.h"
#include "nerf/moe.h"
#include "nerf/serialize.h"
#include "obs/trace.h"
#include "replay.h"
#include "scenes/factory.h"
#include "workloads.h"

namespace perfbench
{

using namespace fusion3d;

namespace
{

/** Rays each job traces through each model. */
constexpr int kInferRays = 384;
constexpr int kTrainRays = 384;
constexpr int kMoeRays = 96;
constexpr int kJobRays = kInferRays + kTrainRays + kMoeRays;
/** Chip rays replayed through the stage ledger per traced job. */
constexpr int kReplayRays = 64;
/** Every kRecheckEvery-th job of an untraced run is rerun and checked. */
constexpr int kRecheckEvery = 16;

/** One worker's private copy of the simulated models. */
struct Worker
{
    std::unique_ptr<nerf::NerfPipeline> pipeline;
    std::unique_ptr<nerf::MoeNerf> moe;
};

struct Setup
{
    std::unique_ptr<scenes::Scene> lego;
    nerf::Dataset data;
    double psnr = 0.0;
    std::unique_ptr<scenes::Scene> garden;
    std::vector<Worker> workers;
};

nerf::MoeConfig
moeConfig()
{
    nerf::MoeConfig mc;
    mc.numExperts = 4;
    mc.expert = hashGridConfig(kModelSeed);
    return mc;
}

/** The garden MoE with every expert gate bootstrapped from the scene's
 *  density, masked to the expert's region (as bench_table4 does). */
std::unique_ptr<nerf::MoeNerf>
gardenMoe(const scenes::Scene &garden)
{
    auto moe = std::make_unique<nerf::MoeNerf>(moeConfig());
    Pcg32 rng(2025, 19);
    for (int k = 0; k < moe->numExperts(); ++k) {
        moe->expert(k).grid().update(
            [&garden](const Vec3f &p) { return garden.density(p); }, rng, 0.0f);
        moe->expert(k).grid().maskRegion(
            [&moe, k](const Vec3f &p) { return moe->regionOf(p) == k; });
    }
    return moe;
}

Setup
makeSetup(const Options &opts)
{
    Setup s;
    s.lego = legoScene();
    s.data = legoDataset(*s.lego);
    s.garden = scenes::makeNerf360Scene("garden");
    ThreadPool pool(opts.threads - 1);
    std::unique_ptr<nerf::NerfPipeline> trained = trainHashGrid(s.data, kModelSeed, pool);
    // Gate from the scene's true geometry, as the chip benches
    // bootstrap theirs, so the simulated workload does not depend on
    // how far set-up training got.
    Pcg32 gate_rng(2024, 17);
    trained->grid().update([&s](const Vec3f &p) { return s.lego->density(p); }, gate_rng,
                           /*decay=*/0.0f);
    {
        nerf::Trainer eval(*trained, s.data, trainerConfig(0, 0, &pool));
        s.psnr = eval.evalPsnr(kEvalViews);
    }
    trained->setThreadPool(nullptr);
    for (int w = 0; w < opts.threads; ++w) {
        Worker worker;
        if (w == 0) {
            worker.pipeline = std::move(trained);
        } else {
            const nerf::NerfPipeline &src = *s.workers.front().pipeline;
            worker.pipeline = std::make_unique<nerf::NerfPipeline>(src.config());
            nerf::loadInto(worker.pipeline->model(), src.model());
            worker.pipeline->grid() = src.grid();
        }
        worker.moe = gardenMoe(*s.garden);
        s.workers.push_back(std::move(worker));
    }
    return s;
}

/** Azimuth of job @p job's views: an evenly spread sequence from a
 *  seeded offset, so every run averages over the whole orbit. */
float
jobAzimuth(std::uint64_t seed, int job)
{
    Pcg32 rng(mixSeed(seed, 41), 1);
    return static_cast<float>(360.0 * recurrence(rng.nextFloat(), 0.6180339887, job));
}

nerf::Camera
legoCamera(std::uint64_t seed, int job)
{
    return nerf::Camera::orbit({0.5f, 0.45f, 0.5f}, 1.4f, jobAzimuth(seed, job), 25.0f,
                               45.0f, 800, 800);
}

nerf::Camera
gardenCamera(std::uint64_t seed, int job)
{
    return nerf::Camera::orbit({0.5f, 0.4f, 0.5f}, 0.38f, jobAzimuth(seed, job), 12.0f,
                               70.0f, 800, 800);
}

/** FNV-1a over the bytes of simulated statistics. */
class Digest
{
  public:
    template <class T>
    void
    add(T v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes)
            h_ = (h_ ^ b) * 0x100000001b3ULL;
    }

    void
    add(const chip::ChipRunResult &r)
    {
        add(r.stage1Cycles);
        add(r.stage2Cycles);
        add(r.stage3Cycles);
        add(r.totalCycles);
        add(r.seconds);
        add(r.energyJ);
        add(r.throughputPointsPerSec);
        add(r.energyPerPointNj);
    }

    void
    add(const chip::WorkloadProfile &w)
    {
        add(w.rays);
        add(w.candidates);
        add(w.validPoints);
        add(w.compositedPoints);
        add(w.avgGroupCycles);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One simulation job; returns the digest of its statistics. */
std::uint64_t
runJob(Worker &w, const nerf::Dataset &data, const chip::Chip &chip_model,
       const multichip::MultiChipSystem &sys, const Options &opts, int job)
{
    const std::uint64_t seed = mixSeed(opts.seed, 100 + static_cast<std::uint64_t>(job));
    Digest d;
    const chip::InferenceReport inf =
        chip_model.evaluateInference(*w.pipeline, legoCamera(opts.seed, job), kInferRays, seed);
    d.add(inf.perf);
    d.add(inf.workload);
    d.add(inf.fps);
    const chip::TrainingReport trn =
        chip_model.evaluateTraining(*w.pipeline, data, kTrainRays, seed);
    d.add(trn.perf);
    d.add(trn.workload);
    d.add(trn.secondsPerIteration);
    const multichip::SystemRunResult moe =
        sys.evaluateInference(*w.moe, gardenCamera(opts.seed, job), kMoeRays, seed);
    d.add(moe.seconds);
    d.add(moe.computeSeconds);
    d.add(moe.commSeconds);
    d.add(moe.fusionSeconds);
    d.add(moe.moeCommBytes);
    d.add(moe.energyJ);
    d.add(moe.totalPoints);
    d.add(moe.imbalance);
    for (const multichip::ChipSlice &c : moe.chips)
        d.add(c.perf);
    return d.value();
}

struct JobRun
{
    /** Indexed by job: jobs 0..n-1 all ran. */
    std::vector<std::uint64_t> digests;
    /** The worker whose model copies ran each job. */
    std::vector<std::size_t> worker;
    std::vector<double> jobMs;
    /** CPU time of the thread that ran each job. */
    std::vector<double> cpuMs;
    /** Completion time of each job, seconds from the start. */
    std::vector<double> doneAt;
    double seconds = 0.0;
};

/**
 * Run jobs 0, 1, ... on every worker in parallel until @p seconds have
 * passed or @p max_jobs jobs were claimed; a claimed job always runs
 * to completion.
 */
JobRun
runJobs(Setup &s, const chip::Chip &chip_model, const multichip::MultiChipSystem &sys,
        const Options &opts, double seconds, int max_jobs)
{
    struct Done
    {
        int job;
        std::size_t worker;
        double ms;
        double cpuMs;
        double at;
        std::uint64_t digest;
    };
    std::vector<std::vector<Done>> done(s.workers.size());
    std::atomic<int> next{0};
    const auto t0 = Clock::now();
    const auto work = [&](std::size_t w) {
        while (secondsSince(t0) < seconds) {
            const int job = next.fetch_add(1);
            if (job >= max_jobs)
                break;
            const auto j0 = Clock::now();
            const double c0 = threadCpuSeconds();
            const std::uint64_t d = runJob(s.workers[w], s.data, chip_model, sys, opts, job);
            done[w].push_back({job, w, secondsSince(j0) * 1e3,
                               (threadCpuSeconds() - c0) * 1e3, secondsSince(t0), d});
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t w = 1; w < s.workers.size(); ++w)
        threads.emplace_back(work, w);
    work(0);
    for (std::thread &t : threads)
        t.join();

    JobRun out;
    out.seconds = secondsSince(t0);
    const int jobs = std::min(next.load(), max_jobs);
    out.digests.resize(static_cast<std::size_t>(jobs));
    out.worker.resize(static_cast<std::size_t>(jobs));
    out.jobMs.resize(static_cast<std::size_t>(jobs));
    out.cpuMs.resize(static_cast<std::size_t>(jobs));
    out.doneAt.resize(static_cast<std::size_t>(jobs));
    for (const std::vector<Done> &list : done)
        for (const Done &d : list) {
            out.digests[static_cast<std::size_t>(d.job)] = d.digest;
            out.worker[static_cast<std::size_t>(d.job)] = d.worker;
            out.jobMs[static_cast<std::size_t>(d.job)] = d.ms;
            out.cpuMs[static_cast<std::size_t>(d.job)] = d.cpuMs;
            out.doneAt[static_cast<std::size_t>(d.job)] = d.at;
        }
    return out;
}

/**
 * Rerun every kRecheckEvery-th job of @p run, each on the worker after
 * the one that ran it (workers in parallel), and count one attempt per
 * rerun: it must reproduce the job's digest. Returns the share of
 * reruns that did.
 */
double
recheckJobs(Setup &s, const chip::Chip &chip_model, const multichip::MultiChipSystem &sys,
            const Options &opts, const JobRun &run, Report &rep)
{
    const std::size_t workers = s.workers.size();
    std::vector<std::vector<int>> jobs(workers);
    for (std::size_t j = 0; j < run.digests.size(); j += kRecheckEvery)
        jobs[(run.worker[j] + 1) % workers].push_back(static_cast<int>(j));
    std::vector<std::vector<char>> same(workers);
    const auto work = [&](std::size_t w) {
        for (const int j : jobs[w])
            same[w].push_back(runJob(s.workers[w], s.data, chip_model, sys, opts, j) ==
                              run.digests[static_cast<std::size_t>(j)]);
    };
    std::vector<std::thread> threads;
    for (std::size_t w = 1; w < workers; ++w)
        threads.emplace_back(work, w);
    work(0);
    for (std::thread &t : threads)
        t.join();
    std::uint64_t n = 0, passed = 0;
    for (const std::vector<char> &list : same)
        for (const char ok : list) {
            passed += rep.attempt(ok != 0, "a job rerun on another worker reproduces "
                                           "its simulated statistics");
            ++n;
        }
    rep.detail("jobs_rechecked", static_cast<double>(n));
    return n ? static_cast<double>(passed) / static_cast<double>(n) : 0.0;
}

/** Rays simulated per wall second over the whole farm: the median over
 *  kWindows equal time windows of the jobs completed in each. */
double
raysPerSec(const JobRun &r)
{
    std::vector<double> done(kWindows, 0.0);
    for (const double at : r.doneAt)
        done[std::min<std::size_t>(kWindows - 1,
                                   static_cast<std::size_t>(at / r.seconds * kWindows))] +=
            1.0;
    for (double &d : done)
        d *= kJobRays / (r.seconds / kWindows);
    return median(done);
}

/** The per-layer host-time split, driven from outside the models. */
void
layerSplit(Worker &s, const chip::Chip &chip_model, const Options &opts, Report &rep)
{
    const chip::ChipConfig &cfg = chip_model.config();
    const nerf::Camera cam = legoCamera(opts.seed, 0);
    const std::uint32_t pixels = static_cast<std::uint32_t>(cam.width()) * cam.height();

    // Capture: per-ray traceRay with an InterpModule visitor, exactly
    // the batch-of-1 loop of Chip::evaluateInference.
    chip::InterpModule interp(cfg, chip::BankPolicy::TwoLevelTiling);
    s.pipeline->setVertexVisitor(&interp);
    Pcg32 rng(mixSeed(opts.seed, 43), 0xb5297a4d3f84d5a3ULL);
    std::vector<nerf::RayWorkload> workloads;
    std::vector<Ray> rays;
    chip::WorkloadProfile wl;
    StageLedger ledger;
    double capture_s = 0.0;
    for (int i = 0; i < kInferRays; ++i) {
        const std::uint32_t pick = rng.nextBounded(pixels);
        const Ray ray = cam.rayForPixel(static_cast<int>(pick % cam.width()),
                                        static_cast<int>(pick / cam.width()));
        rays.push_back(ray);
        nerf::RayWorkload w;
        const auto t0 = Clock::now();
        const nerf::RayEval ev = s.pipeline->traceRay(ray, rng, false, &w);
        const double dt = secondsSince(t0);
        capture_s += dt;
        ledger.noteForward(dt, static_cast<std::size_t>(ev.samples));
        ledger.noteBatch(static_cast<std::size_t>(ev.samples));
        wl.candidates += static_cast<std::uint64_t>(ev.candidates);
        wl.validPoints += static_cast<std::uint64_t>(ev.samples);
        wl.compositedPoints += static_cast<std::uint64_t>(ev.composited);
        workloads.push_back(std::move(w));
    }
    s.pipeline->setVertexVisitor(nullptr);
    rep.metric("chip.capture.ns_per_ray", capture_s * 1e9 / kInferRays);

    auto t0 = Clock::now();
    const chip::SamplingModule sampling(cfg, chip::SamplingSchedule::Dynamic, true);
    const chip::SamplingRunStats s1 = sampling.run(workloads);
    rep.metric("chip.stage1_model.ms", secondsSince(t0) * 1e3);

    const chip::InterpRunStats s2 = interp.stats();
    wl.rays = kInferRays;
    wl.levels = s.pipeline->model().config().grid.levels;
    wl.macsPerPoint = s.pipeline->model().macsPerPoint();
    wl.avgGroupCycles = s2.groups ? s2.meanGroupLatency : 1.0;
    constexpr int kPerfReps = 1000;
    double sink = 0.0;
    t0 = Clock::now();
    for (int i = 0; i < kPerfReps; ++i)
        sink += chip_model.perfModel().inference(wl, s1).seconds;
    rep.metric("chip.perf_model.us", secondsSince(t0) * 1e6 / kPerfReps);
    rep.detail("chip.perf_model.sink", sink);

    // Stage split at the chip's batch size: one ray per batch.
    for (int i = 0; i < kReplayRays; ++i)
        ledger.replay(s.pipeline->model(), &s.pipeline->grid(), s.pipeline->sampler(),
                      s.pipeline->config().render, {&rays[static_cast<std::size_t>(i)], 1},
                      Pcg32(mixSeed(opts.seed, 44), static_cast<std::uint64_t>(i)));
    ledger.report(rep);

    // Multi-chip capture: every expert traces every ray, each with its
    // own chip's InterpModule, as MultiChipSystem::run does.
    const nerf::Camera gcam = gardenCamera(opts.seed, 0);
    std::vector<std::unique_ptr<chip::InterpModule>> interps;
    for (int k = 0; k < s.moe->numExperts(); ++k) {
        interps.push_back(std::make_unique<chip::InterpModule>(
            cfg, chip::BankPolicy::TwoLevelTiling));
        s.moe->expert(k).setVertexVisitor(interps.back().get());
    }
    Pcg32 grng(mixSeed(opts.seed, 45), 0x6c8e9cf570932bd5ULL);
    const std::uint32_t gpixels = static_cast<std::uint32_t>(gcam.width()) * gcam.height();
    double moe_s = 0.0;
    for (int i = 0; i < kMoeRays; ++i) {
        const std::uint32_t pick = grng.nextBounded(gpixels);
        const Ray ray = gcam.rayForPixel(static_cast<int>(pick % gcam.width()),
                                         static_cast<int>(pick / gcam.width()));
        const auto r0 = Clock::now();
        for (int k = 0; k < s.moe->numExperts(); ++k) {
            nerf::RayWorkload w;
            s.moe->expert(k).traceRay(ray, grng, false, &w);
        }
        moe_s += secondsSince(r0);
    }
    for (int k = 0; k < s.moe->numExperts(); ++k)
        s.moe->expert(k).setVertexVisitor(nullptr);
    rep.metric("multichip.capture.ns_per_ray", moe_s * 1e9 / kMoeRays);
}

} // namespace

void
runChipSim(const Options &opts, Report &rep)
{
    const auto make = [&] { return makeSetup(opts); };
    std::vector<double> setup_s;
    Setup setup = timedSetup(make, setup_s);
    const chip::Chip chip_model(chip::ChipConfig::scaledUp());
    const multichip::MultiChipSystem sys{multichip::SystemConfig{}};

    if (opts.trace) {
        const JobRun plain = runJobs(setup, chip_model, sys, opts, opts.seconds / 2, 1 << 20);
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.clear();
        tracer.setEnabled(true);
        const JobRun traced =
            runJobs(setup, chip_model, sys, opts, std::numeric_limits<double>::infinity(),
                    static_cast<int>(plain.digests.size()));
        tracer.setEnabled(false);
        rep.detail("trace.spans", static_cast<double>(tracer.eventCount()));
        rep.detail("trace.dropped_spans", static_cast<double>(tracer.dropped()));
        tracer.clear();
        for (std::size_t j = 0; j < plain.digests.size(); ++j)
            rep.attempt(j < traced.digests.size() &&
                            traced.digests[j] == plain.digests[j],
                        "traced job's simulated statistics equal the untraced job's");
        const double plain_rate = raysPerSec(plain);
        const double traced_rate = raysPerSec(traced);
        rep.metric("obs.trace_overhead_frac", plain_rate / traced_rate - 1.0);
        rep.detail("sim_rays_per_s.untraced", plain_rate);
        rep.detail("sim_rays_per_s.traced", traced_rate);
        layerSplit(setup.workers.front(), chip_model, opts, rep);
        rep.zero({
            "nerf.backward.ns_per_sample",  "nerf.optimizer.ms_per_step",
            "nerf.occupancy_update.ms",     "serve.queue_wait_ms.p50",
            "serve.queue_wait_ms.p99",      "serve.dispatch_wait_ms.p99",
            "serve.execute_ms.p50",         "serve.batch.mean",
            "serve.registry.hit_frac",      "serve.registry.reloads",
            "serve.registry.reload_ms.p50", "serve.session.reproject_frac",
            "serve.reproject.ray_frac",     "serve.reproject.warp_ms.p50",
            "serve.reproject.tiles_ms.p50", "loadgen.late_ms.p99",
        });
        return;
    }

    const JobRun run = runJobs(setup, chip_model, sys, opts, opts.seconds, 1 << 20);
    const double ok_frac = recheckJobs(setup, chip_model, sys, opts, run, rep);
    const LatencySummary lat = windowedSummary(splitWindows(run.jobMs, kWindows));
    rep.detail("peak_rss_mb", peakRssMiB());
    rep.detail("latency.p50_ms", lat.p50);
    rep.metric("cpu_ms", windowedSummary(splitWindows(run.cpuMs, kWindows)).p50);
    rep.detail("latency.p90_ms", lat.p90);
    rep.detail("latency.tail_ms", lat.tail);
    rep.metric("rate_per_s", raysPerSec(run));
    rep.metric("psnr_db", setup.psnr);
    rep.metric("ok_frac", ok_frac);
    rep.detail("sim_rays_per_s", raysPerSec(run));
    rep.detail("jobs", static_cast<double>(run.digests.size()));
    rep.detail("rays_per_job", kJobRays);
    rep.detail("latency.n", static_cast<double>(lat.n));
    rep.detail("latency.tail_percentile", lat.tailPct);
    rep.detail("digest.job0_low32", static_cast<double>(run.digests[0] & 0xffffffffu));

    setup = Setup{};
    repeatSetup(make, setup_s);
    rep.metric("setup_s", median(setup_s));
}

} // namespace perfbench
