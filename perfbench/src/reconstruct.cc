/**
 * @file
 * Workload "reconstruct": train a hash-grid NeRF on the procedural lego
 * dataset with nerf::Trainer — 1024-ray minibatches, a fixed iteration
 * budget, the caller plus a pool on half of the CPUs — then evaluate
 * test-view PSNR. Repeats whole same-seed training runs until the
 * window closes; every run must reach the same PSNR bit for bit.
 *
 * The traced run trains once through Trainer (untraced, the reference),
 * then drives the same RadianceField calls itself in Trainer's order
 * from the same seed with the program's spans on, timing each call and
 * replaying a sample of its minibatches through the stage ledger. Its
 * final PSNR must equal the reference bit for bit.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "models.h"
#include "obs/trace.h"
#include "replay.h"
#include "scenes/scene.h"
#include "workloads.h"

namespace perfbench
{

using namespace fusion3d;

namespace
{

constexpr int kIterations = 128;
/** Iterations of each run left out of the timing: arena growth, and the
 *  dense-gate iterations before the first occupancy update. */
constexpr int kWarmupIterations = kOccupancyWarmup;
/** Minimum test PSNR of a finished run; far below what it reaches. */
constexpr double kPsnrFloorDb = 20.0;
/** The traced loop replays every kReplayEvery-th minibatch. */
constexpr int kReplayEvery = 16;

/**
 * Training threads, the caller included: half of the CPUs, at least
 * two. Every iteration waits for all of its pool tasks, so one
 * descheduled worker stalls it; on the 4-vCPU reference host a pool
 * filling every vCPU (or all but one) moved training rays/s by
 * quartile spreads of up to 0.38 between same-code runs, half the
 * vCPUs by 0.04-0.17.
 */
int
trainThreads(const Options &opts)
{
    return std::max(opts.threads / 2, 2);
}

struct Setup
{
    std::unique_ptr<scenes::Scene> scene;
    nerf::Dataset data;
};

Setup
makeSetup()
{
    Setup s;
    s.scene = legoScene();
    s.data = legoDataset(*s.scene);
    return s;
}

struct TrainRun
{
    double psnr = 0.0;
    std::vector<double> iterMs;
    /** Process CPU time (every thread) of each timed iteration. */
    std::vector<double> cpuMs;
    double raysPerSec = 0.0;
};

/** One untraced training run through Trainer. */
TrainRun
trainOnce(const nerf::Dataset &data, std::uint64_t seed, ThreadPool &pool)
{
    nerf::NerfPipeline pipe(hashGridConfig(kModelSeed));
    nerf::Trainer trainer(pipe, data,
                          trainerConfig(mixSeed(seed, 2), kIterations, &pool));
    TrainRun run;
    double timed_s = 0.0;
    for (int i = 0; i < kIterations; ++i) {
        const auto t0 = Clock::now();
        const double c0 = processCpuSeconds();
        trainer.trainIteration();
        const double s = secondsSince(t0);
        if (i >= kWarmupIterations) {
            run.cpuMs.push_back((processCpuSeconds() - c0) * 1e3);
            run.iterMs.push_back(s * 1e3);
            timed_s += s;
        }
    }
    run.raysPerSec =
        static_cast<double>(run.iterMs.size()) * kRaysPerBatch / timed_s;
    run.psnr = trainer.evalPsnr(kEvalViews);
    return run;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
untraced(const Options &opts, Report &rep, const nerf::Dataset &data,
         ThreadPool &pool, std::vector<double> &setup_s)
{
    // Whole runs while the next one (as long as the last) still fits.
    // A set-up repeat follows each run, so the repeats sample the
    // host's speed across the window.
    std::vector<TrainRun> runs;
    const auto t0 = Clock::now();
    double last_s = 0.0;
    do {
        const auto r0 = Clock::now();
        runs.push_back(trainOnce(data, opts.seed, pool));
        setup_s.push_back(setupOnCpu(makeSetup, static_cast<int>(setup_s.size())));
        last_s = secondsSince(r0);
    } while (secondsSince(t0) + last_s <= opts.seconds);

    std::vector<double> iter_ms, cpu_ms;
    std::uint64_t ok = 0;
    for (const TrainRun &r : runs) {
        iter_ms.insert(iter_ms.end(), r.iterMs.begin(), r.iterMs.end());
        cpu_ms.insert(cpu_ms.end(), r.cpuMs.begin(), r.cpuMs.end());
        const bool good = std::isfinite(r.psnr) && r.psnr >= kPsnrFloorDb &&
                          sameBits(r.psnr, runs.front().psnr);
        ok += rep.attempt(good, "training run reaches the PSNR floor and "
                                "repeats the first run bit for bit");
    }
    // Windows of consecutive iterations across the runs, in time order.
    const std::vector<std::vector<double>> windows = splitWindows(iter_ms, kWindows);
    const LatencySummary lat = windowedSummary(windows);
    std::vector<double> rates;
    for (const std::vector<double> &w : windows) {
        double ms = 0.0;
        for (const double x : w)
            ms += x;
        rates.push_back(static_cast<double>(w.size()) * kRaysPerBatch / (ms * 1e-3));
    }
    rep.detail("latency.p50_ms", lat.p50);
    rep.metric("cpu_ms", windowedSummary(splitWindows(cpu_ms, kWindows)).p50);
    rep.detail("latency.p90_ms", lat.p90);
    rep.detail("latency.tail_ms", lat.tail);
    const double rate = median(rates);
    rep.metric("rate_per_s", rate);
    rep.metric("psnr_db", runs.front().psnr);
    rep.metric("ok_frac", static_cast<double>(ok) / static_cast<double>(runs.size()));
    rep.detail("train_rays_per_s", rate);
    rep.detail("train_psnr_db", runs.front().psnr);
    rep.detail("training_runs", static_cast<double>(runs.size()));
    rep.detail("iterations_per_run", kIterations);
    rep.detail("latency.n", static_cast<double>(lat.n));
    rep.detail("latency.tail_percentile", lat.tailPct);
}

void
traced(const Options &opts, Report &rep, const nerf::Dataset &data, ThreadPool &pool)
{
    // Reference: the untraced Trainer run.
    const TrainRun ref = trainOnce(data, opts.seed, pool);

    // The same run, driven call by call with tracing on.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.setEnabled(true);

    const nerf::PipelineConfig pc = hashGridConfig(kModelSeed);
    const nerf::TrainerConfig tc = trainerConfig(mixSeed(opts.seed, 2), kIterations, &pool);
    nerf::NerfPipeline pipe(pc);
    pipe.setThreadPool(&pool);
    // Trainer's minibatch generator, same seed and stream.
    Pcg32 rng(tc.seed, 0x5851f42d4c957f2dULL);

    StageLedger ledger;
    std::vector<Ray> rays;
    std::vector<Vec3f> gts, dcolors;
    std::vector<nerf::RayEval> evals(kRaysPerBatch);
    double backward_s = 0.0, timed_s = 0.0;
    std::uint64_t trace_samples = 0, timed_rays = 0;
    std::vector<double> optimizer_ms, occupancy_ms;
    for (int iter = 0; iter < tc.iterations; ++iter) {
        const auto it0 = Clock::now();
        pipe.zeroGrads();
        rays.clear();
        gts.clear();
        for (int r = 0; r < tc.raysPerBatch; ++r) {
            const nerf::TrainView &view = data.train[rng.nextBounded(
                static_cast<std::uint32_t>(data.train.size()))];
            const int px = static_cast<int>(rng.nextBounded(
                static_cast<std::uint32_t>(view.image.width())));
            const int py = static_cast<int>(rng.nextBounded(
                static_cast<std::uint32_t>(view.image.height())));
            rays.push_back(
                view.camera.rayForPixel(px, py, rng.nextFloat(), rng.nextFloat()));
            gts.push_back(view.image.at(px, py));
        }
        double replay_s = 0.0;
        if (iter % kReplayEvery == kReplayEvery - 1) {
            const auto r0 = Clock::now();
            ledger.replay(pipe.model(), &pipe.grid(), pipe.sampler(), pc.render,
                          rays, rng);
            replay_s = secondsSince(r0);
        }

        nerf::RayWorkload workload;
        auto t0 = Clock::now();
        pipe.traceRays(rays, rng, /*record=*/true, evals, &workload);
        const double fwd_s = secondsSince(t0);
        std::size_t samples = 0;
        dcolors.resize(rays.size());
        for (std::size_t r = 0; r < rays.size(); ++r) {
            samples += static_cast<std::size_t>(evals[r].samples);
            dcolors[r] = evals[r].color - gts[r];
        }
        t0 = Clock::now();
        pipe.backwardRays(dcolors);
        const double bwd_s = secondsSince(t0);
        t0 = Clock::now();
        pipe.optimizerStep();
        const double opt_s = secondsSince(t0);
        const int done = iter + 1;
        if (tc.occupancyUpdateEvery > 0 && done >= tc.occupancyWarmup &&
            (done - tc.occupancyWarmup) % tc.occupancyUpdateEvery == 0) {
            t0 = Clock::now();
            pipe.updateOccupancy(rng);
            occupancy_ms.push_back(secondsSince(t0) * 1e3);
        }
        if (iter >= kWarmupIterations) {
            backward_s += bwd_s;
            trace_samples += samples;
            optimizer_ms.push_back(opt_s * 1e3);
            timed_s += secondsSince(it0) - replay_s;
            timed_rays += rays.size();
            ledger.noteForward(fwd_s, samples);
            ledger.noteBatch(samples);
        }
    }
    tracer.setEnabled(false);
    rep.detail("trace.spans", static_cast<double>(tracer.eventCount()));
    rep.detail("trace.dropped_spans", static_cast<double>(tracer.dropped()));
    tracer.clear();

    nerf::Trainer evaluator(pipe, data, tc);
    const double psnr = evaluator.evalPsnr(tc.evalViews);
    rep.attempt(sameBits(psnr, ref.psnr),
                "traced training loop reaches the untraced Trainer's PSNR bit for bit");
    rep.detail("train_psnr_db.untraced", ref.psnr);
    rep.detail("train_psnr_db.traced", psnr);

    ledger.report(rep);
    rep.metric("nerf.backward.ns_per_sample",
               backward_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(trace_samples, 1)));
    rep.metric("nerf.optimizer.ms_per_step", median(optimizer_ms));
    rep.metric("nerf.occupancy_update.ms", median(occupancy_ms));
    const double traced_rate = static_cast<double>(timed_rays) / timed_s;
    rep.metric("obs.trace_overhead_frac", ref.raysPerSec / traced_rate - 1.0);
    rep.detail("train_rays_per_s.untraced", ref.raysPerSec);
    rep.detail("train_rays_per_s.traced", traced_rate);

    rep.zero({
        "serve.queue_wait_ms.p50",      "serve.queue_wait_ms.p99",
        "serve.dispatch_wait_ms.p99",   "serve.execute_ms.p50",
        "serve.batch.mean",             "serve.registry.hit_frac",
        "serve.registry.reloads",       "serve.registry.reload_ms.p50",
        "serve.session.reproject_frac", "serve.reproject.ray_frac",
        "serve.reproject.warp_ms.p50",  "serve.reproject.tiles_ms.p50",
        "loadgen.late_ms.p99",          "chip.capture.ns_per_ray",
        "chip.stage1_model.ms",         "chip.perf_model.us",
        "multichip.capture.ns_per_ray",
    });
}

} // namespace

void
runReconstruct(const Options &opts, Report &rep)
{
    std::vector<double> setup_s;
    Setup setup = timedSetup(makeSetup, setup_s);
    ThreadPool pool(trainThreads(opts) - 1);
    rep.detail("train_threads", trainThreads(opts));
    if (opts.trace) {
        traced(opts, rep, setup.data, pool);
        return;
    }
    untraced(opts, rep, setup.data, pool, setup_s);
    rep.detail("peak_rss_mb", peakRssMiB());
    setup = Setup{};
    repeatSetup(makeSetup, setup_s);
    rep.metric("setup_s", median(setup_s));
}

} // namespace perfbench
