/**
 * @file
 * Parallel-training throughput bench: iterations/s and rays/s of the
 * sharded Trainer (DESIGN.md §8) at 1, 2, 4, and hardware-concurrency
 * threads on a synthetic scene. Every configuration trains a fresh
 * same-seed pipeline, so the work per iteration is identical; "1
 * thread" trains with no pool, which runs the same shards inline on
 * the caller, and a t-thread configuration runs a ThreadPool of t-1
 * workers plus the caller. Every configuration trains bit-identical
 * weights.
 * A second section times the backward pass alone, single-threaded, at
 * batch 256 and 4096 under the SIMD dispatch and forced-scalar: the
 * MLP layer backward (density + color nets) and the whole sharded
 * model backward (forward recompute, both MLPs, hash-grid scatter and
 * merge), in ns/sample. Prints both tables plus one machine-readable
 * JSON summary line (prefixed "JSON:", captured as the BENCH_train.json
 * CI artifact). Exits non-zero if the best multi-threaded
 * configuration is slower than single-threaded, or if the SIMD MLP
 * backward is below 1.5x forced-scalar at batch 256 (skipped when the
 * hardware dispatch is already scalar) — the CI smoke gates.
 *
 * Usage: bench_train_throughput [--quick] [iterations_per_config]
 *
 *  --quick  reduce the per-configuration iteration budget for CI smoke
 *           runs (the speedup, not the absolute rate, is the gate).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nerf/nerf_model.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"

using namespace fusion3d;

namespace
{

constexpr int kRaysPerBatch = 1024;

struct TrainPoint
{
    int threads;
    double itersPerSec;
    double raysPerSec;
    double speedup; // vs the serial (1-thread) configuration
};

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

nerf::Dataset
benchDataset()
{
    const auto scene = scenes::makeSyntheticScene("mic");
    scenes::DatasetConfig dc = scenes::syntheticRig(24);
    dc.trainViews = 6;
    dc.testViews = 1;
    dc.reference.steps = 48;
    return scenes::makeDataset(*scene, dc);
}

/** Train a fresh same-seed pipeline at @p threads and time it. */
TrainPoint
measure(const nerf::Dataset &data, int threads, int iters)
{
    nerf::PipelineConfig pc = bench::defaultPipeline();
    pc.sampler.maxSamplesPerRay = 32;
    nerf::NerfPipeline pipe(pc);

    // threads == 1 trains with no pool (the shards run inline);
    // otherwise the caller participates in parallelFor, so t threads =
    // pool of t-1 workers.
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads - 1);

    nerf::TrainerConfig tc;
    tc.iterations = iters;
    tc.raysPerBatch = kRaysPerBatch;
    tc.occupancyWarmup = 2;
    tc.occupancyUpdateEvery = 4;
    tc.pool = pool.get();
    nerf::Trainer trainer(pipe, data, tc);

    // Warmup: grow every arena so the timed loop is allocation-free.
    trainer.trainIteration();
    trainer.trainIteration();

    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        trainer.trainIteration();
    const double s = secondsSince(t0);

    TrainPoint p{};
    p.threads = threads;
    p.itersPerSec = static_cast<double>(iters) / s;
    p.raysPerSec = static_cast<double>(iters) * kRaysPerBatch / s;
    return p;
}

/** Backward-pass batch sizes: the CI gate point and a large batch. */
constexpr std::size_t kBackwardBatches[] = {256, 4096};
/** Minimum SIMD / forced-scalar MLP backward speedup at batch 256. */
constexpr double kMlpBackwardGate = 1.5;

/** Backward ns/sample at one batch size, per dispatch arm. */
struct BackwardPoint
{
    std::size_t batch;
    double mlpNsSimd, mlpNsScalar;
    double wholeNsSimd, wholeNsScalar;
};

/**
 * Best-of-@p trials ns per sample of @p body, each trial repeating it
 * until ~@p budget_s elapsed (at least twice).
 */
template <class F>
double
bestNsPerSample(std::size_t n, int trials, double budget_s, F &&body)
{
    double best = 0.0;
    for (int t = 0; t < trials; ++t) {
        int reps = 0;
        const auto t0 = std::chrono::steady_clock::now();
        double s = 0.0;
        do {
            body();
            ++reps;
            s = secondsSince(t0);
        } while (reps < 2 || s < budget_s);
        const double ns = s * 1e9 / (static_cast<double>(reps) * n);
        best = t == 0 ? ns : std::min(best, ns);
    }
    return best;
}

/** ns/sample of the density + color MLP backward at batch @p n. */
double
mlpBackwardNs(const nerf::NerfModel &model, std::size_t n, int trials,
              double budget_s)
{
    struct Net
    {
        const nerf::Mlp *mlp;
        nerf::MlpBatchWorkspace ws;
        std::vector<float> dout, grads;
    };
    Net nets[] = {{&model.densityNet(), {}, {}, {}},
                  {&model.colorNet(), {}, {}, {}}};
    Pcg32 rng(77, n);
    for (Net &net : nets) {
        const nerf::Mlp &m = *net.mlp;
        std::vector<float> in(static_cast<std::size_t>(m.inputDim()) * n);
        for (float &v : in)
            v = rng.nextFloat() * 2.0f - 1.0f;
        net.ws = m.makeBatchWorkspace(n);
        m.forwardBatch(in, n, net.ws);
        net.dout.resize(static_cast<std::size_t>(m.outputDim()) * n);
        for (float &v : net.dout)
            v = rng.nextFloat() - 0.5f;
        net.grads.assign(m.paramCount(), 0.0f);
    }
    return bestNsPerSample(n, trials, budget_s, [&] {
        for (Net &net : nets)
            net.mlp->backwardBatchInto(net.dout, n, net.ws, net.grads);
    });
}

/** ns/sample of the whole sharded model backward at batch @p n. */
double
wholeBackwardNs(nerf::NerfModel &model, std::size_t n, int trials,
                double budget_s)
{
    Pcg32 rng(78, n);
    std::vector<Vec3f> pos(n), dirs(n), drgb(n);
    std::vector<float> dsig(n);
    for (std::size_t j = 0; j < n; ++j) {
        pos[j] = rng.nextVec3();
        dirs[j] = rng.nextUnitVector();
        dsig[j] = rng.nextFloat() - 0.5f;
        drgb[j] = rng.nextVec3() - Vec3f{0.5f, 0.5f, 0.5f};
    }
    nerf::NerfParallelWorkspace ws;
    return bestNsPerSample(n, trials, budget_s, [&] {
        model.backwardBatchParallel(pos, dirs, dsig, drgb, ws, nullptr);
    });
}

std::vector<BackwardPoint>
measureBackward(bool quick)
{
    const int trials = quick ? 3 : 5;
    const double budget_s = quick ? 0.03 : 0.1;
    nerf::NerfModel model(bench::defaultPipeline().model, 5);
    std::vector<BackwardPoint> points;
    for (const std::size_t n : kBackwardBatches) {
        BackwardPoint p{};
        p.batch = n;
        for (const bool scalar : {false, true}) {
            simd::forceScalar(scalar);
            const double mlp = mlpBackwardNs(model, n, trials, budget_s);
            const double whole = wholeBackwardNs(model, n, trials, budget_s);
            (scalar ? p.mlpNsScalar : p.mlpNsSimd) = mlp;
            (scalar ? p.wholeNsScalar : p.wholeNsSimd) = whole;
        }
        simd::forceScalar(false);
        points.push_back(p);
    }
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    int iters = 30;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::atoi(argv[i]) > 0)
            iters = std::atoi(argv[i]);
        else
            fatal("usage: %s [--quick] [iterations_per_config]", argv[0]);
    }
    if (quick)
        iters = std::min(iters, 8);

    const int hw =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    std::vector<int> configs{1, 2, 4};
    if (hw > 4)
        configs.push_back(hw);

    const nerf::Dataset data = benchDataset();

    bench::banner("Parallel training throughput: sharded batches + "
                  "deterministic reduction");
    std::printf("%-10s %14s %16s %10s\n", "threads", "iters/s", "rays/s",
                "speedup");

    std::vector<TrainPoint> points;
    double serial_ips = 0.0, best_multi_ips = 0.0, speedup_4t = 0.0;
    for (const int threads : configs) {
        points.push_back(measure(data, threads, iters));
        TrainPoint &p = points.back();
        if (p.threads == 1)
            serial_ips = p.itersPerSec;
        else
            best_multi_ips = std::max(best_multi_ips, p.itersPerSec);
        p.speedup = serial_ips > 0.0 ? p.itersPerSec / serial_ips : 0.0;
        if (p.threads == 4)
            speedup_4t = p.speedup;
        std::printf("%-10d %14.2f %16.0f %9.2fx\n", p.threads, p.itersPerSec,
                    p.raysPerSec, p.speedup);
    }
    bench::rule();

    bench::banner("Backward pass, single thread: ns/sample, SIMD vs "
                  "forced-scalar");
    std::printf("%-8s %12s %12s %8s %12s %12s %8s\n", "batch", "mlp simd",
                "mlp scalar", "x", "whole simd", "whole scal", "x");
    const std::vector<BackwardPoint> backward = measureBackward(quick);
    for (const BackwardPoint &b : backward)
        std::printf("%-8zu %12.1f %12.1f %7.2fx %12.1f %12.1f %7.2fx\n",
                    b.batch, b.mlpNsSimd, b.mlpNsScalar,
                    b.mlpNsScalar / b.mlpNsSimd, b.wholeNsSimd,
                    b.wholeNsScalar, b.wholeNsScalar / b.wholeNsSimd);
    bench::rule();
    const double mlp_speedup_256 =
        backward.front().mlpNsScalar / backward.front().mlpNsSimd;

    std::string json = "{\"bench\":\"train_throughput\",\"dispatch\":\"" +
                       std::string(simd::dispatchName()) +
                       "\",\"quick\":" + std::string(quick ? "true" : "false") +
                       ",\"iterations\":" + std::to_string(iters) +
                       ",\"rays_per_batch\":" + std::to_string(kRaysPerBatch) +
                       ",\"points\":[";
    char buf[192];
    for (std::size_t i = 0; i < points.size(); ++i) {
        const TrainPoint &p = points[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"threads\":%d,\"iters_per_s\":%.3f,"
                      "\"rays_per_s\":%.0f,\"speedup\":%.3f}",
                      i ? "," : "", p.threads, p.itersPerSec, p.raysPerSec,
                      p.speedup);
        json += buf;
    }
    std::snprintf(buf, sizeof(buf), "],\"speedup_4t\":%.3f,\"backward\":[",
                  speedup_4t);
    json += buf;
    for (std::size_t i = 0; i < backward.size(); ++i) {
        const BackwardPoint &b = backward[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"batch\":%zu,\"mlp_ns_simd\":%.1f,"
                      "\"mlp_ns_scalar\":%.1f,\"whole_ns_simd\":%.1f,"
                      "\"whole_ns_scalar\":%.1f}",
                      i ? "," : "", b.batch, b.mlpNsSimd, b.mlpNsScalar,
                      b.wholeNsSimd, b.wholeNsScalar);
        json += buf;
    }
    std::snprintf(buf, sizeof(buf), "],\"mlp_backward_speedup_256\":%.3f}",
                  mlp_speedup_256);
    json += buf;
    std::printf("JSON: %s\n", json.c_str());

    // The backward SIMD gate only means something when the hardware
    // dispatch is vectorized (FUSION3D_SIMD_DISABLED or a scalar-only
    // host makes both arms the same code).
    if (std::strcmp(simd::dispatchName(), "scalar") == 0) {
        std::printf("note: scalar dispatch; MLP backward SIMD gate skipped\n");
    } else if (mlp_speedup_256 < kMlpBackwardGate) {
        std::fprintf(stderr,
                     "FAIL: SIMD MLP backward is %.3fx forced-scalar at batch "
                     "256 (gate %.1fx)\n",
                     mlp_speedup_256, kMlpBackwardGate);
        return 1;
    }

    // The gate only means something when parallelism is physically
    // possible; a single-core machine can at best tie (and pays the
    // scheduling overhead), so it reports without failing.
    if (hw < 2) {
        std::printf("note: single hardware thread; speedup gate skipped\n");
        return 0;
    }
    if (best_multi_ips < serial_ips) {
        std::fprintf(stderr,
                     "FAIL: every multi-threaded configuration is slower than "
                     "single-threaded (%.2f < %.2f iters/s)\n",
                     best_multi_ips, serial_ips);
        return 1;
    }
    return 0;
}
