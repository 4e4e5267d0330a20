/**
 * @file
 * Batched-vs-scalar field-evaluation bench across every backend, with
 * SIMD-dispatch and quantization axes: samples/sec of the scalar
 * forwardPoint loop against the batched SoA core at batch sizes
 * 1/32/256/2048. Covers the hash-grid NerfModel (forwardBatch), the
 * frequency-encoded FreqNerfModel, and the CP-factorized TensorfModel
 * (forwardPointBatch). The hash-grid backend additionally runs the
 * quantized inference modes (fp16/int8 packed weight images) and an
 * end-to-end traceRays section that shows the occupancy-compaction win
 * (fewer MLP-visible samples per ray) rather than hiding it behind
 * per-sample metrics. A serve section measures each backend through
 * its ServeableField — evalBatch at batch 256 and 2048, and
 * evalDensityBatch at 256 and at the registry's 48^3 gate size — with
 * the fresh call-local workspace every serve call pays for.
 *
 * Prints the usual table per configuration plus one machine-readable
 * JSON summary line (prefixed "JSON:", kept as the BENCH_backends.json
 * CI artifact) whose entries each record the SIMD `dispatch`, `quant`
 * mode, and batched `sps`. Exits non-zero when a gate fails:
 *  - any fp32 batched path slower than scalar at batch 256;
 *  - SIMD-dispatch fp32 < 1.5x the forced-scalar-dispatch batched
 *    baseline at batch 256 on the hash-grid backend, the two arms
 *    interleaved over five rounds with each arm's best round kept
 *    (skipped when the host has no SIMD dispatch to measure);
 *  - end-to-end compaction not reducing MLP-visible samples, running
 *    slower than the ungated baseline, or diverging bit-wise from the
 *    gated path's composited colors;
 *  - a serve field falling from batch 256 to a larger batch: evalBatch
 *    at 2048, or evalDensityBatch at the 48^3 gate size, below 0.8x the
 *    same entry point's rate at batch 256.
 *
 * Usage: bench_batch_eval [--quick] [--backend nerf|freq|tensorf|all]
 *                         [--quant fp32|fp16|int8|all] [--simd on|off|both]
 *                         [samples_per_config]
 *
 *  --quick    reduce the per-configuration sample budget for CI smoke
 *             runs (the speedup, not the absolute rate, is the gate).
 *  --backend  which backend(s) to measure (default all).
 *  --quant    which hash-grid inference weight format(s) (default all).
 *  --simd     dispatch arms to measure; "both" (default) measures the
 *             hardware dispatch and the forced-scalar fallback so the
 *             SIMD speedup gate has both sides.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/quant.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nerf/field.h"
#include "nerf/freq_nerf.h"
#include "nerf/nerf_model.h"
#include "nerf/tensorf.h"

using namespace fusion3d;

namespace
{

struct EvalPoint
{
    std::size_t batch;
    double scalarSps;
    double batchedSps;
    double speedup;
};

struct ConfigResult
{
    std::string backend;
    std::string dispatch;
    std::string quant;
    std::vector<EvalPoint> points;
    double speedup256 = 0.0;
};

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

void
fillInputs(std::size_t batch, std::vector<Vec3f> &pos, std::vector<Vec3f> &dirs)
{
    Pcg32 rng(2026);
    pos.resize(batch);
    dirs.resize(batch);
    for (std::size_t j = 0; j < batch; ++j) {
        pos[j] = clamp(rng.nextVec3(), 0.01f, 0.99f);
        dirs[j] = rng.nextUnitVector();
    }
}

EvalPoint
finishPoint(std::size_t batch, std::size_t reps, double scalar_s,
            double batched_s)
{
    EvalPoint p{};
    p.batch = batch;
    const double samples = static_cast<double>(reps * batch);
    p.scalarSps = samples / scalar_s;
    p.batchedSps = samples / batched_s;
    p.speedup = p.batchedSps / p.scalarSps;
    return p;
}

EvalPoint
measureNerf(const nerf::NerfModel &model, std::size_t batch, std::size_t budget)
{
    std::vector<Vec3f> pos, dirs;
    fillInputs(batch, pos, dirs);
    const std::size_t reps = std::max<std::size_t>(1, budget / batch);
    std::vector<float> sigmas(batch);
    std::vector<Vec3f> rgbs(batch);

    // Checksum keeps the optimizer from discarding the work; the fp32
    // paths are bit-exact, so it doubles as a cheap equivalence check.
    double sum_scalar = 0.0, sum_batched = 0.0;

    nerf::PointWorkspace pws = model.makeWorkspace();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t j = 0; j < batch; ++j)
            sum_scalar += model.forwardPoint(pos[j], dirs[j], pws).sigma;
    const double scalar_s = secondsSince(t0);

    nerf::NerfBatchWorkspace bws = model.makeBatchWorkspace(batch);
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        model.forwardBatch(pos, dirs, bws, sigmas, rgbs);
        sum_batched += sigmas[rep % batch];
    }
    const double batched_s = secondsSince(t1);
    if (sum_scalar < 0.0 && sum_batched < 0.0) // sigmas are positive
        fatal("impossible checksum");
    return finishPoint(batch, reps, scalar_s, batched_s);
}

/** The point-model backends (FreqNeRF, TensoRF) share the batched
 *  contract, so one template measures both. */
template <class ModelT>
EvalPoint
measurePointModel(ModelT &model, std::size_t batch, std::size_t budget)
{
    std::vector<Vec3f> pos, dirs;
    fillInputs(batch, pos, dirs);
    const std::size_t reps = std::max<std::size_t>(1, budget / batch);
    std::vector<float> sigmas(batch);
    std::vector<Vec3f> rgbs(batch);

    double sum_scalar = 0.0, sum_batched = 0.0;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t j = 0; j < batch; ++j)
            sum_scalar += model.forwardPoint(pos[j], dirs[j]).sigma;
    const double scalar_s = secondsSince(t0);

    typename ModelT::BatchWorkspace ws = model.makeBatchWorkspace();
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        model.forwardPointBatch(pos, dirs, ws, sigmas, rgbs);
        sum_batched += sigmas[rep % batch];
    }
    const double batched_s = secondsSince(t1);
    if (sum_scalar < 0.0 && sum_batched < 0.0) // sigmas are positive
        fatal("impossible checksum");
    return finishPoint(batch, reps, scalar_s, batched_s);
}

constexpr std::size_t kBatches[] = {1, 32, 256, 2048};

template <class MeasureFn>
ConfigResult
runConfig(const char *backend, const char *quant, std::size_t budget,
          MeasureFn &&measure)
{
    bench::banner((std::string("Batched SoA field evaluation [") + backend +
                   " dispatch=" + simd::dispatchName() + " quant=" + quant +
                   "]: samples/s vs batch size")
                      .c_str());
    std::printf("%-12s %16s %16s %10s\n", "batch", "scalar (sm/s)",
                "batched (sm/s)", "speedup");

    ConfigResult r;
    r.backend = backend;
    r.dispatch = simd::dispatchName();
    r.quant = quant;
    for (const std::size_t batch : kBatches) {
        r.points.push_back(measure(batch, budget));
        const EvalPoint &p = r.points.back();
        if (p.batch == 256)
            r.speedup256 = p.speedup;
        std::printf("%-12zu %16.0f %16.0f %9.2fx\n", p.batch, p.scalarSps,
                    p.batchedSps, p.speedup);
    }
    bench::rule();
    return r;
}

// --- SIMD dispatch vs forced-scalar: the batch-256 speedup gate ------------

/** Batch size of the SIMD speedup gate. */
constexpr std::size_t kSimdGateBatch = 256;
/** Rounds over which the two dispatch arms interleave. */
constexpr int kSimdGateRounds = 5;

struct SimdSpeedup
{
    std::string backend;
    double speedup = 0.0;
};

/**
 * Speedup of the hardware SIMD dispatch over the forced-scalar dispatch
 * on one batched fp32 forward of kSimdGateBatch samples,
 * eval(pos, dirs, sigmas, rgbs). The two arms alternate within each of
 * kSimdGateRounds rounds and each keeps its best round, so a burst of
 * host noise lands on one round of both arms rather than on one arm's
 * whole measurement.
 */
template <class EvalFn>
SimdSpeedup
measureSimdSpeedup(const char *backend, std::size_t budget, EvalFn &&eval)
{
    std::vector<Vec3f> pos, dirs;
    fillInputs(kSimdGateBatch, pos, dirs);
    std::vector<float> sigmas(kSimdGateBatch);
    std::vector<Vec3f> rgbs(kSimdGateBatch);
    const std::size_t reps = std::max<std::size_t>(1, budget / kSimdGateBatch);

    double best[2] = {0.0, 0.0}; // samples/s: [hardware, forced scalar]
    for (int round = 0; round < kSimdGateRounds; ++round) {
        for (const bool force : {false, true}) {
            simd::forceScalar(force);
            const auto t0 = std::chrono::steady_clock::now();
            for (std::size_t rep = 0; rep < reps; ++rep)
                eval(pos, dirs, sigmas, rgbs);
            best[force] = std::max(best[force],
                                   static_cast<double>(reps * kSimdGateBatch) /
                                       secondsSince(t0));
        }
    }
    simd::forceScalar(false);
    return {backend, best[0] / best[1]};
}

// --- End-to-end traceRays: the occupancy-compaction section ----------------

struct E2eResult
{
    bool ran = false;
    double ungatedSps = 0.0; ///< candidate samples/s, all-occupied gate
    double gatedSps = 0.0;   ///< candidate samples/s, sampler-gated
    double compactSps = 0.0; ///< candidate samples/s, batch compaction
    std::uint64_t batchSamples = 0; ///< compact arm: samples in the batch
    std::uint64_t mlpSamples = 0;   ///< compact arm: samples the MLP saw
    bool colorsMatch = true; ///< compact vs gated composited colors
};

double
traceArm(nerf::NerfPipeline &pipe, std::span<const Ray> rays, std::size_t reps,
         std::vector<nerf::RayEval> &evals, std::uint64_t &candidates)
{
    evals.resize(rays.size());
    candidates = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        // Identical streams across arms: the jitter draws (one per ray)
        // then decide the same candidate ts everywhere.
        Pcg32 rng(777, rep);
        nerf::RayWorkload wl;
        pipe.traceRays(rays, rng, /*record=*/false, evals, &wl);
        candidates += static_cast<std::uint64_t>(wl.totalCandidates);
    }
    return secondsSince(t0);
}

/**
 * Trace the same ray set three ways on the demo scene: through an
 * all-occupied gate (every candidate reaches the MLP), through the
 * sampler's occupancy gate, and with batch-build compaction. The rate
 * unit is *candidate* samples/s — equal work per arm — so skipping
 * empty space shows up as throughput instead of vanishing into a
 * per-sample metric.
 */
E2eResult
measureE2e(std::size_t budget)
{
    const auto scene = scenes::makeSyntheticScene("lego");
    const nerf::Camera cam = nerf::Camera::orbit(
        {0.5f, 0.45f, 0.5f}, 1.4f, 25.0f, 20.0f, 45.0f, 128, 128);
    std::vector<Ray> rays;
    for (int y = 0; y < 128; y += 4)
        for (int x = 0; x < 128; ++x)
            rays.push_back(cam.rayForPixel(x, y));
    const std::size_t reps = std::max<std::size_t>(
        1, budget / (rays.size() * 64)); // ~maxSamplesPerRay candidates/ray

    E2eResult r;
    r.ran = true;
    std::vector<nerf::RayEval> evals_ungated, evals_gated, evals_compact;
    std::uint64_t cand_ungated = 0, cand_gated = 0, cand_compact = 0;

    {
        // All-occupied gate (a grid never updated keeps every cell on):
        // the pre-compaction worst case, every candidate hits the MLP.
        nerf::NerfPipeline ungated(bench::defaultPipeline());
        const double s =
            traceArm(ungated, rays, reps, evals_ungated, cand_ungated);
        r.ungatedSps = static_cast<double>(cand_ungated) / s;
    }

    auto pipe = bench::pipelineForScene(*scene);
    pipe->setOccupancyCompaction(false);
    {
        const double s = traceArm(*pipe, rays, reps, evals_gated, cand_gated);
        r.gatedSps = static_cast<double>(cand_gated) / s;
    }
    pipe->setOccupancyCompaction(true);
    {
        const double s =
            traceArm(*pipe, rays, reps, evals_compact, cand_compact);
        r.compactSps = static_cast<double>(cand_compact) / s;
        const nerf::RayBatchEvaluator::CompactionStats cs = pipe->lastCompaction();
        r.batchSamples = cs.batchSamples;
        r.mlpSamples = cs.mlpSamples;
    }

    for (std::size_t i = 0; i < rays.size(); ++i) {
        const Vec3f a = evals_gated[i].color;
        const Vec3f b = evals_compact[i].color;
        if (a.x != b.x || a.y != b.y || a.z != b.z)
            r.colorsMatch = false;
    }

    bench::banner("End-to-end traceRays [hash_grid, lego]: candidate samples/s");
    std::printf("%-28s %18s\n", "arm", "candidates (sm/s)");
    std::printf("%-28s %18.0f\n", "ungated (all to MLP)", r.ungatedSps);
    std::printf("%-28s %18.0f\n", "sampler-gated", r.gatedSps);
    std::printf("%-28s %18.0f\n", "batch compaction", r.compactSps);
    std::printf("compaction batch: %llu samples, %llu MLP-visible (%.1f%%); "
                "colors vs gated: %s\n",
                static_cast<unsigned long long>(r.batchSamples),
                static_cast<unsigned long long>(r.mlpSamples),
                r.batchSamples
                    ? 100.0 * static_cast<double>(r.mlpSamples) /
                          static_cast<double>(r.batchSamples)
                    : 0.0,
                r.colorsMatch ? "bit-identical" : "MISMATCH");
    bench::rule();
    return r;
}

// --- Serve fields: the batch-size cliff on the serving entry points -------

/** The registry's gate: one density probe per cell of a 48^3 grid. */
constexpr std::size_t kGateProbes = 48 * 48 * 48;
/** A larger serve batch may not fall below this share of its batch-256
 *  rate (the "no fall from 256 to 2048" gate). */
constexpr double kServeFallFloor = 0.8;

struct ServeResult
{
    std::string backend;
    std::string quant;
    double eval256 = 0.0;     ///< evalBatch samples/s at batch 256
    double eval2048 = 0.0;    ///< evalBatch samples/s at batch 2048
    double density256 = 0.0;  ///< evalDensityBatch samples/s at batch 256
    double densityGate = 0.0; ///< evalDensityBatch samples/s at 48^3
};

/**
 * Samples/s of @p field's two entry points at the four serve sizes.
 * The sizes interleave within each of five rounds and each keeps its
 * best round, so a burst of host noise lands on one round of every
 * size rather than on one size's whole measurement.
 */
ServeResult
measureServe(const nerf::ServeableField &field, std::size_t budget)
{
    std::vector<Vec3f> pos, dirs;
    fillInputs(kGateProbes, pos, dirs);
    std::vector<float> sigmas(kGateProbes);
    std::vector<Vec3f> rgbs(kGateProbes);

    // Every timing covers about the same number of samples (at least
    // one gate), so no size gets a shorter, luckier window.
    const std::size_t window = std::max(budget, kGateProbes);
    /** Best samples/s so far of one entry point at one batch size. */
    const auto time = [&](std::size_t n, bool density, double &best) {
        const std::size_t reps = std::max<std::size_t>(1, window / n);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t rep = 0; rep < reps; ++rep) {
            if (density)
                field.evalDensityBatch({pos.data(), n}, {sigmas.data(), n});
            else
                field.evalBatch({pos.data(), n}, {dirs.data(), n},
                                {sigmas.data(), n}, {rgbs.data(), n});
        }
        best = std::max(best, static_cast<double>(reps * n) / secondsSince(t0));
    };

    ServeResult r;
    r.backend = nerf::backendKindName(field.kind());
    r.quant = quantModeName(field.quantMode());
    for (int round = 0; round < 5; ++round) {
        time(256, false, r.eval256);
        time(2048, false, r.eval2048);
        time(256, true, r.density256);
        time(kGateProbes, true, r.densityGate);
    }
    return r;
}

void
printServe(const std::vector<ServeResult> &results)
{
    bench::banner((std::string("Serve fields [dispatch=") + simd::dispatchName() +
                   "]: samples/s through ServeableField (fresh workspace per call)")
                      .c_str());
    std::printf("%-10s %-5s %14s %14s %7s %14s %14s %7s\n", "backend", "quant",
                "eval@256", "eval@2048", "ratio", "density@256", "density@gate",
                "ratio");
    for (const ServeResult &r : results)
        std::printf("%-10s %-5s %14.0f %14.0f %6.2fx %14.0f %14.0f %6.2fx\n",
                    r.backend.c_str(), r.quant.c_str(), r.eval256, r.eval2048,
                    r.eval2048 / r.eval256, r.density256, r.densityGate,
                    r.densityGate / r.density256);
    bench::rule();
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t budget = 1u << 19;
    bool quick = false;
    std::string backend = "all";
    std::string quant = "all";
    std::string simd_arg = "both";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc)
            backend = argv[++i];
        else if (std::strcmp(argv[i], "--quant") == 0 && i + 1 < argc)
            quant = argv[++i];
        else if (std::strcmp(argv[i], "--simd") == 0 && i + 1 < argc)
            simd_arg = argv[++i];
        else if (std::atoll(argv[i]) > 0)
            budget = static_cast<std::size_t>(std::atoll(argv[i]));
        else
            fatal("usage: %s [--quick] [--backend nerf|freq|tensorf|all] "
                  "[--quant fp32|fp16|int8|all] [--simd on|off|both] "
                  "[samples_per_config]",
                  argv[0]);
    }
    if (backend != "all" && backend != "nerf" && backend != "freq" &&
        backend != "tensorf")
        fatal("unknown --backend '%s' (want nerf|freq|tensorf|all)",
              backend.c_str());
    QuantMode only_quant = QuantMode::fp32;
    if (quant != "all" && !parseQuantMode(quant.c_str(), &only_quant))
        fatal("unknown --quant '%s' (want fp32|fp16|int8|all)", quant.c_str());
    if (simd_arg != "on" && simd_arg != "off" && simd_arg != "both")
        fatal("unknown --simd '%s' (want on|off|both)", simd_arg.c_str());
    if (quick)
        budget = std::min<std::size_t>(budget, 1u << 16);

    std::vector<QuantMode> quants;
    if (quant == "all")
        quants = {QuantMode::fp32, QuantMode::fp16, QuantMode::int8};
    else
        quants = {only_quant};

    std::vector<bool> force_arms; // false = hardware dispatch, true = scalar
    if (simd_arg == "both")
        force_arms = {false, true};
    else
        force_arms = {simd_arg == "off"};

    std::vector<ConfigResult> results;
    for (const bool force : force_arms) {
        simd::forceScalar(force);
        for (const QuantMode qm : quants) {
            // The quantized image rides the same kernels on both arms;
            // measuring it once (hardware arm) keeps the run short.
            if (qm != QuantMode::fp32 && force && force_arms.size() > 1)
                continue;
            if (backend == "all" || backend == "nerf") {
                const nerf::NerfModelConfig mc = bench::defaultPipeline().model;
                nerf::NerfModel model(mc, 2024);
                if (qm != QuantMode::fp32) // keep fp32 for the scalar oracle
                    model.setInferenceQuant(qm, /*dropFp32=*/false);
                results.push_back(runConfig(
                    "hash_grid", quantModeName(qm), budget,
                    [&](std::size_t batch, std::size_t bgt) {
                        return measureNerf(model, batch, bgt);
                    }));
            }
            if (qm != QuantMode::fp32)
                continue; // the point backends have no packed image yet
            if (backend == "all" || backend == "freq") {
                nerf::FreqNerfModel model(nerf::FreqNerfConfig{}, 2024);
                results.push_back(runConfig(
                    "freq_nerf", quantModeName(qm), budget,
                    [&](std::size_t batch, std::size_t bgt) {
                        return measurePointModel(model, batch, bgt);
                    }));
            }
            if (backend == "all" || backend == "tensorf") {
                nerf::TensorfModel model(nerf::TensorfModelConfig{}, 2024);
                results.push_back(runConfig(
                    "tensorf", quantModeName(qm), budget,
                    [&](std::size_t batch, std::size_t bgt) {
                        return measurePointModel(model, batch, bgt);
                    }));
            }
        }
    }
    simd::forceScalar(false);

    // SIMD-vs-scalar speedup of the batched fp32 path at batch 256, per
    // backend, when both dispatch arms are selected: its own interleaved
    // measurement, not a ratio of the two sweeps above.
    const bool both_arms = force_arms.size() > 1;
    const bool simd_available =
        std::strcmp(simd::dispatchName(), "scalar") != 0;
    std::vector<SimdSpeedup> simd_speedups;
    if (both_arms && simd_available &&
        std::find(quants.begin(), quants.end(), QuantMode::fp32) != quants.end()) {
        if (backend == "all" || backend == "nerf") {
            const nerf::NerfModel model(bench::defaultPipeline().model, 2024);
            nerf::NerfBatchWorkspace ws = model.makeBatchWorkspace(kSimdGateBatch);
            simd_speedups.push_back(measureSimdSpeedup(
                "hash_grid", budget,
                [&](const auto &pos, const auto &dirs, auto &sigmas, auto &rgbs) {
                    model.forwardBatch(pos, dirs, ws, sigmas, rgbs);
                }));
        }
        const auto point_model = [&](const char *name, const auto &model) {
            auto ws = model.makeBatchWorkspace();
            simd_speedups.push_back(measureSimdSpeedup(
                name, budget,
                [&](const auto &pos, const auto &dirs, auto &sigmas, auto &rgbs) {
                    model.forwardPointBatch(pos, dirs, ws, sigmas, rgbs);
                }));
        };
        if (backend == "all" || backend == "freq")
            point_model("freq_nerf", nerf::FreqNerfModel(nerf::FreqNerfConfig{}, 2024));
        if (backend == "all" || backend == "tensorf")
            point_model("tensorf",
                        nerf::TensorfModel(nerf::TensorfModelConfig{}, 2024));
        bench::banner("SIMD dispatch vs forced-scalar: batched fp32 at batch 256");
        for (const SimdSpeedup &s : simd_speedups)
            std::printf("%-12s %9.2fx\n", s.backend.c_str(), s.speedup);
        bench::rule();
    }

    // Serve fields on the hardware dispatch; the hash grid in every
    // selected weight format.
    std::vector<ServeResult> serve;
    if (backend == "all" || backend == "nerf") {
        for (const QuantMode qm : quants) {
            auto model = std::make_unique<nerf::NerfModel>(
                bench::defaultPipeline().model, 2024);
            if (qm != QuantMode::fp32)
                model->setInferenceQuant(qm);
            serve.push_back(
                measureServe(nerf::HashGridServeField(std::move(model)), budget));
        }
    }
    if (backend == "all" || backend == "freq")
        serve.push_back(measureServe(
            nerf::FreqServeField(std::make_unique<nerf::FreqNerfModel>(
                nerf::FreqNerfConfig{}, 2024)),
            budget));
    if (backend == "all" || backend == "tensorf")
        serve.push_back(measureServe(
            nerf::TensorfServeField(std::make_unique<nerf::TensorfModel>(
                nerf::TensorfModelConfig{}, 2024)),
            budget));
    printServe(serve);

    E2eResult e2e;
    if (backend == "all" || backend == "nerf")
        e2e = measureE2e(budget);

    std::string json = "{\"bench\":\"batch_eval\",\"quick\":" +
                       std::string(quick ? "true" : "false") +
                       ",\"samples_per_config\":" + std::to_string(budget) +
                       ",\"dispatch\":\"" + simd::dispatchName() +
                       "\",\"backends\":[";
    char buf[256];
    for (std::size_t b = 0; b < results.size(); ++b) {
        const ConfigResult &r = results[b];
        json += std::string(b ? "," : "") + "{\"backend\":\"" + r.backend +
                "\",\"dispatch\":\"" + r.dispatch + "\",\"quant\":\"" +
                r.quant + "\",\"points\":[";
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            const EvalPoint &p = r.points[i];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"batch\":%zu,\"scalar_sps\":%.0f,"
                          "\"batched_sps\":%.0f,\"sps\":%.0f,\"speedup\":%.3f}",
                          i ? "," : "", p.batch, p.scalarSps, p.batchedSps,
                          p.batchedSps, p.speedup);
            json += buf;
        }
        std::snprintf(buf, sizeof(buf), "],\"speedup_256\":%.3f}", r.speedup256);
        json += buf;
    }
    json += "]";
    for (const SimdSpeedup &s : simd_speedups) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"backend\":\"%s\",\"speedup_256\":%.3f}",
                      &s == &simd_speedups.front() ? ",\"simd_speedup\":[" : ",",
                      s.backend.c_str(), s.speedup);
        json += buf;
    }
    if (!simd_speedups.empty())
        json += "]";
    json += ",\"serve\":[";
    for (std::size_t i = 0; i < serve.size(); ++i) {
        const ServeResult &r = serve[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"backend\":\"%s\",\"quant\":\"%s\","
                      "\"eval_256_sps\":%.0f,\"eval_2048_sps\":%.0f,"
                      "\"density_256_sps\":%.0f,\"density_gate_sps\":%.0f,"
                      "\"gate_probes\":%zu}",
                      i ? "," : "", r.backend.c_str(), r.quant.c_str(), r.eval256,
                      r.eval2048, r.density256, r.densityGate, kGateProbes);
        json += buf;
    }
    json += "]";
    if (e2e.ran) {
        std::snprintf(buf, sizeof(buf),
                      ",\"e2e\":{\"ungated_sps\":%.0f,\"gated_sps\":%.0f,"
                      "\"compact_sps\":%.0f,\"batch_samples\":%llu,"
                      "\"mlp_samples\":%llu,\"colors_bit_identical\":%s}",
                      e2e.ungatedSps, e2e.gatedSps, e2e.compactSps,
                      static_cast<unsigned long long>(e2e.batchSamples),
                      static_cast<unsigned long long>(e2e.mlpSamples),
                      e2e.colorsMatch ? "true" : "false");
        json += buf;
    }
    json += "}";
    std::printf("JSON: %s\n", json.c_str());

    bool failed = false;
    for (const ConfigResult &r : results) {
        if (r.quant == "fp32" && r.speedup256 < 1.0) {
            std::fprintf(stderr,
                         "FAIL: [%s dispatch=%s] batched path slower than "
                         "scalar at batch 256 (speedup %.3fx < 1.0x)\n",
                         r.backend.c_str(), r.dispatch.c_str(), r.speedup256);
            failed = true;
        }
    }
    if (both_arms) {
        if (!simd_available) {
            std::printf("SKIP: SIMD speedup gate (no SIMD dispatch on this "
                        "host/build)\n");
        } else {
            for (const SimdSpeedup &s : simd_speedups) {
                if (s.backend == "hash_grid" && s.speedup < 1.5) {
                    std::fprintf(stderr,
                                 "FAIL: [hash_grid] SIMD fp32 batched only "
                                 "%.3fx the scalar-dispatch baseline at batch "
                                 "256 (gate 1.5x)\n",
                                 s.speedup);
                    failed = true;
                }
            }
        }
    }
    for (const ServeResult &r : serve) {
        if (r.eval2048 < kServeFallFloor * r.eval256) {
            std::fprintf(stderr,
                         "FAIL: [%s %s] serve evalBatch at batch 2048 is %.3fx "
                         "its batch-256 rate (gate %.1fx)\n",
                         r.backend.c_str(), r.quant.c_str(), r.eval2048 / r.eval256,
                         kServeFallFloor);
            failed = true;
        }
        if (r.densityGate < kServeFallFloor * r.density256) {
            std::fprintf(stderr,
                         "FAIL: [%s %s] serve evalDensityBatch at the %zu-probe "
                         "gate is %.3fx its batch-256 rate (gate %.1fx)\n",
                         r.backend.c_str(), r.quant.c_str(), kGateProbes,
                         r.densityGate / r.density256, kServeFallFloor);
            failed = true;
        }
    }
    if (e2e.ran) {
        if (e2e.mlpSamples >= e2e.batchSamples) {
            std::fprintf(stderr,
                         "FAIL: e2e compaction did not reduce MLP-visible "
                         "samples (%llu of %llu)\n",
                         static_cast<unsigned long long>(e2e.mlpSamples),
                         static_cast<unsigned long long>(e2e.batchSamples));
            failed = true;
        }
        if (e2e.compactSps <= e2e.ungatedSps) {
            std::fprintf(stderr,
                         "FAIL: e2e compaction (%.0f sm/s) not faster than "
                         "the ungated baseline (%.0f sm/s)\n",
                         e2e.compactSps, e2e.ungatedSps);
            failed = true;
        }
        if (!e2e.colorsMatch) {
            std::fprintf(stderr, "FAIL: e2e compaction colors diverge from "
                                 "the gated path\n");
            failed = true;
        }
    }
    return failed ? 1 : 0;
}
