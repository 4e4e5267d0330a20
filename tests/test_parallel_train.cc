/**
 * @file
 * Tests of parallel training (DESIGN.md §8): sharded forward/backward
 * across the ThreadPool with deterministic gradient reduction. The
 * contract under test: a given seed reproduces bit-identical weights
 * and PSNR with no pool or ANY pool size, because the shard partition
 * and the reduction order depend only on the batch — never on thread
 * count or scheduling — and a null pool runs the same shards inline.
 * The chaos test runs checkpoint faults under parallel training and is
 * part of the TSan CI job.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "nerf/freq_nerf.h"
#include "nerf/moe.h"
#include "nerf/pipeline.h"
#include "nerf/tensorf.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace fusion3d::nerf
{
namespace
{

PipelineConfig
tinyPipeline()
{
    PipelineConfig pc;
    pc.model.grid.levels = 4;
    pc.model.grid.log2TableSize = 10;
    pc.model.grid.baseResolution = 4;
    pc.model.grid.maxResolution = 32;
    pc.model.densityHidden = 16;
    pc.model.colorHidden = 16;
    pc.model.geoFeatures = 7;
    pc.model.shDegree = 2;
    pc.sampler.maxSamplesPerRay = 16;
    pc.occupancyResolution = 12;
    return pc;
}

Dataset
tinyDataset()
{
    const auto scene = scenes::makeSyntheticScene("mic");
    scenes::DatasetConfig dc = scenes::syntheticRig(12);
    dc.trainViews = 4;
    dc.testViews = 1;
    dc.reference.steps = 48;
    return scenes::makeDataset(*scene, dc);
}

std::vector<float>
allParams(NerfPipeline &pipe)
{
    std::vector<float> out;
    const auto append = [&out](std::span<const float> s) {
        out.insert(out.end(), s.begin(), s.end());
    };
    append(pipe.model().encoding().params());
    append(pipe.model().densityNet().params());
    append(pipe.model().colorNet().params());
    return out;
}

/** Worker count that stands for "no pool" in the invariance loops. */
constexpr int kNoPool = -1;

/** A pool of @p workers threads, or null for kNoPool. */
std::unique_ptr<ThreadPool>
makePool(int workers)
{
    return workers == kNoPool ? nullptr : std::make_unique<ThreadPool>(workers);
}

std::string
poolLabel(int workers)
{
    return workers == kNoPool ? "no pool" : std::to_string(workers) + " workers";
}

struct TrainOutcome
{
    std::vector<float> params;
    double psnr = 0.0;
};

/** Train the tiny scene with @p pool; raysPerBatch is large enough that
 *  every iteration splits into multiple shards. */
TrainOutcome
trainWithPool(ThreadPool *pool, int evalEvery = 0)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    TrainerConfig tc;
    tc.iterations = 12;
    tc.raysPerBatch = 64;
    tc.occupancyWarmup = 4;
    tc.occupancyUpdateEvery = 4;
    tc.evalEvery = evalEvery;
    tc.pool = pool;
    Trainer trainer(pipe, data, tc);
    TrainOutcome o;
    o.psnr = trainer.run().finalPsnr;
    o.params = allParams(pipe);
    return o;
}

TEST(ParallelTrain, SameSeedIdenticalWeightsAcrossPoolSizes)
{
    // Reference at one worker, compared against 2 and 7 workers, a
    // zero-thread pool (parallelFor runs inline on the caller) and no
    // pool at all (the same shards run inline). All five must agree
    // bitwise, weights and PSNR.
    ThreadPool pool1(1);
    const TrainOutcome ref = trainWithPool(&pool1);
    ASSERT_FALSE(ref.params.empty());

    for (const int workers : {2, 7, 0, kNoPool}) {
        const std::unique_ptr<ThreadPool> pool = makePool(workers);
        const TrainOutcome got = trainWithPool(pool.get());
        ASSERT_EQ(got.params.size(), ref.params.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < ref.params.size(); ++i)
            if (got.params[i] != ref.params[i])
                ++mismatches;
        EXPECT_EQ(mismatches, 0u) << "with " << poolLabel(workers);
        EXPECT_EQ(got.psnr, ref.psnr) << "with " << poolLabel(workers);
    }
}

/** MoE-trained weights of every expert, concatenated. 160 rays per
 *  batch give each expert more than one shard's worth of samples. */
std::vector<float>
trainMoe(ThreadPool *pool, int evalEvery = 0)
{
    const Dataset data = tinyDataset();
    MoeConfig mc;
    mc.numExperts = 2;
    mc.expert = tinyPipeline();
    MoeNerf moe(mc);
    TrainerConfig tc;
    tc.iterations = 6;
    tc.raysPerBatch = 160;
    tc.evalEvery = evalEvery;
    tc.pool = pool;
    Trainer trainer(moe, data, tc);
    trainer.run();
    std::vector<float> params;
    for (int k = 0; k < moe.numExperts(); ++k) {
        const std::vector<float> p = allParams(moe.expert(k));
        params.insert(params.end(), p.begin(), p.end());
    }
    return params;
}

TEST(ParallelTrain, InterleavedEvalDoesNotPerturbWeights)
{
    // Mid-training evals render through the tiled renderer (pipelines)
    // or the trainer's row loop (MoeField, which has no tiled path),
    // and neither may draw from the training RNG stream: interleaving
    // evals must leave the trained weights bitwise unchanged on both
    // paths, with or without a pool.
    const TrainOutcome plain = trainWithPool(nullptr);
    const TrainOutcome serial_eval = trainWithPool(nullptr, /*evalEvery=*/4);
    ASSERT_EQ(serial_eval.params.size(), plain.params.size());
    for (std::size_t i = 0; i < plain.params.size(); ++i)
        ASSERT_EQ(serial_eval.params[i], plain.params[i]) << "at param " << i;

    ThreadPool pool(3);
    const TrainOutcome pooled = trainWithPool(&pool);
    const TrainOutcome pooled_eval = trainWithPool(&pool, /*evalEvery=*/4);
    ASSERT_EQ(pooled_eval.params.size(), pooled.params.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < pooled.params.size(); ++i)
        if (pooled_eval.params[i] != pooled.params[i])
            ++mismatches;
    EXPECT_EQ(mismatches, 0u);

    const std::vector<float> moe_plain = trainMoe(nullptr);
    const std::vector<float> moe_eval = trainMoe(nullptr, /*evalEvery=*/3);
    ASSERT_EQ(moe_eval.size(), moe_plain.size());
    for (std::size_t i = 0; i < moe_plain.size(); ++i)
        ASSERT_EQ(moe_eval[i], moe_plain[i]) << "MoE param " << i;
}

TEST(ParallelTrain, PoolForwardBitExactVsSerial)
{
    // The pooled forward is bit-exact with the no-pool path, whose
    // shards run inline (the batched GEMM is batch-size invariant per
    // sample; compositing is per-ray independent).
    NerfPipeline serial(tinyPipeline());
    NerfPipeline pooled(tinyPipeline());
    ThreadPool pool(3);
    pooled.setThreadPool(&pool);

    const Camera cam =
        Camera::orbit({0.5f, 0.5f, 0.5f}, 1.2f, 30.0f, 15.0f, 45.0f, 16, 12);
    std::vector<Ray> rays;
    for (int y = 0; y < cam.height(); ++y)
        for (int x = 0; x < cam.width(); ++x)
            rays.push_back(cam.rayForPixel(x, y));

    Pcg32 rng_a(5, 1), rng_b(5, 1);
    std::vector<RayEval> ev_a(rays.size()), ev_b(rays.size());
    serial.traceRays(rays, rng_a, /*record=*/false, ev_a);
    pooled.traceRays(rays, rng_b, /*record=*/false, ev_b);
    for (std::size_t r = 0; r < rays.size(); ++r) {
        EXPECT_EQ(ev_a[r].color.x, ev_b[r].color.x);
        EXPECT_EQ(ev_a[r].color.y, ev_b[r].color.y);
        EXPECT_EQ(ev_a[r].color.z, ev_b[r].color.z);
        EXPECT_EQ(ev_a[r].transmittance, ev_b[r].transmittance);
        EXPECT_EQ(ev_a[r].samples, ev_b[r].samples);
    }
}

TEST(ParallelTrain, OccupancyUpdateMatchesSerial)
{
    // updateOccupancy (serial jitter collection + sharded batched
    // density eval) must reproduce the scalar oracle — grid().update
    // over model().queryDensity — exactly and consume the identical rng
    // stream, with no pool and with a pool.
    PipelineConfig pc = tinyPipeline();
    // Near the init density (sigma ~= 1 under the exp activation), so
    // the refreshed gate holds both occupied and empty cells.
    pc.occupancyThreshold = 1.0f;
    NerfPipeline oracle(pc);
    PointWorkspace ws = oracle.model().makeWorkspace();
    Pcg32 rng_ref(7, 3);
    oracle.grid().update(
        [&](const Vec3f &p) { return oracle.model().queryDensity(p, ws); }, rng_ref);
    const std::uint32_t next_ref = rng_ref.nextUint();
    const double frac = oracle.grid().occupiedFraction();
    ASSERT_GT(frac, 0.0);
    ASSERT_LT(frac, 1.0);

    for (const int workers : {kNoPool, 3}) {
        const std::unique_ptr<ThreadPool> pool = makePool(workers);
        NerfPipeline pipe(pc);
        pipe.setThreadPool(pool.get());
        Pcg32 rng(7, 3);
        pipe.updateOccupancy(rng);

        ASSERT_EQ(pipe.grid().cellCount(), oracle.grid().cellCount());
        for (std::size_t i = 0; i < oracle.grid().cellCount(); ++i)
            ASSERT_EQ(pipe.grid().occupiedCell(i), oracle.grid().occupiedCell(i))
                << "cell " << i << " with " << poolLabel(workers);
        // Identical draw counts leave the streams in the same state.
        EXPECT_EQ(rng.nextUint(), next_ref) << "with " << poolLabel(workers);
    }
}

TEST(ParallelTrain, AdamPoolStepBitExact)
{
    // Big enough to exceed the parallel threshold (16384 params).
    const std::size_t n = 50000;
    std::vector<float> params_a(n), params_b(n), grads(n);
    Pcg32 rng(21, 2);
    for (std::size_t i = 0; i < n; ++i) {
        params_a[i] = rng.nextRange(-1.0f, 1.0f);
        grads[i] = rng.nextRange(-0.1f, 0.1f);
    }
    params_b = params_a;

    AdamConfig cfg;
    Adam serial(n, cfg), pooled(n, cfg);
    ThreadPool pool(4);
    for (int step = 0; step < 3; ++step) {
        serial.step(params_a, grads);
        pooled.step(params_b, grads, &pool);
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(params_a[i], params_b[i]);
}

/** Pool-size determinism of the point-model backends: PointPipeline's
 *  shard partition and shard-ascending gradient merge depend only on
 *  the batch, so FreqNeRF and TensoRF training reproduces bit-identical
 *  weights with no pool or any pool size — the same contract the
 *  hash-grid pipeline guarantees above. */
template <class PipelineT, class CollectFn>
void
expectPointTrainingPoolInvariant(const typename PipelineT::Config &cfg,
                                 CollectFn &&collect)
{
    const auto train = [&](ThreadPool *pool) {
        const Dataset data = tinyDataset();
        PipelineT pipe(cfg);
        TrainerConfig tc;
        tc.iterations = 8;
        tc.raysPerBatch = 64;
        tc.occupancyWarmup = 4;
        tc.occupancyUpdateEvery = 4;
        tc.pool = pool;
        Trainer trainer(pipe, data, tc);
        trainer.run();
        return collect(pipe.model());
    };

    ThreadPool pool1(1);
    const std::vector<float> ref = train(&pool1);
    ASSERT_FALSE(ref.empty());
    for (const int workers : {3, 0, kNoPool}) {
        const std::unique_ptr<ThreadPool> pool = makePool(workers);
        const std::vector<float> got = train(pool.get());
        ASSERT_EQ(got.size(), ref.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < ref.size(); ++i)
            if (got[i] != ref[i])
                ++mismatches;
        EXPECT_EQ(mismatches, 0u) << "with " << poolLabel(workers);
    }
}

TEST(ParallelTrain, FreqDeterministicAcrossPoolSizes)
{
    FreqPipelineConfig fc;
    fc.model.posFrequencies = 4;
    fc.model.hidden = 24;
    fc.model.trunkLayers = 2;
    fc.model.geoFeatures = 7;
    fc.model.colorHidden = 16;
    fc.lrFactors = 2e-3f;
    fc.sampler.maxSamplesPerRay = 16;
    fc.occupancyResolution = 12;
    expectPointTrainingPoolInvariant<FreqPipeline>(
        fc, [](const FreqNerfModel &m) {
            std::vector<float> out(m.trunk().params().begin(),
                                   m.trunk().params().end());
            out.insert(out.end(), m.colorNet().params().begin(),
                       m.colorNet().params().end());
            return out;
        });
}

TEST(ParallelTrain, TensorfDeterministicAcrossPoolSizes)
{
    TensorfPipelineConfig tc;
    tc.model.densityRank = 6;
    tc.model.appearanceRank = 8;
    tc.model.lineResolution = 48;
    tc.model.appearanceDim = 8;
    tc.model.colorHidden = 16;
    tc.sampler.maxSamplesPerRay = 16;
    tc.occupancyResolution = 12;
    expectPointTrainingPoolInvariant<TensorfPipeline>(
        tc, [](const TensorfModel &m) {
            std::vector<float> out(m.factorParams().begin(),
                                   m.factorParams().end());
            out.insert(out.end(), m.colorNet().params().begin(),
                       m.colorNet().params().end());
            return out;
        });
}

TEST(ParallelTrain, MoeDeterministicAcrossPoolSizes)
{
    // Expert-major parallel backward: each expert's gradients stay
    // thread-local in its own pipeline, so MoE training reproduces the
    // same weights with no pool or any pool size too.
    ThreadPool pool2(2);
    const std::vector<float> ref = trainMoe(&pool2);
    ASSERT_FALSE(ref.empty());
    for (const int workers : {7, kNoPool}) {
        const std::unique_ptr<ThreadPool> pool = makePool(workers);
        const std::vector<float> got = trainMoe(pool.get());
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(got[i], ref[i]) << "param " << i << " with " << poolLabel(workers);
    }
}

/** Chaos run: checkpoint faults firing under parallel training. */
class ParallelTrainChaos : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(ParallelTrainChaos, CheckpointFaultsUnderParallelTraining)
{
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "trainer.ckpt.write=every2;seed=9"));

    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    ThreadPool pool(4);
    TrainerConfig tc;
    tc.iterations = 10;
    tc.raysPerBatch = 48;
    tc.checkpointEvery = 2;
    tc.checkpointPath = ::testing::TempDir() + "parallel_chaos_ckpt.f3dm";
    tc.pool = &pool;
    Trainer trainer(pipe, data, tc);
    trainer.setCheckpointModel(&pipe.model());
    const TrainResult r = trainer.run();

    // 5 checkpoint attempts; every2 fails the 2nd and 4th. Training
    // survives every failure and the counters account for all attempts.
    EXPECT_EQ(trainer.checkpointsWritten() + trainer.checkpointsFailed(), 5u);
    EXPECT_EQ(trainer.checkpointsFailed(), 2u);
    EXPECT_EQ(r.iterationsRun, 10);
    EXPECT_TRUE(std::isfinite(r.finalPsnr));
    // An injected crash may leave the atomic save's temp file behind.
    std::remove(tc.checkpointPath.c_str());
    std::remove((tc.checkpointPath + ".tmp").c_str());
}

} // namespace
} // namespace fusion3d::nerf
