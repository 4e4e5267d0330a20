/**
 * @file
 * Generic end-to-end pipeline over a self-contained point model: Stage
 * I sampling through the occupancy gate, batched model evaluation,
 * Stage III compositing, and the training tape. TensoRF and the
 * frequency-encoded (vanilla/MetaVRain-style) NeRF instantiate this;
 * the hash-grid pipeline keeps its dedicated class (NerfPipeline)
 * because it additionally exposes the Stage-II vertex-trace hooks the
 * chip model consumes. Both share the same hoisted RayBatchEvaluator,
 * so every backend rides the identical CSR-batch/composite machinery.
 *
 * A ModelT must provide (the "batched point model" contract):
 *   using Config = ...;
 *   using BatchWorkspace = ...;                       // batched scratch
 *   static constexpr BackendKind kBackendKind = ...;
 *   ModelT(const Config &, std::uint64_t seed);
 *   // Scalar oracle (the tests' bit-exactness reference):
 *   PointEval forwardPoint(const Vec3f &pos, const Vec3f &dir);
 *   float queryDensity(const Vec3f &pos);
 *   void backwardPoint(const Vec3f &, const Vec3f &, float, const Vec3f &);
 *   // Batched kernels (const => shard-concurrent with private ws):
 *   BatchWorkspace makeBatchWorkspace() const;
 *   void forwardPointBatch(pos, dirs, ws, sigmas, rgbs) const;  // bit-exact/sample
 *   void queryDensityBatch(pos, ws, sigmas) const;              // bit-exact/sample
 *   std::size_t gradCount() const;
 *   void backwardPointBatchInto(pos, dirs, dsigmas, drgbs, ws, grads) const;
 *   void accumulateGradients(std::span<const float> grads);     // shard merge
 *   // Training plumbing:
 *   void zeroGrads();
 *   void optimizerStep(float lr_a, float lr_b);
 *   void quantizeWeights();
 *   std::size_t paramCount() const;
 */

#ifndef FUSION3D_NERF_POINT_PIPELINE_H_
#define FUSION3D_NERF_POINT_PIPELINE_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "nerf/batch_evaluator.h"
#include "nerf/field.h"
#include "nerf/occupancy_grid.h"
#include "nerf/parallel_render.h"
#include "nerf/radiance_field.h"
#include "nerf/renderer.h"
#include "nerf/sampler.h"
#include "nerf/shard_partition.h"

namespace fusion3d::nerf
{

/** Pipeline configuration over a model-config type. */
template <class ModelConfigT>
struct PointPipelineConfig
{
    ModelConfigT model;
    SamplerConfig sampler;
    RenderParams render;
    int occupancyResolution = 48;
    float occupancyThreshold = 0.01f;
    /** Compact occupancy-empty samples out of the batch before the
     *  model forward (RayBatchEvaluator::setCompaction). Composited
     *  colors stay bit-identical to the gated path. */
    bool occupancyCompaction = false;
    /** Learning rate of the model's field/factor parameters. */
    float lrFactors = 2e-2f;
    /** Learning rate of the model's network parameters. */
    float lrNet = 2e-3f;
    std::uint64_t seed = 31;
};

/** The generic batch-native pipeline. */
template <class ModelT>
class PointPipeline : public RadianceField
{
  public:
    using Config = PointPipelineConfig<typename ModelT::Config>;

    explicit PointPipeline(const Config &cfg)
        : cfg_(cfg),
          model_(std::make_unique<ModelT>(cfg.model, cfg.seed)),
          grid_(cfg.occupancyResolution, cfg.occupancyThreshold),
          sampler_(cfg.sampler)
    {
        eval_.setCompaction(cfg.occupancyCompaction);
    }

    const Config &config() const { return cfg_; }
    ModelT &model() { return *model_; }
    const ModelT &model() const { return *model_; }
    OccupancyGrid &grid() { return grid_; }
    const OccupancyGrid &grid() const { return grid_; }

    /** Toggle occupancy-driven sample compaction at runtime. */
    void setOccupancyCompaction(bool on) { eval_.setCompaction(on); }
    bool occupancyCompaction() const { return eval_.compaction(); }
    /** Batch-vs-model sample counts of the last traceRays call. */
    RayBatchEvaluator::CompactionStats lastCompaction() const
    {
        return eval_.lastCompaction();
    }

    /**
     * Batch-native override: Stage I samples every ray into one CSR
     * SampleBatch, the model's batched forward evaluates the flattened
     * samples over the fixed shard partition (on the pool, or inline
     * without one — bit-exact either way because every sample's
     * arithmetic is batch-invariant), and each ray composites over its
     * offset range. record=true keeps the batch as the backwardRays
     * tape.
     */
    void
    traceRays(std::span<const Ray> rays, Pcg32 &rng, bool record,
              std::span<RayEval> out, RayWorkload *workload = nullptr) override
    {
        eval_.traceRays(sampler_, &grid_, cfg_.render, rays, rng, record, out,
                        workload, pool_,
                        [&](SampleBatch &batch) { forwardSharded(batch); });
    }

    /**
     * Composite-backward per ray, then one batched model backward —
     * per-shard private gradient buffers merged in fixed shard order,
     * so trained weights are bit-identical with no pool or any pool
     * size.
     */
    void
    backwardRays(std::span<const Vec3f> dcolors) override
    {
        eval_.backwardRays(cfg_.render, dcolors, pool_,
                           [&](const SampleBatch &batch,
                               std::span<const float> dsigmas,
                               std::span<const Vec3f> drgbs) {
                               backwardSharded(batch, dsigmas, drgbs);
                           });
    }

    void
    updateOccupancy(Pcg32 &rng) override
    {
        // Split update: the jitter draws happen serially in cell order
        // (identical rng stream to grid_.update), then the probes run
        // as one sharded density batch — bit-exact per sample with the
        // scalar queryDensity oracle.
        grid_.collectProbePositions(rng, occ_positions_);
        occ_densities_.resize(occ_positions_.size());
        queryDensitySharded(occ_positions_, occ_densities_);
        grid_.applyDensities(occ_densities_);
    }

    void quantizeWeights() override { model_->quantizeWeights(); }

    std::size_t paramCount() const override { return model_->paramCount(); }

    /**
     * Tiled inference render through the backend's ServeableField
     * wrapper (parallel_render row tiling, jitter off); bit-identical
     * with no pool or any thread count. Always available here.
     */
    bool
    renderViewTiled(const Camera &camera, ThreadPool *pool, Image &out) override
    {
        TiledRenderConfig tcfg;
        tcfg.sampler = cfg_.sampler;
        tcfg.sampler.jitter = false; // inference render
        tcfg.render = cfg_.render;
        tcfg.seed = cfg_.seed;
        const PointServeField<ModelT> field(*model_);
        out = renderImageTiled(field, &grid_, camera, tcfg, pool);
        return true;
    }

  protected:
    void zeroGradsImpl() override { model_->zeroGrads(); }

    void
    optimizerStepImpl() override
    {
        model_->optimizerStep(cfg_.lrFactors, cfg_.lrNet);
    }

    void invalidateTapes() override { eval_.invalidateTape(); }

  private:
    /** Grow the per-shard workspace set to at least @p shards. */
    void
    growShardWorkspaces(std::size_t shards)
    {
        while (shard_ws_.size() < shards)
            shard_ws_.push_back(model_->makeBatchWorkspace());
    }

    void
    forwardSharded(SampleBatch &batch)
    {
        const std::size_t n = batch.size();
        growShardWorkspaces(shardCount(n));
        const ModelT &model = *model_;
        forEachShard(n, pool_, [&](std::size_t s, std::size_t lo, std::size_t hi) {
            model.forwardPointBatch(
                std::span<const Vec3f>(batch.positions).subspan(lo, hi - lo),
                std::span<const Vec3f>(batch.dirs).subspan(lo, hi - lo), shard_ws_[s],
                std::span<float>(batch.sigmas).subspan(lo, hi - lo),
                std::span<Vec3f>(batch.rgbs).subspan(lo, hi - lo));
        });
    }

    void
    backwardSharded(const SampleBatch &batch, std::span<const float> dsigmas,
                    std::span<const Vec3f> drgbs)
    {
        const std::size_t n = batch.size();
        const std::size_t shards = shardCount(n);
        growShardWorkspaces(shards);
        if (shard_grads_.size() < shards)
            shard_grads_.resize(shards);
        const ModelT &model = *model_;
        forEachShard(n, pool_, [&](std::size_t s, std::size_t lo, std::size_t hi) {
            std::vector<float> &grads = shard_grads_[s];
            grads.assign(model.gradCount(), 0.0f);
            model.backwardPointBatchInto(
                std::span<const Vec3f>(batch.positions).subspan(lo, hi - lo),
                std::span<const Vec3f>(batch.dirs).subspan(lo, hi - lo),
                dsigmas.subspan(lo, hi - lo), drgbs.subspan(lo, hi - lo), shard_ws_[s],
                grads);
        });
        // Deterministic reduction: shard-ascending merge into the model
        // accumulators — the order depends only on the partition, never
        // on pool size or completion order.
        for (std::size_t s = 0; s < shards; ++s)
            model_->accumulateGradients(shard_grads_[s]);
    }

    void
    queryDensitySharded(std::span<const Vec3f> pos, std::span<float> sigmas)
    {
        growShardWorkspaces(shardCount(pos.size()));
        const ModelT &model = *model_;
        forEachShard(pos.size(), pool_,
                     [&](std::size_t s, std::size_t lo, std::size_t hi) {
                         model.queryDensityBatch(pos.subspan(lo, hi - lo), shard_ws_[s],
                                                 sigmas.subspan(lo, hi - lo));
                     });
    }

    Config cfg_;
    std::unique_ptr<ModelT> model_;
    OccupancyGrid grid_;
    RaySampler sampler_;

    /** Shared Stage I/III machinery (hoisted from NerfPipeline). */
    RayBatchEvaluator eval_{"PointPipeline"};

    // Batched-evaluation scratch: per-shard workspaces and private
    // gradient buffers. Grown once, allocation-free in steady state.
    std::vector<typename ModelT::BatchWorkspace> shard_ws_;
    std::vector<std::vector<float>> shard_grads_;
    std::vector<Vec3f> occ_positions_;
    std::vector<float> occ_densities_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_POINT_PIPELINE_H_
