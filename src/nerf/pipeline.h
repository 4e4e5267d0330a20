/**
 * @file
 * The complete single-model NeRF pipeline: Stage I (sampling through the
 * occupancy gate), Stage II (hash-grid feature interpolation), and
 * Stage III (MLP + volumetric compositing), with training support.
 * This is the workload one Fusion-3D chip executes end to end.
 */

#ifndef FUSION3D_NERF_PIPELINE_H_
#define FUSION3D_NERF_PIPELINE_H_

#include <memory>
#include <vector>

#include "nerf/adam.h"
#include "nerf/batch_evaluator.h"
#include "nerf/nerf_model.h"
#include "nerf/occupancy_grid.h"
#include "nerf/radiance_field.h"
#include "nerf/renderer.h"
#include "nerf/sample_batch.h"
#include "nerf/sampler.h"

namespace fusion3d::nerf
{

/** Pipeline-level configuration. */
struct PipelineConfig
{
    NerfModelConfig model;
    SamplerConfig sampler;
    RenderParams render;
    int occupancyResolution = 48;
    float occupancyThreshold = 0.01f;
    /** Compact occupancy-empty samples out of the batch before the
     *  model forward (RayBatchEvaluator::setCompaction). Composited
     *  colors stay bit-identical to the gated path. */
    bool occupancyCompaction = false;
    float lrEncoding = 1e-2f;
    float lrNet = 2e-3f;
    std::uint64_t seed = 7;
};

/** Single-model pipeline implementing the RadianceField interface. */
class NerfPipeline : public RadianceField
{
  public:
    using Config = PipelineConfig;

    explicit NerfPipeline(const PipelineConfig &cfg);

    const PipelineConfig &config() const { return cfg_; }
    NerfModel &model() { return *model_; }
    const NerfModel &model() const { return *model_; }
    OccupancyGrid &grid() { return grid_; }
    const OccupancyGrid &grid() const { return grid_; }
    const RaySampler &sampler() const { return sampler_; }

    /**
     * Stage-II access-trace observer applied during traceRays. The chip
     * model installs one to replay hash accesses through the banked-SRAM
     * simulation. While one is attached the forward runs as one
     * whole-batch call, so the accesses arrive in canonical order.
     * Pass nullptr to detach.
     */
    void setVertexVisitor(VertexVisitor *v) { visitor_ = v; }

    /** Toggle occupancy-driven sample compaction at runtime. */
    void setOccupancyCompaction(bool on) { eval_.setCompaction(on); }
    bool occupancyCompaction() const { return eval_.compaction(); }
    /** Batch-vs-model sample counts of the last traceRays call. */
    RayBatchEvaluator::CompactionStats lastCompaction() const
    {
        return eval_.lastCompaction();
    }

    /**
     * Batch-native override: Stage I samples every ray into one
     * SampleBatch (CSR per-ray ranges), NerfModel::forwardBatchParallel
     * evaluates the flattened samples, and each ray composites over its
     * offset range. record=true keeps the whole batch as the tape for
     * backwardRays().
     */
    void traceRays(std::span<const Ray> rays, Pcg32 &rng, bool record,
                   std::span<RayEval> out, RayWorkload *workload = nullptr) override;
    /** Composite-backward per ray, then one sharded model backward
     *  (NerfModel::backwardBatchParallel). */
    void backwardRays(std::span<const Vec3f> dcolors) override;

    void updateOccupancy(Pcg32 &rng) override;
    void quantizeWeights() override;
    std::size_t paramCount() const override;

    /**
     * Tiled inference render (parallel_render row tiling, jitter off);
     * bit-identical with no pool or any thread count. Always available
     * here.
     */
    bool renderViewTiled(const Camera &camera, ThreadPool *pool, Image &out) override;

  protected:
    void zeroGradsImpl() override;
    void optimizerStepImpl() override;
    void invalidateTapes() override;

  private:
    PipelineConfig cfg_;
    VertexVisitor *visitor_ = nullptr;
    std::unique_ptr<NerfModel> model_;
    OccupancyGrid grid_;
    RaySampler sampler_;
    /** Workspace of the whole-batch visitor forward. */
    NerfBatchWorkspace batch_ws_;

    Adam adam_encoding_;
    Adam adam_density_;
    Adam adam_color_;

    /** Shared Stage I/III machinery: CSR batch build, compositing,
     *  composite tape (the hoisted former pipeline internals). */
    RayBatchEvaluator eval_{"NerfPipeline"};

    // Shard arenas of the batched forward, backward and occupancy
    // refresh; grown once, allocation-free in steady state.
    NerfParallelWorkspace par_ws_;
    std::vector<Vec3f> occ_positions_;
    std::vector<float> occ_densities_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_PIPELINE_H_
