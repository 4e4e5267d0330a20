#include "nerf/pipeline.h"

#include "common/logging.h"
#include "common/quant.h"
#include "common/thread_pool.h"
#include "nerf/parallel_render.h"

namespace fusion3d::nerf
{

namespace
{

AdamConfig
adamFor(float lr, bool sparse)
{
    AdamConfig cfg;
    cfg.lr = lr;
    cfg.beta1 = 0.9f;
    cfg.beta2 = 0.99f;
    cfg.epsilon = 1e-15f;
    cfg.skipZeroGrad = sparse;
    return cfg;
}

} // namespace

NerfPipeline::NerfPipeline(const PipelineConfig &cfg)
    : cfg_(cfg),
      model_(std::make_unique<NerfModel>(cfg.model, cfg.seed)),
      grid_(cfg.occupancyResolution, cfg.occupancyThreshold),
      sampler_(cfg.sampler),
      adam_encoding_(model_->encoding().paramCount(), adamFor(cfg.lrEncoding, true)),
      adam_density_(model_->densityNet().paramCount(), adamFor(cfg.lrNet, false)),
      adam_color_(model_->colorNet().paramCount(), adamFor(cfg.lrNet, false))
{
    eval_.setCompaction(cfg.occupancyCompaction);
}

void
NerfPipeline::traceRays(std::span<const Ray> rays, Pcg32 &rng, bool record,
                        std::span<RayEval> out, RayWorkload *workload)
{
    // Model evaluation runs over the fixed shard partition, on the pool
    // when one is attached and inline otherwise; forwardBatch is
    // batch-size invariant per sample, so either is bit-exact with one
    // whole-batch call. The visitor path stays one whole-batch call so
    // access traces keep their canonical order.
    eval_.traceRays(sampler_, &grid_, cfg_.render, rays, rng, record, out, workload,
                    pool_, [&](SampleBatch &batch) {
                        if (visitor_) {
                            model_->forwardBatch(batch.positions, batch.dirs,
                                                 batch_ws_, batch.sigmas, batch.rgbs,
                                                 visitor_);
                        } else {
                            model_->forwardBatchParallel(batch.positions, batch.dirs,
                                                         par_ws_, batch.sigmas,
                                                         batch.rgbs, pool_);
                        }
                    });
}

void
NerfPipeline::backwardRays(std::span<const Vec3f> dcolors)
{
    // One batched backward through both MLPs and the hash encoding,
    // sharded with deterministic gradient reduction (shards inline
    // without a pool, so the sums are the same either way).
    eval_.backwardRays(cfg_.render, dcolors, pool_,
                       [&](const SampleBatch &batch, std::span<const float> dsigmas,
                           std::span<const Vec3f> drgbs) {
                           model_->backwardBatchParallel(batch.positions, batch.dirs,
                                                         dsigmas, drgbs, par_ws_, pool_);
                       });
}

void
NerfPipeline::zeroGradsImpl()
{
    model_->zeroGrads();
}

void
NerfPipeline::invalidateTapes()
{
    eval_.invalidateTape();
}

void
NerfPipeline::optimizerStepImpl()
{
    // Each parameter's Adam update is independent, so the parameter-
    // range split is bit-exact with the serial step.
    adam_encoding_.step(model_->encoding().params(), model_->encoding().grads(), pool_);
    adam_density_.step(model_->densityNet().params(), model_->densityNet().grads(),
                       pool_);
    adam_color_.step(model_->colorNet().params(), model_->colorNet().grads(), pool_);
}

void
NerfPipeline::updateOccupancy(Pcg32 &rng)
{
    // Split update: the jitter draws happen serially in cell order
    // (identical rng stream to grid_.update), then the probes run as
    // one sharded density batch — bit-exact per sample with the scalar
    // queryDensity oracle, so the refreshed grid is identical to
    // grid_.update(queryDensity)'s.
    grid_.collectProbePositions(rng, occ_positions_);
    occ_densities_.resize(occ_positions_.size());
    model_->queryDensityBatchParallel(occ_positions_, par_ws_, occ_densities_, pool_);
    grid_.applyDensities(occ_densities_);
}

void
NerfPipeline::quantizeWeights()
{
    fakeQuantizeInPlace(model_->encoding().params());
    fakeQuantizeInPlace(model_->densityNet().params());
    fakeQuantizeInPlace(model_->colorNet().params());
}

std::size_t
NerfPipeline::paramCount() const
{
    return model_->paramCount();
}

bool
NerfPipeline::renderViewTiled(const Camera &camera, ThreadPool *pool, Image &out)
{
    TiledRenderConfig tcfg;
    tcfg.sampler = cfg_.sampler;
    tcfg.sampler.jitter = false; // inference render
    tcfg.render = cfg_.render;
    tcfg.seed = cfg_.seed;
    const HashGridServeField field(*model_);
    out = renderImageTiled(field, &grid_, camera, tcfg, pool);
    return true;
}

} // namespace fusion3d::nerf
