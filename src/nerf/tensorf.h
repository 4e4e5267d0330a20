/**
 * @file
 * TensoRF-style CP-factorized radiance field (Chen et al., ECCV 2022) —
 * the second NeRF algorithm the paper evaluates (Sec. VI-C "other NeRF
 * pipelines", the RT-NeRF baseline's substrate). Density and appearance
 * are rank-R sums of per-axis line-factor products:
 *
 *     sigma(p)  = softplus( sum_r  dx_r(x) * dy_r(y) * dz_r(z) )
 *     feat_c(p) =           sum_r  B[c][r] * ax_r(x) * ay_r(y) * az_r(z)
 *
 * with a small color MLP on (features, SH(view)). It reuses the Stage-I
 * sampler, occupancy gate and Stage-III renderer, demonstrating the
 * paper's claim that the proposed sampling/post-processing modules and
 * the MoE scheme transfer across NeRF pipelines.
 */

#ifndef FUSION3D_NERF_TENSORF_H_
#define FUSION3D_NERF_TENSORF_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/vec.h"
#include "nerf/adam.h"
#include "nerf/field.h"
#include "nerf/mlp.h"
#include "nerf/nerf_model.h"
#include "nerf/point_pipeline.h"

namespace fusion3d::nerf
{

/** Architecture of the CP-factorized model. */
struct TensorfModelConfig
{
    /** CP rank of the density tensor. */
    int densityRank = 16;
    /** CP rank of the appearance tensor. */
    int appearanceRank = 24;
    /** Samples per line factor (per-axis resolution). */
    int lineResolution = 128;
    /** Appearance feature channels fed to the color MLP. */
    int appearanceDim = 12;
    /** Hidden width of the color MLP. */
    int colorHidden = 32;
    /** Spherical-harmonics degree for view directions. */
    int shDegree = 2;
    /** Density activation: sigma = densityScale * softplus(raw - shift).
     *  The shift keeps freshly initialized space near-transparent so
     *  training does not have to fight an initial fog. */
    float densityShift = 4.0f;
    float densityScale = 25.0f;

    int shDims() const { return shCoefficientCount(shDegree); }
};

/**
 * Batched-evaluation scratch of TensorfModel; reuse across calls. The
 * line-factor gathers are staged level-major — every (rank, axis) line
 * is sampled across the whole batch before the per-sample rank
 * reduction — so each line's support is streamed once per batch. All
 * matrices are feature-major ([dim][N]); buffers grow on demand and
 * never shrink.
 */
struct TensorfBatchWorkspace
{
    /** Density line gathers, [densityRank * 3][N]. */
    std::vector<float> denLines;
    /** Appearance line gathers, [appearanceRank * 3][N]. */
    std::vector<float> appLines;
    /** Per-point appearance rank products (appearanceRank values,
     *  reused point by point through the basis reduction). */
    std::vector<float> appProd;
    /** Per-point SH scratch (shDims values, reused point by point). */
    std::vector<float> sh;
    /** Color-net input, [appearanceDim + shDims][N]. */
    std::vector<float> colorIn;
    /** Raw (pre-shift-activation) densities, [N]. */
    std::vector<float> rawSigma;
    /** dL/d(color-net output), [3][N]. */
    std::vector<float> dColorOut;
    /** Recomputed activations used by the batched backward. */
    std::vector<float> fwdSigmas;
    std::vector<Vec3f> fwdRgbs;
    MlpBatchWorkspace colorWs;
};

/** The CP-factorized point model. */
class TensorfModel
{
  public:
    using Config = TensorfModelConfig;
    using BatchWorkspace = TensorfBatchWorkspace;
    static constexpr BackendKind kBackendKind = BackendKind::tensorf;

    explicit TensorfModel(const TensorfModelConfig &cfg, std::uint64_t seed = 31);

    /** Sizes of the factor and color-net parameter blocks a model built
     *  from @p cfg holds, computed without allocating them (the
     *  constructor sizes its blocks the same way). */
    static std::array<std::size_t, 2> paramCountsFor(const TensorfModelConfig &cfg);

    const TensorfModelConfig &config() const { return cfg_; }

    /** Density + view-dependent color at @p pos / @p dir. */
    PointEval forwardPoint(const Vec3f &pos, const Vec3f &dir);

    /** Density only (occupancy updates). */
    float queryDensity(const Vec3f &pos);

    /** Accumulate gradients (recompute-in-backward, like NerfModel). */
    void backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma,
                       const Vec3f &drgb);

    void zeroGrads();
    void optimizerStep(float lr_factors, float lr_net);

    /** Fake-quantize all parameters through INT8 (Table II machinery). */
    void quantizeWeights();

    std::size_t paramCount() const;

    /** Allocate a batch workspace for the batched entry points. */
    BatchWorkspace makeBatchWorkspace() const { return BatchWorkspace{}; }

    /**
     * Batched forward: level-major line-factor gathers, per-sample
     * rank reduction in the scalar accumulation order, one color-net
     * forwardBatch. Per sample the arithmetic matches forwardPoint()
     * bit-exactly; const and workspace-local, so shards may run
     * concurrently.
     */
    void forwardPointBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                           BatchWorkspace &ws, std::span<float> sigmas,
                           std::span<Vec3f> rgbs) const;

    /** Batched density-only forward; bit-exact with queryDensity(). */
    void queryDensityBatch(std::span<const Vec3f> pos, BatchWorkspace &ws,
                           std::span<float> sigmas) const;

    /** Length of the flat gradient vector backwardPointBatchInto fills:
     *  factor/basis grads first, then color-net grads. */
    std::size_t gradCount() const { return paramCount(); }

    /**
     * Batched backward of one training shard, accumulating into a
     * caller-provided flat buffer (gradCount() floats, factor block then
     * color-net block) instead of the model; const, so shards run
     * concurrently. Recomputes the forward internally; factor scatters
     * run sample-ascending in the scalar per-sample order. Shards own
     * private buffers; accumulateGradients() merges them in fixed shard
     * order.
     */
    void backwardPointBatchInto(std::span<const Vec3f> pos,
                                std::span<const Vec3f> dirs,
                                std::span<const float> dsigmas,
                                std::span<const Vec3f> drgbs, BatchWorkspace &ws,
                                std::span<float> grads) const;

    /** Add one shard's flat gradient buffer into the internal grads. */
    void accumulateGradients(std::span<const float> grads);

    /** All factor/basis parameters (for quantization experiments). */
    std::span<float> factorParams() { return params_; }
    std::span<const float> factorParams() const { return params_; }
    /** Gradient vector matching factorParams(). */
    std::span<const float> factorGrads() const { return grads_; }
    Mlp &colorNet() { return *color_net_; }
    const Mlp &colorNet() const { return *color_net_; }

  private:
    /** Scatter @p g into the two supports of line factor @p r at u. */
    void lineBackward(std::size_t block_offset, int r, float u, float g);

    /**
     * Shared tail of the batched backward variants: walk the recomputed
     * caches in @p ws sample-ascending and scatter basis / line /
     * density gradients into @p factor_grads (params_ layout), exactly
     * in the scalar backwardPoint() per-sample order.
     */
    void scatterFactorGradients(std::span<const Vec3f> pos,
                                std::span<const float> dsigmas,
                                const BatchWorkspace &ws,
                                std::span<float> factor_grads) const;

    /** Offsets of the parameter blocks inside params_. */
    std::size_t densityOffset(int axis) const;
    std::size_t appearanceOffset(int axis) const;
    std::size_t basisOffset() const;

    TensorfModelConfig cfg_;
    /** Flat parameters: 3 density line blocks, 3 appearance line
     *  blocks, then the appearanceDim x appearanceRank basis. */
    std::vector<float> params_;
    std::vector<float> grads_;
    std::unique_ptr<Mlp> color_net_;
    Adam adam_factors_;
    Adam adam_net_;

    // Scratch reused across calls.
    std::vector<float> sh_;
    std::vector<float> color_in_;
    std::vector<float> dcolor_out_;
    std::vector<float> app_prod_;   // per-rank axis products
    MlpWorkspace color_ws_;
    float raw_sigma_ = 0.0f;
};

/** End-to-end TensoRF pipeline: the generic point pipeline over the
 *  CP-factorized model. */
using TensorfPipelineConfig = PointPipelineConfig<TensorfModelConfig>;
using TensorfPipeline = PointPipeline<TensorfModel>;

/** Serveable-field wrapper over the CP-factorized model. */
using TensorfServeField = PointServeField<TensorfModel>;

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_TENSORF_H_
