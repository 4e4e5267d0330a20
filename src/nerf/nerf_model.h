/**
 * @file
 * The point-wise Instant-NGP radiance model: hash-grid encoding feeding
 * a density MLP whose geometry features, concatenated with a spherical-
 * harmonics view encoding, feed a color MLP. This is the per-sample
 * computation Stages II and III of the Fusion-3D pipeline execute.
 */

#ifndef FUSION3D_NERF_NERF_MODEL_H_
#define FUSION3D_NERF_NERF_MODEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/vec.h"
#include "nerf/hash_encoding.h"
#include "nerf/mlp.h"
#include "nerf/sh_encoding.h"

namespace fusion3d
{
class ThreadPool;
}

namespace fusion3d::nerf
{

/** Architecture configuration of one radiance model. */
struct NerfModelConfig
{
    HashGridConfig grid;
    /** Geometry feature channels passed from density to color net. */
    int geoFeatures = 15;
    /** Hidden width of the density MLP (one hidden layer). */
    int densityHidden = 32;
    /** Hidden width of the color MLP (one hidden layer). */
    int colorHidden = 32;
    /** Spherical-harmonics degree for the view direction (1..4). */
    int shDegree = 3;

    int shDims() const { return shCoefficientCount(shDegree); }
};

/** Density + color of one evaluated point. */
struct PointEval
{
    float sigma = 0.0f;
    Vec3f rgb;
};

/** Scratch buffers for point evaluation; reuse across calls. */
struct PointWorkspace
{
    std::vector<float> encoding;
    std::vector<float> sh;
    std::vector<float> colorIn;
    std::vector<float> dDensityOut;
    std::vector<float> dColorOut;
    MlpWorkspace densityWs;
    MlpWorkspace colorWs;
    /** Raw (pre-activation) density output cached by forwardPoint. */
    float rawSigma = 0.0f;
    /** Raw color-net outputs cached by forwardPoint. */
    float rawRgb[3] = {0.0f, 0.0f, 0.0f};
};

/**
 * Scratch buffers for batched evaluation; reuse across calls. All
 * matrices are feature-major ([dim][N], sample index fastest) to match
 * MlpBatchWorkspace; buffers grow on demand and never shrink. The
 * backward-only buffers (dDensityOut, dColorOut, fwdSigmas, fwdRgbs)
 * grow in the backward alone, so a forward-only (serve) workspace
 * leaves them empty.
 */
struct NerfBatchWorkspace
{
    /** Encoded positions, [encodedDims][N]. */
    std::vector<float> encoding;
    /** Per-point SH scratch (shDims values, reused point by point). */
    std::vector<float> sh;
    /** Color-net input, [geoFeatures + shDims][N]. */
    std::vector<float> colorIn;
    /** Raw (pre-activation) density outputs, [N]. */
    std::vector<float> rawSigma;
    /** dL/d(density-net output), [1 + geoFeatures][N]. */
    std::vector<float> dDensityOut;
    /** dL/d(color-net output), [3][N]. */
    std::vector<float> dColorOut;
    /** Recomputed activations used by the batched backward. */
    std::vector<float> fwdSigmas;
    std::vector<Vec3f> fwdRgbs;
    MlpBatchWorkspace densityWs;
    MlpBatchWorkspace colorWs;
    /** Allocated forward batch capacity (samples). */
    std::size_t capacity = 0;
};

/**
 * Everything one training shard owns: a full batch workspace plus
 * private gradient buffers for both MLPs and the hash grid. Shards
 * share no mutable state, so any number can run concurrently; the
 * trainer merges the buffers afterwards in a fixed order.
 */
struct NerfShardArena
{
    NerfBatchWorkspace ws;
    /** Private density-net gradient buffer, layout of Mlp::grads(). */
    std::vector<float> densityGrads;
    /** Private color-net gradient buffer, layout of Mlp::grads(). */
    std::vector<float> colorGrads;
    /** Private sparse hash-grid gradient accumulator. */
    HashGradAccumulator encodingGrads;
};

/**
 * Reusable arena set for sharded batch evaluation. Grows to the shard
 * count of the largest batch seen and then allocates nothing: buffers
 * are reused across iterations, so the steady-state parallel training
 * loop is allocation-free.
 */
struct NerfParallelWorkspace
{
    std::vector<NerfShardArena> shards;
    /** Scratch pointer list handed to HashGridEncoding::mergeGradShards. */
    std::vector<HashGradAccumulator *> accPtrs;
};

/** A trainable radiance field over the normalized unit cube. */
class NerfModel
{
  public:
    explicit NerfModel(const NerfModelConfig &cfg, std::uint64_t seed = 7);

    /** Sizes of the encoding, density-net and color-net parameter
     *  blocks a model built from @p cfg holds, computed without
     *  allocating them (the constructor sizes its blocks the same way). */
    static std::array<std::size_t, 3> paramCountsFor(const NerfModelConfig &cfg);

    const NerfModelConfig &config() const { return cfg_; }
    HashGridEncoding &encoding() { return *encoding_; }
    const HashGridEncoding &encoding() const { return *encoding_; }
    Mlp &densityNet() { return *density_net_; }
    const Mlp &densityNet() const { return *density_net_; }
    Mlp &colorNet() { return *color_net_; }
    const Mlp &colorNet() const { return *color_net_; }

    PointWorkspace makeWorkspace() const;

    /** Allocate a batch workspace with room for @p capacity samples. */
    NerfBatchWorkspace makeBatchWorkspace(std::size_t capacity = 0) const;

    /**
     * Evaluate density and view-dependent color of one point.
     * @param pos     Position in [0,1]^3.
     * @param dir     Unit view direction.
     * @param ws      Workspace (activation cache for a following backward).
     * @param visitor Optional Stage-II vertex-access observer.
     */
    PointEval forwardPoint(const Vec3f &pos, const Vec3f &dir, PointWorkspace &ws,
                           VertexVisitor *visitor = nullptr) const;

    /** Density-only evaluation (occupancy-grid updates). */
    float queryDensity(const Vec3f &pos, PointWorkspace &ws) const;

    /**
     * Accumulate parameter gradients for a point. Recomputes the forward
     * pass internally (recompute-in-backward strategy), so it does NOT
     * require a prior forwardPoint on the same workspace.
     *
     * @param dsigma dL/d(sigma).
     * @param drgb   dL/d(rgb).
     */
    void backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma,
                       const Vec3f &drgb, PointWorkspace &ws);

    /**
     * Evaluate density and color for a whole batch through the batched
     * encoding (level-major gather) and batched MLPs (blocked GEMM).
     * Per sample the arithmetic matches forwardPoint() bit-exactly;
     * forwardPoint stays as the reference oracle the equivalence tests
     * compare against. Emits an "nerf/forward_batch" trace span and
     * feeds the nerf.batch.* metrics.
     *
     * @param pos     Sample positions in [0,1]^3 (batch size = pos.size()).
     * @param dirs    Unit view direction per sample (same length).
     * @param ws      Batch workspace; grown as needed, cached for backward.
     * @param sigmas  Receives pos.size() activated densities.
     * @param rgbs    Receives pos.size() activated colors.
     * @param visitor Optional Stage-II vertex-access observer.
     */
    void forwardBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                      NerfBatchWorkspace &ws, std::span<float> sigmas,
                      std::span<Vec3f> rgbs, VertexVisitor *visitor = nullptr) const;

    /**
     * forwardBatch split into the fixed shards of shard_partition.h,
     * executed via @p pool (inline when @p pool is null). forwardBatch
     * is batch-size invariant per sample, so the result is bit-exact
     * with one whole-batch forwardBatch call at any thread count.
     */
    void forwardBatchParallel(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                              NerfParallelWorkspace &ws, std::span<float> sigmas,
                              std::span<Vec3f> rgbs, ThreadPool *pool) const;

    /**
     * The batched backward: accumulate parameter gradients for a whole
     * batch. The batch splits into the fixed shards of
     * shard_partition.h; each shard recomputes its forward
     * (recompute-in-backward, so no prior forwardBatch is required) and
     * accumulates into its private arena buffers (the *Into kernels),
     * then a deterministic reduction merges them — a serial pairwise
     * tree over the MLP shard buffers and a sparse merge for the hash
     * grid whose levels run in parallel on @p pool. Shards run on
     * @p pool, or inline when it is null; the summation order depends
     * only on the batch size, so the gradients are bit-identical with
     * no pool or any pool size.
     *
     * @param dsigmas dL/d(sigma) per sample.
     * @param drgbs   dL/d(rgb) per sample.
     */
    void backwardBatchParallel(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                               std::span<const float> dsigmas,
                               std::span<const Vec3f> drgbs, NerfParallelWorkspace &ws,
                               ThreadPool *pool);

    /**
     * Density-only batched evaluation (occupancy-grid updates): batched
     * encode + density GEMM + activation. Bit-exact per sample with
     * queryDensity().
     */
    void queryDensityBatch(std::span<const Vec3f> pos, NerfBatchWorkspace &ws,
                           std::span<float> sigmas) const;

    /** queryDensityBatch over the fixed shards, executed via @p pool
     *  (inline when @p pool is null). */
    void queryDensityBatchParallel(std::span<const Vec3f> pos, NerfParallelWorkspace &ws,
                                   std::span<float> sigmas, ThreadPool *pool) const;

    /** Zero all parameter gradients (encoding and both MLPs). */
    void zeroGrads();

    /** Total trainable parameter count. */
    std::size_t paramCount() const;

    /**
     * Switch the batched inference path of all three parameter blocks
     * (hash table + both MLPs) to @p mode, building the packed weight
     * images from the fp32 masters. With @p dropFp32 (and a non-fp32
     * mode) the fp32 masters are released afterwards — the resident-
     * memory win of a quantized serve replica — at the cost of the
     * scalar/backward paths panicking from then on.
     */
    void setInferenceQuant(QuantMode mode, bool dropFp32 = true);

    /** Numeric format the batched inference path reads weights in. */
    QuantMode inferenceQuantMode() const { return encoding_->quantMode(); }

    /** Bytes of resident parameter storage across all blocks. */
    std::size_t residentParamBytes() const;

    /** MLP multiply-accumulates per point evaluation (forward). */
    std::uint64_t macsPerPoint() const;

    /** Density activation: sigma = exp(clamped raw). */
    static float densityActivation(float raw);
    /** Derivative of densityActivation w.r.t. raw, given the output. */
    static float densityActivationGrad(float raw, float sigma);

  private:
    /** Backward of one shard into its private arena buffers. */
    void backwardShard(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                       std::span<const float> dsigmas, std::span<const Vec3f> drgbs,
                       NerfShardArena &arena) const;

    NerfModelConfig cfg_;
    std::unique_ptr<HashGridEncoding> encoding_;
    std::unique_ptr<Mlp> density_net_;
    std::unique_ptr<Mlp> color_net_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_NERF_MODEL_H_
