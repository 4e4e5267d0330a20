/**
 * @file
 * Stage III volumetric rendering: alpha compositing of per-sample
 * densities and colors along a ray, with the exact backward pass needed
 * for training. Early termination at low transmittance matches what the
 * post-processing hardware module does.
 */

#ifndef FUSION3D_NERF_RENDERER_H_
#define FUSION3D_NERF_RENDERER_H_

#include <span>
#include <vector>

#include "common/vec.h"

namespace fusion3d::nerf
{

/** Compositing parameters. */
struct RenderParams
{
    /** Stop integrating once transmittance falls below this. */
    float terminationThreshold = 1e-4f;
    /** Background color added behind the remaining transmittance. */
    Vec3f background{0.0f, 0.0f, 0.0f};
};

/** Result of compositing one ray. */
struct CompositeResult
{
    Vec3f color;
    /** Transmittance remaining after the last used sample. */
    float transmittance = 1.0f;
    /** Samples actually consumed before early termination. */
    int used = 0;
};

/**
 * Forward compositing:
 *   alpha_i = 1 - exp(-sigma_i * dt_i)
 *   T_i     = prod_{j<i} (1 - alpha_j)
 *   C       = sum_i T_i * alpha_i * c_i + T_end * background
 */
CompositeResult composite(std::span<const float> sigmas, std::span<const Vec3f> rgbs,
                          std::span<const float> dts, const RenderParams &params);

/**
 * Expected termination depth of a composited ray: sum_i w_i * t_i plus
 * the remaining transmittance at the far bound. Used by the image-warp
 * extension (frame reuse a la MetaVRain) to reproject pixels.
 *
 * @param ts    Ray parameter of each sample (matching sigmas/dts).
 * @param t_far Depth assigned to the un-terminated remainder.
 */
float compositeDepth(std::span<const float> sigmas, std::span<const float> dts,
                     std::span<const float> ts, const RenderParams &params,
                     float t_far);

/**
 * Reusable scratch for compositeBackward(); keeps the per-ray prefix
 * buffers out of the allocator on hot training paths. Grows to the
 * longest ray seen and never shrinks.
 */
struct CompositeBackwardScratch
{
    std::vector<float> t_after;
    std::vector<float> weight;
};

/**
 * Backward pass of composite(). Only the first @p fwd.used samples
 * receive gradients; later samples were never used.
 *
 * @param fwd     Result of the matching forward call.
 * @param dcolor  dL/dC.
 * @param dsigmas Receives dL/dsigma_i (first fwd.used entries written,
 *                the rest zeroed).
 * @param drgbs   Receives dL/dc_i, same convention.
 * @param scratch Caller-owned scratch reused across rays.
 */
void compositeBackward(std::span<const float> sigmas, std::span<const Vec3f> rgbs,
                       std::span<const float> dts, const RenderParams &params,
                       const CompositeResult &fwd, const Vec3f &dcolor,
                       std::span<float> dsigmas, std::span<Vec3f> drgbs,
                       CompositeBackwardScratch &scratch);

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_RENDERER_H_
