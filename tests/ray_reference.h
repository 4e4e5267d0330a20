/**
 * @file
 * The tests' per-ray reference renderer: the scalar oracle every
 * batch-native traceRays is checked against bit for bit. One ray is
 * sampled by RaySampler::sample, each sample is evaluated by the
 * backend's scalar forwardPoint, and the ray composites through
 * composite() — the kernels the batch path is built from, called one
 * ray and one point at a time.
 */

#ifndef FUSION3D_TESTS_RAY_REFERENCE_H_
#define FUSION3D_TESTS_RAY_REFERENCE_H_

#include <vector>

#include "nerf/pipeline.h"
#include "nerf/point_pipeline.h"
#include "nerf/renderer.h"
#include "nerf/sampler.h"

namespace fusion3d::nerf
{

/**
 * Render @p ray one sample at a time.
 * @param point PointEval(const Vec3f &pos, const Vec3f &dir): the
 *              backend's scalar forward.
 */
template <class PointFn>
RayEval
referenceTraceRay(const RaySampler &sampler, const OccupancyGrid *grid,
                  const RenderParams &render, const Ray &ray, Pcg32 &rng,
                  PointFn &&point, RayWorkload *workload = nullptr)
{
    std::vector<RaySample> samples;
    sampler.sample(ray, grid, rng, samples, workload);
    std::vector<float> sigmas(samples.size());
    std::vector<Vec3f> rgbs(samples.size());
    std::vector<float> dts(samples.size());
    const Vec3f dir = normalize(ray.dir);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const PointEval pe = point(samples[i].pos, dir);
        sigmas[i] = pe.sigma;
        rgbs[i] = pe.rgb;
        dts[i] = samples[i].dt;
    }
    const CompositeResult cr = composite(sigmas, rgbs, dts, render);

    RayEval ev;
    ev.color = cr.color;
    ev.transmittance = cr.transmittance;
    ev.composited = cr.used;
    ev.samples = static_cast<int>(samples.size());
    ev.candidates = workload ? workload->totalCandidates : ev.samples;
    if (!samples.empty())
        ev.firstHitT = samples.front().t;
    return ev;
}

/** The reference render of one ray through a hash-grid pipeline. */
inline RayEval
referenceTraceRay(NerfPipeline &pipe, const Ray &ray, Pcg32 &rng,
                  RayWorkload *workload = nullptr)
{
    PointWorkspace ws = pipe.model().makeWorkspace();
    return referenceTraceRay(
        pipe.sampler(), &pipe.grid(), pipe.config().render, ray, rng,
        [&](const Vec3f &pos, const Vec3f &dir) {
            return pipe.model().forwardPoint(pos, dir, ws);
        },
        workload);
}

/** The reference render of one ray through a point-model pipeline. */
template <class ModelT>
RayEval
referenceTraceRay(PointPipeline<ModelT> &pipe, const Ray &ray, Pcg32 &rng,
                  RayWorkload *workload = nullptr)
{
    const RaySampler sampler(pipe.config().sampler);
    return referenceTraceRay(
        sampler, &pipe.grid(), pipe.config().render, ray, rng,
        [&](const Vec3f &pos, const Vec3f &dir) {
            return pipe.model().forwardPoint(pos, dir);
        },
        workload);
}

} // namespace fusion3d::nerf

#endif // FUSION3D_TESTS_RAY_REFERENCE_H_
