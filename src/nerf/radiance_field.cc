/**
 * @file
 * Default batch entry points of RadianceField: a per-ray loop over the
 * scalar traceRay()/backwardLastRay() pair. Fields without a native
 * batch path (the PointPipeline family) inherit these, so every
 * consumer can target the batch interface unconditionally.
 */

#include "nerf/radiance_field.h"

#include "common/logging.h"

namespace fusion3d::nerf
{

void
RadianceField::traceRays(std::span<const Ray> rays, Pcg32 &rng, bool record,
                         std::span<RayEval> out, RayWorkload *workload)
{
    if (out.size() < rays.size())
        panic("RadianceField::traceRays: output span too small (%zu < %zu)",
              out.size(), rays.size());
    if (workload)
        workload->reset();

    if (record) {
        fallback_rays_.assign(rays.begin(), rays.end());
        fallback_rngs_.clear();
        fallback_rngs_.reserve(rays.size());
    }

    RayWorkload per_ray;
    for (std::size_t r = 0; r < rays.size(); ++r) {
        if (record) {
            // Snapshot BEFORE the trace so backwardRays can replay the
            // exact jitter sequence of this ray.
            fallback_rngs_.push_back(rng);
        }
        out[r] = traceRay(rays[r], rng, /*record=*/false,
                          workload ? &per_ray : nullptr);
        if (workload)
            workload->mergeFrom(per_ray);
    }
    if (record)
        fallback_valid_ = true;
}

void
RadianceField::backwardRays(std::span<const Vec3f> dcolors)
{
    if (!fallback_valid_)
        panic("RadianceField::backwardRays without a recorded traceRays");
    if (dcolors.size() < fallback_rays_.size())
        panic("RadianceField::backwardRays: gradient span too small (%zu < %zu)",
              dcolors.size(), fallback_rays_.size());

    for (std::size_t r = 0; r < fallback_rays_.size(); ++r) {
        // Re-trace with record=true from the snapshot (the snapshot
        // reproduces the forward jitter bit for bit), then run the
        // scalar backward. Costs one extra forward per ray; fields with
        // a native tape override this.
        Pcg32 rng = fallback_rngs_[r];
        traceRay(fallback_rays_[r], rng, /*record=*/true);
        backwardLastRay(dcolors[r]);
    }
    fallback_valid_ = false;
}

} // namespace fusion3d::nerf
