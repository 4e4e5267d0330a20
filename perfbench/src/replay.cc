#include "replay.h"

#include <algorithm>

#include "harness.h"

namespace perfbench
{

using namespace fusion3d;

std::size_t
StageLedger::replay(const nerf::NerfModel &model, const nerf::OccupancyGrid *grid,
                    const nerf::RaySampler &sampler,
                    const nerf::RenderParams &render, std::span<const Ray> rays,
                    Pcg32 rng)
{
    // Stage I: sampling plus the occupancy probe, into one SoA batch.
    batch_.clear();
    nerf::RayWorkload wl;
    std::uint64_t candidates = 0;
    auto t0 = Clock::now();
    for (const Ray &ray : rays) {
        sampler.sample(ray, grid, rng, samples_, &wl);
        batch_.appendRay(normalize(ray.dir), samples_);
        candidates += static_cast<std::uint64_t>(wl.totalCandidates);
    }
    stage1_s_ += secondsSince(t0);
    batch_.prepareOutputs();
    const std::size_t n = batch_.size();

    // Stage II alone, then the whole model forward on the same input;
    // the MLP share is the difference.
    const int dims = model.config().grid.encodedDims();
    encoding_.resize(static_cast<std::size_t>(dims) * n);
    t0 = Clock::now();
    model.encoding().encodeBatch(batch_.positions, encoding_);
    stage2_s_ += secondsSince(t0);

    if (ws_.capacity < n)
        ws_ = model.makeBatchWorkspace(n);
    t0 = Clock::now();
    model.forwardBatch(batch_.positions, batch_.dirs, ws_, batch_.sigmas, batch_.rgbs);
    forward_model_s_ += secondsSince(t0);

    // Stage III: per-ray compositing over each ray's CSR range.
    composited_.resize(rays.size());
    t0 = Clock::now();
    for (int r = 0; r < batch_.numRays(); ++r) {
        const std::size_t begin = batch_.rayBegin(r);
        const std::size_t count = batch_.raySampleCount(r);
        composited_[static_cast<std::size_t>(r)] =
            nerf::composite({batch_.sigmas.data() + begin, count},
                            {batch_.rgbs.data() + begin, count},
                            {batch_.dts.data() + begin, count}, render);
    }
    stage3_s_ += secondsSince(t0);

    rays_ += rays.size();
    samples_total_ += n;
    candidates_ += candidates;
    return n;
}

void
StageLedger::report(Report &rep) const
{
    const double rays = static_cast<double>(std::max<std::uint64_t>(rays_, 1));
    const double samples =
        static_cast<double>(std::max<std::uint64_t>(samples_total_, 1));
    rep.metric("nerf.stage1.ns_per_ray", stage1_s_ * 1e9 / rays);
    rep.metric("nerf.stage2.ns_per_sample", stage2_s_ * 1e9 / samples);
    rep.metric("nerf.mlp.ns_per_sample",
               std::max(forward_model_s_ - stage2_s_, 0.0) * 1e9 / samples);
    rep.metric("nerf.stage3.ns_per_ray", stage3_s_ * 1e9 / rays);
    rep.metric("nerf.trace_rays.ns_per_sample",
               forward_s_ * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(forward_samples_, 1)));
    rep.metric("nerf.samples_per_ray", static_cast<double>(samples_total_) / rays);
    rep.metric("nerf.mlp_visible_frac",
               candidates_ ? static_cast<double>(samples_total_) /
                                 static_cast<double>(candidates_)
                           : 0.0);
    rep.metric("nerf.batch_samples.p50", median(batch_samples_));
    rep.detail("ledger.replayed_rays", static_cast<double>(rays_));
    rep.detail("ledger.replayed_samples", static_cast<double>(samples_total_));
    rep.detail("ledger.forward_calls", static_cast<double>(batch_samples_.size()));
}

} // namespace perfbench
