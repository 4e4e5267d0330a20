/**
 * @file
 * The stage ledger: replays a workload's own ray batches, at their real
 * batch sizes, through the public stage functions one at a time —
 * RaySampler::sample with the occupancy gate (Stage I),
 * HashGridEncoding::encodeBatch (Stage II), NerfModel::forwardBatch
 * minus encodeBatch on the same input (MLP), and composite (Stage III) —
 * and accumulates single-thread time per stage. Every call is const, so
 * replaying never perturbs the workload.
 */

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/ray.h"
#include "common/rng.h"
#include "nerf/nerf_model.h"
#include "nerf/occupancy_grid.h"
#include "nerf/renderer.h"
#include "nerf/sample_batch.h"
#include "nerf/sampler.h"

namespace perfbench
{

class Report;

class StageLedger
{
  public:
    /**
     * Replay one batch. @p rng is the generator state the workload
     * handed its own traceRays call (copied, so jitter matches).
     * Returns the batch's valid sample count.
     */
    std::size_t replay(const fusion3d::nerf::NerfModel &model,
                       const fusion3d::nerf::OccupancyGrid *grid,
                       const fusion3d::nerf::RaySampler &sampler,
                       const fusion3d::nerf::RenderParams &render,
                       std::span<const fusion3d::Ray> rays, fusion3d::Pcg32 rng);

    /** Record one whole-forward call of @p samples samples. */
    void
    noteForward(double seconds, std::size_t samples)
    {
        forward_s_ += seconds;
        forward_samples_ += samples;
    }

    /** Record the sample count of one batch the workload traced. */
    void noteBatch(std::size_t samples) { batch_samples_.push_back(double(samples)); }

    /** Write the nerf.* stage metrics. */
    void report(Report &rep) const;

  private:
    fusion3d::nerf::SampleBatch batch_;
    std::vector<fusion3d::nerf::RaySample> samples_;
    std::vector<float> encoding_;
    fusion3d::nerf::NerfBatchWorkspace ws_;
    std::vector<fusion3d::nerf::CompositeResult> composited_;

    double stage1_s_ = 0.0;
    double stage2_s_ = 0.0;
    double forward_model_s_ = 0.0;
    double stage3_s_ = 0.0;
    std::uint64_t rays_ = 0;
    std::uint64_t samples_total_ = 0;
    std::uint64_t candidates_ = 0;
    double forward_s_ = 0.0;
    std::uint64_t forward_samples_ = 0;
    std::vector<double> batch_samples_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H_
