/**
 * @file
 * The scenes, model configurations and training recipes the workloads
 * share. Everything here is a function of its arguments (and the run
 * seed passed in), so two runs with one seed train identical models.
 */

#ifndef PERFBENCH_MODELS_H_
#define PERFBENCH_MODELS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "nerf/dataset.h"
#include "nerf/pipeline.h"
#include "nerf/tensorf.h"
#include "nerf/trainer.h"
#include "scenes/scene.h"

namespace perfbench
{

/** Minibatch size of every training run (the paper's batch regime). */
inline constexpr int kRaysPerBatch = 1024;

/** Side of the square training / test images. */
inline constexpr int kDatasetSize = 32;

/** Test views every PSNR is averaged over. */
inline constexpr int kEvalViews = 2;

/** The procedural lego scene. */
std::unique_ptr<fusion3d::scenes::Scene> legoScene();

/** Posed ground-truth views of @p scene at kDatasetSize. */
fusion3d::nerf::Dataset legoDataset(const fusion3d::scenes::Scene &scene);

/**
 * Density above which an occupancy-gate cell is live, for every
 * pipeline the workloads train and every model they serve. The library
 * default (0.01) never prunes at these training lengths: after 512
 * iterations of 1024 rays on lego (32.8 dB) every cell is still live,
 * so every ray would march dense. At 1.0 a trained lego model keeps
 * 15-20 % of the cells, close to the scene's true occupancy (15 %),
 * for under 0.7 dB of test PSNR.
 */
inline constexpr float kGateThreshold = 1.0f;

/** The hash-grid pipeline every workload trains or serves. */
fusion3d::nerf::PipelineConfig hashGridConfig(std::uint64_t seed);

/** The TensoRF pipeline of the stream fleet. */
fusion3d::nerf::TensorfPipelineConfig tensorfConfig(std::uint64_t seed);

/** Training iterations before the first occupancy update; until then
 *  the gate is dense and every ray marches every cell. */
inline constexpr int kOccupancyWarmup = 16;

/** Training recipe: kRaysPerBatch-ray minibatches, @p iterations steps. */
fusion3d::nerf::TrainerConfig trainerConfig(std::uint64_t seed, int iterations,
                                            fusion3d::ThreadPool *pool);

/** Set-up training of the models the serving and chip workloads use:
 *  smaller minibatches than kRaysPerBatch, which reach a better PSNR
 *  per second of set-up. */
inline constexpr int kSetupTrainIterations = 96;
inline constexpr int kSetupRaysPerBatch = 256;

/**
 * Initialisation and set-up training seed of every model. Fixed: the
 * workloads' --seed varies their inputs (minibatch order, arrivals,
 * cameras, model picks), not the weights they start from.
 */
inline constexpr std::uint64_t kModelSeed = 2024;

/** Train the hash-grid pipeline for kSetupTrainIterations steps. */
std::unique_ptr<fusion3d::nerf::NerfPipeline>
trainHashGrid(const fusion3d::nerf::Dataset &data, std::uint64_t seed,
              fusion3d::ThreadPool &pool);

/** Train the TensoRF pipeline for kSetupTrainIterations steps. */
std::unique_ptr<fusion3d::nerf::TensorfPipeline>
trainTensorf(const fusion3d::nerf::Dataset &data, std::uint64_t seed,
             fusion3d::ThreadPool &pool);

/** Element @p i of the additive recurrence frac(offset + i * alpha):
 *  an evenly spread sequence in [0, 1) for an irrational @p alpha. */
double recurrence(double offset, double alpha, int i);

/** Mix a workload seed with a small stream id (splitmix64 finalizer). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_MODELS_H_
