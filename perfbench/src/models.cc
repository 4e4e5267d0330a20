#include "models.h"

#include <cmath>

#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace perfbench
{

using namespace fusion3d;

std::unique_ptr<scenes::Scene>
legoScene()
{
    return scenes::makeSyntheticScene("lego");
}

nerf::Dataset
legoDataset(const scenes::Scene &scene)
{
    scenes::DatasetConfig dc = scenes::syntheticRig(kDatasetSize);
    dc.trainViews = 12;
    dc.testViews = kEvalViews;
    return scenes::makeDataset(scene, dc);
}

nerf::PipelineConfig
hashGridConfig(std::uint64_t seed)
{
    nerf::PipelineConfig pc;
    pc.model.grid.levels = 8;
    pc.model.grid.featuresPerLevel = 2;
    pc.model.grid.log2TableSize = 14;
    pc.model.grid.baseResolution = 16;
    pc.model.grid.maxResolution = 128;
    pc.model.densityHidden = 32;
    pc.model.colorHidden = 32;
    pc.model.geoFeatures = 15;
    pc.model.shDegree = 3;
    pc.sampler.maxSamplesPerRay = 48;
    pc.occupancyResolution = 48;
    pc.occupancyThreshold = kGateThreshold;
    pc.seed = seed;
    return pc;
}

nerf::TensorfPipelineConfig
tensorfConfig(std::uint64_t seed)
{
    nerf::TensorfPipelineConfig pc;
    pc.model.densityRank = 6;
    pc.model.appearanceRank = 8;
    pc.model.lineResolution = 48;
    pc.model.appearanceDim = 8;
    pc.model.colorHidden = 16;
    pc.sampler.maxSamplesPerRay = 48;
    pc.occupancyThreshold = kGateThreshold;
    pc.seed = seed;
    return pc;
}

nerf::TrainerConfig
trainerConfig(std::uint64_t seed, int iterations, ThreadPool *pool)
{
    nerf::TrainerConfig tc;
    tc.iterations = iterations;
    tc.raysPerBatch = kRaysPerBatch;
    tc.occupancyWarmup = kOccupancyWarmup;
    tc.occupancyUpdateEvery = 16;
    tc.evalViews = kEvalViews;
    tc.seed = seed;
    tc.pool = pool;
    return tc;
}

std::unique_ptr<nerf::NerfPipeline>
trainHashGrid(const nerf::Dataset &data, std::uint64_t seed, ThreadPool &pool)
{
    auto pipe = std::make_unique<nerf::NerfPipeline>(hashGridConfig(mixSeed(seed, 11)));
    nerf::TrainerConfig tc = trainerConfig(mixSeed(seed, 12), kSetupTrainIterations, &pool);
    tc.raysPerBatch = kSetupRaysPerBatch;
    nerf::Trainer trainer(*pipe, data, tc);
    for (int i = 0; i < kSetupTrainIterations; ++i)
        trainer.trainIteration();
    return pipe;
}

std::unique_ptr<nerf::TensorfPipeline>
trainTensorf(const nerf::Dataset &data, std::uint64_t seed, ThreadPool &pool)
{
    auto pipe = std::make_unique<nerf::TensorfPipeline>(tensorfConfig(mixSeed(seed, 13)));
    nerf::TrainerConfig tc = trainerConfig(mixSeed(seed, 14), kSetupTrainIterations, &pool);
    tc.raysPerBatch = kSetupRaysPerBatch;
    nerf::Trainer trainer(*pipe, data, tc);
    for (int i = 0; i < kSetupTrainIterations; ++i)
        trainer.trainIteration();
    return pipe;
}

double
recurrence(double offset, double alpha, int i)
{
    const double x = offset + alpha * static_cast<double>(i);
    return x - std::floor(x);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
