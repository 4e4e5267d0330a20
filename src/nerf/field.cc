#include "nerf/field.h"

#include "common/logging.h"
#include "nerf/nerf_model.h"

namespace fusion3d::nerf
{

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::hashGrid:
        return "hash_grid";
    case BackendKind::freqNerf:
        return "freq_nerf";
    case BackendKind::tensorf:
        return "tensorf";
    }
    return "unknown";
}

void
requireEvalSpans(const char *who, std::size_t n,
                 std::initializer_list<std::size_t> sizes)
{
    for (const std::size_t size : sizes)
        if (size < n)
            panic("%s: span of %zu samples, batch of %zu", who, size, n);
}

HashGridServeField::HashGridServeField(std::unique_ptr<NerfModel> model)
    : owned_(std::move(model))
{
}

HashGridServeField::HashGridServeField(const NerfModel &model) : borrowed_(&model) {}

HashGridServeField::~HashGridServeField() = default;

std::size_t
HashGridServeField::paramCount() const
{
    return model().paramCount();
}

void
HashGridServeField::evalBatch(std::span<const Vec3f> positions,
                              std::span<const Vec3f> dirs, std::span<float> sigmas,
                              std::span<Vec3f> rgbs) const
{
    const std::size_t n = positions.size();
    requireEvalSpans("HashGridServeField::evalBatch", n,
                     {dirs.size(), sigmas.size(), rgbs.size()});
    NerfBatchWorkspace ws = model().makeBatchWorkspace();
    forEachChunk(n, [&](std::size_t b, std::size_t e) {
        model().forwardBatch(positions.subspan(b, e - b), dirs.subspan(b, e - b), ws,
                             sigmas.subspan(b, e - b), rgbs.subspan(b, e - b));
    });
}

void
HashGridServeField::evalDensityBatch(std::span<const Vec3f> positions,
                                     std::span<float> sigmas) const
{
    const std::size_t n = positions.size();
    requireEvalSpans("HashGridServeField::evalDensityBatch", n, {sigmas.size()});
    NerfBatchWorkspace ws = model().makeBatchWorkspace();
    forEachChunk(n, [&](std::size_t b, std::size_t e) {
        model().queryDensityBatch(positions.subspan(b, e - b), ws,
                                  sigmas.subspan(b, e - b));
    });
}

std::size_t
HashGridServeField::residentBytes() const
{
    return model().residentParamBytes();
}

QuantMode
HashGridServeField::quantMode() const
{
    return model().inferenceQuantMode();
}

bool
HashGridServeField::applyQuantMode(QuantMode mode)
{
    // A borrowed model can't be mutated; once the fp32 masters are
    // dropped the mode is pinned. Both cases succeed only as no-ops.
    if (owned_ == nullptr || !owned_->encoding().hasFp32Weights())
        return model().inferenceQuantMode() == mode;
    owned_->setInferenceQuant(mode);
    return true;
}

} // namespace fusion3d::nerf
