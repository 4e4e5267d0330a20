/**
 * @file
 * Backend-polymorphic serveable radiance field. The serve layer
 * (registry, scheduler, reprojection) and the const render paths
 * (parallel_render) talk to this interface instead of a concrete
 * `NerfModel`, so the hash-grid, frequency-encoded, and TensoRF
 * backends all ride the same deployment stack: registry load / retry /
 * breaker, hot-swap, LRU eviction + single-flight reload, the deadline
 * ladder, reprojection sessions, tracing, and per-tenant QoS.
 *
 * The contract is intentionally tiny: a backend tag, the parameter
 * count (memory accounting), and two *const, thread-safe* batched
 * evaluation entry points. Each call builds one call-local workspace
 * sized min(n, kShardGrain) and walks its batch through it in
 * kShardGrain chunks (forEachChunk), so the scratch of a 48^3 gate
 * rebuild is that of a 256-sample batch and concurrent callers share
 * nothing. The batched forward is batch-size invariant per sample, so
 * chunking changes no output bit.
 */

#ifndef FUSION3D_NERF_FIELD_H_
#define FUSION3D_NERF_FIELD_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>

#include "common/quant.h"
#include "common/vec.h"
#include "nerf/shard_partition.h"

namespace fusion3d::nerf
{

class NerfModel;

/** Which radiance-field backend an artifact / serve entry holds. */
enum class BackendKind : std::uint32_t
{
    hashGrid = 0, ///< Instant-NGP hash-grid NerfModel (.f3dm v2 payload)
    freqNerf = 1, ///< frequency-encoded pure-MLP FreqNerfModel
    tensorf = 2,  ///< CP-factorized TensorfModel
};

/** Stable lowercase name of a backend kind (logs, JSON, bench output). */
const char *backendKindName(BackendKind kind);

/** Panic unless every span size in @p sizes covers the @p n positions
 *  of a serve-field evaluation (the chunks take subspans of them). */
void requireEvalSpans(const char *who, std::size_t n,
                      std::initializer_list<std::size_t> sizes);

/** A read-only radiance field any backend can expose for serving. */
class ServeableField
{
  public:
    virtual ~ServeableField() = default;

    virtual BackendKind kind() const = 0;

    /** Total trainable parameter count (registry memory accounting). */
    virtual std::size_t paramCount() const = 0;

    /**
     * Batched density+color evaluation. Thread-safe: the call runs the
     * batch in kShardGrain chunks through one call-local workspace of
     * min(n, kShardGrain) samples, so any number of render tiles may
     * evaluate the same field concurrently and a large batch costs no
     * more scratch than a 256-sample one. Per sample the arithmetic is
     * bit-exact with the backend's scalar forward path.
     *
     * @param positions Sample positions in [0,1]^3.
     * @param dirs      Unit view direction per sample (same length).
     * @param sigmas    Receives positions.size() activated densities.
     * @param rgbs      Receives positions.size() activated colors.
     */
    virtual void evalBatch(std::span<const Vec3f> positions,
                           std::span<const Vec3f> dirs, std::span<float> sigmas,
                           std::span<Vec3f> rgbs) const = 0;

    /**
     * Batched density-only evaluation (occupancy-gate rebuilds), in the
     * same call-local kShardGrain chunks as evalBatch. Thread-safe and
     * bit-exact per sample with the scalar density query, so a gate
     * rebuilt through this path equals the gate the training pipeline
     * maintained.
     */
    virtual void evalDensityBatch(std::span<const Vec3f> positions,
                                  std::span<float> sigmas) const = 0;

    /**
     * Bytes of resident parameter storage — the registry's memory-
     * budget accounting unit. Defaults to fp32 (paramCount() * 4);
     * backends with packed weight images report their actual footprint.
     */
    virtual std::size_t residentBytes() const
    {
        return paramCount() * sizeof(float);
    }

    /** Numeric format evalBatch reads weights in (fp32 by default). */
    virtual QuantMode quantMode() const { return QuantMode::fp32; }

    /**
     * Switch this field's inference weights to @p mode, releasing the
     * fp32 masters for non-fp32 modes. Returns false if the backend
     * does not support quantization (the default) or the field borrows
     * its model; the field then keeps serving fp32.
     */
    virtual bool applyQuantMode(QuantMode mode)
    {
        return mode == QuantMode::fp32;
    }
};

/**
 * ServeableField over the hash-grid NerfModel. Owns the model when
 * constructed from a unique_ptr, or borrows a caller-owned model (the
 * borrowed model must outlive the field — used by the const render
 * overloads that still accept a bare `const NerfModel&`).
 */
class HashGridServeField : public ServeableField
{
  public:
    explicit HashGridServeField(std::unique_ptr<NerfModel> model);
    explicit HashGridServeField(const NerfModel &model);
    ~HashGridServeField() override;

    BackendKind kind() const override { return BackendKind::hashGrid; }
    std::size_t paramCount() const override;
    void evalBatch(std::span<const Vec3f> positions, std::span<const Vec3f> dirs,
                   std::span<float> sigmas, std::span<Vec3f> rgbs) const override;
    void evalDensityBatch(std::span<const Vec3f> positions,
                          std::span<float> sigmas) const override;
    std::size_t residentBytes() const override;
    QuantMode quantMode() const override;
    bool applyQuantMode(QuantMode mode) override;

    const NerfModel &
    model() const
    {
        return owned_ ? static_cast<const NerfModel &>(*owned_) : *borrowed_;
    }

  private:
    std::unique_ptr<NerfModel> owned_;
    const NerfModel *borrowed_ = nullptr;
};

/**
 * ServeableField over any PointPipeline-compatible model with the
 * batched contract (`makeBatchWorkspace` / `forwardPointBatch` /
 * `queryDensityBatch`, all const). Header-only so each backend
 * instantiates it next to its model type; `FreqServeField` and
 * `TensorfServeField` are the aliases the serve/serialize layers use.
 */
template <class ModelT>
class PointServeField : public ServeableField
{
  public:
    explicit PointServeField(std::unique_ptr<ModelT> model)
        : owned_(std::move(model))
    {}
    explicit PointServeField(const ModelT &model) : borrowed_(&model) {}

    BackendKind kind() const override { return ModelT::kBackendKind; }
    std::size_t paramCount() const override { return model().paramCount(); }

    void
    evalBatch(std::span<const Vec3f> positions, std::span<const Vec3f> dirs,
              std::span<float> sigmas, std::span<Vec3f> rgbs) const override
    {
        requireEvalSpans("PointServeField::evalBatch", positions.size(),
                         {dirs.size(), sigmas.size(), rgbs.size()});
        typename ModelT::BatchWorkspace ws = model().makeBatchWorkspace();
        forEachChunk(positions.size(), [&](std::size_t b, std::size_t e) {
            model().forwardPointBatch(positions.subspan(b, e - b),
                                      dirs.subspan(b, e - b), ws,
                                      sigmas.subspan(b, e - b),
                                      rgbs.subspan(b, e - b));
        });
    }

    void
    evalDensityBatch(std::span<const Vec3f> positions,
                     std::span<float> sigmas) const override
    {
        requireEvalSpans("PointServeField::evalDensityBatch", positions.size(),
                         {sigmas.size()});
        typename ModelT::BatchWorkspace ws = model().makeBatchWorkspace();
        forEachChunk(positions.size(), [&](std::size_t b, std::size_t e) {
            model().queryDensityBatch(positions.subspan(b, e - b), ws,
                                      sigmas.subspan(b, e - b));
        });
    }

    const ModelT &
    model() const
    {
        return owned_ ? static_cast<const ModelT &>(*owned_) : *borrowed_;
    }
    /** Owning fields only (artifact save paths); null when borrowing. */
    ModelT *mutableModel() { return owned_.get(); }

  private:
    std::unique_ptr<ModelT> owned_;
    const ModelT *borrowed_ = nullptr;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_FIELD_H_
