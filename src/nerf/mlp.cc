#include "nerf/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/half.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"

namespace fusion3d::nerf
{

Mlp::Mlp(std::vector<int> layer_sizes, std::uint64_t seed)
    : sizes_(std::move(layer_sizes))
{
    if (sizes_.size() < 2)
        fatal("Mlp needs at least input and output layers");
    for (int s : sizes_) {
        if (s < 1)
            fatal("Mlp layer sizes must be positive");
    }

    // Layer l's weights start after the parameters of layers 0..l-1.
    w_offsets_.resize(layerCount());
    b_offsets_.resize(layerCount());
    for (int l = 0; l < layerCount(); ++l) {
        w_offsets_[l] = paramCountFor(std::span(sizes_).first(l + 1));
        b_offsets_[l] =
            w_offsets_[l] + static_cast<std::size_t>(sizes_[l]) * sizes_[l + 1];
    }
    param_count_ = paramCountFor(sizes_);
    params_.resize(param_count_);
    grads_.assign(param_count_, 0.0f);

    // He-uniform init for the ReLU layers.
    Pcg32 rng(seed, 0xcafef00dd15ea5e5ULL);
    for (int l = 0; l < layerCount(); ++l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
        float *w = params_.data() + w_offsets_[l];
        for (int i = 0; i < fan_out * fan_in; ++i)
            w[i] = rng.nextRange(-bound, bound);
        float *b = params_.data() + b_offsets_[l];
        std::fill(b, b + fan_out, 0.0f);
    }
}

std::size_t
Mlp::paramCountFor(std::span<const int> layer_sizes)
{
    std::size_t total = 0;
    for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l)
        total += (static_cast<std::size_t>(layer_sizes[l]) + 1) * layer_sizes[l + 1];
    return total;
}

namespace
{

/** Grow the forward buffers of @p ws to hold @p n samples; never
 *  shrinks. The backward scratch grows in backwardBatchInto. */
void
growBatchWorkspace(const std::vector<int> &sizes, MlpBatchWorkspace &ws, std::size_t n)
{
    if (n <= ws.capacity && !ws.activations.empty())
        return;
    const std::size_t layers = sizes.size() - 1;
    const std::size_t cap = std::max(n, ws.capacity);
    ws.activations.resize(sizes.size());
    ws.preacts.resize(layers);
    for (std::size_t i = 0; i < sizes.size(); ++i)
        ws.activations[i].resize(static_cast<std::size_t>(sizes[i]) * cap);
    for (std::size_t l = 0; l < layers; ++l)
        ws.preacts[l].resize(static_cast<std::size_t>(sizes[l + 1]) * cap);
    ws.capacity = cap;
}

} // namespace

MlpWorkspace
Mlp::makeWorkspace() const
{
    MlpWorkspace ws;
    ws.activations.resize(sizes_.size());
    ws.preacts.resize(layerCount());
    for (std::size_t i = 0; i < sizes_.size(); ++i)
        ws.activations[i].resize(static_cast<std::size_t>(sizes_[i]));
    for (int l = 0; l < layerCount(); ++l)
        ws.preacts[l].resize(static_cast<std::size_t>(sizes_[l + 1]));
    ws.dinput.resize(static_cast<std::size_t>(sizes_.front()));
    const int widest = *std::max_element(sizes_.begin(), sizes_.end());
    ws.delta_a.resize(static_cast<std::size_t>(widest));
    ws.delta_b.resize(static_cast<std::size_t>(widest));
    return ws;
}

MlpBatchWorkspace
Mlp::makeBatchWorkspace(std::size_t capacity) const
{
    MlpBatchWorkspace ws;
    growBatchWorkspace(sizes_, ws, capacity);
    return ws;
}

std::span<const float>
Mlp::forwardBatch(std::span<const float> input, std::size_t n, MlpBatchWorkspace &ws) const
{
    if (n == 0) {
        ws.count = 0;
        return {};
    }
    if (input.size() < static_cast<std::size_t>(inputDim()) * n)
        panic("Mlp::forwardBatch input too small (%zu < %zu)", input.size(),
              static_cast<std::size_t>(inputDim()) * n);

    growBatchWorkspace(sizes_, ws, n);
    ws.count = n;
    std::copy_n(input.begin(), static_cast<std::size_t>(inputDim()) * n,
                ws.activations[0].begin());

    // One dispatch lookup per call; lanes map to samples, so every
    // variant preserves each column's accumulation order (bias first,
    // then fan-in ascending — the exact order of the scalar forward()).
    const simd::Kernels &kern = simd::kernels();
    const bool quantized = quant_mode_ != QuantMode::fp32;
    if (!quantized && !has_fp32_)
        panic("Mlp::forwardBatch fp32 weights dropped without a packed image");

    // All matrices are feature-major with stride n for this call.
    for (int l = 0; l < layerCount(); ++l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        const float *w;
        const float *b;
        if (quantized) {
            // Dequantize the layer's weight matrix into scratch and run
            // the same fp32 kernel: bitwise identical to evaluating the
            // dequantized image directly, at one extra pass per layer
            // over a few KB of weights (amortized across the batch).
            const std::size_t wcount =
                static_cast<std::size_t>(fan_in) * fan_out;
            if (ws.wdequant.size() < wcount)
                ws.wdequant.resize(wcount);
            if (quant_mode_ == QuantMode::fp16) {
                const std::uint16_t *q = qw_fp16_.data() + qw_offsets_[l];
                for (std::size_t k = 0; k < wcount; ++k)
                    ws.wdequant[k] = simd::halfBitsToFloat(q[k]);
            } else {
                const std::int8_t *q = qw_int8_.data() + qw_offsets_[l];
                const float s = qscales_[l].scale;
                for (std::size_t k = 0; k < wcount; ++k)
                    ws.wdequant[k] = static_cast<float>(q[k]) * s;
            }
            w = ws.wdequant.data();
            b = qbias_.data() + qb_offsets_[l];
        } else {
            w = params_.data() + w_offsets_[l];
            b = params_.data() + b_offsets_[l];
        }
        const float *x = ws.activations[l].data();
        float *z = ws.preacts[l].data();
        float *a = ws.activations[l + 1].data();
        const bool hidden = l != layerCount() - 1;
        kern.mlpLayer(w, b, x, z, a, fan_in, fan_out, n, hidden);
    }
    return {ws.activations.back().data(), static_cast<std::size_t>(outputDim()) * n};
}

void
Mlp::backwardBatchInto(std::span<const float> dout, std::size_t n,
                       MlpBatchWorkspace &ws, std::span<float> grads) const
{
    if (n == 0)
        return;
    if (n != ws.count)
        panic("Mlp::backwardBatchInto batch size mismatch (%zu != %zu)", n, ws.count);
    if (dout.size() < static_cast<std::size_t>(outputDim()) * n)
        panic("Mlp::backwardBatchInto gradient too small");
    if (!has_fp32_)
        panic("Mlp::backwardBatchInto requires fp32 weights (dropped)");
    if (grads.size() != param_count_)
        panic("Mlp::backwardBatchInto gradient vector mismatch (%zu != %zu)",
              grads.size(), param_count_);

    // The backward scratch (deltas, dinput and the kernels' transposes)
    // is sized here rather than in growBatchWorkspace, so inference-only
    // workspaces never allocate it; it only grows.
    const int widest = *std::max_element(sizes_.begin(), sizes_.end());
    if (ws.delta_a.size() < static_cast<std::size_t>(widest) * n) {
        ws.delta_a.resize(static_cast<std::size_t>(widest) * n);
        ws.delta_b.resize(static_cast<std::size_t>(widest) * n);
        ws.dinput.resize(static_cast<std::size_t>(inputDim()) * n);
    }
    const std::size_t scratch = simd::lanePad(widest) * n;
    if (ws.xt.size() < scratch) {
        ws.xt.resize(scratch);
        ws.dt.resize(scratch);
    }

    float *delta = ws.delta_a.data();
    float *next_delta = ws.delta_b.data();
    std::copy_n(dout.begin(), static_cast<std::size_t>(outputDim()) * n, delta);

    // One dispatch lookup per call; every variant keeps the scalar
    // loop's per-element accumulation order (simd::Kernels), so the
    // gradients are bit-identical whichever runs.
    const simd::Kernels &kern = simd::kernels();

    for (int l = layerCount() - 1; l >= 0; --l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        const float *w = params_.data() + w_offsets_[l];
        float *gw = grads.data() + w_offsets_[l];
        float *gb = grads.data() + b_offsets_[l];
        const float *x = ws.activations[l].data();
        const float *z = ws.preacts[l].data();
        const bool hidden = l != layerCount() - 1;

        if (hidden) {
            // Branch-free select, so the mask vectorizes instead of
            // mispredicting on every other ReLU.
            const std::size_t count = static_cast<std::size_t>(fan_out) * n;
            for (std::size_t k = 0; k < count; ++k)
                delta[k] = z[k] <= 0.0f ? 0.0f : delta[k];
        }

        kern.mlpLayerBackward(w, x, delta, next_delta, gw, gb, fan_in, fan_out,
                              n, ws.xt.data(), ws.dt.data());
        std::swap(delta, next_delta);
    }

    std::copy_n(delta, static_cast<std::size_t>(inputDim()) * n, ws.dinput.begin());
}

std::span<const float>
Mlp::forward(std::span<const float> input, MlpWorkspace &ws) const
{
    if (input.size() < static_cast<std::size_t>(inputDim()))
        panic("Mlp::forward input too small (%zu < %d)", input.size(), inputDim());
    if (!has_fp32_)
        panic("Mlp::forward requires fp32 weights (dropped)");

    std::copy_n(input.begin(), inputDim(), ws.activations[0].begin());

    for (int l = 0; l < layerCount(); ++l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        const float *w = params_.data() + w_offsets_[l];
        const float *b = params_.data() + b_offsets_[l];
        const float *x = ws.activations[l].data();
        float *z = ws.preacts[l].data();
        float *a = ws.activations[l + 1].data();
        const bool hidden = l != layerCount() - 1;

        for (int o = 0; o < fan_out; ++o) {
            const float *wrow = w + static_cast<std::size_t>(o) * fan_in;
            float acc = b[o];
            for (int i = 0; i < fan_in; ++i)
                acc += wrow[i] * x[i];
            z[o] = acc;
            a[o] = hidden ? std::max(acc, 0.0f) : acc;
        }
    }
    return {ws.activations.back().data(), static_cast<std::size_t>(outputDim())};
}

void
Mlp::backward(std::span<const float> dout, MlpWorkspace &ws)
{
    if (dout.size() < static_cast<std::size_t>(outputDim()))
        panic("Mlp::backward gradient too small");
    if (!has_fp32_)
        panic("Mlp::backward requires fp32 weights (dropped)");

    float *delta = ws.delta_a.data();
    float *next_delta = ws.delta_b.data();
    std::copy_n(dout.begin(), outputDim(), delta);

    for (int l = layerCount() - 1; l >= 0; --l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        const float *w = params_.data() + w_offsets_[l];
        float *gw = grads_.data() + w_offsets_[l];
        float *gb = grads_.data() + b_offsets_[l];
        const float *x = ws.activations[l].data();
        const float *z = ws.preacts[l].data();
        const bool hidden = l != layerCount() - 1;

        // Fold the ReLU derivative into delta for hidden layers.
        if (hidden) {
            for (int o = 0; o < fan_out; ++o) {
                if (z[o] <= 0.0f)
                    delta[o] = 0.0f;
            }
        }

        std::fill_n(next_delta, fan_in, 0.0f);
        for (int o = 0; o < fan_out; ++o) {
            const float d = delta[o];
            if (d == 0.0f)
                continue;
            const float *wrow = w + static_cast<std::size_t>(o) * fan_in;
            float *gwrow = gw + static_cast<std::size_t>(o) * fan_in;
            gb[o] += d;
            for (int i = 0; i < fan_in; ++i) {
                gwrow[i] += d * x[i];
                next_delta[i] += d * wrow[i];
            }
        }
        std::swap(delta, next_delta);
    }

    std::copy_n(delta, inputDim(), ws.dinput.begin());
}

void
Mlp::zeroGrads()
{
    std::fill(grads_.begin(), grads_.end(), 0.0f);
}

void
Mlp::buildQuantized(QuantMode mode)
{
    if (!has_fp32_)
        panic("Mlp::buildQuantized requires fp32 master weights (dropped)");
    qw_offsets_.assign(layerCount(), 0);
    qb_offsets_.assign(layerCount(), 0);
    qw_fp16_.clear();
    qw_int8_.clear();
    qscales_.clear();
    qbias_.clear();
    quant_mode_ = mode;
    if (mode == QuantMode::fp32)
        return;

    std::size_t wtotal = 0, btotal = 0;
    for (int l = 0; l < layerCount(); ++l) {
        qw_offsets_[l] = wtotal;
        qb_offsets_[l] = btotal;
        wtotal += static_cast<std::size_t>(sizes_[l]) * sizes_[l + 1];
        btotal += static_cast<std::size_t>(sizes_[l + 1]);
    }
    qbias_.resize(btotal);
    qscales_.resize(layerCount());
    if (mode == QuantMode::fp16)
        qw_fp16_.resize(wtotal);
    else
        qw_int8_.resize(wtotal);

    for (int l = 0; l < layerCount(); ++l) {
        const std::size_t wcount =
            static_cast<std::size_t>(sizes_[l]) * sizes_[l + 1];
        const float *w = params_.data() + w_offsets_[l];
        const float *b = params_.data() + b_offsets_[l];
        std::copy_n(b, static_cast<std::size_t>(sizes_[l + 1]),
                    qbias_.begin() + qb_offsets_[l]);
        if (mode == QuantMode::fp16) {
            std::uint16_t *q = qw_fp16_.data() + qw_offsets_[l];
            for (std::size_t k = 0; k < wcount; ++k)
                q[k] = Half::fromFloat(w[k]).bits();
        } else {
            const QuantScale qs = computeScale({w, wcount});
            qscales_[l] = qs;
            const std::vector<std::int8_t> q = quantize({w, wcount}, qs);
            std::copy(q.begin(), q.end(), qw_int8_.begin() + qw_offsets_[l]);
        }
    }
}

void
Mlp::dropFp32Weights()
{
    if (quant_mode_ == QuantMode::fp32)
        panic("Mlp::dropFp32Weights needs a packed image (quantMode fp32)");
    params_.clear();
    params_.shrink_to_fit();
    grads_.clear();
    grads_.shrink_to_fit();
    has_fp32_ = false;
}

std::size_t
Mlp::residentParamBytes() const
{
    return params_.size() * sizeof(float) +
           qw_fp16_.size() * sizeof(std::uint16_t) +
           qw_int8_.size() * sizeof(std::int8_t) +
           qbias_.size() * sizeof(float) + qscales_.size() * sizeof(QuantScale);
}

std::vector<float>
Mlp::dequantizedParams() const
{
    if (quant_mode_ == QuantMode::fp32) {
        if (!has_fp32_)
            panic("Mlp::dequantizedParams fp32 weights dropped");
        return params_;
    }
    std::vector<float> out(param_count_, 0.0f);
    for (int l = 0; l < layerCount(); ++l) {
        const std::size_t wcount =
            static_cast<std::size_t>(sizes_[l]) * sizes_[l + 1];
        float *w = out.data() + w_offsets_[l];
        if (quant_mode_ == QuantMode::fp16) {
            const std::uint16_t *q = qw_fp16_.data() + qw_offsets_[l];
            for (std::size_t k = 0; k < wcount; ++k)
                w[k] = simd::halfBitsToFloat(q[k]);
        } else {
            const std::int8_t *q = qw_int8_.data() + qw_offsets_[l];
            const float s = qscales_[l].scale;
            for (std::size_t k = 0; k < wcount; ++k)
                w[k] = static_cast<float>(q[k]) * s;
        }
        std::copy_n(qbias_.begin() + qb_offsets_[l],
                    static_cast<std::size_t>(sizes_[l + 1]),
                    out.begin() + b_offsets_[l]);
    }
    return out;
}

std::uint64_t
Mlp::forwardMacs() const
{
    std::uint64_t macs = 0;
    for (int l = 0; l < layerCount(); ++l)
        macs += static_cast<std::uint64_t>(sizes_[l]) * sizes_[l + 1];
    return macs;
}

} // namespace fusion3d::nerf
