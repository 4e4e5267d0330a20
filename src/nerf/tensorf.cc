#include "nerf/tensorf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/quant.h"
#include "common/rng.h"
#include "nerf/sh_encoding.h"

namespace fusion3d::nerf
{

namespace
{

/** Samples per cache block of the batched factor gathers/reductions:
 *  bounds one block's gathered-row working set to a few KB so the
 *  rank reduction re-reads hot lines. Fixed, so results are identical
 *  at every batch size. */
constexpr std::size_t kFactorBlock = 64;

/** Numerically safe softplus and its derivative. */
float
softplus(float x)
{
    if (x > 15.0f)
        return x;
    if (x < -15.0f)
        return 0.0f;
    return std::log1p(std::exp(x));
}

float
softplusGrad(float x)
{
    if (x > 15.0f)
        return 1.0f;
    if (x < -15.0f)
        return 0.0f;
    const float e = std::exp(x);
    return e / (1.0f + e);
}

AdamConfig
adamFor(float lr)
{
    AdamConfig cfg;
    cfg.lr = lr;
    cfg.beta1 = 0.9f;
    cfg.beta2 = 0.99f;
    cfg.epsilon = 1e-15f;
    return cfg;
}

/** Floats of the density and appearance line factors (3 axes each). */
std::size_t
lineFloats(const TensorfModelConfig &cfg)
{
    return 3ull * (cfg.densityRank + cfg.appearanceRank) * cfg.lineResolution;
}

std::vector<int>
colorLayers(const TensorfModelConfig &cfg)
{
    return {cfg.appearanceDim + cfg.shDims(), cfg.colorHidden, 3};
}

} // namespace

std::array<std::size_t, 2>
TensorfModel::paramCountsFor(const TensorfModelConfig &cfg)
{
    const std::size_t basis_floats =
        static_cast<std::size_t>(cfg.appearanceDim) * cfg.appearanceRank;
    return {lineFloats(cfg) + basis_floats, Mlp::paramCountFor(colorLayers(cfg))};
}

TensorfModel::TensorfModel(const TensorfModelConfig &cfg, std::uint64_t seed)
    : cfg_(cfg)
{
    if (cfg.densityRank < 1 || cfg.appearanceRank < 1 || cfg.lineResolution < 2)
        fatal("TensorfModel: invalid rank/resolution configuration");

    params_.resize(paramCountsFor(cfg)[0]);
    grads_.assign(params_.size(), 0.0f);

    Pcg32 rng(seed, 0x7f4a7c159e3779b9ULL);
    // Line factors start near a small positive constant so rank
    // products are non-degenerate; the basis starts small-random.
    const std::size_t lines = lineFloats(cfg);
    for (std::size_t i = 0; i < lines; ++i)
        params_[i] = 0.2f + 0.05f * rng.nextGaussian();
    for (std::size_t i = lines; i < params_.size(); ++i)
        params_[i] = 0.1f * rng.nextGaussian();

    color_net_ = std::make_unique<Mlp>(colorLayers(cfg), seed + 5);

    adam_factors_ = Adam(params_.size(), adamFor(2e-2f));
    adam_net_ = Adam(color_net_->paramCount(), adamFor(2e-3f));

    sh_.resize(static_cast<std::size_t>(cfg.shDims()));
    color_in_.resize(static_cast<std::size_t>(cfg.appearanceDim + cfg.shDims()));
    dcolor_out_.resize(3);
    app_prod_.resize(static_cast<std::size_t>(cfg.appearanceRank) * 3);
    color_ws_ = color_net_->makeWorkspace();
}

std::size_t
TensorfModel::densityOffset(int axis) const
{
    return static_cast<std::size_t>(axis) * cfg_.densityRank * cfg_.lineResolution;
}

std::size_t
TensorfModel::appearanceOffset(int axis) const
{
    return 3ull * cfg_.densityRank * cfg_.lineResolution +
           static_cast<std::size_t>(axis) * cfg_.appearanceRank * cfg_.lineResolution;
}

std::size_t
TensorfModel::basisOffset() const
{
    return 3ull * cfg_.densityRank * cfg_.lineResolution +
           3ull * cfg_.appearanceRank * cfg_.lineResolution;
}

namespace
{

/** Sample a line factor with linear interpolation. */
inline float
sampleLine(const float *line, int res, float u)
{
    const float x = std::clamp(u, 0.0f, 1.0f) * static_cast<float>(res - 1);
    const int i0 = std::min(static_cast<int>(x), res - 2);
    const float f = x - static_cast<float>(i0);
    return line[i0] * (1.0f - f) + line[i0 + 1] * f;
}

/** Scatter a gradient into the two supports of a line factor. */
inline void
scatterLine(float *gline, int res, float u, float g)
{
    const float x = std::clamp(u, 0.0f, 1.0f) * static_cast<float>(res - 1);
    const int i0 = std::min(static_cast<int>(x), res - 2);
    const float f = x - static_cast<float>(i0);
    gline[i0] += g * (1.0f - f);
    gline[i0 + 1] += g * f;
}

} // namespace

void
TensorfModel::lineBackward(std::size_t block_offset, int r, float u, float g)
{
    const int res = cfg_.lineResolution;
    scatterLine(grads_.data() + block_offset + static_cast<std::size_t>(r) * res, res,
                u, g);
}

float
TensorfModel::queryDensity(const Vec3f &pos)
{
    const int res = cfg_.lineResolution;
    float raw = 0.0f;
    for (int r = 0; r < cfg_.densityRank; ++r) {
        float prod = 1.0f;
        for (int axis = 0; axis < 3; ++axis) {
            const float *line = params_.data() + densityOffset(axis) +
                                static_cast<std::size_t>(r) * res;
            prod *= sampleLine(line, res, pos[axis]);
        }
        raw += prod;
    }
    raw_sigma_ = raw - cfg_.densityShift;
    return softplus(raw_sigma_) * cfg_.densityScale;
}

PointEval
TensorfModel::forwardPoint(const Vec3f &pos, const Vec3f &dir)
{
    PointEval pe;
    pe.sigma = queryDensity(pos);

    const int res = cfg_.lineResolution;
    // Appearance rank products, cached per axis for backward reuse.
    for (int r = 0; r < cfg_.appearanceRank; ++r) {
        for (int axis = 0; axis < 3; ++axis) {
            const float *line = params_.data() + appearanceOffset(axis) +
                                static_cast<std::size_t>(r) * res;
            app_prod_[static_cast<std::size_t>(r) * 3 + axis] =
                sampleLine(line, res, pos[axis]);
        }
    }

    const float *basis = params_.data() + basisOffset();
    for (int c = 0; c < cfg_.appearanceDim; ++c) {
        float acc = 0.0f;
        for (int r = 0; r < cfg_.appearanceRank; ++r) {
            const float prod = app_prod_[static_cast<std::size_t>(r) * 3] *
                               app_prod_[static_cast<std::size_t>(r) * 3 + 1] *
                               app_prod_[static_cast<std::size_t>(r) * 3 + 2];
            acc += basis[static_cast<std::size_t>(c) * cfg_.appearanceRank + r] * prod;
        }
        color_in_[static_cast<std::size_t>(c)] = acc;
    }
    shEncode(dir, cfg_.shDegree, sh_);
    for (int i = 0; i < cfg_.shDims(); ++i)
        color_in_[static_cast<std::size_t>(cfg_.appearanceDim + i)] =
            sh_[static_cast<std::size_t>(i)];

    const std::span<const float> out = color_net_->forward(color_in_, color_ws_);
    for (int i = 0; i < 3; ++i) {
        const float r = out[static_cast<std::size_t>(i)];
        pe.rgb.at(i) = r >= 0.0f ? 1.0f / (1.0f + std::exp(-r))
                                 : std::exp(r) / (1.0f + std::exp(r));
    }
    return pe;
}

void
TensorfModel::backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma,
                            const Vec3f &drgb)
{
    const PointEval pe = forwardPoint(pos, dir); // recompute caches
    const int res = cfg_.lineResolution;

    // --- Color path ---
    for (int i = 0; i < 3; ++i) {
        const float s = pe.rgb[i];
        dcolor_out_[static_cast<std::size_t>(i)] = drgb[i] * s * (1.0f - s);
    }
    color_net_->backward(dcolor_out_, color_ws_);

    // d(features): the color net's input gradient feeds basis + lines.
    const float *basis = params_.data() + basisOffset();
    float *gbasis = grads_.data() + basisOffset();
    for (int r = 0; r < cfg_.appearanceRank; ++r) {
        const float px = app_prod_[static_cast<std::size_t>(r) * 3];
        const float py = app_prod_[static_cast<std::size_t>(r) * 3 + 1];
        const float pz = app_prod_[static_cast<std::size_t>(r) * 3 + 2];
        const float prod = px * py * pz;
        float dprod = 0.0f;
        for (int c = 0; c < cfg_.appearanceDim; ++c) {
            const float dfeat = color_ws_.dinput[static_cast<std::size_t>(c)];
            gbasis[static_cast<std::size_t>(c) * cfg_.appearanceRank + r] +=
                dfeat * prod;
            dprod += dfeat * basis[static_cast<std::size_t>(c) * cfg_.appearanceRank + r];
        }
        // Product rule into each axis line.
        lineBackward(appearanceOffset(0), r, pos.x, dprod * py * pz);
        lineBackward(appearanceOffset(1), r, pos.y, dprod * px * pz);
        lineBackward(appearanceOffset(2), r, pos.z, dprod * px * py);
    }

    // --- Density path ---
    const float draw = dsigma * cfg_.densityScale * softplusGrad(raw_sigma_);
    for (int r = 0; r < cfg_.densityRank; ++r) {
        float axis_val[3];
        for (int axis = 0; axis < 3; ++axis) {
            const float *line = params_.data() + densityOffset(axis) +
                                static_cast<std::size_t>(r) * res;
            axis_val[axis] = sampleLine(line, res, pos[axis]);
        }
        lineBackward(densityOffset(0), r, pos.x, draw * axis_val[1] * axis_val[2]);
        lineBackward(densityOffset(1), r, pos.y, draw * axis_val[0] * axis_val[2]);
        lineBackward(densityOffset(2), r, pos.z, draw * axis_val[0] * axis_val[1]);
    }
}

void
TensorfModel::queryDensityBatch(std::span<const Vec3f> pos, BatchWorkspace &ws,
                                std::span<float> sigmas) const
{
    const std::size_t n = pos.size();
    if (sigmas.size() < n)
        panic("TensorfModel::queryDensityBatch: output span too small");
    const int res = cfg_.lineResolution;
    const std::size_t dr = static_cast<std::size_t>(cfg_.densityRank);

    // Level-major gathers, blocked over samples so the gathered rows of
    // one block stay cache-resident through the rank reduction (the
    // rows live dr*3 cache-line strides apart at full batch width; a
    // 64-sample block's working set is a few KB). Each sample's
    // arithmetic is unchanged, so the blocking affects neither
    // bit-exactness nor batch-size invariance.
    if (ws.denLines.size() < dr * 3 * n)
        ws.denLines.resize(dr * 3 * n);
    if (ws.rawSigma.size() < n)
        ws.rawSigma.resize(n);
    for (std::size_t b0 = 0; b0 < n; b0 += kFactorBlock) {
        const std::size_t b1 = std::min(n, b0 + kFactorBlock);
        for (std::size_t r = 0; r < dr; ++r) {
            for (int axis = 0; axis < 3; ++axis) {
                const float *line = params_.data() + densityOffset(axis) +
                                    r * static_cast<std::size_t>(res);
                float *out = ws.denLines.data() +
                             (r * 3 + static_cast<std::size_t>(axis)) * n;
                for (std::size_t s = b0; s < b1; ++s)
                    out[s] = sampleLine(line, res, pos[s][axis]);
            }
        }

        // Per-sample reduction in the scalar accumulation order (rank
        // ascending, axes multiplied x*y*z), so each sigma is bit-exact
        // with queryDensity().
        for (std::size_t s = b0; s < b1; ++s) {
            float raw = 0.0f;
            for (std::size_t r = 0; r < dr; ++r) {
                float prod = 1.0f;
                for (int axis = 0; axis < 3; ++axis)
                    prod *=
                        ws.denLines[(r * 3 + static_cast<std::size_t>(axis)) * n + s];
                raw += prod;
            }
            ws.rawSigma[s] = raw - cfg_.densityShift;
            sigmas[s] = softplus(ws.rawSigma[s]) * cfg_.densityScale;
        }
    }
}

void
TensorfModel::forwardPointBatch(std::span<const Vec3f> pos,
                                std::span<const Vec3f> dirs, BatchWorkspace &ws,
                                std::span<float> sigmas, std::span<Vec3f> rgbs) const
{
    const std::size_t n = pos.size();
    if (dirs.size() < n || sigmas.size() < n || rgbs.size() < n)
        panic("TensorfModel::forwardPointBatch: span size mismatch");

    queryDensityBatch(pos, ws, sigmas);

    const int res = cfg_.lineResolution;
    const std::size_t ar = static_cast<std::size_t>(cfg_.appearanceRank);
    const std::size_t ad = static_cast<std::size_t>(cfg_.appearanceDim);
    const std::size_t shd = static_cast<std::size_t>(cfg_.shDims());
    if (ws.appLines.size() < ar * 3 * n)
        ws.appLines.resize(ar * 3 * n);
    if (ws.colorIn.size() < (ad + shd) * n)
        ws.colorIn.resize((ad + shd) * n);
    if (ws.sh.size() < shd)
        ws.sh.resize(shd);
    if (ws.appProd.size() < ar)
        ws.appProd.resize(ar);
    const float *basis = params_.data() + basisOffset();

    // Appearance gathers + basis reduction, blocked like the density
    // path so each block's gathered rows stay cache-resident.
    for (std::size_t b0 = 0; b0 < n; b0 += kFactorBlock) {
        const std::size_t b1 = std::min(n, b0 + kFactorBlock);
        for (std::size_t r = 0; r < ar; ++r) {
            for (int axis = 0; axis < 3; ++axis) {
                const float *line = params_.data() + appearanceOffset(axis) +
                                    r * static_cast<std::size_t>(res);
                float *out = ws.appLines.data() +
                             (r * 3 + static_cast<std::size_t>(axis)) * n;
                for (std::size_t s = b0; s < b1; ++s)
                    out[s] = sampleLine(line, res, pos[s][axis]);
            }
        }

        for (std::size_t s = b0; s < b1; ++s) {
            // The rank products are the same multiply chain at every
            // feature; hoisting them out of the c-loop keeps the
            // reduction reading a hot appearanceRank-float cache (as
            // the scalar path does) without changing any value.
            for (std::size_t r = 0; r < ar; ++r)
                ws.appProd[r] = ws.appLines[(r * 3) * n + s] *
                                ws.appLines[(r * 3 + 1) * n + s] *
                                ws.appLines[(r * 3 + 2) * n + s];
            for (std::size_t c = 0; c < ad; ++c) {
                float acc = 0.0f;
                for (std::size_t r = 0; r < ar; ++r)
                    acc += basis[c * ar + r] * ws.appProd[r];
                ws.colorIn[c * n + s] = acc;
            }
            shEncode(dirs[s], cfg_.shDegree, ws.sh);
            for (std::size_t i = 0; i < shd; ++i)
                ws.colorIn[(ad + i) * n + s] = ws.sh[i];
        }
    }

    const std::span<const float> out =
        color_net_->forwardBatch({ws.colorIn.data(), (ad + shd) * n}, n, ws.colorWs);
    for (std::size_t s = 0; s < n; ++s) {
        for (int i = 0; i < 3; ++i) {
            const float r = out[static_cast<std::size_t>(i) * n + s];
            rgbs[s].at(i) = r >= 0.0f ? 1.0f / (1.0f + std::exp(-r))
                                      : std::exp(r) / (1.0f + std::exp(r));
        }
    }
}

void
TensorfModel::scatterFactorGradients(std::span<const Vec3f> pos,
                                     std::span<const float> dsigmas,
                                     const BatchWorkspace &ws,
                                     std::span<float> factor_grads) const
{
    const std::size_t n = pos.size();
    const int res = cfg_.lineResolution;
    const std::size_t ar = static_cast<std::size_t>(cfg_.appearanceRank);
    const std::size_t ad = static_cast<std::size_t>(cfg_.appearanceDim);
    const float *basis = params_.data() + basisOffset();
    float *gbasis = factor_grads.data() + basisOffset();

    for (std::size_t s = 0; s < n; ++s) {
        // --- Color path (scalar backwardPoint order) ---
        for (std::size_t r = 0; r < ar; ++r) {
            const float px = ws.appLines[(r * 3) * n + s];
            const float py = ws.appLines[(r * 3 + 1) * n + s];
            const float pz = ws.appLines[(r * 3 + 2) * n + s];
            const float prod = px * py * pz;
            float dprod = 0.0f;
            for (std::size_t c = 0; c < ad; ++c) {
                const float dfeat = ws.colorWs.dinput[c * n + s];
                gbasis[c * ar + r] += dfeat * prod;
                dprod += dfeat * basis[c * ar + r];
            }
            scatterLine(factor_grads.data() + appearanceOffset(0) +
                            r * static_cast<std::size_t>(res),
                        res, pos[s].x, dprod * py * pz);
            scatterLine(factor_grads.data() + appearanceOffset(1) +
                            r * static_cast<std::size_t>(res),
                        res, pos[s].y, dprod * px * pz);
            scatterLine(factor_grads.data() + appearanceOffset(2) +
                            r * static_cast<std::size_t>(res),
                        res, pos[s].z, dprod * px * py);
        }

        // --- Density path ---
        const float draw =
            dsigmas[s] * cfg_.densityScale * softplusGrad(ws.rawSigma[s]);
        const std::size_t dr = static_cast<std::size_t>(cfg_.densityRank);
        for (std::size_t r = 0; r < dr; ++r) {
            const float vx = ws.denLines[(r * 3) * n + s];
            const float vy = ws.denLines[(r * 3 + 1) * n + s];
            const float vz = ws.denLines[(r * 3 + 2) * n + s];
            scatterLine(factor_grads.data() + densityOffset(0) +
                            r * static_cast<std::size_t>(res),
                        res, pos[s].x, draw * vy * vz);
            scatterLine(factor_grads.data() + densityOffset(1) +
                            r * static_cast<std::size_t>(res),
                        res, pos[s].y, draw * vx * vz);
            scatterLine(factor_grads.data() + densityOffset(2) +
                            r * static_cast<std::size_t>(res),
                        res, pos[s].z, draw * vx * vy);
        }
    }
}

void
TensorfModel::backwardPointBatchInto(std::span<const Vec3f> pos,
                                     std::span<const Vec3f> dirs,
                                     std::span<const float> dsigmas,
                                     std::span<const Vec3f> drgbs, BatchWorkspace &ws,
                                     std::span<float> grads) const
{
    const std::size_t n = pos.size();
    if (grads.size() < gradCount())
        panic("TensorfModel::backwardPointBatchInto: gradient span too small");
    if (ws.fwdSigmas.size() < n)
        ws.fwdSigmas.resize(n);
    if (ws.fwdRgbs.size() < n)
        ws.fwdRgbs.resize(n);
    forwardPointBatch(pos, dirs, ws, ws.fwdSigmas, ws.fwdRgbs);

    if (ws.dColorOut.size() < 3 * n)
        ws.dColorOut.resize(3 * n);
    for (std::size_t s = 0; s < n; ++s) {
        for (int i = 0; i < 3; ++i) {
            const float sv = ws.fwdRgbs[s][i];
            ws.dColorOut[static_cast<std::size_t>(i) * n + s] =
                drgbs[s][i] * sv * (1.0f - sv);
        }
    }
    color_net_->backwardBatchInto({ws.dColorOut.data(), 3 * n}, n, ws.colorWs,
                                  grads.subspan(params_.size()));
    scatterFactorGradients(pos, dsigmas, ws, grads.first(params_.size()));
}

void
TensorfModel::accumulateGradients(std::span<const float> grads)
{
    if (grads.size() < gradCount())
        panic("TensorfModel::accumulateGradients: gradient span too small");
    for (std::size_t i = 0; i < grads_.size(); ++i)
        grads_[i] += grads[i];
    const std::span<float> cg = color_net_->grads();
    const std::size_t off = grads_.size();
    for (std::size_t i = 0; i < cg.size(); ++i)
        cg[i] += grads[off + i];
}

void
TensorfModel::zeroGrads()
{
    std::fill(grads_.begin(), grads_.end(), 0.0f);
    color_net_->zeroGrads();
}

void
TensorfModel::optimizerStep(float lr_factors, float lr_net)
{
    adam_factors_.setLearningRate(lr_factors);
    adam_net_.setLearningRate(lr_net);
    adam_factors_.step(params_, grads_);
    adam_net_.step(color_net_->params(), color_net_->grads());
}

void
TensorfModel::quantizeWeights()
{
    fakeQuantizeInPlace(params_);
    fakeQuantizeInPlace(color_net_->params());
}

std::size_t
TensorfModel::paramCount() const
{
    return params_.size() + color_net_->paramCount();
}

} // namespace fusion3d::nerf
