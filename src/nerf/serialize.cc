#include "nerf/serialize.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/logging.h"
#include "nerf/freq_nerf.h"
#include "nerf/tensorf.h"

namespace fusion3d::nerf
{

namespace
{

constexpr char kMagic[4] = {'F', '3', 'D', 'M'};

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320), incremental. */
std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t size)
{
    static const auto table = []() {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return ~crc;
}

/** Pointers to a config's dimension fields, in on-disk order. Every
 *  field is one 4-byte word (i32 or f32), stored as its raw bits. */
template <class... T>
auto
words(T &...fields)
{
    static_assert(((sizeof(T) == 4) && ...), "dimension words are 4 bytes");
    using Ptr = std::conditional_t<(std::is_const_v<T> && ...), const void *, void *>;
    return std::array<Ptr, sizeof...(T)>{&fields...};
}

// What each backend supplies to the codec: its config's dimension
// words, the sanity predicate those words must pass before anything is
// allocated (bounds no looser than the constructors' own checks), and
// its parameter blocks. Block sizes come from Model::paramCountsFor.

struct HashGridCodec
{
    using Model = NerfModel;
    using Config = NerfModelConfig;
    static constexpr BackendKind kKind = BackendKind::hashGrid;

    template <class C>
    static auto
    dims(C &c)
    {
        return words(c.grid.levels, c.grid.featuresPerLevel, c.grid.log2TableSize,
                     c.grid.baseResolution, c.grid.maxResolution, c.geoFeatures,
                     c.densityHidden, c.colorHidden, c.shDegree);
    }

    static bool
    sane(const Config &c)
    {
        const HashGridConfig &g = c.grid;
        return g.levels >= 1 && g.levels <= 64 && g.featuresPerLevel >= 1 &&
               g.featuresPerLevel <= 8 && g.log2TableSize >= 1 &&
               g.log2TableSize <= 28 && g.baseResolution >= 1 &&
               g.baseResolution <= g.maxResolution && g.maxResolution <= 65536 &&
               c.geoFeatures >= 1 && c.geoFeatures <= 256 && c.densityHidden >= 1 &&
               c.densityHidden <= 4096 && c.colorHidden >= 1 &&
               c.colorHidden <= 4096 && c.shDegree >= 1 && c.shDegree <= 4;
    }

    template <class M>
    static auto
    blocks(M &m)
    {
        return std::array{m.encoding().params(), m.densityNet().params(),
                          m.colorNet().params()};
    }
};

struct FreqCodec
{
    using Model = FreqNerfModel;
    using Config = FreqNerfConfig;
    static constexpr BackendKind kKind = BackendKind::freqNerf;

    template <class C>
    static auto
    dims(C &c)
    {
        return words(c.posFrequencies, c.hidden, c.trunkLayers, c.geoFeatures,
                     c.colorHidden, c.shDegree);
    }

    static bool
    sane(const Config &c)
    {
        return c.posFrequencies >= 1 && c.posFrequencies <= 16 && c.hidden >= 1 &&
               c.hidden <= 4096 && c.trunkLayers >= 1 && c.trunkLayers <= 16 &&
               c.geoFeatures >= 1 && c.geoFeatures <= 256 && c.colorHidden >= 1 &&
               c.colorHidden <= 4096 && c.shDegree >= 1 && c.shDegree <= 4;
    }

    template <class M>
    static auto
    blocks(M &m)
    {
        return std::array{m.trunk().params(), m.colorNet().params()};
    }
};

struct TensorfCodec
{
    using Model = TensorfModel;
    using Config = TensorfModelConfig;
    static constexpr BackendKind kKind = BackendKind::tensorf;

    template <class C>
    static auto
    dims(C &c)
    {
        return words(c.densityRank, c.appearanceRank, c.lineResolution,
                     c.appearanceDim, c.colorHidden, c.shDegree, c.densityShift,
                     c.densityScale);
    }

    static bool
    sane(const Config &c)
    {
        return c.densityRank >= 1 && c.densityRank <= 256 && c.appearanceRank >= 1 &&
               c.appearanceRank <= 256 && c.lineResolution >= 2 &&
               c.lineResolution <= 4096 && c.appearanceDim >= 1 &&
               c.appearanceDim <= 256 && c.colorHidden >= 1 &&
               c.colorHidden <= 4096 && c.shDegree >= 1 && c.shDegree <= 4 &&
               c.densityShift >= -100.0f && c.densityShift <= 100.0f &&
               c.densityScale > 0.0f && c.densityScale <= 1e6f;
    }

    template <class M>
    static auto
    blocks(M &m)
    {
        return std::array{m.factorParams(), m.colorNet().params()};
    }
};

/** One artifact as the writer sees it. */
struct Artifact
{
    BackendKind kind = BackendKind::hashGrid;
    QuantMode quant = QuantMode::fp32;
    std::vector<std::uint32_t> dims;
    std::vector<std::span<const float>> blocks;
    /** Dequantized blocks of a quantized model (what blocks view). */
    std::vector<std::vector<float>> copies;

    /** v2 for fp32 hash grids (readable by every historical build),
     *  v4 for quantized ones, v3 for every other backend. */
    std::uint32_t
    version() const
    {
        if (kind != BackendKind::hashGrid)
            return 3;
        return quant == QuantMode::fp32 ? 2 : 4;
    }

    /** Bytes before the payload: magic, version, the backend tag (v3,
     *  v4), the quant mode (v4), the dimension words, the CRC-32 and
     *  one u64 count per block. */
    std::size_t
    headerBytes() const
    {
        const std::uint32_t v = version();
        return 8 + (v >= 3 ? 4 : 0) + (v == 4 ? 4 : 0) + 4 * dims.size() + 4 +
               8 * blocks.size();
    }
};

template <class Codec>
Artifact
artifactOf(const typename Codec::Model &model)
{
    Artifact a;
    a.kind = Codec::kKind;
    if constexpr (Codec::kKind == BackendKind::hashGrid)
        a.quant = model.inferenceQuantMode();
    for (const void *w : Codec::dims(model.config()))
        std::memcpy(&a.dims.emplace_back(), w, 4);
    for (const std::span<const float> b : Codec::blocks(model))
        a.blocks.push_back(b);
    return a;
}

std::optional<Artifact>
artifactOf(const ServeableField &field)
{
    if (const auto *hg = dynamic_cast<const HashGridServeField *>(&field)) {
        const NerfModel &m = hg->model();
        Artifact a = artifactOf<HashGridCodec>(m);
        if (a.quant != QuantMode::fp32) {
            // A quantized model has no fp32 masters to write. Its packed
            // image goes out dequantized instead: every stored value is
            // exactly representable in the packed format (fp16 bits, or
            // int8 x a per-tensor scale pinned by the max-abs element),
            // so setInferenceQuant() on load rebuilds it bit-identically.
            a.copies = {m.encoding().dequantizedParams(),
                        m.densityNet().dequantizedParams(),
                        m.colorNet().dequantizedParams()};
            a.blocks.assign(a.copies.begin(), a.copies.end());
        }
        return a;
    }
    if (const auto *pf = dynamic_cast<const FreqServeField *>(&field))
        return artifactOf<FreqCodec>(pf->model());
    if (const auto *pf = dynamic_cast<const TensorfServeField *>(&field))
        return artifactOf<TensorfCodec>(pf->model());
    return std::nullopt;
}

/**
 * Write @p a to @p f. With @p crash set, stop after the header and half
 * of the first block, as a process killed mid-write would.
 */
bool
writeArtifact(std::FILE *f, const Artifact &a, bool crash = false)
{
    std::vector<unsigned char> head;
    const auto put = [&head](const auto &v) {
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        head.insert(head.end(), p, p + sizeof(v));
    };
    std::uint32_t crc = 0;
    for (const std::span<const float> b : a.blocks)
        crc = crc32Update(crc, b.data(), b.size_bytes());

    put(kMagic);
    put(a.version());
    if (a.version() >= 3)
        put(static_cast<std::uint32_t>(a.kind));
    if (a.version() == 4)
        put(static_cast<std::uint32_t>(a.quant));
    for (const std::uint32_t w : a.dims)
        put(w);
    put(crc);
    for (const std::span<const float> b : a.blocks)
        put(static_cast<std::uint64_t>(b.size()));

    bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size();
    if (crash) {
        (void)std::fwrite(a.blocks[0].data(), sizeof(float), a.blocks[0].size() / 2, f);
        return false;
    }
    ok = ok && !F3D_FAULT_POINT("nerf.save.write");
    for (const std::span<const float> b : a.blocks)
        ok = ok && std::fwrite(b.data(), sizeof(float), b.size(), f) == b.size();
    return ok;
}

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <class T>
bool
get(std::FILE *f, T &v)
{
    return std::fread(&v, sizeof(v), 1, f) == 1;
}

/** Bytes between @p f's read position and its end. */
std::uint64_t
bytesLeft(std::FILE *f)
{
    struct stat st
    {};
    const long at = std::ftell(f);
    if (fstat(fileno(f), &st) != 0 || at < 0 || st.st_size < at)
        return 0;
    return static_cast<std::uint64_t>(st.st_size - at);
}

template <class Result>
Result
fail(LoadStatus status, std::string message)
{
    Result r;
    r.status = status;
    r.message = std::move(message);
    return r;
}

void
install(LoadResult &r, std::unique_ptr<NerfModel> model)
{
    r.model = std::move(model);
}

void
install(FieldLoadResult &r, std::unique_ptr<NerfModel> model)
{
    r.field = std::make_unique<HashGridServeField>(std::move(model));
}

template <class M>
void
install(FieldLoadResult &r, std::unique_ptr<M> model)
{
    r.field = std::make_unique<PointServeField<M>>(std::move(model));
}

/**
 * Read the section of a @p Codec artifact whose prefix is consumed.
 * Every stored block count is checked against the count the declared
 * config implies, and against the bytes left in the file, before the
 * model is allocated.
 */
template <class Codec, class Result>
Result
readSection(std::FILE *f, const std::string &path, QuantMode quant)
{
    const char *name = backendKindName(Codec::kKind);
    typename Codec::Config cfg;
    bool ok = true;
    for (void *w : Codec::dims(cfg))
        ok = ok && std::fread(w, 4, 1, f) == 1;
    std::uint32_t crc = 0;
    std::array<std::uint64_t,
               std::tuple_size_v<decltype(Codec::Model::paramCountsFor(cfg))>>
        counts{};
    if (!(ok && get(f, crc) && get(f, counts)))
        return fail<Result>(LoadStatus::truncated,
                            strprintf("'%s' ends inside its %s section header",
                                      path.c_str(), name));
    if (!Codec::sane(cfg))
        return fail<Result>(LoadStatus::headerMismatch,
                            strprintf("'%s' declares out-of-range %s dimensions",
                                      path.c_str(), name));
    const auto expected = Codec::Model::paramCountsFor(cfg);
    if (!std::equal(counts.begin(), counts.end(), expected.begin()))
        return fail<Result>(LoadStatus::headerMismatch,
                            strprintf("parameter counts in '%s' do not match its "
                                      "declared %s architecture",
                                      path.c_str(), name));
    const auto cut_short = [&path] {
        return fail<Result>(
            LoadStatus::truncated,
            strprintf("'%s' ends before its parameter blocks do", path.c_str()));
    };
    std::uint64_t payload = 0;
    for (const std::uint64_t n : counts)
        payload += n * sizeof(float);
    if (bytesLeft(f) < payload)
        return cut_short();

    auto model = std::make_unique<typename Codec::Model>(cfg);
    ok = !F3D_FAULT_POINT("nerf.load.read");
    std::uint32_t got = 0;
    for (const std::span<float> b : Codec::blocks(*model)) {
        ok = ok && std::fread(b.data(), sizeof(float), b.size(), f) == b.size();
        got = crc32Update(got, b.data(), b.size_bytes());
    }
    if (!ok)
        return cut_short();
    // The payload arrived whole; now prove it arrived *intact*.
    if (got != crc || F3D_FAULT_POINT("nerf.load.crc"))
        return fail<Result>(
            LoadStatus::badChecksum,
            strprintf("parameter payload of '%s' fails its CRC32", path.c_str()));

    if constexpr (Codec::kKind == BackendKind::hashGrid) {
        if (quant != QuantMode::fp32)
            model->setInferenceQuant(quant);
    }
    Result r;
    r.status = LoadStatus::ok;
    install(r, std::move(model));
    return r;
}

/** Open @p path once, read its prefix and dispatch to its section. */
template <class Result>
Result
loadArtifact(const std::string &path)
{
    const File f(F3D_FAULT_POINT("nerf.load.open") ? nullptr
                                                   : std::fopen(path.c_str(), "rb"));
    if (!f)
        return fail<Result>(LoadStatus::ioError,
                            strprintf("cannot open '%s'", path.c_str()));

    char magic[4] = {};
    std::uint32_t version = 0;
    if (!get(f.get(), magic) || !get(f.get(), version))
        return fail<Result>(
            LoadStatus::truncated,
            strprintf("'%s' is shorter than the 8-byte prefix", path.c_str()));
    if (std::memcmp(magic, kMagic, 4) != 0)
        return fail<Result>(LoadStatus::badMagic,
                            strprintf("'%s' is not an F3DM artifact", path.c_str()));
    if (version < 2 || version > 4)
        return fail<Result>(LoadStatus::badVersion,
                            strprintf("'%s' has format version %u, expected 2, 3 "
                                      "or 4",
                                      path.c_str(), version));

    // The whole compatibility shim: v2 carries neither word and is an
    // fp32 hash grid, v3 is an fp32 FreqNeRF or TensoRF, v4 a hash grid.
    std::uint32_t kind = 0;
    std::uint32_t quant = 0;
    if ((version >= 3 && !get(f.get(), kind)) || (version == 4 && !get(f.get(), quant)))
        return fail<Result>(LoadStatus::truncated,
                            strprintf("'%s' ends inside its prefix", path.c_str()));
    const auto backend = static_cast<BackendKind>(kind);
    if (kind > static_cast<std::uint32_t>(BackendKind::tensorf) ||
        (backend == BackendKind::hashGrid) == (version == 3))
        return fail<Result>(LoadStatus::badBackend,
                            strprintf("'%s' tags backend kind %u in a v%u container",
                                      path.c_str(), kind, version));
    if (quant > static_cast<std::uint32_t>(QuantMode::int8))
        return fail<Result>(LoadStatus::headerMismatch,
                            strprintf("'%s' declares unknown quant mode %u",
                                      path.c_str(), quant));

    const auto mode = static_cast<QuantMode>(quant);
    if constexpr (std::is_same_v<Result, LoadResult>) {
        if (backend != BackendKind::hashGrid)
            return fail<Result>(LoadStatus::badVersion,
                                strprintf("'%s' holds a %s field, not a hash-grid "
                                          "model",
                                          path.c_str(), backendKindName(backend)));
        return readSection<HashGridCodec, Result>(f.get(), path, mode);
    } else {
        if (backend == BackendKind::freqNerf)
            return readSection<FreqCodec, Result>(f.get(), path, mode);
        if (backend == BackendKind::tensorf)
            return readSection<TensorfCodec, Result>(f.get(), path, mode);
        return readSection<HashGridCodec, Result>(f.get(), path, mode);
    }
}

} // namespace

const char *
loadStatusName(LoadStatus status)
{
    switch (status) {
      case LoadStatus::ok:
        return "ok";
      case LoadStatus::ioError:
        return "I/O error";
      case LoadStatus::badMagic:
        return "bad magic";
      case LoadStatus::badVersion:
        return "bad version";
      case LoadStatus::headerMismatch:
        return "header mismatch";
      case LoadStatus::truncated:
        return "truncated";
      case LoadStatus::badChecksum:
        return "checksum mismatch";
      case LoadStatus::badBackend:
        return "unknown backend";
    }
    return "?";
}

bool
saveField(const ServeableField &field, const std::string &path)
{
    const std::optional<Artifact> a = artifactOf(field);
    const File f(a ? std::fopen(path.c_str(), "wb") : nullptr);
    return f && writeArtifact(f.get(), *a);
}

bool
saveFieldAtomic(const ServeableField &field, const std::string &path)
{
    const std::optional<Artifact> a = artifactOf(field);
    if (!a)
        return false;
    const std::string tmp = path + ".tmp";
    std::FILE *f =
        F3D_FAULT_POINT("trainer.ckpt.open") ? nullptr : std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("saveFieldAtomic: cannot open '%s'", tmp.c_str());
        return false;
    }
    // An injected crash leaves a partial temp file behind, renames
    // nothing, and so keeps whatever the destination held before.
    const bool crash = F3D_FAULT_POINT("trainer.ckpt.write");
    // fsync before the rename: otherwise a real crash could leave the
    // new name pointing at not-yet-durable data.
    const bool ok = writeArtifact(f, *a, crash) && std::fflush(f) == 0 &&
                    fsync(fileno(f)) == 0;
    std::fclose(f);
    if (crash) {
        warn("saveFieldAtomic: injected crash while writing '%s'", tmp.c_str());
        return false;
    }
    if (!ok) {
        std::remove(tmp.c_str());
        warn("saveFieldAtomic: write to '%s' failed", tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        warn("saveFieldAtomic: cannot rename '%s' to '%s'", tmp.c_str(),
             path.c_str());
        return false;
    }
    return true;
}

FieldLoadResult
loadFieldVerbose(const std::string &path)
{
    return loadArtifact<FieldLoadResult>(path);
}

std::unique_ptr<ServeableField>
loadField(const std::string &path)
{
    FieldLoadResult r = loadFieldVerbose(path);
    if (!r)
        warn("loadField: %s: %s", loadStatusName(r.status), r.message.c_str());
    return std::move(r.field);
}

bool
saveModel(const NerfModel &model, const std::string &path)
{
    return saveField(HashGridServeField(model), path);
}

bool
saveModelAtomic(const NerfModel &model, const std::string &path)
{
    return saveFieldAtomic(HashGridServeField(model), path);
}

LoadResult
loadModelVerbose(const std::string &path)
{
    return loadArtifact<LoadResult>(path);
}

std::unique_ptr<NerfModel>
loadModel(const std::string &path)
{
    LoadResult r = loadModelVerbose(path);
    if (!r)
        warn("loadModel: %s: %s", loadStatusName(r.status), r.message.c_str());
    return std::move(r.model);
}

std::size_t
modelFootprintBytes(const NerfModel &model, int bytes_per_param)
{
    return artifactOf<HashGridCodec>(model).headerBytes() +
           model.paramCount() * static_cast<std::size_t>(bytes_per_param);
}

bool
loadInto(NerfModel &dst, const NerfModel &src)
{
    if (F3D_FAULT_POINT("nerf.loadinto")) {
        warn("loadInto: injected fault (nerf.loadinto)");
        return false;
    }
    if (!src.encoding().hasFp32Weights() || !dst.encoding().hasFp32Weights()) {
        warn("loadInto: quantized model without fp32 masters");
        return false;
    }
    if (dst.encoding().paramCount() != src.encoding().paramCount() ||
        dst.densityNet().paramCount() != src.densityNet().paramCount() ||
        dst.colorNet().paramCount() != src.colorNet().paramCount()) {
        warn("loadInto: parameter-block sizes differ (dst %zu params, src %zu)",
             dst.paramCount(), src.paramCount());
        return false;
    }
    const auto copy_block = [](std::span<const float> from, std::span<float> to) {
        std::copy(from.begin(), from.end(), to.begin());
    };
    copy_block(src.encoding().params(), dst.encoding().params());
    copy_block(src.densityNet().params(), dst.densityNet().params());
    copy_block(src.colorNet().params(), dst.colorNet().params());
    return true;
}

} // namespace fusion3d::nerf
