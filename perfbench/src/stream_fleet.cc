/**
 * @file
 * Workload "stream_fleet", open loop through
 * serve::RenderServer::submit from one generator thread, every request
 * timed from its scheduled send time.
 *
 * Camera-stream sessions send frames at a fixed rate each, in small
 * orbit steps, against a fleet of hash-grid fp32, hash-grid int8 and
 * TensoRF models under a registry memory budget below the fleet
 * footprint; each view picks its model by zipf popularity. Every frame
 * of a sample of the views is replayed out of the server afterwards:
 * full renders through renderDepthFrameTiled, reprojected frames
 * through serve::reprojectRender from the replayed previous frame, and
 * each must equal what the server sent bit for bit. The reprojected
 * frames' PSNR against a full render of the same camera is the
 * workload's psnr_db.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>

#include "common/image.h"
#include "models.h"
#include "nerf/parallel_render.h"
#include "nerf/serialize.h"
#include "obs/trace.h"
#include "replay.h"
#include "serve/model_registry.h"
#include "serve/reproject.h"
#include "serve/scheduler.h"
#include "workloads.h"

namespace perfbench
{

using namespace fusion3d;

namespace
{

/** stream_fleet: frame side, sessions, per-session rate, view length. */
constexpr int kStreamFrameSize = 96;
constexpr int kStreamSessions = 4;
constexpr double kStreamSessionFps = 8.0;
constexpr int kStreamViewFrames = 4;
constexpr float kStreamStepDeg = 0.5f;
constexpr double kStreamLatencyLimitMs = 150.0;
constexpr double kStreamZipfS = 1.1;
/** Every frame of every kChainCheckEvery-th view is replayed and checked. */
constexpr int kChainCheckEvery = 4;
/**
 * A view's frames are replayed in send order, which is the order the
 * server ran them in only when each frame was sent after the one
 * before it had completed; this margin covers the gap between the
 * generator's send timestamp and the server's enqueue timestamp.
 */
constexpr double kOrderMarginMs = 5.0;
/**
 * The repository's reprojection floor (bench_reproject, test_reproject).
 * Those gates hold for untrained models over short warp chains; chained
 * warps of the trained fleet settle below it, so the run reports how
 * many checked frames miss it (quality.below_30db) rather than failing
 * on it. The bit-for-bit replay is the check.
 */
constexpr double kReprojectFloorDb = 30.0;

const Vec3f kOrbitCenter{0.5f, 0.45f, 0.5f};

nerf::Camera
orbitCamera(float azim_deg, float elev_deg, int size)
{
    return nerf::Camera::orbit(kOrbitCenter, 1.4f, azim_deg, elev_deg, 45.0f, size,
                               size);
}

serve::ServeConfig
serveConfig(const Options &opts)
{
    serve::ServeConfig sc;
    // The render pool plus the generator thread fill nproc.
    sc.renderThreads = std::max(opts.threads - 1, 1);
    sc.queueCapacity = 512;
    sc.render.sampler.maxSamplesPerRay = hashGridConfig(0).sampler.maxSamplesPerRay;
    return sc;
}

bool
sameImage(const Image &a, const Image &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.pixels().data(), b.pixels().data(),
                       a.pixels().size() * sizeof(Vec3f)) == 0;
}

// ---------------------------------------------------------------------
// The open-loop generator.

/** One scheduled request. */
struct Send
{
    double at = 0.0; ///< offset from the phase start, seconds
    std::string model;
    nerf::Camera camera;
    std::string session;
    int view = 0; ///< the session's view number within its stream
};

/** What came back for one Send. */
struct Result
{
    double latencyMs = 0.0; ///< scheduled send time -> completion
    double lateMs = 0.0;    ///< how late the generator sent it
    serve::Outcome outcome = serve::Outcome::failedInternal;
};

struct PhaseResult
{
    std::vector<Result> results;
    std::vector<double> queueDepth; ///< sampled at every send
    /** Process CPU seconds at every send, and once after the last
     *  response. */
    std::vector<double> cpuAt;
    double seconds = 0.0;
};

bool
served(serve::Outcome o)
{
    return !serve::isRejected(o) && o != serve::Outcome::failedInternal &&
           o != serve::Outcome::rejectedShutdown;
}

/**
 * Send @p sends on schedule from this thread and collect every
 * response; @p check sees each response with its Send and Result.
 */
template <class CheckFn>
PhaseResult
runOpenLoop(serve::RenderServer &server, const std::vector<Send> &sends,
            CheckFn &&check)
{
    struct Pending
    {
        std::future<serve::RenderResponse> future;
        std::size_t index;
        double lateMs;
    };
    PhaseResult out;
    out.results.resize(sends.size());
    out.queueDepth.reserve(sends.size());
    std::deque<Pending> pending;
    const auto collect = [&](Pending &p) {
        serve::RenderResponse resp = p.future.get();
        Result &r = out.results[p.index];
        r.outcome = resp.outcome;
        r.lateMs = p.lateMs;
        r.latencyMs = p.lateMs + resp.latencyMs;
        check(sends[p.index], r, resp);
    };
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < sends.size(); ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(sends[i].at));
        // Collect what has finished, then sleep until the send is due.
        while (!pending.empty() &&
               pending.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            collect(pending.front());
            pending.pop_front();
        }
        std::this_thread::sleep_until(due);
        serve::RenderRequest req;
        req.model = sends[i].model;
        req.camera = sends[i].camera;
        req.session = sends[i].session;
        const auto sent = Clock::now();
        out.cpuAt.push_back(processCpuSeconds());
        out.queueDepth.push_back(static_cast<double>(server.queueDepth()));
        pending.push_back({server.submit(std::move(req)), i,
                           std::max(secondsBetween(due, sent), 0.0) * 1e3});
    }
    for (Pending &p : pending)
        collect(p);
    out.cpuAt.push_back(processCpuSeconds());
    out.seconds = secondsSince(start);
    return out;
}

std::vector<double>
latencies(const PhaseResult &ph)
{
    std::vector<double> v;
    v.reserve(ph.results.size());
    for (const Result &r : ph.results)
        v.push_back(r.latencyMs);
    return v;
}

/** Latencies split into kWindows equal windows of scheduled send time. */
std::vector<std::vector<double>>
windowLatencies(const PhaseResult &ph, const std::vector<Send> &sends, double duration)
{
    std::vector<std::vector<double>> windows(kWindows);
    for (std::size_t i = 0; i < sends.size(); ++i) {
        const int w = std::min(kWindows - 1,
                               static_cast<int>(sends[i].at / duration * kWindows));
        windows[static_cast<std::size_t>(w)].push_back(ph.results[i].latencyMs);
    }
    return windows;
}

/**
 * CPU cost of a frame: process CPU time (render pool, dispatcher,
 * generator) between the first sends of consecutive windows over the
 * frames sent in between, median over kWindows windows. The last
 * window runs until its responses are in.
 */
double
cpuMsPerFrame(const PhaseResult &ph, const std::vector<Send> &sends, double duration)
{
    std::vector<double> per_frame;
    std::size_t begin = 0;
    for (int w = 1; w <= kWindows; ++w) {
        std::size_t end = begin;
        while (end < sends.size() && sends[end].at < duration * w / kWindows)
            ++end;
        if (end > begin)
            per_frame.push_back((ph.cpuAt[end] - ph.cpuAt[begin]) * 1e3 /
                                static_cast<double>(end - begin));
        begin = end;
    }
    return median(per_frame);
}

std::uint64_t
failures(const PhaseResult &ph)
{
    std::uint64_t n = 0;
    for (const Result &r : ph.results)
        n += served(r.outcome) ? 0 : 1;
    return n;
}

// ---------------------------------------------------------------------
// Span harvesting (traced runs).

std::vector<double>
spanMs(const std::vector<obs::TraceEvent> &events, const char *name)
{
    std::vector<double> out;
    for (const obs::TraceEvent &e : events)
        if (std::strcmp(e.name, name) == 0)
            out.push_back(static_cast<double>(e.t1Ns - e.t0Ns) * 1e-6);
    return out;
}

double
meanSpanArg(const std::vector<obs::TraceEvent> &events, const char *name)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const obs::TraceEvent &e : events)
        if (std::strcmp(e.name, name) == 0 && e.hasArg) {
            sum += static_cast<double>(e.arg);
            ++n;
        }
    return n ? sum / static_cast<double>(n) : 0.0;
}

/** The serve.* queueing and execution metrics from the spans. */
void
reportServeSpans(Report &rep, const std::vector<obs::TraceEvent> &events)
{
    rep.metric("serve.queue_wait_ms.p50", percentile(spanMs(events, "queue_wait"), 50));
    rep.metric("serve.queue_wait_ms.p99", percentile(spanMs(events, "queue_wait"), 99));
    rep.metric("serve.dispatch_wait_ms.p99",
               percentile(spanMs(events, "dispatch_wait"), 99));
    rep.metric("serve.execute_ms.p50", percentile(spanMs(events, "execute"), 50));
    rep.metric("serve.batch.mean", meanSpanArg(events, "dispatch_batch"));
    rep.metric("serve.registry.reload_ms.p50",
               percentile(spanMs(events, "registry_reload"), 50));
    rep.metric("serve.reproject.warp_ms.p50",
               percentile(spanMs(events, "reproject_warp"), 50));
    rep.metric("serve.reproject.tiles_ms.p50",
               percentile(spanMs(events, "reproject_tiles"), 50));
}

/** Replay the row tiles (or square tiles) of @p camera through the
 *  stage ledger, and time the whole forward of each tile. */
void
replayTiles(StageLedger &ledger, const nerf::NerfModel &model,
            const nerf::ServeableField &field, const nerf::OccupancyGrid &grid,
            const nerf::TiledRenderConfig &rc, const nerf::Camera &camera,
            int tile_w, int tile_h)
{
    const nerf::RaySampler sampler(rc.sampler);
    Image color(camera.width(), camera.height());
    std::vector<Ray> rays;
    for (int y0 = 0; y0 < camera.height(); y0 += tile_h) {
        for (int x0 = 0; x0 < camera.width(); x0 += tile_w) {
            const nerf::TileRect tile{x0, y0, std::min(x0 + tile_w, camera.width()),
                                      std::min(y0 + tile_h, camera.height())};
            rays.clear();
            for (int y = tile.y0; y < tile.y1; ++y)
                for (int x = tile.x0; x < tile.x1; ++x)
                    rays.push_back(camera.rayForPixel(x, y));
            const std::size_t samples = ledger.replay(model, &grid, sampler, rc.render,
                                                      rays, Pcg32(rc.seed, 1));
            const auto t0 = Clock::now();
            nerf::renderTilesInto(field, &grid, camera, rc, {&tile, 1}, nullptr, color,
                                  nullptr);
            ledger.noteForward(secondsSince(t0), samples);
            ledger.noteBatch(samples);
        }
    }
}

void
zeroNonServe(Report &rep)
{
    rep.zero({
        "nerf.backward.ns_per_sample", "nerf.optimizer.ms_per_step",
        "nerf.occupancy_update.ms",    "chip.capture.ns_per_ray",
        "chip.stage1_model.ms",        "chip.perf_model.us",
        "multichip.capture.ns_per_ray",
    });
}

/** One fleet member: its registry name and artifact. */
struct FleetModel
{
    std::string name;
    std::string path;
};

struct FleetSetup
{
    std::vector<FleetModel> models;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::RenderServer> server;
};

/** Fleet layout: kinds cycle fp32 / int8 / TensoRF across the names. */
constexpr int kFleetModels = 6;
/**
 * Registry memory budget: about three quarters of the fleet's resident
 * footprint (~5.1 MB: a 1.4 MB fp32 hash grid, a 0.7 MB int8 one and
 * a 0.5 MB TensoRF entry, twice), so concurrent views evict each other.
 */
constexpr std::size_t kFleetBudgetBytes = 3800000;

FleetSetup
makeFleetSetup(const Options &opts)
{
    FleetSetup s;
    const std::string fp32 = opts.workdir + "/fleet_hash_fp32.f3dm";
    const std::string int8 = opts.workdir + "/fleet_hash_int8.f3dm";
    const std::string tensorf = opts.workdir + "/fleet_tensorf.f3dm";
    {
        const auto scene = legoScene();
        const nerf::Dataset data = legoDataset(*scene);
        ThreadPool pool(opts.threads - 1);
        const auto hash = trainHashGrid(data, kModelSeed, pool);
        const auto tf = trainTensorf(data, kModelSeed, pool);
        bool ok = nerf::saveFieldAtomic(nerf::HashGridServeField(hash->model()), fp32);
        hash->model().setInferenceQuant(QuantMode::int8, /*dropFp32=*/false);
        ok = ok && nerf::saveFieldAtomic(nerf::HashGridServeField(hash->model()), int8);
        ok = ok && nerf::saveFieldAtomic(nerf::TensorfServeField(tf->model()), tensorf);
        if (!ok)
            return s;
    }
    const std::string paths[] = {fp32, int8, tensorf};
    for (int m = 0; m < kFleetModels; ++m)
        s.models.push_back({std::string("m").append(std::to_string(m)), paths[m % 3]});
    serve::RegistryConfig rc;
    rc.memoryBudgetBytes = kFleetBudgetBytes;
    rc.occupancyThreshold = kGateThreshold;
    s.registry = std::make_unique<serve::ModelRegistry>(rc);
    for (const FleetModel &m : s.models)
        if (s.registry->addFromFile(m.name, m.path) != nerf::LoadStatus::ok)
            return FleetSetup{};
    s.server = std::make_unique<serve::RenderServer>(*s.registry, serveConfig(opts));
    return s;
}

/** The rank whose zipf(kStreamZipfS) CDF over kFleetModels first
 *  reaches @p u in [0, 1). */
int
zipfRank(double u)
{
    static const std::vector<double> cdf = [] {
        std::vector<double> c(kFleetModels);
        double acc = 0.0;
        for (int k = 0; k < kFleetModels; ++k)
            c[static_cast<std::size_t>(k)] = acc += 1.0 / std::pow(k + 1.0, kStreamZipfS);
        for (double &v : c)
            v /= acc;
        return c;
    }();
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return std::min(static_cast<int>(it - cdf.begin()), kFleetModels - 1);
}

/**
 * The fleet's merged send schedule: each session sends at
 * kStreamSessionFps; every kStreamViewFrames frames
 * it starts a new view (new session id, model, start azimuth and
 * elevation) and orbits kStreamStepDeg per frame. View parameters come
 * from additive-recurrence sequences with seeded offsets, so every run
 * picks models with zipf popularity and covers the orbit evenly: runs
 * with different seeds load the fleet alike.
 */
std::vector<Send>
streamSends(std::uint64_t seed, std::uint64_t stream, double duration,
            const std::vector<FleetModel> &models)
{
    std::vector<Send> sends;
    Pcg32 rng(mixSeed(seed, 31), stream);
    const double model_off = rng.nextFloat();
    const double azim_off = rng.nextFloat();
    const double elev_off = rng.nextFloat();
    int view = 0;
    const double period = 1.0 / kStreamSessionFps;
    for (int s = 0; s < kStreamSessions; ++s) {
        // Sessions send on evenly staggered phases (the seed jitters
        // them a little) and turn over their views evenly staggered too,
        // so the full renders that open views are spread out.
        const double phase = period * (s + 0.25 * rng.nextFloat()) / kStreamSessions;
        int frame = s * kStreamViewFrames / kStreamSessions;
        std::string model, session;
        float azim = 0.0f, elev = 0.0f;
        for (double t = phase; t < duration; t += period, ++frame) {
            if (session.empty() || frame % kStreamViewFrames == 0) {
                const int rank = zipfRank(recurrence(model_off, 0.6180339887, view));
                model = models[static_cast<std::size_t>(rank)].name;
                azim = static_cast<float>(360.0 * recurrence(azim_off, 0.7548776662, view));
                elev = static_cast<float>(15.0 + 20.0 * recurrence(elev_off, 0.5698402910, view));
                session = std::string("s").append(std::to_string(stream)).append("-").append(
                    std::to_string(view++));
            }
            Send send;
            send.at = t;
            send.model = model;
            send.session = session;
            send.view = view - 1;
            send.camera = orbitCamera(
                azim + kStreamStepDeg * static_cast<float>(frame % kStreamViewFrames), elev,
                kStreamFrameSize);
            sends.push_back(std::move(send));
        }
    }
    std::stable_sort(sends.begin(), sends.end(),
                     [](const Send &a, const Send &b) { return a.at < b.at; });
    return sends;
}

/** Every response of one checked view, in send order. */
struct Chain
{
    struct Frame
    {
        nerf::Camera camera;
        Image image;
        serve::Outcome outcome;
        double sentMs; ///< actual send time, from the phase start
        double doneMs; ///< completion time, from the phase start
    };
    std::string model;
    std::vector<Frame> frames;
};

/** What replaying the checked views found, beyond pass/fail. */
struct ChainQuality
{
    std::uint64_t full = 0;
    std::uint64_t reprojected = 0;
    /** Frames left unreplayed: sent before the previous frame of their
     *  view completed, or after a degraded frame. */
    std::uint64_t unordered = 0;
    std::uint64_t belowFloor = 0;
    std::uint64_t psnrN = 0; ///< reprojected frames with a finite PSNR
    double psnrSum = 0.0;
    double psnrMin = 1e9;
};

/**
 * Replay @p chain out of the server against @p e (the same artifact,
 * loaded into an unbudgeted registry): each full render must equal
 * renderDepthFrameTiled and each reprojected frame must equal
 * reprojectRender from the replayed previous frame, bit for bit — the
 * session state the server kept (SessionFrame with fresh tile ages
 * after a full render, the warp's ages after a reprojection) is
 * rebuilt the same way.
 */
void
replayChain(const Chain &chain, const serve::ModelEntry &e, const serve::ServeConfig &sc,
            ThreadPool &pool, Report &rep, ChainQuality &q)
{
    std::optional<serve::SessionFrame> prev;
    for (std::size_t k = 0; k < chain.frames.size(); ++k) {
        const Chain::Frame &f = chain.frames[k];
        const bool ordered =
            k == 0 || f.sentMs >= chain.frames[k - 1].doneMs + kOrderMarginMs;
        const bool full = f.outcome == serve::Outcome::renderedFull;
        const bool warp = f.outcome == serve::Outcome::renderedReproject;
        if (!ordered || !(full || warp)) {
            // Failed requests are counted by the caller; degraded
            // frames leave the server's session state unknown.
            q.unordered += chain.frames.size() - k;
            return;
        }
        nerf::DepthFrame truth =
            nerf::renderDepthFrameTiled(*e.model, &e.grid, f.camera, sc.render, &pool);
        if (full) {
            rep.attempt(sameImage(f.image, truth.color),
                        "full-rendered stream frame equals renderDepthFrameTiled");
            ++q.full;
            prev = serve::SessionFrame{};
            prev->model = e.name;
            prev->tileSize = sc.reproject.tileSize;
            prev->tileAge = serve::freshTileAges(f.camera, sc.reproject.tileSize,
                                                 sc.reproject.maxTileAge);
            prev->frame = std::make_shared<const nerf::DepthFrame>(std::move(truth));
            continue;
        }
        if (!rep.attempt(prev.has_value(), "a reprojected frame follows a frame of its view"))
            return;
        serve::ReprojectOutput out = serve::reprojectRender(
            *e.model, &e.grid, f.camera, *prev, sc.render, sc.reproject, &pool);
        rep.attempt(out.stats.reprojected && sameImage(f.image, out.frame.color),
                    "reprojected stream frame equals reprojectRender replayed "
                    "from its view's previous frame");
        const double db = psnr(f.image, truth.color);
        ++q.reprojected;
        q.belowFloor += db < kReprojectFloorDb ? 1 : 0;
        if (std::isfinite(db)) {
            q.psnrSum += db;
            q.psnrMin = std::min(q.psnrMin, db);
            ++q.psnrN;
        }
        prev->tileAge = std::move(out.tileAge);
        prev->frame = std::make_shared<const nerf::DepthFrame>(std::move(out.frame));
    }
}

} // namespace

int
streamScheduleSelfTest()
{
    std::vector<FleetModel> models;
    for (int m = 0; m < kFleetModels; ++m)
        models.push_back({std::string("m").append(std::to_string(m)), ""});
    const auto key = [](const std::vector<Send> &sends) {
        std::vector<std::tuple<double, std::string, std::string, float>> k;
        for (const Send &s : sends)
            k.emplace_back(s.at, s.model, s.session, s.camera.position().x);
        return k;
    };
    const auto a = key(streamSends(42, 0, 5.0, models));
    int failures = 0;
    const auto expect = [&failures](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest FAILED: %s\n", what);
            ++failures;
        }
    };
    expect(a == key(streamSends(42, 0, 5.0, models)), "same seed, same stream schedule");
    expect(a != key(streamSends(43, 0, 5.0, models)), "another seed, another schedule");
    expect(a.size() == static_cast<std::size_t>(5.0 * kStreamSessionFps * kStreamSessions),
           "every session sends at its fixed rate");
    expect(std::is_sorted(a.begin(), a.end()), "sends ordered by scheduled time");
    std::printf("selftest: stream schedule %s\n", failures == 0 ? "ok" : "FAILED");
    return failures;
}

void
runStreamFleet(const Options &opts, Report &rep)
{
    std::filesystem::create_directories(opts.workdir);
    const auto make = [&] { return makeFleetSetup(opts); };
    std::vector<double> setup_s;
    FleetSetup setup = timedSetup(make, setup_s);
    if (!rep.attempt(setup.server != nullptr, "deploy the fleet artifacts"))
        return;
    serve::RenderServer &server = *setup.server;
    serve::ModelRegistry &registry = *setup.registry;

    // Responses arrive per phase in send order, so each checked view's
    // frames are appended in order.
    std::map<std::string, Chain> chains;
    std::uint64_t reprojected = 0, frames = 0;
    const auto check = [&](const Send &send, const Result &r,
                           const serve::RenderResponse &resp) {
        if (served(resp.outcome)) {
            ++frames;
            reprojected += resp.outcome == serve::Outcome::renderedReproject ? 1 : 0;
        }
        if (send.view % kChainCheckEvery != 0)
            return;
        Chain &chain = chains[send.session];
        chain.model = send.model;
        chain.frames.push_back({send.camera, resp.image, resp.outcome,
                                send.at * 1e3 + r.lateMs, send.at * 1e3 + r.latencyMs});
    };

    const double phase_s = opts.trace ? opts.seconds / 2 : opts.seconds;
    const std::vector<Send> sends = streamSends(opts.seed, 0, phase_s, setup.models);
    const std::uint64_t hits0 = registry.acquireHits();
    const std::uint64_t reloads0 = registry.reloads();
    const std::uint64_t marched0 = server.stats().raysMarched();
    const PhaseResult plain = runOpenLoop(server, sends, check);
    std::vector<obs::TraceEvent> events;
    PhaseResult traced;
    if (opts.trace) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.clear();
        tracer.setEnabled(true);
        // A fresh set of views: the first phase's sessions are warm.
        traced = runOpenLoop(server, streamSends(opts.seed, 1, phase_s, setup.models),
                             check);
        server.drain();
        tracer.setEnabled(false);
        events = tracer.snapshot();
        rep.detail("trace.spans", static_cast<double>(events.size()));
        rep.detail("trace.dropped_spans", static_cast<double>(tracer.dropped()));
        tracer.clear();
    }
    const std::uint64_t sent = plain.results.size() + traced.results.size();
    const std::uint64_t failed = failures(plain) + failures(traced);
    rep.attempts(sent, failed, "stream requests served");
    // Memory of the serving process itself, before the checks below
    // start a reference registry and render pool of their own.
    const double peak_rss = peakRssMiB();

    // Replay the checked views out of the server, against the same
    // artifacts in an unbudgeted reference registry with the server's
    // gate threshold.
    serve::RegistryConfig ref_cfg;
    ref_cfg.occupancyThreshold = kGateThreshold;
    serve::ModelRegistry reference{ref_cfg};
    for (const FleetModel &m : setup.models)
        rep.attempt(reference.addFromFile(m.name, m.path) == nerf::LoadStatus::ok,
                    "reference registry loads " + m.name);
    const serve::ServeConfig &sc = server.config();
    ThreadPool check_pool(opts.threads - 1); // the server is idle now
    ChainQuality q;
    const auto check0 = Clock::now();
    for (const auto &[session, chain] : chains) {
        const serve::ModelEntry *e = reference.find(chain.model);
        if (rep.attempt(e != nullptr, "reference model " + chain.model))
            replayChain(chain, *e, sc, check_pool, rep, q);
    }
    rep.detail("quality.check_s", secondsSince(check0));
    rep.detail("quality.views_checked", static_cast<double>(chains.size()));
    rep.detail("quality.full_checked", static_cast<double>(q.full));
    rep.detail("quality.reprojected_checked", static_cast<double>(q.reprojected));
    rep.detail("quality.unordered_frames", static_cast<double>(q.unordered));
    rep.detail("quality.min_psnr_db", q.psnrN ? q.psnrMin : 0.0);
    rep.detail("quality.below_30db", static_cast<double>(q.belowFloor));

    if (opts.trace) {
        reportServeSpans(rep, events);
        const double hits = static_cast<double>(registry.acquireHits() - hits0);
        const double reloads = static_cast<double>(registry.reloads() - reloads0);
        rep.metric("serve.registry.hit_frac", hits / std::max(hits + reloads, 1.0));
        rep.metric("serve.registry.reloads", reloads);
        rep.metric("serve.session.reproject_frac",
                   static_cast<double>(reprojected) /
                       static_cast<double>(std::max<std::uint64_t>(frames, 1)));
        const double full_rays = static_cast<double>(frames) * kStreamFrameSize *
                                 kStreamFrameSize;
        rep.metric("serve.reproject.ray_frac",
                   static_cast<double>(server.stats().raysMarched() - marched0) /
                       std::max(full_rays, 1.0));
        std::vector<double> late;
        for (const Result &r : traced.results)
            late.push_back(r.lateMs);
        rep.metric("loadgen.late_ms.p99", percentile(late, 99));
        const double p50_plain = percentile(latencies(plain), 50);
        const double p50_traced = percentile(latencies(traced), 50);
        rep.metric("obs.trace_overhead_frac", p50_traced / p50_plain - 1.0);
        rep.detail("stream_p50_ms.untraced", p50_plain);
        rep.detail("stream_p50_ms.traced", p50_traced);

        // Stage split over 16x16 tiles of checked hash-grid frames.
        StageLedger ledger;
        int replayed = 0;
        for (const auto &[session, chain] : chains) {
            const serve::ModelEntry *e = reference.find(chain.model);
            const auto *hg = e ? dynamic_cast<const nerf::HashGridServeField *>(
                                     e->model.get())
                               : nullptr;
            for (std::size_t k = 0; hg && k < chain.frames.size() && replayed < 8; ++k) {
                replayTiles(ledger, hg->model(), *e->model, e->grid, sc.render,
                            chain.frames[k].camera, sc.reproject.tileSize,
                            sc.reproject.tileSize);
                ++replayed;
            }
        }
        ledger.report(rep);
        zeroNonServe(rep);
        return;
    }

    const LatencySummary lat = windowedSummary(windowLatencies(plain, sends, phase_s));
    std::uint64_t good = 0;
    for (const Result &r : plain.results)
        good += served(r.outcome) && r.latencyMs <= kStreamLatencyLimitMs ? 1 : 0;
    rep.detail("peak_rss_mb", peak_rss);
    rep.detail("latency.p50_ms", lat.p50);
    rep.metric("cpu_ms", cpuMsPerFrame(plain, sends, phase_s));
    rep.detail("latency.p90_ms", lat.p90);
    rep.detail("latency.tail_ms", lat.tail);
    rep.metric("rate_per_s", static_cast<double>(good) / plain.seconds);
    rep.metric("psnr_db", q.psnrN ? q.psnrSum / static_cast<double>(q.psnrN) : 0.0);
    rep.metric("ok_frac", 1.0 - static_cast<double>(failed) /
                                    static_cast<double>(std::max<std::uint64_t>(sent, 1)));
    rep.detail("latency.n", static_cast<double>(lat.n));
    rep.detail("latency.tail_percentile", lat.tailPct);
    rep.detail("latency_limit_ms", kStreamLatencyLimitMs);
    rep.detail("fleet.resident_bytes", static_cast<double>(registry.residentBytes()));
    rep.detail("fleet.reloads", static_cast<double>(registry.reloads() - reloads0));
    rep.detail("fleet.reproject_frac",
               static_cast<double>(reprojected) /
                   static_cast<double>(std::max<std::uint64_t>(frames, 1)));

    setup = FleetSetup{};
    repeatSetup(make, setup_s);
    rep.metric("setup_s", median(setup_s));
}

} // namespace perfbench
