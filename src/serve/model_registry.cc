#include "serve/model_registry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace fusion3d::serve
{

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::closed:
        return "closed";
      case BreakerState::open:
        return "open";
      case BreakerState::halfOpen:
        return "half_open";
    }
    return "?";
}

ModelRegistry::ModelRegistry(int occupancy_resolution, float occupancy_threshold)
    : ModelRegistry([&] {
          RegistryConfig cfg;
          cfg.occupancyResolution = occupancy_resolution;
          cfg.occupancyThreshold = occupancy_threshold;
          return cfg;
      }())
{
}

ModelRegistry::ModelRegistry(const RegistryConfig &cfg) : cfg_(cfg)
{
    if (cfg_.occupancyResolution < 1)
        fatal("ModelRegistry: occupancy resolution must be positive, got %d",
              cfg_.occupancyResolution);
    if (cfg_.loadMaxAttempts < 1)
        fatal("ModelRegistry: loadMaxAttempts must be >= 1, got %d",
              cfg_.loadMaxAttempts);
    if (cfg_.breakerThreshold < 1)
        fatal("ModelRegistry: breakerThreshold must be >= 1, got %d",
              cfg_.breakerThreshold);

    // Distinct collector name per registry instance, as ServerStats does
    // for servers.
    static std::atomic<std::uint64_t> seq{0};
    char buf[64];
    std::snprintf(buf, sizeof buf, "serve.registry%llu",
                  static_cast<unsigned long long>(seq.fetch_add(1)));
    collector_name_ = buf;
    obs::MetricsRegistry::global().registerCollector(
        collector_name_, [this](obs::MetricSink &sink) { collect(sink); });
}

ModelRegistry::~ModelRegistry()
{
    obs::MetricsRegistry::global().unregisterCollector(collector_name_);
}

void
ModelRegistry::collect(obs::MetricSink &sink) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    sink.gauge("serve.registry.models", static_cast<double>(entries_.size()));
    sink.gauge("serve.registry.resident_bytes",
               static_cast<double>(resident_bytes_));
    sink.gauge("serve.registry.budget_bytes",
               static_cast<double>(cfg_.memoryBudgetBytes));
    sink.counter("serve.registry.loads_ok", loads_ok_);
    sink.counter("serve.registry.loads_failed", loads_failed_);
    sink.counter("serve.registry.load_retries", load_retries_);
    sink.counter("serve.registry.breaker_trips", breaker_trips_);
    sink.counter("serve.registry.breaker_open_rejects", breaker_rejects_);
    sink.counter("serve.registry.evictions", evictions_);
    sink.counter("serve.registry.reloads", reloads_);
    sink.counter("serve.registry.swaps", swaps_);
    sink.counter("serve.registry.acquire_hits", acquire_hits_);
    std::uint64_t open = 0;
    for (const auto &[name, b] : breakers_)
        if (b.state == BreakerState::open)
            ++open;
    sink.gauge("serve.registry.breakers_open", static_cast<double>(open));
}

void
ModelRegistry::touchLocked(Slot &slot, const std::string &name)
{
    (void)name;
    lru_.splice(lru_.begin(), lru_, slot.lruPos);
}

void
ModelRegistry::evictToBudgetLocked()
{
    if (cfg_.memoryBudgetBytes == 0)
        return;
    while (resident_bytes_ > cfg_.memoryBudgetBytes && lru_.size() > 1) {
        // Walk from the least recently used end; the MRU entry (list
        // front, typically the one just registered or acquired) is
        // never evicted, so a model larger than the whole budget still
        // serves. In-memory entries have nothing to reload from and
        // pinned entries have renders in flight — both are skipped.
        std::string victim;
        for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
            if (*rit == lru_.front())
                break;
            const auto it = entries_.find(*rit);
            if (it == entries_.end())
                fatal("ModelRegistry: LRU list out of sync with entries");
            if (it->second.entry->sourcePath.empty())
                continue; // in-memory: not reloadable, not evictable
            if (it->second.entry.use_count() > 1)
                continue; // pinned by an in-flight render
            victim = *rit;
            break;
        }
        if (victim.empty())
            break; // nothing evictable: pins/in-memory entries remain

        const auto it = entries_.find(victim);
        resident_bytes_ -= it->second.entry->bytes;
        // The evicted model's derived caches (session frames) must
        // stale-miss: the epoch moves even though the weights on disk
        // are unchanged, because a reload rebuilds a distinct entry.
        ++epochs_[victim];
        ++evictions_;
        obs::Tracer::instance().recordInstant("serve", "registry_evict");
        inform("ModelRegistry: evicted '%s' (%zu bytes; resident %zu of "
               "budget %zu)",
               victim.c_str(), it->second.entry->bytes, resident_bytes_,
               cfg_.memoryBudgetBytes);
        lru_.erase(it->second.lruPos);
        entries_.erase(it);
    }
}

const ModelEntry *
ModelRegistry::addInternal(const std::string &name,
                           std::unique_ptr<nerf::ServeableField> field,
                           const std::string &source_path)
{
    if (!field)
        fatal("ModelRegistry::add('%s'): null model", name.c_str());

    auto entry = std::make_shared<ModelEntry>(
        name, std::move(field), cfg_.occupancyResolution, cfg_.occupancyThreshold);

    // Quantize before the gate rebuild so the gate is derived from the
    // exact weights this entry will serve. Backends that don't support
    // quantization (applyQuantMode false) keep serving fp32.
    if (cfg_.quantMode != QuantMode::fp32)
        entry->model->applyQuantMode(cfg_.quantMode);
    entry->quant = entry->model->quantMode();

    // Rebuild the inference gate from the deployed weights; decay 0
    // makes it exactly the current field's occupancy, like the benches'
    // scene bootstrap. The fixed seed keeps the gate — and therefore a
    // reloaded model's renders — bit-identical across reloads. The
    // probe jitters draw serially in cell order (the same rng stream
    // the scalar grid.update consumed), then one backend-polymorphic
    // density batch evaluates them: per probe bit-exact with the
    // backend's scalar density query.
    {
        F3D_TRACE_SPAN("serve", "registry_gate");
        Pcg32 rng(0x5eedf00dULL, 41);
        std::vector<Vec3f> probes;
        entry->grid.collectProbePositions(rng, probes);
        std::vector<float> densities(probes.size());
        entry->model->evalDensityBatch(probes, densities);
        entry->grid.applyDensities(densities, /*decay=*/0.0f);
    }
    entry->sourcePath = source_path;
    entry->bytes = sizeof(ModelEntry) + name.size() + source_path.size() +
                   entry->model->residentBytes() +
                   entry->grid.cellCount() * sizeof(float) +
                   entry->grid.bitfieldBytes();

    const ModelEntry *raw = entry.get();
    std::shared_ptr<ModelEntry> replaced; // released outside the lock
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entry->epoch = ++epochs_[name];
        auto it = entries_.find(name);
        if (it != entries_.end()) {
            // Hot-swap publish: pointer swap under the lock. The old
            // version keeps serving every render pinned to it and
            // drains when the last pin drops.
            resident_bytes_ -= it->second.entry->bytes;
            replaced = std::move(it->second.entry);
            it->second.entry = std::move(entry);
            touchLocked(it->second, name);
        } else {
            lru_.push_front(name);
            Slot slot;
            slot.entry = std::move(entry);
            slot.lruPos = lru_.begin();
            entries_.emplace(name, std::move(slot));
        }
        resident_bytes_ += raw->bytes;
        if (source_path.empty()) {
            // An in-memory deploy supersedes any artifact this name had:
            // evicting it could not bring these weights back.
            source_paths_.erase(name);
        } else {
            source_paths_[name] = source_path;
        }
        evictToBudgetLocked();
    }
    return raw;
}

const ModelEntry *
ModelRegistry::add(const std::string &name, std::unique_ptr<nerf::NerfModel> model)
{
    if (!model)
        fatal("ModelRegistry::add('%s'): null model", name.c_str());
    return addInternal(name,
                       std::make_unique<nerf::HashGridServeField>(std::move(model)),
                       /*source_path=*/"");
}

const ModelEntry *
ModelRegistry::add(const std::string &name,
                   std::unique_ptr<nerf::ServeableField> field)
{
    return addInternal(name, std::move(field), /*source_path=*/"");
}

std::uint64_t
ModelRegistry::epoch(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = epochs_.find(name);
    return it == epochs_.end() ? 0 : it->second;
}

nerf::LoadStatus
ModelRegistry::addFromFile(const std::string &name, const std::string &path)
{
    F3D_TRACE_SPAN("serve", "registry_load");

    // Breaker check. An open breaker rejects until its cooldown
    // elapses, then half-opens: exactly one probe attempt, no retries.
    bool half_open = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Breaker &b = breakers_[name];
        if (b.state == BreakerState::open) {
            const auto elapsed = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - b.openedAt);
            if (elapsed.count() < cfg_.breakerCooldownMs) {
                ++breaker_rejects_;
                warn("ModelRegistry: deploy of '%s' rejected, breaker open "
                     "(%.1f of %.1f ms cooldown elapsed)",
                     name.c_str(), elapsed.count(), cfg_.breakerCooldownMs);
                return nerf::LoadStatus::ioError;
            }
            b.state = BreakerState::halfOpen;
            inform("ModelRegistry: breaker for '%s' half-open, probing '%s'",
                   name.c_str(), path.c_str());
        }
        half_open = b.state == BreakerState::halfOpen;
    }

    const int attempts = half_open ? 1 : cfg_.loadMaxAttempts;
    double delay_ms = cfg_.backoffInitialMs;
    nerf::FieldLoadResult r;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
        if (attempt > 1) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++load_retries_;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
            delay_ms = std::min(delay_ms * cfg_.backoffMultiplier,
                                cfg_.backoffMaxMs);
        }
        if (F3D_FAULT_POINT("serve.load.io")) {
            r = nerf::FieldLoadResult{};
            r.status = nerf::LoadStatus::ioError;
            r.message = "injected fault (serve.load.io)";
        } else {
            F3D_TRACE_SPAN("serve", "registry_decode");
            r = nerf::loadFieldVerbose(path);
        }
        if (r)
            break;
        warn("ModelRegistry: deploy of '%s' from '%s' failed (attempt %d/%d): "
             "%s (%s)",
             name.c_str(), path.c_str(), attempt, attempts,
             nerf::loadStatusName(r.status), r.message.c_str());
    }

    if (!r) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++loads_failed_;
        Breaker &b = breakers_[name];
        ++b.consecutiveFailures;
        if (b.state == BreakerState::halfOpen ||
            b.consecutiveFailures >= cfg_.breakerThreshold) {
            b.state = BreakerState::open;
            b.openedAt = std::chrono::steady_clock::now();
            ++b.trips;
            ++breaker_trips_;
            obs::Tracer::instance().recordInstant("serve", "breaker_open");
            warn("ModelRegistry: breaker for '%s' open after %d consecutive "
                 "failures (cooldown %.1f ms)",
                 name.c_str(), b.consecutiveFailures, cfg_.breakerCooldownMs);
        }
        return r.status;
    }

    addInternal(name, std::move(r.field), path);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++loads_ok_;
        Breaker &b = breakers_[name];
        if (b.state != BreakerState::closed)
            inform("ModelRegistry: breaker for '%s' closed", name.c_str());
        b.state = BreakerState::closed;
        b.consecutiveFailures = 0;
    }
    inform("ModelRegistry: deployed '%s' from '%s'", name.c_str(), path.c_str());
    return nerf::LoadStatus::ok;
}

nerf::LoadStatus
ModelRegistry::swap(const std::string &name, const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Swappable = currently serving: resident, or evicted with an
        // artifact to reload. Never-registered and removed names have
        // nothing to swap.
        if (entries_.find(name) == entries_.end() &&
            source_paths_.find(name) == source_paths_.end()) {
            warn("ModelRegistry: swap of '%s' rejected: not deployed",
                 name.c_str());
            return nerf::LoadStatus::ioError;
        }
    }
    F3D_TRACE_SPAN("serve", "registry_swap");
    // Load + CRC-verify off to the side (retry + breaker included);
    // addInternal publishes with a pointer swap under the lock.
    const nerf::LoadStatus status = addFromFile(name, path);
    if (status != nerf::LoadStatus::ok) {
        warn("ModelRegistry: hot-swap of '%s' from '%s' failed (%s); the old "
             "version keeps serving",
             name.c_str(), path.c_str(), nerf::loadStatusName(status));
        return status;
    }
    std::uint64_t new_epoch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++swaps_;
        new_epoch = epochs_[name];
    }
    // The instant lands in the Chrome trace and — via the always-on
    // capture bit — in the flight recorder's black-box ring.
    obs::Tracer::instance().recordInstant("serve", "hot_swap");
    inform("ModelRegistry: hot-swapped '%s' to '%s' (epoch %llu); old version "
           "drains with its in-flight pins",
           name.c_str(), path.c_str(),
           static_cast<unsigned long long>(new_epoch));
    return nerf::LoadStatus::ok;
}

ModelHandle
ModelRegistry::acquire(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        return nullptr;
    touchLocked(it->second, name);
    ++acquire_hits_;
    return it->second.entry;
}

AcquireResult
ModelRegistry::acquireOrReload(const std::string &name)
{
    bool reloaded = false;
    // Bounded loop: each pass either resolves, becomes the loader, or
    // waits for a concurrent loader and re-checks.
    for (int pass = 0; pass < 4; ++pass) {
        std::string path;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            auto it = entries_.find(name);
            if (it != entries_.end()) {
                touchLocked(it->second, name);
                ++acquire_hits_;
                AcquireResult r;
                r.entry = it->second.entry;
                r.known = true;
                r.reloaded = reloaded;
                return r;
            }
            const auto pit = source_paths_.find(name);
            if (pit == source_paths_.end()) {
                // Not resident and nothing to reload from: never
                // registered, or removed. Either way the name does not
                // serve — an unknown model, not an internal failure.
                AcquireResult r;
                r.known = false;
                r.status = nerf::LoadStatus::ioError;
                return r;
            }
            if (loading_.count(name)) {
                // Another worker is already reloading this model: stall
                // on its result instead of thundering into storage.
                loader_cv_.wait(lock,
                                [&]() { return loading_.count(name) == 0; });
                reloaded = true;
                continue;
            }
            loading_.insert(name);
            path = pit->second;
        }

        // Reload-on-demand outside the lock, riding the retry +
        // circuit-breaker deploy path.
        F3D_TRACE_SPAN("serve", "registry_reload");
        const nerf::LoadStatus status = addFromFile(name, path);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            loading_.erase(name);
            if (status == nerf::LoadStatus::ok)
                ++reloads_;
        }
        loader_cv_.notify_all();
        if (status != nerf::LoadStatus::ok) {
            AcquireResult r;
            r.known = true;
            r.status = status;
            return r;
        }
        reloaded = true; // loop re-acquires the freshly loaded entry
    }
    AcquireResult r;
    r.known = true;
    r.status = nerf::LoadStatus::ioError;
    return r;
}

bool
ModelRegistry::removeModel(const std::string &name)
{
    std::shared_ptr<ModelEntry> dropped; // released outside the lock
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (entries_.find(name) == entries_.end() &&
            source_paths_.find(name) == source_paths_.end())
            return false; // never registered, or already removed
        auto it = entries_.find(name);
        if (it != entries_.end()) {
            resident_bytes_ -= it->second.entry->bytes;
            dropped = std::move(it->second.entry);
            lru_.erase(it->second.lruPos);
            entries_.erase(it);
        }
        source_paths_.erase(name);
        // Dependent caches must stale-miss even if the name returns.
        ++epochs_[name];
    }
    inform("ModelRegistry: removed '%s'%s", name.c_str(),
           dropped && dropped.use_count() > 1
               ? " (in-flight pins drain the old entry)"
               : "");
    return true;
}

const ModelEntry *
ModelRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second.entry.get();
}

std::size_t
ModelRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
ModelRegistry::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return resident_bytes_;
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, slot] : entries_)
        out.push_back(name);
    return out;
}

BreakerState
ModelRegistry::breakerState(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = breakers_.find(name);
    return it == breakers_.end() ? BreakerState::closed : it->second.state;
}

std::uint64_t
ModelRegistry::loadsSucceeded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return loads_ok_;
}

std::uint64_t
ModelRegistry::loadsFailed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return loads_failed_;
}

std::uint64_t
ModelRegistry::loadRetries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return load_retries_;
}

std::uint64_t
ModelRegistry::breakerTrips() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return breaker_trips_;
}

std::uint64_t
ModelRegistry::breakerOpenRejects() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return breaker_rejects_;
}

std::uint64_t
ModelRegistry::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

std::uint64_t
ModelRegistry::reloads() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reloads_;
}

std::uint64_t
ModelRegistry::swaps() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return swaps_;
}

std::uint64_t
ModelRegistry::acquireHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return acquire_hits_;
}

} // namespace fusion3d::serve
