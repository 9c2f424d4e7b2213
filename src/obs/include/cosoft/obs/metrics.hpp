// Unified metrics layer: named counters, gauges, and fixed-bucket histograms
// with lock-free hot-path updates, collected in a Registry that can snapshot
// itself and render Prometheus-style text exposition.
//
// Design: registration (name -> instrument) is mutex-guarded and happens once
// per metric, at setup time; the returned reference is stable for the life of
// the Registry, so the hot path touches only the instrument's own atomics.
// Each CoSession and its SessionManager own one Registry apiece; process-wide
// instruments (protocol encode counting, client-side stage latencies) live
// in Registry::global().
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cosoft/common/thread_annotations.hpp"

namespace cosoft::obs {

/// Monotonic event count. Relaxed atomics: counters are read for snapshots
/// and assertions on quiesced systems, never for synchronization.
class Counter {
  public:
    void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written value with a lock-free running maximum (queue depths, peaks).
class Gauge {
  public:
    void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
    /// Raises the gauge to `v` if it is larger (CAS loop, monotone max).
    void update_max(std::uint64_t v) noexcept {
        std::uint64_t cur = value_.load(std::memory_order_relaxed);
        while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram: upper bounds are chosen at registration and every
/// observe() is a bucket search plus two relaxed atomic adds — no locking,
/// no allocation. Quantiles are estimated by linear interpolation inside the
/// bucket containing the target rank (the Prometheus histogram_quantile
/// model), which is as precise as the bucket layout.
class Histogram {
  public:
    explicit Histogram(std::vector<double> upper_bounds);

    void observe(double value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
    [[nodiscard]] double sum() const noexcept;
    /// Estimated q-quantile (q in [0,1]); 0 when empty.
    [[nodiscard]] double quantile(double q) const noexcept;
    [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
    /// Cumulative counts per bucket (last entry = +Inf bucket = count()).
    [[nodiscard]] std::vector<std::uint64_t> cumulative_buckets() const;
    void reset() noexcept;

    /// `count` bounds starting at `start`, each `factor` times the previous —
    /// the standard latency layout (e.g. 1us..~1s with factor 2).
    static std::vector<double> exponential_buckets(double start, double factor, std::size_t count);

  private:
    std::vector<double> bounds_;                       ///< ascending upper bounds (exclusive of +Inf)
    std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size()+1 cells, last = overflow
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_bits_{0};  ///< double sum, CAS-accumulated via bit_cast
};

/// Records the elapsed wall time of one scope into a latency histogram
/// (in microseconds) on scope exit.
class ScopedTimer {
  public:
    explicit ScopedTimer(Histogram& h) noexcept : h_(h), start_(std::chrono::steady_clock::now()) {}
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ~ScopedTimer() {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        h_.observe(static_cast<double>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
                   1000.0);
    }

  private:
    Histogram& h_;
    std::chrono::steady_clock::time_point start_;
};

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// Point-in-time value of one instrument (histograms carry their buckets).
struct MetricSample {
    std::string name;
    MetricType type = MetricType::kCounter;
    std::uint64_t value = 0;  ///< counter/gauge value; histogram observation count
    double sum = 0.0;         ///< histogram only
    std::vector<double> upper_bounds;          ///< histogram only
    std::vector<std::uint64_t> cumulative;     ///< histogram only, parallel to upper_bounds + Inf
};

/// Named instrument directory. Thread-safe; instrument references returned by
/// counter()/gauge()/histogram() stay valid as long as the Registry lives.
class Registry {
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Finds or creates the named instrument. Names follow Prometheus rules
    /// ([a-zA-Z_][a-zA-Z0-9_]*); counters end in _total by convention. A
    /// name may carry a label set (`base{k="v"}`, assembled by
    /// labeled_name()): the exposition groups such series under the base
    /// name's HELP/TYPE header.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    /// `upper_bounds` is used only on first registration of `name`.
    Histogram& histogram(const std::string& name, std::vector<double> upper_bounds);

    /// Attaches HELP text to a metric, keyed by base name (the part before
    /// any '{'). Metrics without explicit help expose a humanized fallback
    /// derived from the name, so every family always has a # HELP line.
    void set_help(const std::string& base_name, std::string help);

    /// Point-in-time copy of every registered instrument, sorted by name.
    [[nodiscard]] std::vector<MetricSample> snapshot() const;

    /// Prometheus text exposition format: # HELP and # TYPE per metric
    /// family (emitted once per base name), histograms rendered as
    /// _bucket{le=...}/_sum/_count series, label values pre-escaped by
    /// labeled_name().
    [[nodiscard]] std::string prometheus_text() const;

    /// Resets every instrument to zero (tests and bench warm-up).
    void reset();

    /// Process-wide registry for instruments that are not per-server.
    static Registry& global();

  private:
    mutable co::Mutex mu_{"obs.Registry.mu"};
    // node-based maps: references into the mapped values are stable.
    std::map<std::string, std::unique_ptr<Counter>> counters_ CO_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_ CO_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_ CO_GUARDED_BY(mu_);
    std::map<std::string, std::string> help_ CO_GUARDED_BY(mu_);  ///< by base name
};

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// per the text exposition format.
[[nodiscard]] std::string escape_label_value(std::string_view value);

/// Assembles `base{k1="v1",k2="v2"}` with escaped values — the only way
/// label sets enter a Registry, so exposition output is always well-formed.
[[nodiscard]] std::string labeled_name(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>> labels);

/// Copies the hot-path accountant's process-wide totals (hot_path.hpp) into
/// `registry` as cosoft_hotpath_allocs_total / cosoft_hotpath_bytes_total /
/// cosoft_hotpath_blocking_waits_total. Called by the /metrics exposition
/// right before it renders the registry, so every scrape carries current
/// hot-path numbers. (A sync, not a live
/// instrument: the accountant lives in cosoft_common, which obs links, and
/// its counters must stay plain atomics — they are bumped from inside
/// operator new.)
void export_hotpath_metrics(Registry& registry);

/// Registers `cosoft_build_info{version=...,preset=...,backend=...} 1` (the
/// standard build-identity gauge) and `cosoft_uptime_seconds` (steady-clock
/// seconds since the obs library was loaded). `backend` names the transport
/// poller in use ("epoll", "poll", "none"). Called by the status-report
/// builders alongside export_hotpath_metrics.
void export_build_info(Registry& registry, std::string_view backend);

/// The version/preset strings baked into this build (what build_info
/// exposes; cosoft-stat prints them in its header line).
[[nodiscard]] const char* build_version() noexcept;
[[nodiscard]] const char* build_preset() noexcept;
/// Whole seconds since process start (the uptime gauge's source).
[[nodiscard]] std::uint64_t uptime_seconds() noexcept;

}  // namespace cosoft::obs
