// Stall watchdog: an out-of-band monitor thread over the dispatch spine.
//
// Every execution unit that promises forward progress — each session strand
// on the worker pool, each reactor shard loop — registers a Source and feeds
// it three relaxed-atomic signals from its own hot path:
//
//   begin_work()  entering a work batch (stamps busy_since)
//   progress()    one unit of work done (bumps the epoch, re-stamps busy)
//   end_work()    batch drained, going idle (clears busy_since)
//   set_queue()   backlog depth + enqueue time of the oldest waiting token
//
// The watchdog thread scans all sources every `interval_ms` and complains
// when (a) a source has been busy without progress longer than
// `stall_deadline_ms` — a wedged strand dispatch or a shard stuck in one
// handler both look exactly like this — or (b) the oldest queued token is
// older than `queue_age_ceiling_ms`, the user-visible symptom of a stall
// upstream. Trips are edge-triggered: the first scan that sees a stall
// records a kWatchdogTrip event and (by default) triggers one flight-
// recorder incident dump naming the culprit; recovery re-arms the source.
//
// The verdict (healthy + complaint list) backs GET /healthz, and
// cosoft_watchdog_* metrics ride every /metrics scrape and incident dump.
// The feeding cost is 2-3 relaxed stores per batch — no locks, no syscalls —
// so sources stay armed in release builds.
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "cosoft/common/thread_annotations.hpp"

namespace cosoft::obs {

class Registry;

class Watchdog {
  public:
    enum class SourceKind : std::uint8_t { kStrand, kShard };

    /// One monitored execution unit. All signals are relaxed atomics: the
    /// watchdog tolerates torn reads across fields (a transiently wrong scan
    /// self-corrects next interval); what matters is that feeding never
    /// synchronizes the hot path.
    class Source {
      public:
        Source(SourceKind kind, std::string name, std::uint16_t ord)
            : kind_(kind), name_(std::move(name)), ord_(ord) {}
        Source(const Source&) = delete;
        Source& operator=(const Source&) = delete;

        void begin_work() noexcept;
        void progress() noexcept;
        void end_work() noexcept;
        void set_queue(std::uint64_t depth, std::uint64_t oldest_enqueue_ns) noexcept {
            queue_depth_.store(depth, std::memory_order_relaxed);
            oldest_enqueue_ns_.store(oldest_enqueue_ns, std::memory_order_relaxed);
        }

        [[nodiscard]] SourceKind kind() const noexcept { return kind_; }
        [[nodiscard]] const std::string& name() const noexcept { return name_; }
        [[nodiscard]] std::uint16_t ord() const noexcept { return ord_; }
        [[nodiscard]] std::uint64_t epoch() const noexcept {
            return epoch_.load(std::memory_order_relaxed);
        }
        [[nodiscard]] bool retired() const noexcept {
            return retired_.load(std::memory_order_relaxed);
        }

      private:
        friend class Watchdog;
        const SourceKind kind_;
        const std::string name_;
        const std::uint16_t ord_;
        std::atomic<std::uint64_t> epoch_{0};
        std::atomic<std::uint64_t> busy_since_ns_{0};  ///< 0 = idle
        std::atomic<std::uint64_t> queue_depth_{0};
        std::atomic<std::uint64_t> oldest_enqueue_ns_{0};  ///< 0 = queue empty
        std::atomic<bool> retired_{false};
        std::atomic<bool> stall_tripped_{false};  ///< edge latch, reset on recovery
        std::atomic<bool> age_tripped_{false};
    };

    struct Options {
        int interval_ms = 250;           ///< scan period of the monitor thread
        int stall_deadline_ms = 2000;    ///< busy-without-progress tolerance
        int queue_age_ceiling_ms = 10000;///< oldest-queued-token tolerance
        bool dump_on_trip = true;        ///< incident dump on first detection
    };

    /// Point-in-time health assessment, rebuilt by every scan.
    struct Verdict {
        bool healthy = true;
        std::uint64_t checks = 0;                ///< scans performed so far
        std::vector<std::string> complaints;     ///< human-readable, one per issue
        std::string worst_culprit;               ///< source name of the first complaint
    };

    Watchdog();  // default Options (delegates; nested-class NSDMIs keep
                 // `Options{}` out of default-argument position for gcc)
    explicit Watchdog(Options options);
    ~Watchdog();
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// Registers a progress source. The pointer stays valid for the life of
    /// the Watchdog (sources are arena'd in a deque, never moved); retire()
    /// excludes a source from future scans when its strand/shard goes away.
    Source* register_source(SourceKind kind, std::string name);
    void retire(Source* source) noexcept;

    void start();
    void stop();
    [[nodiscard]] bool running() const noexcept {
        return running_.load(std::memory_order_relaxed);
    }

    /// One synchronous scan on the caller's thread (tests; also how a
    /// stopped watchdog can be driven manually).
    void check_now();

    [[nodiscard]] Verdict verdict() const;

    /// cosoft_watchdog_* metrics (checks, trips, breaches, health, sources).
    void export_metrics(Registry& registry) const;

    [[nodiscard]] const Options& options() const noexcept { return options_; }

  private:
    void loop();
    void scan();

    const Options options_;
    mutable co::Mutex mu_{"obs.Watchdog.mu"};
    std::deque<Source> sources_ CO_GUARDED_BY(mu_);  ///< deque: stable addresses
    Verdict verdict_ CO_GUARDED_BY(mu_);
    std::condition_variable wake_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<std::uint64_t> checks_{0};
    std::atomic<std::uint64_t> trips_{0};
    std::atomic<std::uint64_t> queue_age_breaches_{0};
    std::atomic<std::uint64_t> stalled_now_{0};
};

}  // namespace cosoft::obs
