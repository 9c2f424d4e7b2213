// Measurement helpers for the COSOFT benchmark: clocks, quantiles, per-thread
// CPU time read from outside the program, process memory, the benchmark's
// own in-memory spans, the span ledger over obs::Tracer output, and the
// result line the benchmark prints.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cosoft/obs/trace.hpp"

namespace perfbench {

/// Steady-clock nanoseconds (the same timebase obs::Tracer stamps spans with).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Linear-interpolated q-quantile (q in [0,1]) of `values`; 0 when empty.
/// Takes a copy because it partially sorts.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Thread ids of this process, from /proc/self/task.
[[nodiscard]] std::set<int> task_ids();
/// The calling thread's kernel id.
[[nodiscard]] int current_tid() noexcept;
/// User+system CPU time consumed so far by thread `tid` of this process, in
/// nanoseconds (the kernel's per-thread scheduler clock).
[[nodiscard]] std::uint64_t thread_cpu_ns(int tid) noexcept;
[[nodiscard]] std::uint64_t threads_cpu_ns(const std::vector<int>& tids) noexcept;

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run ("steal" in /proc/stat), summed over CPUs, in seconds.
[[nodiscard]] double host_steal_s();
/// Host speed probe: the time a fixed amount of single-threaded work takes
/// (a dependent integer chain and four copies of 8 MiB), best of three, in
/// nanoseconds.
[[nodiscard]] double host_probe_ns();
/// Online CPUs of this machine.
[[nodiscard]] int online_cpus() noexcept;

/// Restarts the peak resident set size from the current one (Linux
/// clear_refs; a no-op where it is unavailable).
void reset_rss_peak();
/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double rss_peak_mb();

/// One span the benchmark records around its own call into a layer.
struct BenchSpan {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t arg = 0;
};

/// In-memory span log; written out with the program's spans when a run ends.
class SpanLog {
  public:
    void set_enabled(bool on) noexcept { enabled_ = on; }
    void add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t arg = 0) {
        if (enabled_) spans_.push_back(BenchSpan{name, start_ns, end_ns, arg});
    }
    [[nodiscard]] const std::vector<BenchSpan>& spans() const noexcept { return spans_; }
    /// Durations in microseconds of every span called `name`.
    [[nodiscard]] std::vector<double> durations_us(const char* name) const;

  private:
    bool enabled_ = false;
    std::vector<BenchSpan> spans_;
};

/// The §3.2 cycle of one traced emit: client.dispatch -> server.lock ->
/// client.callbacks -> server.broadcast -> client.replay x partners ->
/// server.unlock. Returns self-time p50 per span name and the p50 of each
/// inter-span gap, over the traces in `spans` that hold the complete chain
/// with exactly `partners` replays. `traces` receives the number used.
[[nodiscard]] std::map<std::string, double> cycle_ledger(const std::vector<cosoft::obs::Span>& spans,
                                                         std::size_t partners, std::size_t& traces);

/// Writes the program's spans and the benchmark's spans as one Chrome
/// trace_event JSON file. Returns false on I/O failure.
bool write_trace(const std::string& path, const std::vector<cosoft::obs::Span>& program,
                 const std::vector<BenchSpan>& bench);

/// Metrics of one run, printed as the final result line.
class Result {
  public:
    void set(const std::string& name, double value, const char* unit) { metrics_[name] = {value, unit}; }
    /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
    [[nodiscard]] std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

  private:
    struct Value {
        double value = 0;
        const char* unit = "";
    };
    std::map<std::string, Value> metrics_;
};

}  // namespace perfbench
