#include "measure.hpp"

#include <dirent.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

std::set<int> task_ids() {
    std::set<int> out;
    DIR* d = ::opendir("/proc/self/task");
    if (d == nullptr) return out;
    while (const dirent* e = ::readdir(d)) {
        if (e->d_name[0] >= '0' && e->d_name[0] <= '9') out.insert(std::atoi(e->d_name));
    }
    ::closedir(d);
    return out;
}

int current_tid() noexcept { return static_cast<int>(::syscall(SYS_gettid)); }

std::uint64_t thread_cpu_ns(int tid) noexcept {
    // The per-thread scheduler clock of any thread in this process: the
    // encoding glibc's pthread_getcpuclockid uses (CPUCLOCK_SCHED |
    // CPUCLOCK_PERTHREAD_MASK over the inverted tid).
    const clockid_t clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u);
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0) return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t threads_cpu_ns(const std::vector<int>& tids) noexcept {
    std::uint64_t total = 0;
    for (const int tid : tids) total += thread_cpu_ns(tid);
    return total;
}

double host_steal_s() {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return 0;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3], &v[4],
                              &v[5], &v[6], &v[7]);
    std::fclose(f);
    return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK)) : 0;
}

double host_probe_ns() {
    // Mapped and unmapped here: the probe's pages leave the resident set.
    constexpr std::size_t kBytes = 8u << 20;
    void* mem = ::mmap(nullptr, 2 * kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) return 0;
    auto* from = static_cast<std::uint8_t*>(mem);
    std::uint8_t* to = from + kBytes;
    std::memset(from, 1, kBytes);
    double best = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t t0 = now_ns();
        volatile std::uint64_t seed = 1;
        std::uint64_t v = seed;
        for (int i = 0; i < 2'000'000; ++i) v = v * 6364136223846793005ull + 1442695040888963407ull;
        seed = v;
        for (int i = 0; i < 4; ++i) {
            std::memcpy(to, from, kBytes);
            from[i] = to[i + 1];
        }
        best = std::min(best, static_cast<double>(now_ns() - t0));
    }
    ::munmap(mem, 2 * kBytes);
    return best;
}

int online_cpus() noexcept { return static_cast<int>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN))); }

void reset_rss_peak() {
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double rss_peak_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

std::vector<double> SpanLog::durations_us(const char* name) const {
    std::vector<double> out;
    for (const BenchSpan& s : spans_) {
        if (std::strcmp(s.name, name) == 0) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
    return out;
}

namespace {

using cosoft::obs::Span;

std::uint64_t end_of(const Span& s) { return s.start_ns + s.duration_ns; }

/// Span duration minus the part of its interval its child spans cover.
double self_us(const Span& s, const std::vector<const Span*>& children) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (const Span* c : children) {
        const std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        const std::uint64_t hi = std::min(end_of(*c), end_of(s));
        if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
    }
    return static_cast<double>(s.duration_ns - covered) / 1000.0;
}

double gap_us(std::uint64_t from, std::uint64_t to) {
    return (static_cast<double>(to) - static_cast<double>(from)) / 1000.0;
}

}  // namespace

std::map<std::string, double> cycle_ledger(const std::vector<Span>& spans, std::size_t partners,
                                           std::size_t& traces) {
    static const char* const kChain[] = {"client.dispatch", "server.lock",   "client.callbacks",
                                         "server.broadcast", "client.replay", "server.unlock"};
    std::unordered_map<std::uint64_t, std::vector<const Span*>> by_trace;
    for (const Span& s : spans) by_trace[s.trace].push_back(&s);

    std::map<std::string, std::vector<double>> self;
    std::map<std::string, std::vector<double>> gaps;
    traces = 0;
    for (const auto& [trace, members] : by_trace) {
        std::map<std::string, std::vector<const Span*>> named;
        std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
        for (const Span* s : members) {
            named[s->name].push_back(s);
            children[s->parent].push_back(s);
        }
        bool complete = named["client.replay"].size() == partners;
        for (const char* name : kChain) {
            if (std::strcmp(name, "client.replay") != 0) complete = complete && named[name].size() == 1;
        }
        if (!complete) continue;
        ++traces;
        for (const Span* s : members) self[s->name].push_back(self_us(*s, children[s->span]));

        const Span& dispatch = *named["client.dispatch"][0];
        const Span& lock = *named["server.lock"][0];
        const Span& callbacks = *named["client.callbacks"][0];
        const Span& broadcast = *named["server.broadcast"][0];
        const Span& unlock = *named["server.unlock"][0];
        std::uint64_t last_replay_start = 0;
        std::uint64_t last_replay_end = 0;
        for (const Span* r : named["client.replay"]) {
            last_replay_start = std::max(last_replay_start, r->start_ns);
            last_replay_end = std::max(last_replay_end, end_of(*r));
        }
        gaps["gap.dispatch_to_lock_us"].push_back(gap_us(end_of(dispatch), lock.start_ns));
        gaps["gap.lock_to_callbacks_us"].push_back(gap_us(end_of(lock), callbacks.start_ns));
        gaps["gap.callbacks_to_broadcast_us"].push_back(gap_us(end_of(callbacks), broadcast.start_ns));
        gaps["gap.broadcast_to_last_replay_us"].push_back(gap_us(end_of(broadcast), last_replay_start));
        gaps["gap.replay_to_unlock_us"].push_back(gap_us(last_replay_end, unlock.start_ns));
    }

    std::map<std::string, double> out;
    for (const char* name : kChain) out["span." + std::string{name} + ".self_p50_us"] = quantile(self[name], 0.5);
    for (const char* name : {"gap.dispatch_to_lock_us", "gap.lock_to_callbacks_us", "gap.callbacks_to_broadcast_us",
                             "gap.broadcast_to_last_replay_us", "gap.replay_to_unlock_us"}) {
        out[name] = quantile(gaps[name], 0.5);
    }
    return out;
}

bool write_trace(const std::string& path, const std::vector<Span>& program, const std::vector<BenchSpan>& bench) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (const Span& s : program) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                     "\"tid\":%" PRIu64 ",\"args\":{\"trace\":%" PRIu64 ",\"span\":%" PRIu64
                     ",\"parent\":%" PRIu64 ",\"arg\":%" PRIu64 "}}",
                     first ? "" : ",\n", s.name, s.category, static_cast<double>(s.start_ns) / 1000.0,
                     static_cast<double>(s.duration_ns) / 1000.0, s.tid % 1000000, s.trace, s.span, s.parent,
                     s.arg);
        first = false;
    }
    for (const BenchSpan& s : bench) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,"
                     "\"tid\":0,\"args\":{\"arg\":%" PRIu64 "}}",
                     first ? "" : ",\n", s.name, static_cast<double>(s.start_ns) / 1000.0,
                     static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.arg);
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

std::string Result::json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : metrics_) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(v.value) ? v.value : 0.0);
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" + v.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
