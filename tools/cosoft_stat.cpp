// cosoft-stat — introspection client for a running COSOFT server.
//
// Reads the server's HTTP monitor plane (cosoftd --http-port), which keeps
// answering while the dispatch pipeline is wedged — exactly when you want
// it. One scrape prints the build/health header, the session and connection
// tables (GET /status), one row per reactor shard parsed from GET /metrics,
// and the metrics registry itself.
//
// Usage: ./cosoft-stat [host] port [--raw] [--follow SECONDS]
//                      [--journal SESSION]
//   host      server host (default 127.0.0.1)
//   port      cosoftd's --http-port
//   --raw     print only the raw Prometheus text (for scraping pipelines)
//   --journal scrape GET /journal and print the named session's
//             durable-journal tail — seq, record type, origin, message,
//             bytes. SESSION "all" prints every journaled session;
//             "default"/"(default)" names the unnamed session.
//   --follow  re-scrape every SECONDS (fractional ok), ANSI-refresh the
//             screen until interrupted
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cosoft/net/http.hpp"

using namespace cosoft;

namespace {

/// One scrape of the monitor plane.
struct Scrape {
    bool ok = false;
    std::string error;
    std::string metrics_text;  ///< GET /metrics: Prometheus exposition
    std::string status_text;   ///< GET /status: session + connection tables
    bool has_health = false;   ///< /healthz answered
    int health_status = 0;
    std::string health_body;
};

/// One row of the reactor-shard table, scraped from the Prometheus text.
struct ShardRow {
    unsigned long long registered = 0;
    unsigned long long wakeups = 0;
    unsigned long long timeout_wakeups = 0;
    unsigned long long flush_syscalls = 0;
    unsigned long long frames_flushed = 0;
    unsigned long long bytes_flushed = 0;
};

/// Parse the cosoft_reactor_shard<i>_* gauges out of the metrics exposition.
/// Returns one row per shard (empty when the server runs without a reactor).
std::vector<ShardRow> parse_shard_rows(const std::string& metrics_text) {
    std::vector<ShardRow> rows;
    std::istringstream in{metrics_text};
    std::string line;
    const std::string prefix = "cosoft_reactor_shard";
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0) continue;
        char* end = nullptr;
        const unsigned long shard = std::strtoul(line.c_str() + prefix.size(), &end, 10);
        if (end == line.c_str() + prefix.size() || *end != '_') continue;
        const std::string rest{end + 1};
        const std::size_t space = rest.find(' ');
        if (space == std::string::npos) continue;
        const std::string field = rest.substr(0, space);
        const unsigned long long value = std::strtoull(rest.c_str() + space + 1, nullptr, 10);
        if (rows.size() <= shard) rows.resize(shard + 1);
        ShardRow& row = rows[shard];
        if (field == "registered") row.registered = value;
        else if (field == "wakeups_total") row.wakeups = value;
        else if (field == "timeout_wakeups_total") row.timeout_wakeups = value;
        else if (field == "flush_syscalls_total") row.flush_syscalls = value;
        else if (field == "frames_flushed_total") row.frames_flushed = value;
        else if (field == "bytes_flushed_total") row.bytes_flushed = value;
    }
    return rows;
}

/// Pull one label's value out of a `name{a="x",b="y"} 1` exposition line.
std::string label_of(const std::string& line, const std::string& label) {
    const std::string needle = label + "=\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return {};
    const std::size_t start = at + needle.size();
    const std::size_t close = line.find('"', start);
    if (close == std::string::npos) return {};
    return line.substr(start, close - start);
}

/// "version 1.0.0, release build, epoll backend, up 42s" from
/// cosoft_build_info / cosoft_uptime_seconds (empty when absent: old server).
std::string build_summary(const std::string& metrics_text) {
    std::istringstream in{metrics_text};
    std::string line;
    std::string version;
    std::string preset;
    std::string backend;
    double uptime = -1.0;
    while (std::getline(in, line)) {
        if (line.rfind("cosoft_build_info{", 0) == 0) {
            version = label_of(line, "version");
            preset = label_of(line, "preset");
            backend = label_of(line, "backend");
        } else if (line.rfind("cosoft_uptime_seconds ", 0) == 0) {
            uptime = std::strtod(line.c_str() + std::strlen("cosoft_uptime_seconds "), nullptr);
        }
    }
    if (version.empty() && uptime < 0) return {};
    std::string out = "version " + (version.empty() ? "?" : version);
    if (!preset.empty()) out += ", " + preset + " build";
    if (!backend.empty()) out += ", " + backend + " backend";
    if (uptime >= 0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, ", up %.0fs", uptime);
        out += buf;
    }
    return out;
}

Scrape fetch(const std::string& host, std::uint16_t port) {
    Scrape scrape;
    auto metrics = net::http_get(host, port, "/metrics");
    if (!metrics.is_ok()) {
        scrape.error = "GET /metrics from " + host + ":" + std::to_string(port) + " failed: " +
                       metrics.error().message;
        return scrape;
    }
    if (metrics.value().status != 200) {
        scrape.error = "GET /metrics returned HTTP " + std::to_string(metrics.value().status);
        return scrape;
    }
    scrape.ok = true;
    scrape.metrics_text = std::move(metrics.value().body);
    if (auto health = net::http_get(host, port, "/healthz"); health.is_ok()) {
        scrape.has_health = true;
        scrape.health_status = health.value().status;
        scrape.health_body = std::move(health.value().body);
    }
    if (auto status = net::http_get(host, port, "/status"); status.is_ok() && status.value().status == 200) {
        scrape.status_text = std::move(status.value().body);
    }
    return scrape;
}

void render(const Scrape& scrape, const std::string& host, std::uint16_t port, bool raw) {
    if (raw) {
        std::fputs(scrape.metrics_text.c_str(), stdout);
        return;
    }

    std::printf("== cosoft server %s:%u ==\n", host.c_str(), port);
    if (const std::string build = build_summary(scrape.metrics_text); !build.empty()) {
        std::printf("%s\n", build.c_str());
    }
    if (scrape.has_health) {
        if (scrape.health_status == 200) {
            std::printf("health: ok\n");
        } else {
            std::printf("health: HTTP %d\n", scrape.health_status);
            std::istringstream in{scrape.health_body};
            std::string line;
            while (std::getline(in, line)) {
                if (!line.empty()) std::printf("  %s\n", line.c_str());
            }
        }
    }
    std::printf("\n");

    if (!scrape.status_text.empty()) std::printf("%s\n", scrape.status_text.c_str());

    const std::vector<ShardRow> shards = parse_shard_rows(scrape.metrics_text);
    if (!shards.empty()) {
        std::printf("-- reactor shards (%zu) --\n", shards.size());
        std::printf("%-6s %10s %12s %14s %10s %12s %14s\n", "shard", "fds", "wakeups",
                    "timeout_wakes", "flushes", "frames", "bytes");
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const ShardRow& s = shards[i];
            std::printf("%-6zu %10llu %12llu %14llu %10llu %12llu %14llu\n", i, s.registered,
                        s.wakeups, s.timeout_wakeups, s.flush_syscalls, s.frames_flushed,
                        s.bytes_flushed);
        }
        std::printf("\n");
    }
    std::printf("-- metrics registry --\n%s", scrape.metrics_text.c_str());
}

/// --journal: scrape GET /journal and print the named session's section.
/// The monitor serves every journaled session in one plain-text body (its
/// HTTP plane strips query strings), so filtering happens here.
int run_journal(const std::string& host, std::uint16_t port, const std::string& session,
                double follow_seconds) {
    // The monitor prints the unnamed session as "(default)".
    const std::string wanted = (session == "default" || session.empty()) ? "(default)" : session;
    const bool all = wanted == "all";
    for (;;) {
        auto resp = net::http_get(host, port, "/journal");
        if (follow_seconds > 0) std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home
        if (!resp.is_ok() || resp.value().status != 200) {
            const std::string why = resp.is_ok() ? "HTTP " + std::to_string(resp.value().status)
                                                 : resp.error().message;
            std::fprintf(stderr, "cosoft-stat: GET /journal from %s:%u failed: %s\n", host.c_str(),
                         port, why.c_str());
            if (follow_seconds <= 0) return 1;
        } else {
            // Sections are delimited by "-- journal: NAME (N recent) --"
            // headers; print the matching one(s).
            std::istringstream in{resp.value().body};
            std::string line;
            bool in_wanted = false;
            bool printed = false;
            const std::string header = "-- journal: ";
            while (std::getline(in, line)) {
                if (line.rfind(header, 0) == 0) {
                    const std::size_t open = line.find(" (", header.size());
                    const std::string name = line.substr(
                        header.size(),
                        (open == std::string::npos ? line.size() : open) - header.size());
                    in_wanted = all || name == wanted;
                }
                if (in_wanted) {
                    std::printf("%s\n", line.c_str());
                    printed = true;
                }
            }
            if (!printed) {
                std::printf("no journal for session '%s' at %s:%u\n", wanted.c_str(), host.c_str(),
                            port);
            }
        }
        std::fflush(stdout);
        if (follow_seconds <= 0) return 0;
        std::this_thread::sleep_for(std::chrono::duration<double>(follow_seconds));
    }
}

int run(const std::string& host, std::uint16_t port, bool raw, double follow_seconds) {
    for (;;) {
        const Scrape scrape = fetch(host, port);
        if (follow_seconds > 0 && !raw) std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home
        if (!scrape.ok) {
            std::fprintf(stderr, "cosoft-stat: %s\n", scrape.error.c_str());
            if (follow_seconds <= 0) return 1;
        } else {
            render(scrape, host, port, raw);
        }
        std::fflush(stdout);
        if (follow_seconds <= 0) return scrape.ok ? 0 : 1;
        std::this_thread::sleep_for(std::chrono::duration<double>(follow_seconds));
    }
}

}  // namespace

int usage(FILE* out) {
    std::fprintf(out,
                 "usage: cosoft-stat [host] port [--raw] [--follow SECONDS] [--journal SESSION]\n"
                 "  port is cosoftd's --http-port; host defaults to 127.0.0.1.\n"
                 "  --journal SESSION prints a durable-journal tail ('all' = every session).\n");
    return out == stdout ? 0 : 2;
}

int main(int argc, char** argv) {
    std::vector<std::string> positional;
    bool raw = false;
    bool journal = false;
    std::string journal_session;
    double follow_seconds = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--raw") == 0) {
            raw = true;
        } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
            journal = true;
            journal_session = argv[++i];
        } else if (std::strcmp(argv[i], "--follow") == 0 && i + 1 < argc) {
            follow_seconds = std::strtod(argv[++i], nullptr);
            if (follow_seconds <= 0) follow_seconds = 1.0;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            return usage(stdout);
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "cosoft-stat: unknown option '%s'\n", argv[i]);
            return usage(stderr);
        } else {
            positional.emplace_back(argv[i]);
        }
    }
    if (positional.empty() || positional.size() > 2) return usage(stderr);
    const std::string host = positional.size() == 2 ? positional[0] : "127.0.0.1";
    const auto port = static_cast<std::uint16_t>(std::strtoul(positional.back().c_str(), nullptr, 10));
    if (journal) return run_journal(host, port, journal_session, follow_seconds);
    return run(host, port, raw, follow_seconds);
}
