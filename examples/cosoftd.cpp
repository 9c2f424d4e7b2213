// cosoftd — a standalone COSOFT server daemon over TCP.
//
// Runs the session-sharded central controller on a port: a SessionManager
// hosting any number of named coupling sessions, created on demand as
// clients register into them. This mirrors (and extends) the deployment of
// the original system: one coordinator process, applications on
// workstations around it — now serving many independent sessions at once.
//
// Threading: one private transport reactor owns every connection's socket
// I/O, a small worker pool dispatches session traffic (serial per session,
// concurrent across sessions), and the main thread only accepts. Thread
// count is O(workers + 1), independent of connections and sessions.
//
// Usage: ./cosoftd [port] [--workers N] [--reactors N] [--max-seconds N]
//                  [--http-port P] [--stall-ms N] [--incident-dir DIR]
//                  [--journal-dir DIR] [--journal-fsync POLICY]
//   port           listening port (default 7494; 0 = ephemeral, printed)
//   --workers      dispatch worker threads (default 4)
//   --reactors     transport reactor shards (default 1); sockets hash across
//                  shards by fd, each shard runs its own poller thread
//   --max-seconds  optional self-termination for scripted runs
//   --http-port    serve GET /metrics, /healthz, /status, /journal,
//                  /incident on 127.0.0.1:P (0 = ephemeral, printed; omit
//                  for no HTTP). cosoft-stat reads this port.
//   --stall-ms     watchdog stall deadline in ms (default 2000)
//   --incident-dir directory for flight-recorder incident files (default .)
//   --journal-dir  durable session journals live here; on boot every *.cosj
//                  found is replayed and its session resumes where it left
//                  off. Also enables the late-joiner catch-up stream.
//   --journal-fsync  never | batch | always (default batch: one fsync per
//                  dispatch batch)
//
// The stall watchdog and flight recorder are always on: a wedged strand or
// shard trips an incident dump whether or not the HTTP plane is up, and
// SIGUSR1 requests one on demand.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cosoft/net/reactor.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/server/monitor.hpp"
#include "cosoft/server/session_manager.hpp"

using namespace cosoft;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
    std::uint16_t port = 7494;
    long max_seconds = -1;
    std::size_t workers = 4;
    std::size_t reactors = 1;
    long http_port = -1;  // -1 = no HTTP plane
    int stall_ms = 2000;
    std::string incident_dir;
    std::string journal_dir;
    server::FsyncPolicy journal_fsync = server::FsyncPolicy::kBatch;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--max-seconds") == 0 && i + 1 < argc) {
            max_seconds = std::strtol(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
            workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--reactors") == 0 && i + 1 < argc) {
            reactors = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--http-port") == 0 && i + 1 < argc) {
            http_port = std::strtol(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--stall-ms") == 0 && i + 1 < argc) {
            stall_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--incident-dir") == 0 && i + 1 < argc) {
            incident_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--journal-dir") == 0 && i + 1 < argc) {
            journal_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--journal-fsync") == 0 && i + 1 < argc) {
            const char* policy = argv[++i];
            if (std::strcmp(policy, "never") == 0) {
                journal_fsync = server::FsyncPolicy::kNever;
            } else if (std::strcmp(policy, "always") == 0) {
                journal_fsync = server::FsyncPolicy::kAlways;
            } else {
                journal_fsync = server::FsyncPolicy::kBatch;
            }
        } else {
            port = static_cast<std::uint16_t>(std::strtoul(argv[i], nullptr, 10));
        }
    }
    if (workers == 0) workers = 1;  // inline mode needs a pump; always pool here
    if (reactors == 0) reactors = 1;

    // A private reactor keeps the registered-fd invariant exact: every fd it
    // owns is one of this server's connections.
    auto reactor = net::Reactor::create(reactors);
    net::ListenOptions listen_options;
    listen_options.reactor = reactor;
    auto listener = net::TcpListener::create(port, listen_options);
    if (!listener.is_ok()) {
        std::fprintf(stderr, "cosoftd: cannot listen on port %u: %s\n", port,
                     listener.error().message.c_str());
        return 1;
    }
    std::printf("cosoftd: listening on 127.0.0.1:%u (%zu workers + %zu reactor shards, %s backend)\n",
                listener.value()->port(), workers, reactor->shard_count(),
                reactor->backend_name());
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    server::SessionManagerOptions options;
    options.workers = workers;
    options.reactor = reactor;
    options.journal_dir = journal_dir;
    options.journal_fsync = journal_fsync;
    options.sync_late_joiners = !journal_dir.empty();
    server::SessionManager manager(options);
    if (!journal_dir.empty()) {
        std::printf("cosoftd: journaling sessions under %s (%zu recovered)\n", journal_dir.c_str(),
                    manager.session_count());
        std::fflush(stdout);
    }

    // Crash capture first (CO_CHECK / fatal signals / SIGUSR1 dump the
    // flight recorder), then the monitor plane: watchdog over every strand
    // and shard, HTTP exposition when requested.
    obs::FlightRecorder::instance().install_crash_hooks();
    server::MonitorOptions monitor_options;
    monitor_options.enable_http = http_port >= 0;
    monitor_options.http_port = static_cast<std::uint16_t>(http_port < 0 ? 0 : http_port);
    monitor_options.watchdog.stall_deadline_ms = stall_ms;
    monitor_options.incident_dir = incident_dir;
    server::Monitor monitor(manager, monitor_options);
    if (http_port >= 0) {
        if (monitor.http_port() != 0) {
            std::printf("cosoftd: monitor http on 127.0.0.1:%u "
                        "(/metrics /healthz /status /journal /incident)\n",
                        monitor.http_port());
        } else {
            std::fprintf(stderr, "cosoftd: http plane failed to bind: %s\n",
                         monitor.http_error().c_str());
        }
        std::fflush(stdout);
    }

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t last_reported_frames = 0;

    while (!g_stop.load()) {
        // The accept loop is all this thread does: frames dispatch on the
        // worker pool, socket I/O on the reactor.
        auto accepted = listener.value()->accept(/*timeout_ms=*/200);
        if (accepted.is_ok()) {
            const InstanceId id = manager.attach(accepted.value());
            std::printf("cosoftd: connection accepted, pre-assigned instance %u\n", id);
            std::fflush(stdout);
        }

        const std::uint64_t routed =
            manager.registry().counter("cosoft_server_sessions_frames_routed_total").value();
        if (routed >= last_reported_frames + 1000) {
            last_reported_frames = routed;
            std::printf("cosoftd: %llu frames routed, %zu connections, %zu sessions\n",
                        static_cast<unsigned long long>(routed), manager.connection_count(),
                        manager.session_count());
            std::fflush(stdout);
        }
        if (max_seconds >= 0 &&
            std::chrono::steady_clock::now() - start > std::chrono::seconds(max_seconds)) {
            break;
        }
    }

    std::printf("cosoftd: shutting down — %llu frames routed across %llu sessions created\n",
                static_cast<unsigned long long>(
                    manager.registry().counter("cosoft_server_sessions_frames_routed_total").value()),
                static_cast<unsigned long long>(
                    manager.registry().counter("cosoft_server_sessions_created_total").value()));
    return 0;
}
