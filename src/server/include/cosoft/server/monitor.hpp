// Monitor: one object that arms the whole self-observation plane.
//
// Construction wires, in order:
//  1. the flight recorder's incident directory and context provider (the
//     manager's full Prometheus exposition plus the watchdog verdict ride
//     along in every incident file),
//  2. a stall watchdog over the manager's strands and — when the manager
//     owns its reactor — the reactor's shards,
//  3. an HTTP/1.1 exposition server (optional) with the monitor endpoints:
//
//       GET /metrics   Prometheus text (always serves, even mid-stall)
//       GET /healthz   200 "ok" | 503 + watchdog complaints
//       GET /incident  dump-and-fetch: triggers a flight-recorder dump and
//                      returns the JSONL incident file
//       GET /status    session and connection tables (plain text)
//       GET /journal   durable session-journal tails (plain text)
//       GET /          endpoint index
//
// Lifetime: the Monitor must outlive no one — the manager and (shared)
// watchdog survive it. The manager and reactor each hold a shared_ptr to
// the watchdog, so retiring the Monitor stops the scan thread and the HTTP
// plane but never dangles a progress source under a running dispatch batch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cosoft/net/http.hpp"
#include "cosoft/obs/watchdog.hpp"
#include "cosoft/server/session_manager.hpp"

namespace cosoft::server {

struct MonitorOptions {
    /// HTTP exposition port (127.0.0.1; 0 = ephemeral, see Monitor::http_port).
    std::uint16_t http_port = 0;
    /// Serve the HTTP plane at all. Off for embedders that only want the
    /// watchdog + recorder wiring.
    bool enable_http = true;
    /// Start the watchdog scan thread (tests drive check_now() instead).
    bool start_watchdog = true;
    /// Watchdog thresholds (scan interval, stall deadline, queue-age ceiling).
    obs::Watchdog::Options watchdog;
    /// Flight-recorder incident directory ("" = leave the recorder's current
    /// setting untouched).
    std::string incident_dir;
};

class Monitor {
  public:
    /// Wires the plane into `manager` (and its reactor, when it owns one).
    /// The manager must outlive the Monitor. Call before traffic flows:
    /// attaching a watchdog mid-dispatch is not supported (see
    /// SessionManager::set_watchdog).
    Monitor(SessionManager& manager, MonitorOptions options);
    ~Monitor();
    Monitor(const Monitor&) = delete;
    Monitor& operator=(const Monitor&) = delete;

    [[nodiscard]] obs::Watchdog& watchdog() noexcept { return *watchdog_; }
    [[nodiscard]] std::shared_ptr<obs::Watchdog> watchdog_ptr() const noexcept {
        return watchdog_;
    }

    /// Bound HTTP port (resolved when options.http_port was 0); 0 when the
    /// HTTP plane is disabled or failed to bind.
    [[nodiscard]] std::uint16_t http_port() const noexcept {
        return http_ ? http_->port() : 0;
    }
    /// Bind failure detail ("" when the plane is up or was not requested).
    [[nodiscard]] const std::string& http_error() const noexcept { return http_error_; }

    /// The endpoint router (public so tests can exercise routing without a
    /// socket).
    [[nodiscard]] net::HttpServer::Response handle(const net::HttpServer::Request& request);

  private:
    SessionManager& manager_;
    std::shared_ptr<obs::Watchdog> watchdog_;
    std::unique_ptr<net::HttpServer> http_;
    std::string http_error_;
};

}  // namespace cosoft::server
