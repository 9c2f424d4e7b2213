// Minimal HTTP/1.1 exposition plane on the Poller seam.
//
// One dedicated thread, one private Poller instance, GET-only, one response
// per connection (Connection: close). This is deliberately NOT routed
// through the transport reactor: the monitor plane must keep answering
// /metrics and /healthz while the dispatch pipeline — the thing it monitors
// — is wedged, so it shares nothing with the frame path but the Poller
// abstraction itself. Scrapers (Prometheus, check.sh, cosoft-stat) are
// few and short-lived; throughput is a non-goal, independence is the
// goal.
//
// Request handling: read until the header terminator, parse the request
// line, call the handler, stream the response, close. Bodies on requests
// are rejected (405/400), oversized or malformed headers get 431/400, and
// connections idle longer than 30s are swept.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cosoft/common/error.hpp"
#include "cosoft/net/poller.hpp"

namespace cosoft::net {

class HttpServer {
  public:
    struct Request {
        std::string method;  ///< "GET"
        std::string path;    ///< path only, query string stripped
    };
    struct Response {
        int status = 200;
        std::string content_type = "text/plain; charset=utf-8";
        std::string body;
    };
    /// Called on the server's own thread for every parsed request. Must not
    /// block on the dispatch pipeline (the monitor endpoints read only
    /// registries and watchdog state, both lock-free or tiny-critical-
    /// section reads).
    using Handler = std::function<Response(const Request&)>;

    /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
    /// serving thread. `backend` picks the Poller; the default poll(2) is
    /// right for a handful of monitor connections.
    [[nodiscard]] static Result<std::unique_ptr<HttpServer>> create(
        std::uint16_t port, Handler handler, PollerBackend backend = PollerBackend::kPoll);

    ~HttpServer();
    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] std::uint64_t requests_served() const noexcept;
    [[nodiscard]] const char* backend_name() const noexcept;

  private:
    HttpServer() = default;
    void loop();

    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::uint16_t port_ = 0;
};

/// Blocking one-shot HTTP GET client (cosoft-stat, tests, check.sh's
/// fallback scraper). Connects, sends `GET path HTTP/1.1`, reads to EOF.
struct HttpResponse {
    int status = 0;
    std::string body;
};
[[nodiscard]] Result<HttpResponse> http_get(const std::string& host, std::uint16_t port,
                                            const std::string& path, int timeout_ms = 2000);

}  // namespace cosoft::net
