// Shared test fixtures: tests drive a LocalSession (server + N clients over a
// deterministic SimNetwork) with virtual time via run(), or a TcpRig (a
// SessionManager behind a loopback listener) with pump_until().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cosoft/apps/local_session.hpp"
#include "cosoft/net/channel.hpp"
#include "cosoft/net/reactor.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/server/session_manager.hpp"

namespace cosoft::testing {

using Session = apps::LocalSession;

/// Runs a callback when the scope unwinds, including through a failing
/// ASSERT_*. Tests that wedge a worker or spawn a thread release it here, so
/// a failure cannot leave a destructor joining a thread forever.
class ScopeExit {
  public:
    explicit ScopeExit(std::function<void()> fn) : fn_(std::move(fn)) {}
    ~ScopeExit() { fn_(); }
    ScopeExit(const ScopeExit&) = delete;
    ScopeExit& operator=(const ScopeExit&) = delete;

  private:
    std::function<void()> fn_;
};

/// Polls client channels until `pred` holds or `timeout_ms` passes; returns
/// whether it held. Server channels need no polling: a SessionManager runs
/// them in reactor delivery.
template <typename Pred>
bool pump_until(const std::vector<std::shared_ptr<net::TcpChannel>>& channels, Pred pred,
                int timeout_ms = 3000) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        for (const auto& ch : channels) ch->poll();
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
}

/// The TCP server shape cosoftd runs, in one process: a private reactor, a
/// SessionManager that owns it and dispatches on `workers` threads, and a
/// loopback listener whose accepted channels register on that reactor.
struct TcpRig {
    std::shared_ptr<net::Reactor> reactor = net::Reactor::create();
    server::SessionManager manager;
    std::unique_ptr<net::TcpListener> listener;

    explicit TcpRig(std::size_t workers = 2, int backlog = 16)
        : manager([&] {
              server::SessionManagerOptions options;
              options.workers = workers;
              options.reactor = reactor;
              return options;
          }()) {
        net::ListenOptions options;
        options.backlog = backlog;
        options.reactor = reactor;
        if (auto created = net::TcpListener::create(0, options); created.is_ok()) {
            listener = std::move(created.value());
        }
    }

    /// Opens a client connection and attaches its accepted server end to the
    /// manager. Returns the client end, or nullptr when either step fails.
    std::shared_ptr<net::TcpChannel> connect() {
        if (listener == nullptr) return nullptr;
        auto client = net::tcp_connect("127.0.0.1", listener->port());
        if (!client.is_ok()) return nullptr;
        auto served = listener->accept(2000);
        if (!served.is_ok()) return nullptr;
        manager.attach(served.value());
        return client.value();
    }

    /// The default session's status row (all zero until it exists). Rows are
    /// refreshed after every strand batch, so polling one never races the
    /// dispatch workers.
    [[nodiscard]] server::SessionRow default_row() const {
        const server::ServerStatus status = manager.status();
        for (const server::SessionRow& row : status.sessions) {
            if (row.name.empty()) return row;
        }
        return {};
    }
};

/// Lowercase hex of `bytes`: how golden tests pin encoded images.
inline std::string hex(std::span<const std::uint8_t> bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 0xf];
    }
    return out;
}

/// Server end of a sim pipe whose liveness the test can cut without running
/// the departure path: what a killed server's connections look like.
class SeverableChannel final : public net::Channel {
  public:
    explicit SeverableChannel(std::shared_ptr<net::Channel> inner) : inner_(std::move(inner)) {}
    Status send(protocol::Frame frame) override { return inner_->send(std::move(frame)); }
    void on_receive(ReceiveHandler handler) override { inner_->on_receive(std::move(handler)); }
    void on_close(CloseHandler handler) override { inner_->on_close(std::move(handler)); }
    [[nodiscard]] bool connected() const override { return live_ && inner_->connected(); }
    void close() override { inner_->close(); }
    void sever() { live_ = false; }

  private:
    std::shared_ptr<net::Channel> inner_;
    bool live_ = true;
};

}  // namespace cosoft::testing
