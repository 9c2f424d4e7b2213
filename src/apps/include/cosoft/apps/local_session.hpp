// LocalSession: a complete in-process COSOFT session — a SessionManager
// hosting the pinned default coupling session and any number of CoApp
// clients wired through a deterministic SimNetwork. The manager runs in
// inline-dispatch mode (no workers), so everything stays single-threaded and
// deterministic. Used by the examples, the test suite, and the benchmark
// harness; also convenient for embedding a whole multi-user session in a
// single process.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cosoft/client/co_app.hpp"
#include "cosoft/common/check.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/protocol/conformance.hpp"
#include "cosoft/server/session_manager.hpp"

namespace cosoft::apps {

class LocalSession {
  public:
    LocalSession() = default;
    explicit LocalSession(net::PipeConfig pipe) : pipe_(pipe) {}
    /// Full control over the manager (journal_dir, sync_late_joiners, ...).
    /// Keep workers at 0: the embedding stays inline and deterministic.
    explicit LocalSession(server::SessionManagerOptions options, net::PipeConfig pipe = {})
        : pipe_(pipe), manager_(std::move(options)) {}

    /// Enables/disables wire-protocol conformance checking for apps added
    /// afterwards. Defaults to on in COSOFT_CHECKED builds, where a protocol
    /// violation aborts at the offending frame.
    void set_conformance(bool on) noexcept { conformance_ = on; }

    /// Creates a client app, connects it, and completes registration into
    /// `session` ("" = the pinned default session).
    client::CoApp& add_app(const std::string& app_name, const std::string& user_name, UserId user,
                           const std::string& session = {}) {
        auto app = std::make_unique<client::CoApp>(app_name, user_name, user);
        auto [client_end, server_end] = network_.make_pipe(pipe_);
        manager_.attach(server_end);
        std::shared_ptr<net::Channel> link = client_end;
        std::shared_ptr<protocol::ConformanceChecker> checker;
        if (conformance_) {
            checker = std::make_shared<protocol::ConformanceChecker>(app_name);
            link = std::make_shared<protocol::CheckedChannel>(link, checker);
        }
        app->connect(link, session);
        network_.run_all();
        apps_.push_back(std::move(app));
        ends_.push_back({client_end, server_end});
        checkers_.push_back(std::move(checker));
        return *apps_.back();
    }

    /// Delivers every in-flight message (and everything triggered by them).
    void run() { network_.run_all(); }

    [[nodiscard]] net::SimNetwork& net() noexcept { return network_; }
    [[nodiscard]] server::SessionManager& manager() noexcept { return manager_; }
    /// The default coupling session every added app joins (pinned: it
    /// survives even when the last app leaves).
    [[nodiscard]] server::CoSession& server() noexcept { return server_; }
    [[nodiscard]] client::CoApp& app(std::size_t i) { return *apps_.at(i); }
    [[nodiscard]] std::size_t app_count() const noexcept { return apps_.size(); }

    /// Wire statistics of app i's client-side channel (frames/bytes).
    /// By value: Channel::stats() snapshots lock-free counters.
    [[nodiscard]] net::ChannelStats client_stats(std::size_t i) const {
        return ends_.at(i).client_end->stats();
    }

    /// App i's conformance checker, or nullptr when checking is off.
    [[nodiscard]] const protocol::ConformanceChecker* conformance(std::size_t i) const {
        return checkers_.at(i).get();
    }

    /// All protocol violations recorded across every checked connection.
    [[nodiscard]] std::vector<std::string> conformance_violations() const {
        std::vector<std::string> all;
        for (const auto& c : checkers_) {
            if (c) all.insert(all.end(), c->violations().begin(), c->violations().end());
        }
        return all;
    }

    /// Severs app i's connection from the client side (app crash); the
    /// server observes the peer close and cleans up.
    void disconnect(std::size_t i) {
        ends_.at(i).client_end->close();
        network_.run_all();
    }

    /// Severs app i's connection from the server side (server/network gone);
    /// the client observes the close and fails its pending requests.
    void server_vanishes(std::size_t i) {
        ends_.at(i).server_end->close();
        network_.run_all();
    }

  private:
    struct Pipe {
        std::shared_ptr<net::SimChannel> client_end;
        std::shared_ptr<net::SimChannel> server_end;
    };

    net::PipeConfig pipe_;
    bool conformance_ = checked_build();
    net::SimNetwork network_;
    server::SessionManager manager_;
    server::CoSession& server_ = manager_.default_session();
    std::vector<std::unique_ptr<client::CoApp>> apps_;
    std::vector<Pipe> ends_;
    std::vector<std::shared_ptr<protocol::ConformanceChecker>> checkers_;
};

}  // namespace cosoft::apps
