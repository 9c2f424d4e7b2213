// Session sharding: one server process hosting many independent coupling
// sessions behind a SessionManager. Covers isolation (locks, couples, group
// updates, registry replies never cross sessions — over SimNetwork and over
// real TCP), the session lifecycle (created on first join, collected when
// the last member leaves, fresh on rejoin), the pinned default session, the
// lobby's global status report, and the O(workers + reactor) thread shape at
// 64 concurrent sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cosoft/apps/local_session.hpp"
#include "cosoft/client/co_app.hpp"
#include "cosoft/net/http.hpp"
#include "cosoft/net/reactor.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/protocol/conformance.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/monitor.hpp"
#include "cosoft/server/session_manager.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using server::SessionManager;
using testing::pump_until;
using testing::TcpRig;
using toolkit::EventType;
using toolkit::WidgetClass;

// --- SimNetwork harness ----------------------------------------------------

/// Inline-dispatch manager over SimNetwork pipes: deterministic, no threads.
struct SimHarness {
    net::SimNetwork net;
    SessionManager mgr;
    std::vector<std::unique_ptr<CoApp>> apps;
    std::vector<std::shared_ptr<net::SimChannel>> client_ends;
    std::vector<std::shared_ptr<protocol::ConformanceChecker>> checkers;

    CoApp& join(const std::string& session, const std::string& user, UserId uid) {
        auto [client_end, server_end] = net.make_pipe();
        mgr.attach(server_end);
        auto checker = std::make_shared<protocol::ConformanceChecker>(user);
        auto app = std::make_unique<CoApp>("editor", user, uid);
        app->connect(std::make_shared<protocol::CheckedChannel>(client_end, checker), session);
        net.run_all();
        apps.push_back(std::move(app));
        client_ends.push_back(std::move(client_end));
        checkers.push_back(std::move(checker));
        return *apps.back();
    }

    void leave(std::size_t i) {
        client_ends.at(i)->close();
        net.run_all();
    }

    [[nodiscard]] std::vector<std::string> conformance_violations() const {
        std::vector<std::string> all;
        for (const auto& c : checkers) {
            all.insert(all.end(), c->violations().begin(), c->violations().end());
        }
        return all;
    }
};

TEST(SessionIsolation, LocksCouplesAndUpdatesStayInsideTheirSession) {
    SimHarness h;
    CoApp& red1 = h.join("red", "r1", 1);
    CoApp& red2 = h.join("red", "r2", 2);
    CoApp& blue1 = h.join("blue", "b1", 3);
    CoApp& blue2 = h.join("blue", "b2", 4);
    ASSERT_TRUE(red1.online() && red2.online() && blue1.online() && blue2.online());
    ASSERT_EQ(h.mgr.session_count(), 2u);

    // Identically-named widgets in both sessions; couple only the red pair.
    for (CoApp* a : {&red1, &red2, &blue1, &blue2}) {
        ASSERT_TRUE(a->ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    }
    bool coupled = false;
    red1.couple("f", red2.ref("f"), [&](const Status& st) { coupled = st.is_ok(); });
    h.net.run_all();
    ASSERT_TRUE(coupled);
    EXPECT_TRUE(red2.is_coupled("f"));
    EXPECT_FALSE(blue1.is_coupled("f"));
    EXPECT_FALSE(blue2.is_coupled("f"));

    server::CoSession* red = h.mgr.find_session("red");
    server::CoSession* blue = h.mgr.find_session("blue");
    ASSERT_NE(red, nullptr);
    ASSERT_NE(blue, nullptr);
    EXPECT_EQ(red->couples().link_count(), 1u);
    EXPECT_EQ(blue->couples().link_count(), 0u);

    // An emit in red re-executes only on red members; blue's locks stay idle.
    red1.emit("f", red1.ui().find("f")->make_event(EventType::kValueChanged, std::string{"red only"}));
    h.net.run_all();
    EXPECT_EQ(red2.ui().find("f")->text("value"), "red only");
    EXPECT_EQ(blue1.ui().find("f")->text("value"), "");
    EXPECT_EQ(blue2.ui().find("f")->text("value"), "");
    EXPECT_EQ(blue->stats().events_broadcast, 0u);
    EXPECT_EQ(blue->locks().locked_count(), 0u);

    // Registry replies are session-scoped: red members never see blue's.
    std::vector<protocol::RegistrationRecord> seen;
    red1.query_registry([&](const std::vector<protocol::RegistrationRecord>& records) { seen = records; });
    h.net.run_all();
    ASSERT_EQ(seen.size(), 2u);
    for (const auto& rec : seen) {
        EXPECT_TRUE(rec.user_name == "r1" || rec.user_name == "r2") << rec.user_name;
    }

    EXPECT_TRUE(h.conformance_violations().empty());
    EXPECT_TRUE(h.mgr.check_invariants().empty());
    for (const auto& s : {red, blue}) EXPECT_TRUE(s->check_invariants().empty());
}

TEST(SessionLifecycle, CreatedOnFirstJoinCollectedOnLastLeaveFreshOnRejoin) {
    SimHarness h;
    EXPECT_EQ(h.mgr.session_count(), 0u);

    CoApp& a = h.join("workshop", "ann", 1);
    EXPECT_EQ(h.mgr.session_count(), 1u);
    h.join("workshop", "ben", 2);
    EXPECT_EQ(h.mgr.session_count(), 1u);
    EXPECT_EQ(h.mgr.registry().counter("cosoft_server_sessions_created_total").value(), 1u);

    // Leave some durable state behind so a rejoin can prove freshness.
    ASSERT_TRUE(a.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"x"}));
    h.net.run_all();
    ASSERT_GT(h.mgr.find_session("workshop")->stats().messages_received, 0u);

    // First leave: session survives with one member.
    h.leave(0);
    EXPECT_EQ(h.mgr.session_count(), 1u);
    ASSERT_NE(h.mgr.find_session("workshop"), nullptr);
    EXPECT_EQ(h.mgr.find_session("workshop")->connection_count(), 1u);

    // Last leave: session is collected.
    h.leave(1);
    EXPECT_EQ(h.mgr.session_count(), 0u);
    EXPECT_EQ(h.mgr.find_session("workshop"), nullptr);
    EXPECT_EQ(h.mgr.registry().counter("cosoft_server_sessions_destroyed_total").value(), 1u);
    EXPECT_EQ(h.mgr.registry().gauge("cosoft_server_sessions_active").value(), 0u);
    EXPECT_EQ(h.mgr.connection_count(), 0u);

    // Rejoining the same name creates a fresh session, not a resurrection.
    h.join("workshop", "cay", 3);
    ASSERT_NE(h.mgr.find_session("workshop"), nullptr);
    EXPECT_EQ(h.mgr.find_session("workshop")->stats().messages_received, 1u);  // just the Register
    EXPECT_EQ(h.mgr.registry().counter("cosoft_server_sessions_created_total").value(), 2u);
    EXPECT_TRUE(h.mgr.check_invariants().empty());
}

TEST(SessionLifecycle, PinnedDefaultSessionSurvivesLastLeave) {
    SimHarness h;
    server::CoSession& pinned = h.mgr.default_session();
    EXPECT_EQ(h.mgr.session_count(), 1u);

    h.join("", "solo", 1);
    EXPECT_EQ(pinned.connection_count(), 1u);
    h.leave(0);
    EXPECT_EQ(pinned.connection_count(), 0u);
    EXPECT_EQ(h.mgr.session_count(), 1u);  // pinned: not collected
    EXPECT_EQ(h.mgr.find_session(""), &pinned);
}

TEST(SessionLifecycle, LocalSessionKeepsItsServerAcrossFullTurnover) {
    apps::LocalSession local;
    server::CoSession& server = local.server();
    local.add_app("editor", "ann", 1);
    local.disconnect(0);
    EXPECT_EQ(server.connection_count(), 0u);
    // The default session is pinned: adding a new app reuses the same core.
    CoApp& again = local.add_app("editor", "ben", 2);
    EXPECT_TRUE(again.online());
    EXPECT_EQ(&local.server(), &server);
    EXPECT_EQ(server.connection_count(), 1u);
}

TEST(SessionLobby, StatusListsSessionsAndUnregisteredConnections) {
    SimHarness h;
    h.join("red", "r1", 1);
    h.join("blue", "b1", 2);

    // A raw channel that never registers stays in the lobby.
    auto [client_end, server_end] = h.net.make_pipe();
    h.mgr.attach(server_end);
    h.net.run_all();

    const server::ServerStatus status = h.mgr.status();
    ASSERT_EQ(status.sessions.size(), 2u);  // sorted: "blue", "red"
    EXPECT_EQ(status.sessions[0].name, "blue");
    EXPECT_EQ(status.sessions[1].name, "red");
    EXPECT_EQ(status.sessions[0].connections, 1u);
    EXPECT_EQ(status.sessions[1].registered, 1u);
    ASSERT_EQ(status.connections.size(), 3u);  // two members + the lobby connection
    EXPECT_EQ(status.connections[0].session, "red");
    EXPECT_EQ(status.connections[0].user_name, "r1");
    EXPECT_TRUE(status.connections[0].registered);
    EXPECT_EQ(status.connections[1].session, "blue");
    EXPECT_FALSE(status.connections[2].registered);
    EXPECT_EQ(status.connections[2].session, "");
    EXPECT_NE(h.mgr.metrics_exposition().find("cosoft_server_sessions_active 2"), std::string::npos);
}

// --- real TCP --------------------------------------------------------------

TEST(SessionTcp, IsolationHoldsAcrossSessionsOverSockets) {
    TcpRig rig{/*workers=*/2};
    ASSERT_NE(rig.listener, nullptr);
    SessionManager& mgr = rig.manager;

    std::vector<std::shared_ptr<net::TcpChannel>> pump;
    auto connect = [&](CoApp& app, const std::string& session) {
        pump.push_back(rig.connect());
        ASSERT_NE(pump.back(), nullptr);
        app.connect(pump.back(), session);
    };

    CoApp r1{"editor", "r1", 1};
    CoApp r2{"editor", "r2", 2};
    CoApp b1{"editor", "b1", 3};
    CoApp b2{"editor", "b2", 4};
    connect(r1, "red");
    connect(r2, "red");
    connect(b1, "blue");
    connect(b2, "blue");
    ASSERT_TRUE(pump_until(pump, [&] { return r1.online() && r2.online() && b1.online() && b2.online(); }, 5000));

    for (CoApp* a : {&r1, &r2, &b1, &b2}) {
        ASSERT_TRUE(a->ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    }
    bool red_coupled = false;
    bool blue_coupled = false;
    r1.couple("f", r2.ref("f"), [&](const Status& st) { red_coupled = st.is_ok(); });
    b1.couple("f", b2.ref("f"), [&](const Status& st) { blue_coupled = st.is_ok(); });
    ASSERT_TRUE(pump_until(pump, [&] { return red_coupled && blue_coupled; }, 5000));

    r1.emit("f", r1.ui().find("f")->make_event(EventType::kValueChanged, std::string{"red"}));
    b1.emit("f", b1.ui().find("f")->make_event(EventType::kValueChanged, std::string{"blue"}));
    ASSERT_TRUE(pump_until(pump, [&] {
        return r2.ui().find("f")->text("value") == "red" && b2.ui().find("f")->text("value") == "blue";
    }, 5000));
    EXPECT_EQ(r1.ui().find("f")->text("value"), "red");
    EXPECT_EQ(b1.ui().find("f")->text("value"), "blue");

    mgr.quiesce();
    EXPECT_EQ(mgr.session_count(), 2u);
    EXPECT_EQ(mgr.connection_count(), 4u);
    // Quiescent: the private reactor owns exactly one fd per connection.
    EXPECT_TRUE(mgr.check_invariants().empty());
}

TEST(SessionTcp, StatusQueriesRaceConnectionDepartures) {
    TcpRig rig{/*workers=*/4};
    ASSERT_NE(rig.listener, nullptr);
    SessionManager& mgr = rig.manager;

    // A scraper hammers GET /status, which walks conns_ under the manager
    // mutex; three more readers call status() directly, many times faster
    // than an HTTP round trip, so one is nearly always waiting on the mutex
    // when depart() drops it. Meanwhile peers churn in and out of a session
    // on other workers; depart() parks a departing connection's channel in
    // the graveyard (nulling conn.channel) and drops the mutex while the
    // conn is still in conns_. Regression: the walk used to dereference that
    // nulled channel and crash.
    server::MonitorOptions monitor_options;
    monitor_options.start_watchdog = false;
    server::Monitor monitor(mgr, monitor_options);
    ASSERT_NE(monitor.http_port(), 0) << monitor.http_error();

    std::atomic<int> replies{0};
    {
        std::atomic<bool> churn_done{false};
        std::vector<std::thread> readers;
        // Declared before the threads start, so they are stopped and joined
        // on every exit from this block, a failing ASSERT included.
        const testing::ScopeExit stop_readers([&] {
            churn_done.store(true);
            for (std::thread& t : readers) t.join();
        });
        readers.emplace_back([&] {
            do {
                auto resp = net::http_get("127.0.0.1", monitor.http_port(), "/status");
                if (resp.is_ok() && resp.value().status == 200 &&
                    resp.value().body.rfind("-- sessions (", 0) == 0) {
                    replies.fetch_add(1);
                }
            } while (!churn_done.load());
        });
        for (int r = 0; r < 3; ++r) {
            readers.emplace_back([&] {
                while (!churn_done.load()) {
                    (void)mgr.status();
                    std::this_thread::sleep_for(std::chrono::microseconds(20));
                }
            });
        }

        for (int i = 0; i < 200; ++i) {
            const std::shared_ptr<net::TcpChannel> c = rig.connect();
            ASSERT_NE(c, nullptr);
            protocol::Register reg;
            reg.user = static_cast<UserId>(i + 1);
            reg.user_name = "churn" + std::to_string(i);
            reg.app_name = "editor";
            reg.session = "churn";
            (void)c->send(protocol::encode_message(protocol::Message{reg}));
            // Dropping the client closes it: the server adopts the Register
            // and immediately departs, overlapping session detach with the
            // status reads.
        }
    }

    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (mgr.connection_count() != 0 && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(replies.load(), 0);
    mgr.quiesce();
    EXPECT_EQ(mgr.connection_count(), 0u);
    EXPECT_TRUE(mgr.check_invariants().empty());
}

/// Threads of this process, from /proc/self/status (Linux).
int process_thread_count() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return -1;
    char line[256];
    int threads = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
    }
    std::fclose(f);
    return threads;
}

TEST(SessionTcp, SixtyFourSessionsAtConstantThreadCount) {
    TcpRig rig{/*workers=*/4, /*backlog=*/128};
    ASSERT_NE(rig.listener, nullptr);
    SessionManager& mgr = rig.manager;

    // Client-side channels in this process land on the global reactor; spin
    // it up before the baseline so it doesn't count against the sessions.
    (void)net::Reactor::shared();
    const int baseline_threads = process_thread_count();
    ASSERT_GT(baseline_threads, 0);

    constexpr int kSessions = 64;
    std::vector<std::unique_ptr<CoApp>> apps;
    std::vector<std::shared_ptr<net::TcpChannel>> pump;
    for (int i = 0; i < kSessions; ++i) {
        pump.push_back(rig.connect());
        ASSERT_NE(pump.back(), nullptr);
        auto app = std::make_unique<CoApp>("editor", "user" + std::to_string(i),
                                           static_cast<UserId>(i + 1));
        app->connect(pump.back(), "room" + std::to_string(i));
        apps.push_back(std::move(app));
    }
    ASSERT_TRUE(pump_until(pump, [&] {
        for (const auto& a : apps) {
            if (!a->online()) return false;
        }
        return true;
    }, 5000));
    EXPECT_EQ(mgr.session_count(), static_cast<std::size_t>(kSessions));

    // Every session does real work: one widget edit each, all concurrent.
    for (auto& app : apps) {
        ASSERT_TRUE(app->ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
        app->emit("f", app->ui().find("f")->make_event(EventType::kValueChanged, std::string{"hi"}));
    }
    ASSERT_TRUE(pump_until(pump, [&] {
        for (const auto& a : apps) {
            if (a->pending_emit_count() != 0) return false;
        }
        return true;
    }, 5000));

    // 64 live sessions added ZERO threads: transport is one reactor, dispatch
    // is the fixed worker pool. (Client-side channels in this test share the
    // process but are registered on the global reactor, also fixed.)
    EXPECT_EQ(process_thread_count(), baseline_threads);

    mgr.quiesce();
    EXPECT_TRUE(mgr.check_invariants().empty());
    const auto statuses = mgr.status().sessions;
    ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kSessions));
    for (const auto& s : statuses) {
        EXPECT_EQ(s.connections, 1u);
        EXPECT_EQ(s.registered, 1u);
        EXPECT_EQ(s.locks_held, 0u);
    }
}

}  // namespace
}  // namespace cosoft
