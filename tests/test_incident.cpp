// Incident-capture plane: flight-recorder rings and dumps, deterministic
// replay, the stall watchdog (synthetic and end-to-end), the HTTP exposition
// server, and the Monitor that wires them all into a SessionManager.
//
// The end-to-end tests are the acceptance scenario: a deliberately stalled
// strand (and separately a wedged reactor shard) under a real worker pool
// over real sockets must trip the watchdog within its deadline, produce an
// incident file naming the culprit, and flip /healthz to 503 while /metrics
// keeps answering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cosoft/client/co_app.hpp"
#include "cosoft/net/http.hpp"
#include "cosoft/net/reactor.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/obs/watchdog.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/monitor.hpp"
#include "cosoft/server/session_manager.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using obs::EventKind;
using obs::FlightRecorder;
using obs::Incident;
using obs::Watchdog;
using server::Monitor;
using server::MonitorOptions;
using server::SessionManager;
using server::SessionManagerOptions;

std::string temp_dir(const char* tag) {
    std::string dir = ::testing::TempDir() + "cosoft-incident-" + tag + "-XXXXXX";
    // mkdtemp mutates its argument in place.
    std::vector<char> buf(dir.begin(), dir.end());
    buf.push_back('\0');
    EXPECT_NE(::mkdtemp(buf.data()), nullptr);
    return std::string{buf.data()};
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

// --- flight recorder core ---------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndKeepsPerThreadOrder) {
    auto& rec = FlightRecorder::instance();
    rec.clear();
    rec.set_ring_capacity(16);
    // A fresh thread gets a fresh ring at the new capacity; overfill it 3x.
    std::thread([&] {
        for (std::uint64_t i = 0; i < 48; ++i) rec.record(EventKind::kMark, i, 1000 + i);
    }).join();
    const auto events = rec.snapshot_events();
    std::vector<obs::RecordedEvent> marks;
    for (const auto& e : events) {
        if (e.kind == EventKind::kMark && e.b >= 1000) marks.push_back(e);
    }
    ASSERT_EQ(marks.size(), 16u);  // oldest 32 overwritten
    for (std::size_t i = 0; i < marks.size(); ++i) {
        EXPECT_EQ(marks[i].a, 32 + i);              // the newest 16 survive, in order
        EXPECT_EQ(marks[i].seq, 32 + i);            // per-thread sequence is total records
    }
    rec.set_ring_capacity(8192);
    rec.clear();
}

TEST(FlightRecorder, DumpLoadReplayIsDeterministic) {
    auto& rec = FlightRecorder::instance();
    rec.clear();
    const std::string dir = temp_dir("replay");
    rec.set_incident_dir(dir);
    rec.set_context_provider([] { return std::string{"ctx-one\nctx-two"}; });

    rec.record(EventKind::kFrameIn, 7, 128);
    rec.record(EventKind::kLockGrant, 7, 42);
    std::thread([&] { rec.record(EventKind::kBroadcast, 3, 256); }).join();

    const std::string path = rec.dump("unit-test", "session:victim");
    rec.set_context_provider(nullptr);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(rec.last_dump_path(), path);

    Incident incident;
    std::string error;
    ASSERT_TRUE(obs::load_incident(path, incident, error)) << error;
    EXPECT_EQ(incident.version, 1);
    EXPECT_EQ(incident.reason, "unit-test");
    EXPECT_EQ(incident.culprit, "session:victim");
    ASSERT_EQ(incident.context.size(), 2u);
    EXPECT_EQ(incident.context[0], "ctx-one");
    EXPECT_EQ(incident.context[1], "ctx-two");
    // The dump itself records a kMark before snapshotting, so >= 4.
    ASSERT_GE(incident.events.size(), 4u);

    // Deterministic replay: two independent loads render byte-identically.
    Incident again;
    ASSERT_TRUE(obs::load_incident(path, again, error)) << error;
    const std::vector<std::string> t1 = obs::replay_timeline(incident);
    const std::vector<std::string> t2 = obs::replay_timeline(again);
    ASSERT_EQ(t1, t2);
    // Header + one line per event, stamped with kind names.
    ASSERT_GE(t1.size(), 3u + incident.events.size());
    bool saw_grant = false;
    for (const std::string& line : t1) {
        if (line.find("lock_grant") != std::string::npos) saw_grant = true;
    }
    EXPECT_TRUE(saw_grant);
    rec.clear();
}

TEST(FlightRecorder, CrossThreadTimelineIsTotallyOrdered) {
    auto& rec = FlightRecorder::instance();
    rec.clear();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&rec, t] {
            for (std::uint64_t i = 0; i < 100; ++i) {
                rec.record(EventKind::kMark, static_cast<std::uint64_t>(t), i);
            }
        });
    }
    for (auto& t : threads) t.join();
    const auto events = rec.snapshot_events();
    ASSERT_GE(events.size(), 400u);
    for (std::size_t i = 1; i < events.size(); ++i) {
        const auto& a = events[i - 1];
        const auto& b = events[i];
        const auto ka = std::make_tuple(a.t_ns, a.tid, a.seq);
        const auto kb = std::make_tuple(b.t_ns, b.tid, b.seq);
        EXPECT_LE(ka, kb);
    }
    rec.clear();
}

// --- watchdog (synthetic sources, driven scans) ------------------------------

TEST(WatchdogTest, StallTripsAndRecovers) {
    Watchdog::Options options;
    options.stall_deadline_ms = 20;
    options.dump_on_trip = false;
    Watchdog wd(options);
    Watchdog::Source* src = wd.register_source(Watchdog::SourceKind::kStrand, "session:victim");

    src->begin_work();
    wd.check_now();
    EXPECT_TRUE(wd.verdict().healthy);  // busy but not yet past the deadline

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    wd.check_now();
    Watchdog::Verdict verdict = wd.verdict();
    ASSERT_FALSE(verdict.healthy);
    ASSERT_EQ(verdict.complaints.size(), 1u);
    EXPECT_NE(verdict.complaints[0].find("session:victim"), std::string::npos);
    EXPECT_NE(verdict.complaints[0].find("stalled"), std::string::npos);
    EXPECT_EQ(verdict.worst_culprit, "session:victim");

    // Trips are edge-latched: a second scan of the same stall adds no trip.
    obs::Registry registry;
    wd.export_metrics(registry);
    const std::uint64_t trips = registry.counter("cosoft_watchdog_trips_total").value();
    EXPECT_EQ(trips, 1u);
    wd.check_now();
    wd.export_metrics(registry);
    EXPECT_EQ(registry.counter("cosoft_watchdog_trips_total").value(), trips);

    // Forward progress re-arms the source.
    src->progress();
    wd.check_now();
    EXPECT_TRUE(wd.verdict().healthy);
    src->end_work();
    wd.retire(src);
    wd.check_now();
    wd.export_metrics(registry);
    EXPECT_EQ(registry.gauge("cosoft_watchdog_sources").value(), 0u);
}

TEST(WatchdogTest, QueueAgeBreachComplainsUntilDrained) {
    Watchdog::Options options;
    options.queue_age_ceiling_ms = 20;
    options.dump_on_trip = false;
    Watchdog wd(options);
    Watchdog::Source* src = wd.register_source(Watchdog::SourceKind::kStrand, "session:backlog");

    src->set_queue(5, obs::monotonic_ns() - 100ull * 1000 * 1000);  // oldest waited 100ms
    wd.check_now();
    Watchdog::Verdict verdict = wd.verdict();
    ASSERT_FALSE(verdict.healthy);
    EXPECT_NE(verdict.complaints[0].find("queue aging"), std::string::npos);
    EXPECT_NE(verdict.complaints[0].find("session:backlog"), std::string::npos);

    src->set_queue(0, 0);
    wd.check_now();
    EXPECT_TRUE(wd.verdict().healthy);
}

TEST(WatchdogTest, TripDumpNamesTheCulprit) {
    auto& rec = FlightRecorder::instance();
    rec.clear();
    const std::string dir = temp_dir("trip");
    rec.set_incident_dir(dir);

    Watchdog::Options options;
    options.stall_deadline_ms = 10;
    options.dump_on_trip = true;
    Watchdog wd(options);
    Watchdog::Source* src = wd.register_source(Watchdog::SourceKind::kShard, "reactor.shard7");
    src->begin_work();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    wd.check_now();

    const std::string path = rec.last_dump_path();
    ASSERT_FALSE(path.empty());
    ASSERT_EQ(path.rfind(dir, 0), 0u) << path;  // written into our directory
    Incident incident;
    std::string error;
    ASSERT_TRUE(obs::load_incident(path, incident, error)) << error;
    EXPECT_EQ(incident.culprit, "reactor.shard7");
    EXPECT_NE(incident.reason.find("watchdog"), std::string::npos);
    // The trip itself is on the recorded timeline.
    bool saw_trip = false;
    for (const auto& e : incident.events) {
        if (e.kind == EventKind::kWatchdogTrip) saw_trip = true;
    }
    EXPECT_TRUE(saw_trip);
    src->end_work();
    rec.clear();
}

// --- HTTP exposition server --------------------------------------------------

TEST(HttpPlane, ServesHandlerRoutesAndCloses) {
    auto server = net::HttpServer::create(0, [](const net::HttpServer::Request& request) {
        net::HttpServer::Response response;
        if (request.path == "/ping") {
            response.body = "pong";
        } else {
            response.status = 404;
            response.body = "nope";
        }
        return response;
    });
    ASSERT_TRUE(server.is_ok()) << server.error().message;
    const std::uint16_t port = server.value()->port();
    ASSERT_NE(port, 0);

    auto ok = net::http_get("127.0.0.1", port, "/ping");
    ASSERT_TRUE(ok.is_ok()) << ok.error().message;
    EXPECT_EQ(ok.value().status, 200);
    EXPECT_EQ(ok.value().body, "pong");

    auto missing = net::http_get("127.0.0.1", port, "/other");
    ASSERT_TRUE(missing.is_ok());
    EXPECT_EQ(missing.value().status, 404);
    EXPECT_EQ(missing.value().body, "nope");
    EXPECT_GE(server.value()->requests_served(), 2u);
}

// --- monitor wiring ----------------------------------------------------------

TEST(MonitorPlane, RoutesEndpointsAgainstALiveManager) {
    FlightRecorder::instance().clear();
    net::SimNetwork net;
    SessionManager manager;  // inline dispatch: no threads needed for routing
    MonitorOptions options;
    options.enable_http = false;
    options.start_watchdog = false;
    options.incident_dir = temp_dir("monitor");
    Monitor monitor(manager, options);

    const auto metrics = monitor.handle({"GET", "/metrics"});
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
    for (const char* family :
         {"cosoft_build_info{", "cosoft_uptime_seconds", "cosoft_watchdog_healthy",
          "cosoft_recorder_enabled", "cosoft_server_sessions_active"}) {
        EXPECT_NE(metrics.body.find(family), std::string::npos) << family;
    }

    monitor.watchdog().check_now();
    const auto health = monitor.handle({"GET", "/healthz"});
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    const auto incident = monitor.handle({"GET", "/incident"});
    EXPECT_EQ(incident.status, 200);
    EXPECT_EQ(incident.body.rfind("{\"cosoft_incident\":1", 0), 0u);
    // The embedded context is the same exposition /metrics serves.
    EXPECT_NE(incident.body.find("cosoft_build_info"), std::string::npos);

    // /status: one member registered into "room" shows up in both tables.
    auto [client_end, server_end] = net.make_pipe();
    manager.attach(server_end);
    CoApp app{"editor", "alice", 1};
    app.connect(client_end, "room");
    net.run_all();
    ASSERT_TRUE(app.online());
    const auto status = monitor.handle({"GET", "/status"});
    EXPECT_EQ(status.status, 200);
    EXPECT_EQ(status.body.rfind("-- sessions (1) --\n", 0), 0u) << status.body;
    EXPECT_NE(status.body.find("\nroom "), std::string::npos) << status.body;
    EXPECT_NE(status.body.find("-- connections (1) --\n"), std::string::npos) << status.body;
    EXPECT_NE(status.body.find(" alice "), std::string::npos) << status.body;

    const auto index = monitor.handle({"GET", "/"});
    EXPECT_EQ(index.status, 200);
    EXPECT_NE(index.body.find("/status"), std::string::npos);
    EXPECT_EQ(monitor.handle({"GET", "/nope"}).status, 404);
}

TEST(MonitorPlane, JournalRouteReadsEachSessionFile) {
    net::SimNetwork net;
    SessionManagerOptions manager_options;
    manager_options.journal_dir = temp_dir("journal");
    manager_options.journal_fsync = server::FsyncPolicy::kNever;
    SessionManager manager(manager_options);
    MonitorOptions options;
    options.enable_http = false;
    options.start_watchdog = false;
    options.incident_dir = temp_dir("journal-incident");
    Monitor monitor(manager, options);

    // Two members join "room" and one leaves: the session stays live and its
    // journal holds Register frames and a departure.
    auto [alice_end, alice_server_end] = net.make_pipe();
    auto [bob_end, bob_server_end] = net.make_pipe();
    manager.attach(alice_server_end);
    manager.attach(bob_server_end);
    CoApp alice{"editor", "alice", 1};
    CoApp bob{"editor", "bob", 2};
    alice.connect(alice_end, "room");
    bob.connect(bob_end, "room");
    net.run_all();
    ASSERT_TRUE(alice.online() && bob.online());
    bob_end->close();
    net.run_all();

    // The route decodes each frame record's message name out of the file.
    const auto journal = monitor.handle({"GET", "/journal"});
    EXPECT_EQ(journal.status, 200);
    const auto has_row = [&](const std::string& type, const std::string& message) {
        std::istringstream lines{journal.body};
        for (std::string line; std::getline(lines, line);) {
            if (line.find(" " + type + " ") != std::string::npos &&
                line.find(" " + message + " ") != std::string::npos) {
                return true;
            }
        }
        return false;
    };
    EXPECT_NE(journal.body.find("-- journal: room ("), std::string::npos) << journal.body;
    EXPECT_TRUE(has_row("frame", "Register")) << journal.body;
    EXPECT_TRUE(has_row("detach", "Detach")) << journal.body;
}

// --- end-to-end: the acceptance scenario -------------------------------------

TEST(MonitorE2E, StalledStrandFlipsHealthzWhileMetricsKeepServing) {
    FlightRecorder::instance().clear();
    auto reactor = net::Reactor::create();
    SessionManagerOptions manager_options;
    manager_options.workers = 2;
    manager_options.reactor = reactor;
    SessionManager manager(manager_options);

    // The injected fault: the first dispatch into session "victim" wedges
    // its worker until released — exactly what a handler stuck in a loop or
    // a blocking call looks like to the watchdog.
    std::atomic<bool> hold{true};
    std::atomic<bool> stalled{false};
    // Declared after the manager, so it runs first on unwinding: a failing
    // ASSERT below must not leave ~SessionManager joining a wedged worker.
    const testing::ScopeExit release([&] { hold.store(false); });
    manager.debug_set_dispatch_hook([&](const std::string& session) {
        if (session != "victim") return;
        stalled.store(true);
        while (hold.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });

    MonitorOptions monitor_options;
    monitor_options.http_port = 0;
    monitor_options.incident_dir = temp_dir("e2e-strand");
    monitor_options.watchdog.interval_ms = 20;
    monitor_options.watchdog.stall_deadline_ms = 100;
    Monitor monitor(manager, monitor_options);
    ASSERT_EQ(monitor.http_error(), "");
    const std::uint16_t http_port = monitor.http_port();
    ASSERT_NE(http_port, 0);

    net::ListenOptions listen_options;
    listen_options.reactor = reactor;
    auto listener = net::TcpListener::create(0, listen_options);
    ASSERT_TRUE(listener.is_ok());

    auto client = net::tcp_connect("127.0.0.1", listener.value()->port());
    ASSERT_TRUE(client.is_ok());
    auto accepted = listener.value()->accept(2000);
    ASSERT_TRUE(accepted.is_ok());
    manager.attach(accepted.value());
    CoApp app{"editor", "user", 1};
    app.connect(client.value(), "victim");  // Register dispatches into the hook

    ASSERT_TRUE(wait_until([&] { return stalled.load(); }, 3000));
    // The strand is wedged. Within the deadline the watchdog must complain…
    ASSERT_TRUE(wait_until(
        [&] {
            auto health = net::http_get("127.0.0.1", http_port, "/healthz");
            return health.is_ok() && health.value().status == 503;
        },
        3000));
    auto health = net::http_get("127.0.0.1", http_port, "/healthz");
    ASSERT_TRUE(health.is_ok());
    EXPECT_NE(health.value().body.find("session:victim"), std::string::npos);

    // …while /metrics keeps serving from the same process.
    auto metrics = net::http_get("127.0.0.1", http_port, "/metrics");
    ASSERT_TRUE(metrics.is_ok());
    EXPECT_EQ(metrics.value().status, 200);
    EXPECT_NE(metrics.value().body.find("cosoft_watchdog_healthy 0"), std::string::npos);

    // The trip produced an incident file naming the stalled strand, and its
    // timeline replays deterministically. The watchdog publishes its verdict
    // before it writes the dump, so /healthz can flip first.
    const std::string& dir = monitor_options.incident_dir;
    ASSERT_TRUE(wait_until(
        [&] { return FlightRecorder::instance().last_dump_path().rfind(dir, 0) == 0; }, 3000));
    const std::string path = FlightRecorder::instance().last_dump_path();
    Incident incident;
    std::string error;
    ASSERT_TRUE(obs::load_incident(path, incident, error)) << error;
    EXPECT_EQ(incident.culprit, "session:victim");
    EXPECT_EQ(obs::replay_timeline(incident), obs::replay_timeline(incident));

    // Release the fault: health recovers, the client finishes registering.
    hold.store(false);
    ASSERT_TRUE(wait_until(
        [&] {
            auto recovered = net::http_get("127.0.0.1", http_port, "/healthz");
            return recovered.is_ok() && recovered.value().status == 200;
        },
        3000));
    ASSERT_TRUE(wait_until(
        [&] {
            (void)client.value()->poll();
            return app.online();
        },
        3000));
    manager.quiesce();
}

TEST(MonitorE2E, WedgedReactorShardNamesTheShard) {
    FlightRecorder::instance().clear();
    Watchdog::Options options;
    options.stall_deadline_ms = 50;
    options.dump_on_trip = false;
    auto watchdog = std::make_shared<Watchdog>(options);

    // The watchdog outlives the reactor (whose dtor joins the shard loops
    // that feed it), which outlives the channels registered on it.
    auto reactor = net::Reactor::create(1, net::PollerBackend::kAuto);
    reactor->set_watchdog(watchdog);
    std::atomic<bool> hold{true};
    std::atomic<bool> wedged{false};
    {
        net::ListenOptions listen_options;
        listen_options.reactor = reactor;
        auto listener = net::TcpListener::create(0, listen_options);
        ASSERT_TRUE(listener.is_ok());
        auto client = net::tcp_connect("127.0.0.1", listener.value()->port());
        ASSERT_TRUE(client.is_ok());
        auto accepted = listener.value()->accept(2000);
        ASSERT_TRUE(accepted.is_ok());

        // A genuinely wedged delivery handler: the shard thread sleeps inside
        // service until released. No hooks — this is the real failure mode.
        accepted.value()->on_receive([&](const protocol::Frame&) {
            wedged.store(true);
            while (hold.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
        // Declared after the channels, so it runs before they close: a
        // failing ASSERT below must not leave the shard thread wedged.
        const testing::ScopeExit release([&] { hold.store(false); });
        accepted.value()->enable_reactor_delivery();

        // Any frame wakes the handler; its content is irrelevant.
        ASSERT_TRUE(client.value()
                        ->send(protocol::encode_message(
                            protocol::Message{protocol::RegistryQuery{1}}))
                        .is_ok());
        ASSERT_TRUE(wait_until([&] { return wedged.load(); }, 3000));
        ASSERT_TRUE(wait_until(
            [&] {
                watchdog->check_now();
                return !watchdog->verdict().healthy;
            },
            3000));
        const Watchdog::Verdict verdict = watchdog->verdict();
        ASSERT_FALSE(verdict.complaints.empty());
        EXPECT_NE(verdict.complaints[0].find("reactor.shard0"), std::string::npos);

        hold.store(false);
        ASSERT_TRUE(wait_until(
            [&] {
                watchdog->check_now();
                return watchdog->verdict().healthy;
            },
            3000));
    }
}

}  // namespace
}  // namespace cosoft
