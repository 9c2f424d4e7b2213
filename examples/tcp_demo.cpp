// The quickstart flow over real TCP sockets on localhost: the server and two
// client applications run in one process but communicate exclusively through
// length-prefixed frames on loopback connections — the same deployment shape
// as the original system's workstation network.
//
// The coupled emit runs with the causal tracer enabled and exports the
// session as Chrome trace JSON (cosoft_trace.json, load in chrome://tracing):
// one trace id spans client dispatch, server lock grant, broadcast, and the
// partner replay.
//
// Run: ./tcp_demo
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "cosoft/client/co_app.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/obs/trace.hpp"
#include "cosoft/server/session_manager.hpp"

using namespace cosoft;

namespace {

/// Polls the client channels until `pred` holds or the deadline passes. The
/// server's channels need no polling: the manager runs them in reactor
/// delivery.
bool pump_until(std::vector<std::shared_ptr<net::TcpChannel>>& channels, const std::function<bool()>& pred,
                int timeout_ms = 3000) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        for (auto& ch : channels) ch->poll();
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
}

}  // namespace

int main() {
    std::printf("== COSOFT over TCP (localhost) ==\n\n");

    auto listener = net::TcpListener::create(0);
    if (!listener.is_ok()) {
        std::printf("cannot listen: %s\n", listener.error().message.c_str());
        return 1;
    }
    std::printf("server listening on 127.0.0.1:%u\n", listener.value()->port());

    // The central server: one dispatch worker; the accepted sockets run on
    // the process reactor.
    server::SessionManagerOptions options;
    options.workers = 1;
    server::SessionManager server{options};
    std::vector<std::shared_ptr<net::TcpChannel>> pump;

    client::CoApp alice{"editor", "alice", 1};
    client::CoApp bob{"editor", "bob", 2};
    for (client::CoApp* app : {&alice, &bob}) {
        auto conn = net::tcp_connect("127.0.0.1", listener.value()->port());
        if (!conn.is_ok()) {
            std::printf("connect failed: %s\n", conn.error().message.c_str());
            return 1;
        }
        auto accepted = listener.value()->accept(2000);
        if (!accepted.is_ok()) {
            std::printf("accept failed: %s\n", accepted.error().message.c_str());
            return 1;
        }
        server.attach(accepted.value());
        app->connect(conn.value());
        (void)app->ui().root().add_child(toolkit::WidgetClass::kTextField, "field");
        pump.push_back(conn.value());
    }

    if (!pump_until(pump, [&] { return alice.online() && bob.online(); })) {
        std::printf("registration timed out\n");
        return 1;
    }
    std::printf("registered over sockets: alice=%u bob=%u\n", alice.instance(), bob.instance());

    bool coupled = false;
    alice.couple("field", bob.ref("field"), [&](const Status& st) { coupled = st.is_ok(); });
    if (!pump_until(pump, [&] { return coupled && bob.is_coupled("field"); })) {
        std::printf("coupling timed out\n");
        return 1;
    }
    std::printf("coupled alice:field <-> bob:field\n");

    obs::Tracer::instance().set_enabled(true);
    alice.emit("field", alice.ui().find("field")->make_event(toolkit::EventType::kValueChanged,
                                                             std::string{"hello over TCP"}));
    if (!pump_until(pump, [&] { return bob.ui().find("field")->text("value") == "hello over TCP"; })) {
        std::printf("synchronization timed out\n");
        return 1;
    }
    std::printf("alice typed -> bob sees: \"%s\"\n", bob.ui().find("field")->text("value").c_str());

    pump_until(pump, [&] { return server.status().sessions.at(0).locks_held == 0; });
    obs::Tracer::instance().set_enabled(false);

    std::printf("\ntraced stages of that one coupled event:\n");
    for (const obs::Span& span : obs::Tracer::instance().collect()) {
        std::printf("  trace=%016llx span=%-18s %llu ns\n",
                    static_cast<unsigned long long>(span.trace), span.name,
                    static_cast<unsigned long long>(span.duration_ns));
    }
    std::ofstream("cosoft_trace.json") << obs::Tracer::instance().chrome_trace_json();
    std::printf("wrote cosoft_trace.json (load in chrome://tracing)\n");
    std::printf("\nwire traffic: alice sent %llu frames (%llu bytes), received %llu frames (%llu bytes)\n",
                static_cast<unsigned long long>(pump[0]->stats().frames_sent),
                static_cast<unsigned long long>(pump[0]->stats().bytes_sent),
                static_cast<unsigned long long>(pump[0]->stats().frames_received),
                static_cast<unsigned long long>(pump[0]->stats().bytes_received));
    return 0;
}
