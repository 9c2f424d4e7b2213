// A6 — tight vs loose coupling (the "time" relaxation of §1/§2.2).
//
// "Participants may work in parallel more independently... collaboration can
// be based on periodical updates." — and, on the cost side, negotiated
// transfers are "not appropriate for communications with high frequency of
// information exchange."
//
// Measured on the real stack: a driver instance performs K actions on a
// coupled object while a peer is (a) tightly coupled — every action is a
// full floor-control cycle reaching the peer immediately — or (b) loosely
// coupled — the server queues the re-executions and one sync_now delivers
// the batch. The table shows the message/latency trade and the floor-
// contention difference when both sides work simultaneously.
#include "bench_util.hpp"
#include "cosoft/apps/local_session.hpp"

namespace {

using namespace cosoft;
using namespace cosoft::bench;
using apps::LocalSession;
using client::CoApp;
using toolkit::EventType;
using toolkit::WidgetClass;

std::unique_ptr<LocalSession> make_pair(sim::SimTime latency, bool loose_peer) {
    auto s = std::make_unique<LocalSession>(net::PipeConfig{.latency = latency});
    for (int i = 0; i < 2; ++i) {
        auto& app = s->add_app("pad", "u" + std::to_string(i), static_cast<UserId>(i + 1));
        (void)app.ui().root().add_child(WidgetClass::kCanvas, "pad");
    }
    s->app(0).couple("pad", s->app(1).ref("pad"));
    s->run();
    if (loose_peer) {
        s->app(1).set_loose("pad", true);
        s->run();
    }
    return s;
}

void print_mode_table() {
    artifact_header("A6", "Tight vs loose coupling (time relaxation, §2.2)",
                    "loose members defer re-execution into batched periodic syncs and stay lock-free");
    row("%-10s %-10s %-12s %-16s %-18s %-14s", "mode", "actions", "rtt(ms)", "server msgs", "completion(ms)",
        "peer strokes");
    for (const sim::SimTime latency : {2 * sim::kMillisecond, 20 * sim::kMillisecond}) {
        for (const std::size_t actions : {10u, 100u}) {
            for (const bool loose : {false, true}) {
                auto s = make_pair(latency, loose);
                const auto msgs_before =
                    s->server().stats().messages_received + s->server().stats().messages_sent;
                const auto t0 = s->net().now();
                for (std::size_t i = 0; i < actions; ++i) {
                    s->app(0).emit("pad", s->app(0).ui().find("pad")->make_event(
                                              EventType::kStroke, "s" + std::to_string(i)));
                    s->run();
                }
                if (loose) {
                    s->app(1).sync_now("pad");
                    s->run();
                }
                const auto msgs_after =
                    s->server().stats().messages_received + s->server().stats().messages_sent;
                row("%-10s %-10zu %-12.0f %-16llu %-18.1f %-14zu", loose ? "loose" : "tight", actions,
                    ms(2 * latency), static_cast<unsigned long long>(msgs_after - msgs_before),
                    ms(s->net().now() - t0), s->app(1).ui().find("pad")->text_list("strokes").size());
            }
        }
    }
    std::printf("\nNote: loose mode trims the per-action fan-out (no lock-notify/execute/ack at\n"
                "the peer) and completes the driver's work sooner; the peer converges at its own\n"
                "pace via one batched sync — the paper's 'periodical updates'.\n");
}

void print_disruption_table() {
    // A tight peer is disabled (locked) for a window around every one of the
    // driver's actions; a loose peer is never touched. Note that a loose
    // member's *own* actions still serialize against the tight subset — the
    // relaxation is on receiving, not on mutating shared state.
    std::printf("\n-- peer disruption while the driver streams 100 actions --\n");
    row("%-10s %-22s %-18s", "peer-mode", "LockNotify deliveries", "peer disabled ever");
    for (const bool loose : {false, true}) {
        auto s = make_pair(1000, loose);
        // Each LockNotify the peer receives toggles its pad's "enabled"
        // attribute exactly once (lock: off, unlock: on).
        std::size_t notifies = 0;
        bool peer_disabled = false;
        s->app(1).ui().set_attribute_observer([&](toolkit::Widget& w, std::string_view attr) {
            if (attr != "enabled") return;
            ++notifies;
            if (!w.flag("enabled")) peer_disabled = true;
        });
        for (int i = 0; i < 100; ++i) {
            s->app(0).emit("pad",
                           s->app(0).ui().find("pad")->make_event(EventType::kStroke, "a" + std::to_string(i)));
            s->run();
        }
        row("%-10s %-22llu %-18s", loose ? "loose" : "tight", static_cast<unsigned long long>(notifies),
            peer_disabled ? "yes" : "no");
    }
}

void BM_TightStream(benchmark::State& state) {
    auto s = make_pair(0, false);
    int i = 0;
    for (auto _ : state) {
        s->app(0).emit("pad", s->app(0).ui().find("pad")->make_event(EventType::kStroke,
                                                                     "s" + std::to_string(++i)));
        s->run();
    }
}
BENCHMARK(BM_TightStream);

void BM_LooseStreamPlusSync(benchmark::State& state) {
    auto s = make_pair(0, true);
    int i = 0;
    for (auto _ : state) {
        s->app(0).emit("pad", s->app(0).ui().find("pad")->make_event(EventType::kStroke,
                                                                     "s" + std::to_string(++i)));
        s->run();
        if (i % 100 == 0) {
            s->app(1).sync_now("pad");
            s->run();
        }
    }
}
BENCHMARK(BM_LooseStreamPlusSync);

}  // namespace

int main(int argc, char** argv) {
    print_mode_table();
    print_disruption_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
