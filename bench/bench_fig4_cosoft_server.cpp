// F4 — Figure 4: the COSOFT server-client architecture, measured on the
// real implementation (a SessionManager's default session + CoApp over
// in-process channels).
//
// Three parts:
//   (a) a deterministic message-cost table: how many protocol messages one
//       couple / emit-cycle / copy / undo needs as the coupling group grows
//       (the fan-out structure of Fig. 4);
//   (b) google-benchmark wall-time microbenchmarks of the same operations;
//   (c) per-stage latency distributions (p50/p95/p99) of the §3.2 pipeline,
//       read from the obs histograms the server and client record on every
//       emit cycle, written to BENCH_fig4.json.
#include <fstream>

#include "bench_util.hpp"
#include "cosoft/apps/local_session.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/toolkit/builder.hpp"

namespace {

using namespace cosoft;
using namespace cosoft::bench;
using apps::LocalSession;
using client::CoApp;
using toolkit::EventType;
using toolkit::WidgetClass;

/// Builds a session with `n` apps, each owning one text field "f".
std::unique_ptr<LocalSession> make_session(std::size_t n) {
    auto s = std::make_unique<LocalSession>();
    for (std::size_t i = 0; i < n; ++i) {
        CoApp& app = s->add_app("bench", "user" + std::to_string(i), static_cast<UserId>(i + 1));
        (void)app.ui().root().add_child(WidgetClass::kTextField, "f");
    }
    return s;
}

/// Couples apps 0..g-1 into one group on widget "f".
void couple_group(LocalSession& s, std::size_t g) {
    for (std::size_t i = 1; i < g; ++i) {
        s.app(0).couple("f", s.app(i).ref("f"));
        s.run();
    }
}

void print_message_cost_table() {
    artifact_header("F4", "COSOFT server-client architecture (Fig. 4)",
                    "central server multiplexes callbacks; message cost scales with the coupling group");
    row("%-12s %-16s %-18s %-16s %-14s", "group-size", "couple(msgs)", "emit-cycle(msgs)", "copy-to(msgs)",
        "undo(msgs)");
    for (const std::size_t g : {2u, 4u, 8u, 16u}) {
        auto s = make_session(g);
        const auto before_couple = s->server().stats();
        couple_group(*s, g);
        const auto after_couple = s->server().stats();
        const auto couple_msgs = (after_couple.messages_received - before_couple.messages_received) +
                                 (after_couple.messages_sent - before_couple.messages_sent);

        const auto before_emit = s->server().stats();
        s->app(0).emit("f", s->app(0).ui().find("f")->make_event(EventType::kValueChanged,
                                                                 std::string{"x"}));
        s->run();
        const auto after_emit = s->server().stats();
        const auto emit_msgs = (after_emit.messages_received - before_emit.messages_received) +
                               (after_emit.messages_sent - before_emit.messages_sent);

        const auto before_copy = s->server().stats();
        s->app(0).copy_to("f", s->app(1).ref("f"), protocol::MergeMode::kStrict);
        s->run();
        const auto after_copy = s->server().stats();
        const auto copy_msgs = (after_copy.messages_received - before_copy.messages_received) +
                               (after_copy.messages_sent - before_copy.messages_sent);

        const auto before_undo = s->server().stats();
        s->app(1).undo("f");
        s->run();
        const auto after_undo = s->server().stats();
        const auto undo_msgs = (after_undo.messages_received - before_undo.messages_received) +
                               (after_undo.messages_sent - before_undo.messages_sent);

        row("%-12zu %-16llu %-18llu %-16llu %-14llu", g, static_cast<unsigned long long>(couple_msgs / (g - 1)),
            static_cast<unsigned long long>(emit_msgs), static_cast<unsigned long long>(copy_msgs),
            static_cast<unsigned long long>(undo_msgs));
    }
    std::printf("\nNote: the emit cycle is lock-req/grant + event + per-member execute/ack +\n"
                "lock notifies — linear in group size; copies and undo are independent of it.\n");
}

// --- per-stage latency quantiles ---------------------------------------------

struct StageQuantiles {
    std::string stage;
    std::uint64_t count = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
};

StageQuantiles quantiles_of(const std::string& stage, const obs::Histogram& h) {
    return {stage, h.count(), h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)};
}

/// Runs emit cycles through a coupled group and reads back the per-stage
/// latency histograms the pipeline itself recorded.
std::vector<StageQuantiles> measure_stage_latencies(std::size_t group, std::size_t iters) {
    auto s = make_session(group);
    couple_group(*s, group);

    const auto bounds = obs::Histogram::exponential_buckets(1.0, 2.0, 20);
    obs::Histogram& lock_us = s->server().registry().histogram("cosoft_server_stage_lock_us", bounds);
    obs::Histogram& broadcast_us =
        s->server().registry().histogram("cosoft_server_stage_broadcast_us", bounds);
    obs::Histogram& ack_us = s->server().registry().histogram("cosoft_server_stage_ack_us", bounds);
    obs::Histogram& dispatch_us = obs::Registry::global().histogram("cosoft_client_dispatch_us", bounds);
    obs::Histogram& replay_us = obs::Registry::global().histogram("cosoft_client_replay_us", bounds);
    // The client histograms are process globals; start from a clean slate so
    // the quantiles cover exactly this workload.
    for (obs::Histogram* h : {&lock_us, &broadcast_us, &ack_us, &dispatch_us, &replay_us}) h->reset();

    toolkit::Widget* f = s->app(0).ui().find("f");
    for (std::size_t i = 0; i < iters; ++i) {
        s->app(0).emit("f", f->make_event(EventType::kValueChanged, std::string{"v"}));
        s->run();
    }

    return {
        quantiles_of("client.dispatch", dispatch_us), quantiles_of("server.lock", lock_us),
        quantiles_of("server.broadcast", broadcast_us), quantiles_of("client.replay", replay_us),
        quantiles_of("server.ack", ack_us),
    };
}

void print_stage_latency_table(const std::vector<StageQuantiles>& stages, std::size_t group,
                               std::size_t iters) {
    artifact_header("F4b", "per-stage latency of the §3.2 emit cycle",
                    "every pipeline stage has a measured latency distribution (obs histograms)");
    std::printf("group=%zu, %zu emit cycles; all values in microseconds\n\n", group, iters);
    row("%-18s %-10s %-10s %-10s %-10s", "stage", "samples", "p50(us)", "p95(us)", "p99(us)");
    for (const StageQuantiles& q : stages) {
        row("%-18s %-10llu %-10.1f %-10.1f %-10.1f", q.stage.c_str(),
            static_cast<unsigned long long>(q.count), q.p50, q.p95, q.p99);
    }
}

void write_stage_json(const std::vector<StageQuantiles>& stages, std::size_t group, std::size_t iters,
                      const char* path) {
    std::ofstream f(path);
    f << "{\n  \"bench\": \"fig4_stage_latency\",\n  \"group_size\": " << group
      << ",\n  \"emit_cycles\": " << iters << ",\n  \"unit\": \"us\",\n  \"stages\": [\n";
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageQuantiles& q = stages[i];
        f << "    {\"stage\": \"" << q.stage << "\", \"samples\": " << q.count << ", \"p50\": " << q.p50
          << ", \"p95\": " << q.p95 << ", \"p99\": " << q.p99 << "}"
          << (i + 1 < stages.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    std::printf("\nwrote %s\n", path);
}

void BM_Register(benchmark::State& state) {
    LocalSession s;
    std::size_t i = 0;
    for (auto _ : state) {
        ++i;
        CoApp& app = s.add_app("bench", "u" + std::to_string(i), static_cast<UserId>(i));
        benchmark::DoNotOptimize(app.instance());
    }
}
BENCHMARK(BM_Register)->Iterations(5000);  // bounded: the session grows with every registration

void BM_CoupleDecouple(benchmark::State& state) {
    const auto g = static_cast<std::size_t>(state.range(0));
    auto s = make_session(g + 1);
    couple_group(*s, g);
    for (auto _ : state) {
        s->app(g).couple("f", s->app(0).ref("f"));
        s->run();
        s->app(g).decouple("f", s->app(0).ref("f"));
        s->run();
    }
}
BENCHMARK(BM_CoupleDecouple)->Arg(2)->Arg(8)->Arg(16);

void BM_EmitUncoupled(benchmark::State& state) {
    auto s = make_session(1);
    toolkit::Widget* f = s->app(0).ui().find("f");
    for (auto _ : state) {
        s->app(0).emit("f", f->make_event(EventType::kValueChanged, std::string{"v"}));
        s->run();
    }
}
BENCHMARK(BM_EmitUncoupled);

void BM_EmitCycle(benchmark::State& state) {
    const auto g = static_cast<std::size_t>(state.range(0));
    auto s = make_session(g);
    couple_group(*s, g);
    toolkit::Widget* f = s->app(0).ui().find("f");
    for (auto _ : state) {
        s->app(0).emit("f", f->make_event(EventType::kValueChanged, std::string{"v"}));
        s->run();
    }
    state.SetLabel("group=" + std::to_string(g));
}
BENCHMARK(BM_EmitCycle)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_CopyTo(benchmark::State& state) {
    const auto widgets = static_cast<std::size_t>(state.range(0));
    auto s = make_session(2);
    for (CoApp* app : {&s->app(0), &s->app(1)}) {
        toolkit::Widget* form = app->ui().root().add_child(WidgetClass::kForm, "form").value();
        for (std::size_t i = 0; i < widgets; ++i) {
            (void)form->add_child(WidgetClass::kTextField, "w" + std::to_string(i));
        }
    }
    for (auto _ : state) {
        s->app(0).copy_to("form", s->app(1).ref("form"), protocol::MergeMode::kStrict);
        s->run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(widgets));
}
BENCHMARK(BM_CopyTo)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_CopyUndo(benchmark::State& state) {
    auto s = make_session(2);
    for (auto _ : state) {
        s->app(0).copy_to("f", s->app(1).ref("f"), protocol::MergeMode::kStrict);
        s->run();
        s->app(1).undo("f");
        s->run();
    }
}
BENCHMARK(BM_CopyUndo);

void BM_CommandBroadcast(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    auto s = make_session(n);
    for (std::size_t i = 1; i < n; ++i) {
        s->app(i).on_command("ping", [](InstanceId, std::span<const std::uint8_t>) {});
    }
    for (auto _ : state) {
        s->app(0).send_command("ping", {1, 2, 3});
        s->run();
    }
    state.SetLabel("fanout=" + std::to_string(n - 1));
}
BENCHMARK(BM_CommandBroadcast)->Arg(2)->Arg(8)->Arg(32);

void BM_MessageCodec(benchmark::State& state) {
    const protocol::Message msg = protocol::ExecuteEvent{
        42,
        {1, "tori/query"},
        {{2, "tori/query"}},
        "author",
        toolkit::Event{EventType::kValueChanged, "tori/query/author", std::string{"Hoppe"}, ""}};
    for (auto _ : state) {
        const auto frame = protocol::encode_message(msg);
        auto decoded = protocol::decode_message(frame);
        benchmark::DoNotOptimize(decoded);
    }
}
BENCHMARK(BM_MessageCodec);

}  // namespace

int main(int argc, char** argv) {
    print_message_cost_table();
    constexpr std::size_t kStageGroup = 8;
    constexpr std::size_t kStageIters = 200;
    const auto stages = measure_stage_latencies(kStageGroup, kStageIters);
    print_stage_latency_table(stages, kStageGroup, kStageIters);
    write_stage_json(stages, kStageGroup, kStageIters, "BENCH_fig4.json");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
