// F5 — broadcast fan-out on the encode-once message path.
//
// The server serializes each broadcast exactly once and enqueues the same
// refcounted Frame to every partner connection. This bench quantifies that
// against the pre-refactor shape (one encode per recipient) across fan-out
// widths, and emits the numbers as BENCH_fanout.json for the check harness:
//
//   (a) channel level: broadcasts/sec and heap allocations per broadcast for
//       shared-frame vs per-recipient-encode fan-out over SimNetwork pipes;
//   (b) server level: encodes per command broadcast measured from the
//       session's stats (must be exactly 1 at any width);
//   (c) google-benchmark microbenchmarks of the same two fan-out loops.
//
// `--smoke` trims iteration counts and skips the microbenchmarks so the
// binary doubles as a fast ctest entry (label: bench).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "bench_util.hpp"
#include "cosoft/apps/local_session.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/common/arena.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/obs/trace.hpp"
#include "cosoft/protocol/messages.hpp"

// Allocation accounting rides the hot-path interposer (hot_path.cpp): the
// reference to co::hot below pulls the counting operator new/delete into
// this binary, and timed_rate() opens a HotScope around each measured loop —
// the same machinery the checked builds' budget enforcement uses, replacing
// the ad-hoc operator new this bench used to define locally.

namespace {

using namespace cosoft;
using namespace cosoft::bench;
using apps::LocalSession;
using client::CoApp;
using protocol::Frame;
using protocol::Message;

constexpr std::size_t kPayloadBytes = 4 << 10;

Message broadcast_message() {
    return protocol::CommandDeliver{1, "fanout", std::vector<std::uint8_t>(kPayloadBytes, 0x5a)};
}

/// `partners` one-way pipes with a no-op receiver, plus the queue that
/// drains them.
struct FanoutRig {
    net::SimNetwork net;
    std::vector<std::shared_ptr<net::SimChannel>> senders;
    /// Receiver endpoints must stay alive: SimChannel holds its peer weakly,
    /// and a dead peer makes send() return "peer gone" before the enqueue —
    /// which would silently measure an empty loop instead of the delivery
    /// path.
    std::vector<std::shared_ptr<net::SimChannel>> receivers;
    /// Same payload arena the server's broadcast path uses: the shared-path
    /// numbers below measure the production encode (bump-allocated payload,
    /// frame aliasing the epoch), which is what holds allocs/shared at the
    /// broadcast budget of zero.
    Arena arena;

    explicit FanoutRig(std::size_t partners) {
        for (std::size_t i = 0; i < partners; ++i) {
            auto [a, b] = net.make_pipe();
            b->on_receive([](const Frame&) {});
            senders.push_back(a);
            receivers.push_back(b);
        }
    }

    /// The new path: one arena-backed encode, every partner shares the buffer.
    void broadcast_shared(const Message& msg) {
        const Frame frame = protocol::encode_message(msg, arena);
        for (auto& ch : senders) (void)ch->send(frame);
        net.run_all();
    }

    /// The old path: serialize the same message once per recipient.
    void broadcast_per_recipient(const Message& msg) {
        for (auto& ch : senders) (void)ch->send(protocol::encode_message(msg));
        net.run_all();
    }

    /// The shared path through the trace-aware encoder with tracing off: the
    /// invalid context must collapse to the plain encoding at negligible cost.
    void broadcast_trace_disabled(const Message& msg) {
        const Frame frame = protocol::encode_message(msg, obs::TraceContext{}, arena);
        for (auto& ch : senders) (void)ch->send(frame);
        net.run_all();
    }
};

struct FanoutSample {
    std::size_t partners = 0;
    double shared_per_sec = 0;
    double per_recipient_per_sec = 0;
    double speedup = 0;
    double allocs_shared = 0;         ///< heap allocations per broadcast
    double allocs_per_recipient = 0;
    double encodes_per_broadcast = 0; ///< server-side, from the session's stats
};

template <typename Fn>
std::pair<double, double> timed_rate(std::size_t iters, Fn&& fn) {
    fn();  // warm the pipes, the allocator, and the per-thread scratch writer
    const hot::HotScope scope{"bench.fanout"};  // unbudgeted: count, don't enforce
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    return {static_cast<double>(iters) / elapsed.count(),
            static_cast<double>(scope.allocs()) / static_cast<double>(iters)};
}

/// Encodes per command broadcast on the real server at width `partners`.
double measured_encodes_per_broadcast(std::size_t partners, std::size_t iters) {
    LocalSession s;
    for (std::size_t i = 0; i < partners + 1; ++i) {
        (void)s.add_app("bench", "u" + std::to_string(i), static_cast<UserId>(i + 1));
    }
    for (std::size_t i = 1; i <= partners; ++i) {
        s.app(i).on_command("fanout", [](InstanceId, std::span<const std::uint8_t>) {});
    }
    s.run();
    const std::uint64_t before = s.server().stats().broadcast_encodes;
    for (std::size_t i = 0; i < iters; ++i) {
        s.app(0).send_command("fanout", std::vector<std::uint8_t>(kPayloadBytes, 0x5a));
        s.run();
    }
    return static_cast<double>(s.server().stats().broadcast_encodes - before) /
           static_cast<double>(iters);
}

/// Interleaved A/B pairs per overhead ratio. Each sample is a sub-millisecond
/// loop, so one preemption can skew it by tens of percent; the median pair
/// is what the 2% / 15% bounds judge.
constexpr int kOverheadPairs = 31;

/// Slowdown of a feature, in percent, from paired rate samples. In each pair
/// the baseline and the feature run back to back (their order alternating
/// between pairs), so both sides see the same host load.
struct PairedOverhead {
    double median_percent = 0;
    double iqr_percent = 0;  ///< spread of the per-pair overheads (q3 - q1)
    double median_rate_baseline = 0;
    double median_rate_feature = 0;
};

double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
}

template <typename Baseline, typename Feature>
PairedOverhead paired_overhead(int pairs, Baseline&& baseline, Feature&& feature) {
    std::vector<double> overhead;
    std::vector<double> rate_baseline;
    std::vector<double> rate_feature;
    for (int p = 0; p < pairs; ++p) {
        double base = 0;
        double feat = 0;
        if (p % 2 == 0) {
            base = baseline();
            feat = feature();
        } else {
            feat = feature();
            base = baseline();
        }
        rate_baseline.push_back(base);
        rate_feature.push_back(feat);
        overhead.push_back((base - feat) / base * 100.0);
    }
    return {quantile(overhead, 0.5), quantile(overhead, 0.75) - quantile(overhead, 0.25),
            quantile(rate_baseline, 0.5), quantile(rate_feature, 0.5)};
}

/// Overhead of the trace-aware encode path with tracing disabled, as a
/// percentage slowdown of shared-frame broadcasts at width `partners`.
PairedOverhead measured_trace_disabled_overhead(std::size_t partners, std::size_t iters) {
    const Message msg = broadcast_message();
    FanoutRig rig(partners);
    return paired_overhead(
        kOverheadPairs,
        [&] { return timed_rate(iters, [&] { rig.broadcast_shared(msg); }).first; },
        [&] { return timed_rate(iters, [&] { rig.broadcast_trace_disabled(msg); }).first; });
}

/// Server-level emit throughput with the tracer toggled, for the JSON record:
/// the cost of actually recording spans on every pipeline stage.
std::pair<double, double> measured_tracing_rates(std::size_t partners, std::size_t iters) {
    LocalSession s;
    for (std::size_t i = 0; i < partners + 1; ++i) {
        (void)s.add_app("bench", "u" + std::to_string(i), static_cast<UserId>(i + 1));
    }
    for (std::size_t i = 1; i <= partners; ++i) {
        s.app(i).on_command("fanout", [](InstanceId, std::span<const std::uint8_t>) {});
    }
    s.run();
    const auto one_sweep = [&] {
        for (std::size_t i = 0; i < iters; ++i) {
            s.app(0).send_command("fanout", std::vector<std::uint8_t>(kPayloadBytes, 0x5a));
            s.run();
        }
    };
    obs::Tracer::instance().set_enabled(false);
    const double rate_off = timed_rate(1, one_sweep).first * static_cast<double>(iters);
    obs::Tracer::instance().set_enabled(true);
    const double rate_on = timed_rate(1, one_sweep).first * static_cast<double>(iters);
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
    return {rate_off, rate_on};
}

std::vector<FanoutSample> run_fanout_sweep(bool smoke) {
    const std::size_t channel_iters = smoke ? 50 : 2000;
    const std::size_t server_iters = smoke ? 10 : 100;
    artifact_header("F5", "encode-once broadcast fan-out",
                    "one serialization per broadcast, shared by every partner connection");
    row("%-10s %-16s %-20s %-10s %-14s %-16s %-10s", "partners", "shared(bc/s)", "per-recipient(bc/s)",
        "speedup", "allocs/shared", "allocs/per-rec", "encodes");
    std::vector<FanoutSample> out;
    for (const std::size_t partners : {2u, 8u, 32u, 128u}) {
        FanoutSample sample;
        sample.partners = partners;
        const Message msg = broadcast_message();
        {
            FanoutRig rig(partners);
            std::tie(sample.shared_per_sec, sample.allocs_shared) =
                timed_rate(channel_iters, [&] { rig.broadcast_shared(msg); });
        }
        {
            FanoutRig rig(partners);
            std::tie(sample.per_recipient_per_sec, sample.allocs_per_recipient) =
                timed_rate(channel_iters, [&] { rig.broadcast_per_recipient(msg); });
        }
        sample.speedup = sample.shared_per_sec / sample.per_recipient_per_sec;
        sample.encodes_per_broadcast = measured_encodes_per_broadcast(partners, server_iters);
        row("%-10zu %-16.0f %-20.0f %-10.2f %-14.1f %-16.1f %-10.2f", sample.partners,
            sample.shared_per_sec, sample.per_recipient_per_sec, sample.speedup, sample.allocs_shared,
            sample.allocs_per_recipient, sample.encodes_per_broadcast);
        out.push_back(sample);
    }
    return out;
}

struct TracingNumbers {
    double disabled_overhead_percent = 0;  ///< trace-aware encode, tracing off, vs plain encode
    double disabled_overhead_iqr_percent = 0;
    double emits_per_sec_tracing_off = 0;
    double emits_per_sec_tracing_on = 0;
};

struct RecorderNumbers {
    double overhead_percent = 0;  ///< emit throughput cost of the always-on flight recorder
    double overhead_iqr_percent = 0;
    double emits_per_sec_recorder_off = 0;
    double emits_per_sec_recorder_on = 0;
    double allocs_per_record = 0;  ///< must be exactly 0 once the thread's ring exists
};

/// The flight recorder ships enabled, so its cost rides every number in this
/// bench. Quantify it two ways: (a) record() itself must be allocation-free
/// after ensure_thread_registered() pre-pays the ring (that is what keeps the
/// broadcast budget of zero honest with the recorder on), and (b) whole-
/// pipeline emit throughput with the recorder toggled, in interleaved pairs.
RecorderNumbers measured_recorder_numbers(std::size_t partners, std::size_t iters) {
    RecorderNumbers out;
    auto& rec = obs::FlightRecorder::instance();
    rec.ensure_thread_registered();
    constexpr std::size_t kRecordsPerIter = 64;
    out.allocs_per_record =
        timed_rate(iters, [&] {
            for (std::size_t i = 0; i < kRecordsPerIter; ++i) {
                rec.record(obs::EventKind::kBroadcast, partners, kPayloadBytes);
            }
        }).second /
        static_cast<double>(kRecordsPerIter);

    LocalSession s;
    for (std::size_t i = 0; i < partners + 1; ++i) {
        (void)s.add_app("bench", "u" + std::to_string(i), static_cast<UserId>(i + 1));
    }
    for (std::size_t i = 1; i <= partners; ++i) {
        s.app(i).on_command("fanout", [](InstanceId, std::span<const std::uint8_t>) {});
    }
    s.run();
    const auto one_sweep = [&] {
        for (std::size_t i = 0; i < iters; ++i) {
            s.app(0).send_command("fanout", std::vector<std::uint8_t>(kPayloadBytes, 0x5a));
            s.run();
        }
    };
    const auto sweep_rate = [&](bool recorder_on) {
        rec.set_enabled(recorder_on);
        return timed_rate(1, one_sweep).first * static_cast<double>(iters);
    };
    const PairedOverhead paired = paired_overhead(
        kOverheadPairs, [&] { return sweep_rate(false); }, [&] { return sweep_rate(true); });
    rec.set_enabled(true);  // the shipped default — leave it on afterwards
    rec.clear();
    out.overhead_percent = paired.median_percent;
    out.overhead_iqr_percent = paired.iqr_percent;
    out.emits_per_sec_recorder_off = paired.median_rate_baseline;
    out.emits_per_sec_recorder_on = paired.median_rate_feature;
    return out;
}

void write_json(const std::vector<FanoutSample>& samples, const TracingNumbers& tracing,
                const RecorderNumbers& recorder, std::uint64_t budget, const char* path) {
    double worst_allocs = 0;
    for (const auto& s : samples) worst_allocs = std::max(worst_allocs, s.allocs_shared);
    std::ofstream f(path);
    f << "{\n  \"bench\": \"fanout\",\n  \"payload_bytes\": " << kPayloadBytes
      << ",\n  \"allocs_per_broadcast\": " << worst_allocs
      << ",\n  \"budget_allocs_per_broadcast\": " << budget
      << ",\n  \"tracing\": {\"disabled_overhead_percent\": " << tracing.disabled_overhead_percent
      << ", \"disabled_overhead_iqr_percent\": " << tracing.disabled_overhead_iqr_percent
      << ", \"emits_per_sec_tracing_off\": " << tracing.emits_per_sec_tracing_off
      << ", \"emits_per_sec_tracing_on\": " << tracing.emits_per_sec_tracing_on << "},"
      << "\n  \"recorder\": {\"overhead_percent\": " << recorder.overhead_percent
      << ", \"overhead_iqr_percent\": " << recorder.overhead_iqr_percent
      << ", \"emits_per_sec_recorder_off\": " << recorder.emits_per_sec_recorder_off
      << ", \"emits_per_sec_recorder_on\": " << recorder.emits_per_sec_recorder_on
      << ", \"allocs_per_record\": " << recorder.allocs_per_record << "},\n  \"rows\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const FanoutSample& s = samples[i];
        f << "    {\"partners\": " << s.partners << ", \"encodes_per_broadcast\": " << s.encodes_per_broadcast
          << ", \"shared_broadcasts_per_sec\": " << s.shared_per_sec
          << ", \"per_recipient_broadcasts_per_sec\": " << s.per_recipient_per_sec
          << ", \"speedup\": " << s.speedup << ", \"allocs_per_broadcast_shared\": " << s.allocs_shared
          << ", \"allocs_per_broadcast_per_recipient\": " << s.allocs_per_recipient << "}"
          << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    std::printf("\nwrote %s\n", path);
}

void BM_BroadcastSharedFrame(benchmark::State& state) {
    FanoutRig rig(static_cast<std::size_t>(state.range(0)));
    const Message msg = broadcast_message();
    for (auto _ : state) rig.broadcast_shared(msg);
    state.SetLabel("partners=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_BroadcastSharedFrame)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_BroadcastPerRecipientEncode(benchmark::State& state) {
    FanoutRig rig(static_cast<std::size_t>(state.range(0)));
    const Message msg = broadcast_message();
    for (auto _ : state) rig.broadcast_per_recipient(msg);
    state.SetLabel("partners=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_BroadcastPerRecipientEncode)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }

    // The ratchet: hotpath_budget.json is the one source of truth for how
    // many allocations a broadcast may cost. Failing to load it is itself a
    // failure — a silently-missing budget would un-gate the ratchet.
    const auto budgets = hot::load_budget_file(COSOFT_HOTPATH_BUDGET_PATH);
    const auto budget_it = budgets.find("broadcast");
    if (budget_it == budgets.end()) {
        std::fprintf(stderr, "FAIL: no \"broadcast\" budget in %s\n", COSOFT_HOTPATH_BUDGET_PATH);
        return 1;
    }
    const std::uint64_t alloc_budget = budget_it->second;
    hot::arm(true);

    const auto samples = run_fanout_sweep(smoke);

    // Tracing must cost nothing when it is off: the trace-aware encoder with
    // an invalid context has to keep pace with the plain one.
    TracingNumbers tracing;
    const PairedOverhead trace_disabled =
        measured_trace_disabled_overhead(/*partners=*/32, smoke ? 50 : 1000);
    tracing.disabled_overhead_percent = trace_disabled.median_percent;
    tracing.disabled_overhead_iqr_percent = trace_disabled.iqr_percent;
    std::tie(tracing.emits_per_sec_tracing_off, tracing.emits_per_sec_tracing_on) =
        measured_tracing_rates(/*partners=*/8, smoke ? 20 : 200);
    std::printf("\ntracing-disabled encode overhead: median %.2f%%, IQR %.2f%% over %d pairs "
                "(target < 2%%)\n",
                tracing.disabled_overhead_percent, tracing.disabled_overhead_iqr_percent,
                kOverheadPairs);
    std::printf("emit throughput: %.0f/s tracing off, %.0f/s tracing on\n",
                tracing.emits_per_sec_tracing_off, tracing.emits_per_sec_tracing_on);

    // The flight recorder is always on in production; its cost has to stay in
    // the noise and its record() must not allocate once the ring is pre-paid.
    const RecorderNumbers recorder = measured_recorder_numbers(/*partners=*/8, smoke ? 20 : 200);
    std::printf("recorder-on emit overhead: median %.2f%%, IQR %.2f%% over %d pairs (target < 2%%), "
                "%.2f allocs/record\n",
                recorder.overhead_percent, recorder.overhead_iqr_percent, kOverheadPairs,
                recorder.allocs_per_record);
    std::printf("emit throughput: %.0f/s recorder off, %.0f/s recorder on\n",
                recorder.emits_per_sec_recorder_off, recorder.emits_per_sec_recorder_on);

    write_json(samples, tracing, recorder, alloc_budget, "BENCH_fanout.json");

    // Sanity for the check harness: one encode per broadcast at any width,
    // the allocation ratchet holds, and the shared path must actually win
    // where fan-out is wide.
    for (const auto& s : samples) {
        if (s.encodes_per_broadcast != 1.0) {
            std::fprintf(stderr, "FAIL: %zu partners used %.2f encodes per broadcast (want 1)\n",
                         s.partners, s.encodes_per_broadcast);
            return 1;
        }
        if (s.allocs_shared > static_cast<double>(alloc_budget)) {
            std::fprintf(stderr,
                         "FAIL: %zu partners cost %.2f allocs per shared broadcast "
                         "(hotpath_budget.json allows %llu)\n",
                         s.partners, s.allocs_shared,
                         static_cast<unsigned long long>(alloc_budget));
            return 1;
        }
    }
    if (tracing.disabled_overhead_percent > 15.0) {
        std::fprintf(stderr,
                     "FAIL: tracing-disabled overhead (median of %d pairs) %.2f%% is far above "
                     "the 2%% budget\n",
                     kOverheadPairs, tracing.disabled_overhead_percent);
        return 1;
    }
    if (tracing.disabled_overhead_percent > 2.0) {
        std::fprintf(stderr, "WARN: tracing-disabled overhead %.2f%% exceeds the 2%% budget "
                             "(noisy host?)\n",
                     tracing.disabled_overhead_percent);
    }
    if (recorder.allocs_per_record != 0.0) {
        std::fprintf(stderr,
                     "FAIL: FlightRecorder::record() cost %.2f allocs per event after "
                     "ensure_thread_registered() (want 0 — the broadcast budget depends on it)\n",
                     recorder.allocs_per_record);
        return 1;
    }
    if (recorder.overhead_percent > 15.0) {
        std::fprintf(stderr,
                     "FAIL: recorder-on overhead (median of %d pairs) %.2f%% is far above the 2%% "
                     "budget\n",
                     kOverheadPairs, recorder.overhead_percent);
        return 1;
    }
    if (recorder.overhead_percent > 2.0) {
        std::fprintf(stderr, "WARN: recorder-on overhead %.2f%% exceeds the 2%% budget "
                             "(noisy host?)\n",
                     recorder.overhead_percent);
    }
    if (!smoke) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }
    return 0;
}
