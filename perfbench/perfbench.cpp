// cosoft_perfbench: the COSOFT end-to-end benchmark.
//
// One process runs a SessionManager (private 1-shard reactor, 2 dispatch
// workers) and its clients over localhost TCP. One driver thread owns every
// client::CoApp and pumps their TcpChannel::poll(); one client reactor shard
// does client socket I/O. The program only sees the calls the seeded
// schedule generates. A run measures in several rounds, each on a freshly
// built rig (new threads, sockets and journal), because on a shared virtual
// machine much of the run-to-run variation is fixed per rig:
//
//   set-up    build the rig: reactors, manager, connections, registrations,
//             couplings (timed; also repeated on its own for setup_s);
//   warm-up   0.5 s of open-loop load, not recorded;
//   phase A   open-loop Poisson arrivals at a fixed offered rate, with a
//             joiner connecting every 100 ms; latency is timed from each
//             operation's scheduled send time, so generator stalls count;
//   phase B   closed loop, a fixed number of operations outstanding per
//             sender: saturation throughput, counted in windows of about 0.5 s;
//   checks    replicas agree, no locks held, invariants hold, message
//             counts are exact, payloads intact and in order, every join
//             synchronised. A failed check exits non-zero without a result.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// phase A alternates untraced and obs::Tracer-traced blocks, and the result
// carries the per-layer ledger, measured from outside the program: timed
// calls into each module's public functions, counters the program already
// exports, and per-thread CPU time.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cosoft/client/co_app.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/net/reactor.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/obs/trace.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/session_manager.hpp"
#include "measure.hpp"

namespace {

using namespace cosoft;
using perfbench::now_ns;
using perfbench::quantile;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;

enum class Kind { kCoupledEmit, kChatRooms, kLateJoin };

struct Workload {
    const char* name;
    Kind kind;
    std::size_t sessions;
    std::size_t apps_per_session;
    std::size_t groups;         ///< coupled text-field groups per session (emit workloads)
    double rate_a;              ///< phase A offered load, operations/s over all senders
    std::size_t outstanding_b;  ///< phase B closed-loop window per sender
    bool journal;               ///< durable journal + late-joiner sync on the session
};

constexpr Workload kWorkloads[] = {
    {"coupled_emit", Kind::kCoupledEmit, 1, 4, 256, 2000, 4, false},
    {"chat_rooms", Kind::kChatRooms, 2, 2, 0, 10000, 4, false},
    {"late_join", Kind::kLateJoin, 1, 3, 192, 250, 4, true},
};

// Fixed server and generator shape: the driver and one client reactor
// shard generate; one server reactor shard and two workers serve.
constexpr std::size_t kServerShards = 1;
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kClientShards = 1;
constexpr int kRounds = 3;
/// An untraced run measures one more round when fewer than kCleanShare of
/// its windows were clean of host steal, so a burst of noise on the shared
/// host leaves clean windows to measure.
constexpr int kExtraRounds = 1;
constexpr double kCleanShare = 2.0 / 3.0;
/// Before each rig is built, the run waits until the hypervisor took at
/// most kMaxSteal of the CPUs over kCalmCheck, for at most kCalmBudget in
/// all. Host noise on the shared machine comes in bursts of minutes that no
/// choice of windows measures through; a run that waits one out is clean.
constexpr std::int64_t kCalmCheck = 500 * kMs;
constexpr std::int64_t kCalmBudget = 90 * kSec;
constexpr int kSetupSamples = 25;  ///< rig builds timed per run (the rounds' included)
constexpr std::int64_t kWarmup = 500 * kMs;
constexpr std::int64_t kJoinPeriod = 100 * kMs;
constexpr std::int64_t kJoinDeadline = 2 * kSec;
constexpr std::int64_t kDrainDeadline = 3 * kSec;
constexpr std::int64_t kTraceBlock = 500 * kMs;
constexpr std::int64_t kSatWindow = 500 * kMs;  ///< target length; a phase holds at least one
constexpr std::int64_t kLatWindow = 1 * kSec;
constexpr double kPhaseAShare = 0.6;
constexpr std::int64_t kStealSample = 50 * kMs;
constexpr double kMaxSteal = 0.02;  ///< share of the CPUs the hypervisor may take in a usable window
/// What perfbench::host_probe_ns() takes on the machine the benchmark was
/// tuned on (4-vCPU Xeon virtual machine). The speed of a shared virtual
/// machine drifts by a fifth or more over minutes, and the end-to-end
/// metrics follow it (correlation 0.8 to 0.97), so they are reported at
/// this reference speed: times scaled by reference/probe, rates by
/// probe/reference.
constexpr double kProbeReferenceNs = 7e6;
constexpr std::size_t kSlots = 1u << 17;  ///< operations tracked at once (ring)
constexpr std::size_t kChatMin = 64;
constexpr std::size_t kChatMax = 64u << 10;
constexpr std::size_t kChatHeader = 16;  ///< u64 op id + u64 per-sender sequence
constexpr std::size_t kPoolBytes = 256u << 10;
constexpr std::size_t kCompactBytes = 128u << 10;
const char* const kJoinSession = "joiners";

struct Args {
    const Workload* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir = ".";
};

enum Phase : std::uint8_t { kWarm = 0, kPhaseA = 1, kPhaseB = 2 };

/// One generated operation: an emit on a coupled group, or a chat message.
struct Op {
    std::uint64_t id = 0;
    std::int64_t sched = 0;      ///< when the schedule wanted it sent
    std::int64_t sent = 0;
    std::int64_t acked = 0;      ///< the sender's own completion (done)
    std::int64_t delivered = 0;  ///< the last receiver's callback
    std::uint32_t app = 0;       ///< sender
    std::uint32_t group = 0;     ///< emit: coupled group; chat: per-sender sequence
    std::uint32_t offset = 0;    ///< chat: payload slice of the pool
    std::uint32_t len = 0;       ///< payload bytes a receiver gets
    std::uint16_t waiting = 0;   ///< receivers still to see it
    Phase phase = kWarm;
    bool traced = false;
    bool done = false;
    bool failed = false;
    bool complete = true;  ///< a free slot counts as complete
};

struct App {
    std::shared_ptr<net::TcpChannel> ch;  ///< declared first: outlives the CoApp
    std::unique_ptr<client::CoApp> co;
    std::weak_ptr<net::TcpChannel> server_ch;
    std::size_t session = 0;
    std::vector<std::uint32_t> own;  ///< groups this app emits on
    std::size_t rr = 0;
    std::size_t outstanding = 0;
    std::deque<std::int64_t> backlog;  ///< due phase-A sends waiting for a free group
    std::uint32_t sent_seq = 0;
};

struct Joiner {
    std::shared_ptr<net::TcpChannel> ch;
    std::unique_ptr<client::CoApp> co;
    std::int64_t t0 = 0;
    std::int64_t t_reg = 0;
    bool active = false;
};

/// Counters read at quiescent points; a phase's cost is the difference.
enum CounterIndex : std::size_t {
    kMsgs, kFanned, kDenied, kSyncSteps, kSyncBuffered, kSyncDone, kEncodes, kRouted, kRecorder,
    kJAppends, kJBytes, kJFsyncs, kJCompactions, kSrvWakeups, kFlushes, kFramesFlushed,
    kCpuDriver, kCpuClient, kCpuServer, kCpuWorkers, kCounterCount
};
using Counters = std::array<std::uint64_t, kCounterCount>;

void accumulate(Counters& sum, const Counters& from, const Counters& to) {
    for (std::size_t k = 0; k < kCounterCount; ++k) sum[k] += to[k] - from[k];
}

class Bench {
  public:
    explicit Bench(Args args) : args_(std::move(args)), w_(*args_.workload), ops_(kSlots) {}
    ~Bench() { teardown(); }
    Bench(const Bench&) = delete;
    Bench& operator=(const Bench&) = delete;

    int run();

  private:
    // --- set-up ---------------------------------------------------------------
    bool build(int index);
    void teardown();
    bool connect_app(std::size_t a, std::size_t session);
    [[nodiscard]] std::string session_name(std::size_t s) const {
        return w_.kind == Kind::kChatRooms ? "room" + std::to_string(s) : "class";
    }
    [[nodiscard]] static std::string group_path(std::uint32_t g) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "g%03u", g);
        return buf;
    }
    /// The text an emit writes: fixed width, so every emit carries as many
    /// payload bytes.
    [[nodiscard]] static std::string value_of(std::uint64_t op) {
        char buf[24];
        std::snprintf(buf, sizeof buf, "v%09llu", static_cast<unsigned long long>(op));
        return buf;
    }

    // --- load -----------------------------------------------------------------
    bool round(int index, std::int64_t phase_a, std::int64_t phase_b, std::string& why);
    Op* new_op(std::size_t a, std::int64_t sched, Phase phase);
    bool issue(std::size_t a, std::int64_t sched, Phase phase);
    bool issue_emit(std::size_t a, std::int64_t sched, Phase phase);
    bool issue_chat(std::size_t a, std::int64_t sched, Phase phase);
    [[nodiscard]] bool group_free(std::size_t session, std::uint32_t g) const;
    void on_done(std::uint64_t id, const Status& st);
    void on_widget(std::size_t a, std::uint32_t g);
    void on_chat(std::size_t receiver, InstanceId from, std::span<const std::uint8_t> payload);
    void maybe_complete(Op& op);
    void record(const Op& op);
    std::size_t pump();
    void start_join();
    void poll_joiner();
    void end_join();
    void open_loop(std::int64_t duration, Phase phase, bool joins);
    void closed_loop(std::int64_t duration);
    void drain(Phase phase);
    void settle();
    [[nodiscard]] Counters snapshot();
    void sample_steal(std::int64_t t, bool force = false);
    void wait_calm();
    [[nodiscard]] double steal_share(std::int64_t t0, std::int64_t t1) const;
    [[nodiscard]] std::vector<bool> usable(const std::vector<std::int64_t>& starts, std::int64_t len) const;
    /// Host steal over the measured windows and the share of windows under
    /// kMaxSteal, both in percent.
    [[nodiscard]] std::pair<double, double> host_noise() const;

    // --- results ----------------------------------------------------------------
    bool check(const Counters& a, const Counters& b, std::uint64_t b_ops, std::uint64_t joins, std::string& why);
    void codec_probe(perfbench::Result& r);
    void report_end_to_end(perfbench::Result& r);
    void report_layers(perfbench::Result& r);

    Args args_;
    const Workload& w_;

    // The rig of the current round, released in order by teardown().
    std::shared_ptr<net::Reactor> client_reactor_;
    std::shared_ptr<net::Reactor> server_reactor_;
    std::unique_ptr<server::SessionManager> mgr_;
    std::unique_ptr<net::TcpListener> listener_;
    std::vector<App> apps_;
    Joiner joiner_;
    std::vector<int> client_tids_, server_tids_, worker_tids_;
    int driver_tid_ = 0;

    // Operations in flight live in a ring of slots indexed by id; finished
    // ones leave only their samples behind.
    std::vector<Op> ops_;
    std::uint64_t next_id_ = 0;
    std::array<std::uint64_t, 3> outstanding_{};  ///< per phase
    std::vector<std::vector<std::int64_t>> inflight_;  ///< [session][group] -> op id or -1
    std::vector<std::vector<std::int64_t>> last_op_;   ///< [session][group] -> last op id or -1
    std::vector<std::vector<bool>> last_failed_;       ///< [session][group]
    std::vector<std::vector<std::uint32_t>> chat_next_;  ///< [receiver][sender] -> next sequence
    std::vector<std::mt19937_64> payload_rng_;  ///< per sender: its k-th chat message is seed-fixed
    std::vector<std::uint8_t> pool_;
    std::mt19937_64 sched_rng_;
    std::uint64_t chat_errors_ = 0;
    std::uint64_t stray_callbacks_ = 0;

    // Samples.
    std::uint64_t attempted_ = 0, failed_ = 0;
    std::vector<double> lat_us_[2];  ///< phase A, by traced block (0 = untraced)
    std::vector<double> grant_us_, late_us_;
    /// Phase-A latencies per window of about 1 s (by scheduled time) of
    /// every round: host noise on a shared machine comes in bursts, and a
    /// median over windows is not moved by a few bad ones.
    std::vector<std::vector<double>> lat_win_, grant_win_;
    std::int64_t a_start_ = 0;
    std::int64_t lat_window_ = kLatWindow;
    std::size_t win_first_ = 0;
    std::int64_t b_start_ = 0;
    std::int64_t sat_window_ = kSatWindow;
    std::vector<double> sat_count_, sat_bytes_;  ///< per window of every round's phase B
    std::size_t sat_first_ = 0;                  ///< first window of the current round
    std::vector<std::int64_t> lat_win_start_, sat_win_start_;
    /// Host steal timeline, sampled while load runs. On a shared virtual
    /// machine the hypervisor sometimes takes whole CPUs away for seconds;
    /// windows where it took more than kMaxSteal are left out of the medians
    /// while at least a third of the windows remain (see usable()).
    std::vector<std::pair<std::int64_t, double>> steal_;
    std::int64_t next_steal_ = 0;
    std::vector<double> setup_s_;
    std::vector<double> join_ms_, join_reg_us_, join_sync_us_, join_connect_us_;
    std::uint64_t joins_attempted_ = 0, joins_failed_ = 0, joins_done_ = 0;
    std::uint64_t poll_ns_ = 0, poll_frames_ = 0;
    std::size_t backlog_at_end_ = 0;
    bool backlog_undrained_ = false;
    std::uint64_t a_ops_ = 0, b_ops_ = 0;
    Counters sum_a_{}, sum_b_{};
    std::vector<std::pair<std::int64_t, std::int64_t>> a_windows_;
    std::vector<double> stage_lock_, stage_broadcast_, stage_ack_, replay_p50_;  ///< per round
    hot::Totals allocs_{};
    std::int64_t calm_wait_ = 0;    ///< time wait_calm() spent waiting
    std::vector<double> probe_ns_;  ///< host speed probe while no rig exists (around the rounds)
    double rss_peak_mb_ = 0;        ///< largest peak resident set of any round
    std::uint64_t backpressure_ = 0, queue_peak_ = 0;  ///< client and server channels, every round
    perfbench::SpanLog spans_;
};

// --- set-up -------------------------------------------------------------------

bool Bench::connect_app(std::size_t a, std::size_t session) {
    App& app = apps_[a];
    auto client = net::tcp_connect("127.0.0.1", listener_->port(), client_reactor_);
    if (!client.is_ok()) return false;
    auto accepted = listener_->accept(2000);
    if (!accepted.is_ok()) return false;
    app.server_ch = accepted.value();
    mgr_->attach(accepted.value());
    app.ch = client.value();
    app.session = session;
    app.co = std::make_unique<client::CoApp>("perfbench", "user" + std::to_string(a), static_cast<UserId>(a + 1));
    for (std::uint32_t g = 0; g < w_.groups; ++g) {
        auto widget = app.co->ui().root().add_child(toolkit::WidgetClass::kTextField, group_path(g));
        if (!widget.is_ok()) return false;
        widget.value()->add_callback(toolkit::EventType::kValueChanged,
                                     [this, a, g](toolkit::Widget&, const toolkit::Event&) { on_widget(a, g); });
        if (g % w_.apps_per_session == a % w_.apps_per_session) app.own.push_back(g);
    }
    if (w_.kind == Kind::kChatRooms) {
        app.co->on_command("chat", [this, a](InstanceId from, std::span<const std::uint8_t> payload) {
            on_chat(a, from, payload);
        });
    }
    app.co->connect(app.ch, session_name(session));
    return true;
}

bool Bench::build(int index) {
    const std::set<int> before = perfbench::task_ids();
    client_reactor_ = net::Reactor::create(kClientShards);
    const std::set<int> with_client = perfbench::task_ids();
    server_reactor_ = net::Reactor::create(kServerShards);
    const std::set<int> with_server = perfbench::task_ids();

    server::SessionManagerOptions options;
    options.workers = kServerWorkers;
    options.reactor = server_reactor_;
    if (w_.journal) {
        options.journal_dir = args_.work_dir + "/journal-" + std::to_string(index);
        std::filesystem::remove_all(options.journal_dir);
        options.journal_fsync = server::FsyncPolicy::kBatch;
        options.journal_compact_bytes = kCompactBytes;
        options.sync_late_joiners = true;
    }
    mgr_ = std::make_unique<server::SessionManager>(options);
    const std::set<int> with_workers = perfbench::task_ids();
    const auto added = [](const std::set<int>& from, const std::set<int>& to) {
        std::vector<int> out;
        std::set_difference(to.begin(), to.end(), from.begin(), from.end(), std::back_inserter(out));
        return out;
    };
    client_tids_ = added(before, with_client);
    server_tids_ = added(with_client, with_server);
    worker_tids_ = added(with_server, with_workers);
    driver_tid_ = perfbench::current_tid();

    net::ListenOptions listen_options;
    listen_options.reactor = server_reactor_;
    auto listener = net::TcpListener::create(0, listen_options);
    if (!listener.is_ok()) return false;
    listener_ = std::move(listener.value());

    const std::size_t n = w_.sessions * w_.apps_per_session;
    apps_.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
        if (!connect_app(a, a / w_.apps_per_session)) return false;
    }
    const std::int64_t deadline = now_ns() + 10 * kSec;
    const auto wait = [&](auto&& pred) {
        while (!pred()) {
            if (pump() == 0) sched_yield();
            if (now_ns() > deadline) return false;
        }
        return true;
    };
    if (!wait([&] { return std::all_of(apps_.begin(), apps_.end(), [](const App& a) { return a.co->online(); }); })) {
        return false;
    }

    // Every group couples the same-named text field across all apps of its
    // session: the first app links its field to each partner's.
    std::size_t pending = 0;
    bool couple_failed = false;
    for (std::size_t s = 0; s < w_.sessions && w_.groups > 0; ++s) {
        App& first = apps_[s * w_.apps_per_session];
        for (std::uint32_t g = 0; g < w_.groups; ++g) {
            for (std::size_t p = 1; p < w_.apps_per_session; ++p) {
                const App& partner = apps_[s * w_.apps_per_session + p];
                ++pending;
                first.co->couple(group_path(g), ObjectRef{partner.co->instance(), group_path(g)},
                                 [&pending, &couple_failed](const Status& st) {
                                     --pending;
                                     couple_failed = couple_failed || !st.is_ok();
                                 });
            }
        }
    }
    const bool coupled = wait([&] {
        if (pending > 0) return false;
        for (const App& app : apps_) {
            for (std::uint32_t g = 0; g < w_.groups; ++g) {
                if (app.co->coupled_with(group_path(g)).size() != w_.apps_per_session - 1) return false;
            }
        }
        return true;
    });
    return coupled && !couple_failed;
}

void Bench::teardown() {
    end_join();
    apps_.clear();  // each CoApp closes its channel; the client channels go with the App
    mgr_.reset();
    listener_.reset();
    server_reactor_.reset();
    client_reactor_.reset();
}

// --- load ---------------------------------------------------------------------

bool Bench::group_free(std::size_t session, std::uint32_t g) const {
    if (inflight_[session][g] >= 0) return false;
    // The server unlocks a group only after every partner acknowledged the
    // replay; a partner still showing the lock means the unlock is in flight.
    const std::string path = group_path(g);
    for (std::size_t p = 0; p < w_.apps_per_session; ++p) {
        if (apps_[session * w_.apps_per_session + p].co->is_locked(path)) return false;
    }
    return true;
}

Op* Bench::new_op(std::size_t a, std::int64_t sched, Phase phase) {
    Op& op = ops_[next_id_ % kSlots];
    if (!op.complete) return nullptr;  // ring full: the backlog waits
    op = Op{};
    op.id = next_id_++;
    op.sched = sched;
    op.app = static_cast<std::uint32_t>(a);
    op.phase = phase;
    op.traced = obs::Tracer::instance().enabled();
    op.waiting = static_cast<std::uint16_t>(w_.apps_per_session - 1);
    op.complete = false;
    ++outstanding_[phase];
    ++apps_[a].outstanding;
    ++attempted_;
    return &op;
}

bool Bench::issue(std::size_t a, std::int64_t sched, Phase phase) {
    return w_.kind == Kind::kChatRooms ? issue_chat(a, sched, phase) : issue_emit(a, sched, phase);
}

bool Bench::issue_emit(std::size_t a, std::int64_t sched, Phase phase) {
    App& app = apps_[a];
    for (std::size_t tries = 0; tries < app.own.size(); ++tries) {
        const std::uint32_t g = app.own[app.rr];
        app.rr = (app.rr + 1) % app.own.size();
        if (!group_free(app.session, g)) continue;
        Op* op = new_op(a, sched, phase);
        if (op == nullptr) return false;
        const std::uint64_t id = op->id;
        const std::string path = group_path(g);
        const std::string value = value_of(id);
        op->group = g;
        op->len = static_cast<std::uint32_t>(value.size());
        inflight_[app.session][g] = static_cast<std::int64_t>(id);
        last_op_[app.session][g] = static_cast<std::int64_t>(id);

        toolkit::Event event = app.co->ui().find(path)->make_event(toolkit::EventType::kValueChanged, value);
        const std::int64_t t0 = now_ns();
        op->sent = t0;
        app.co->emit(path, std::move(event), [this, id](const Status& st) { on_done(id, st); });
        spans_.add("bench.emit", t0, now_ns(), id);
        return true;
    }
    return false;
}

bool Bench::issue_chat(std::size_t a, std::int64_t sched, Phase phase) {
    App& app = apps_[a];
    Op* op = new_op(a, sched, phase);
    if (op == nullptr) return false;
    const std::uint64_t id = op->id;
    op->group = app.sent_seq++;
    // Log-uniform sizes from kChatMin to kChatMax.
    std::mt19937_64& rng = payload_rng_[a];
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    op->len = static_cast<std::uint32_t>(
        std::clamp<double>(std::exp(std::log(double(kChatMin)) + u * std::log(double(kChatMax) / kChatMin)),
                           kChatMin, kChatMax));
    op->offset = static_cast<std::uint32_t>(rng() % (pool_.size() - op->len));

    std::vector<std::uint8_t> payload(pool_.begin() + op->offset, pool_.begin() + op->offset + op->len);
    const std::uint64_t header[2] = {id, op->group};
    std::memcpy(payload.data(), header, kChatHeader);
    const std::int64_t t0 = now_ns();
    op->sent = t0;
    app.co->send_command("chat", std::move(payload), kInvalidInstance,
                         [this, id](const Status& st) { on_done(id, st); });
    spans_.add("bench.send_command", t0, now_ns(), id);
    return true;
}

void Bench::on_done(std::uint64_t id, const Status& st) {
    Op& op = ops_[id % kSlots];
    if (op.id != id || op.complete) return;
    op.done = true;
    op.acked = now_ns();
    if (!st.is_ok()) op.failed = true;  // LockDeny, lost transport, refused command
    maybe_complete(op);
}

void Bench::on_widget(std::size_t a, std::uint32_t g) {
    const std::int64_t id = inflight_[apps_[a].session][g];
    if (id < 0) {
        ++stray_callbacks_;
        return;
    }
    Op& op = ops_[static_cast<std::uint64_t>(id) % kSlots];
    if (op.app == a) return;  // the emitter's own callbacks run on grant
    op.delivered = now_ns();
    if (op.waiting > 0) --op.waiting;
    maybe_complete(op);
}

void Bench::on_chat(std::size_t receiver, InstanceId from, std::span<const std::uint8_t> payload) {
    const std::int64_t t = now_ns();
    std::uint64_t header[2] = {~0ull, 0};
    if (payload.size() >= kChatHeader) std::memcpy(header, payload.data(), kChatHeader);
    Op& op = ops_[header[0] % kSlots];
    if (op.id != header[0] || op.complete) {
        ++chat_errors_;
        return;
    }
    const App& sender = apps_[op.app];
    const bool intact = payload.size() == op.len && sender.session == apps_[receiver].session &&
                        sender.co->instance() == from &&
                        std::memcmp(payload.data() + kChatHeader, pool_.data() + op.offset + kChatHeader,
                                    op.len - kChatHeader) == 0;
    const bool in_order = header[1] == op.group && chat_next_[receiver][op.app] == op.group;
    if (!intact || !in_order || op.waiting == 0) {
        ++chat_errors_;
        return;
    }
    ++chat_next_[receiver][op.app];
    op.delivered = t;
    --op.waiting;
    maybe_complete(op);
}

void Bench::maybe_complete(Op& op) {
    if (op.complete || !op.done || (!op.failed && op.waiting > 0)) return;
    op.complete = true;
    --outstanding_[op.phase];
    App& app = apps_[op.app];
    --app.outstanding;
    if (w_.kind != Kind::kChatRooms) {
        inflight_[app.session][op.group] = -1;
        if (last_op_[app.session][op.group] == static_cast<std::int64_t>(op.id)) {
            last_failed_[app.session][op.group] = op.failed;
        }
    }
    record(op);
}

void Bench::record(const Op& op) {
    if (op.failed) ++failed_;
    if (op.phase == kPhaseA) {
        // A failed operation misses any latency limit: it takes the drain
        // deadline as its latency.
        const std::int64_t miss = op.sched + kDrainDeadline;
        lat_us_[op.traced ? 1 : 0].push_back(static_cast<double>((op.failed ? miss : op.delivered) - op.sched) / 1000.0);
        grant_us_.push_back(static_cast<double>((op.failed ? miss : op.acked) - op.sched) / 1000.0);
        const auto k = std::min(win_first_ + static_cast<std::size_t>(std::max<std::int64_t>(0, op.sched - a_start_) / lat_window_),
                                lat_win_.size() - 1);
        lat_win_[k].push_back(lat_us_[op.traced ? 1 : 0].back());
        grant_win_[k].push_back(grant_us_.back());
        late_us_.push_back(static_cast<double>(op.sent - op.sched) / 1000.0);
    } else if (op.phase == kPhaseB && !op.failed) {
        const std::int64_t finish = std::max(op.acked, op.delivered);
        const std::size_t k = sat_first_ + static_cast<std::size_t>((finish - b_start_) / sat_window_);
        if (finish >= b_start_ && k < sat_count_.size()) {
            sat_count_[k] += 1;
            sat_bytes_[k] += static_cast<double>(op.len) * static_cast<double>(w_.apps_per_session - 1);
        }
    }
}

std::size_t Bench::pump() {
    std::size_t frames = 0;
    for (App& app : apps_) {
        const std::int64_t t0 = now_ns();
        const std::size_t n = app.ch->poll();
        if (n > 0) {
            const std::int64_t t1 = now_ns();
            poll_ns_ += static_cast<std::uint64_t>(t1 - t0);
            poll_frames_ += n;
            spans_.add("bench.poll", t0, t1, n);
            frames += n;
        }
    }
    if (joiner_.active) poll_joiner();
    return frames;
}

void Bench::start_join() {
    if (joiner_.active) return;  // the previous join is still running: skip this slot
    ++joins_attempted_;
    ++attempted_;
    joiner_.t0 = now_ns();
    joiner_.t_reg = 0;
    auto client = net::tcp_connect("127.0.0.1", listener_->port(), client_reactor_);
    if (!client.is_ok()) {
        ++joins_failed_;
        return;
    }
    auto accepted = listener_->accept(1000);
    if (!accepted.is_ok()) {
        ++joins_failed_;
        return;
    }
    mgr_->attach(accepted.value());
    joiner_.ch = client.value();
    joiner_.co = std::make_unique<client::CoApp>("joiner", "joiner" + std::to_string(joins_attempted_),
                                                 static_cast<UserId>(100000 + joins_attempted_));
    joiner_.co->connect(joiner_.ch, w_.journal ? session_name(0) : kJoinSession);
    joiner_.active = true;
    const std::int64_t t1 = now_ns();
    spans_.add("bench.connect", joiner_.t0, t1, joins_attempted_);
    join_connect_us_.push_back(static_cast<double>(t1 - joiner_.t0) / 1000.0);
}

void Bench::poll_joiner() {
    joiner_.ch->poll();
    const std::int64_t t = now_ns();
    if (joiner_.t_reg == 0 && joiner_.co->instance() != kInvalidInstance) joiner_.t_reg = t;
    if (joiner_.co->online()) {
        ++joins_done_;
        join_ms_.push_back(static_cast<double>(t - joiner_.t0) / 1e6);
        join_reg_us_.push_back(static_cast<double>(joiner_.t_reg - joiner_.t0) / 1000.0);
        join_sync_us_.push_back(static_cast<double>(t - joiner_.t_reg) / 1000.0);
        end_join();
    } else if (t - joiner_.t0 > kJoinDeadline) {
        ++joins_failed_;
        end_join();
    }
}

void Bench::end_join() {
    joiner_.co.reset();
    joiner_.ch.reset();
    joiner_.active = false;
}

void Bench::open_loop(std::int64_t duration, Phase phase, bool joins) {
    const std::size_t n = apps_.size();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + duration;
    std::exponential_distribution<double> gap(w_.rate_a / 1e9);
    std::int64_t next = start + static_cast<std::int64_t>(gap(sched_rng_));
    std::int64_t next_join = start + kJoinPeriod / 2;
    bool traced = false;
    for (std::int64_t t = start; t < end; t = now_ns()) {
        if (args_.trace && phase == kPhaseA) {
            const bool want = ((t - start) / kTraceBlock) % 2 == 1;
            if (want != traced) {
                traced = want;
                obs::Tracer::instance().set_enabled(traced);
                spans_.set_enabled(traced);
            }
        }
        while (next <= t) {
            apps_[sched_rng_() % n].backlog.push_back(next);
            next += std::max<std::int64_t>(1, static_cast<std::int64_t>(gap(sched_rng_)));
        }
        for (std::size_t a = 0; a < n; ++a) {
            App& app = apps_[a];
            while (!app.backlog.empty() && issue(a, app.backlog.front(), phase)) app.backlog.pop_front();
        }
        if (joins && t >= next_join) {
            start_join();
            next_join += kJoinPeriod;
        }
        sample_steal(t);
        // Idle: yield rather than spin bare, or a program thread woken onto
        // the driver's CPU waits out a whole time slice.
        if (pump() == 0) sched_yield();
    }
    if (phase == kPhaseA) {
        obs::Tracer::instance().set_enabled(false);
        spans_.set_enabled(false);
    }
    // Sends still waiting for a free group when the phase ends never went
    // out: they count as attempted and failed.
    for (App& app : apps_) {
        if (phase != kWarm) backlog_at_end_ += app.backlog.size();
        app.backlog.clear();
    }
}

void Bench::closed_loop(std::int64_t duration) {
    const std::int64_t end = now_ns() + duration;
    for (std::int64_t t = now_ns(); t < end; t = now_ns()) {
        for (std::size_t a = 0; a < apps_.size(); ++a) {
            while (apps_[a].outstanding < w_.outstanding_b && issue(a, t, kPhaseB)) {
            }
        }
        sample_steal(t);
        if (pump() == 0) sched_yield();
    }
}

void Bench::drain(Phase phase) {
    const std::int64_t deadline = now_ns() + kDrainDeadline;
    while (outstanding_[phase] > 0 || joiner_.active) {
        if (now_ns() > deadline) {
            if (phase == kPhaseA) backlog_undrained_ = true;
            for (Op& op : ops_) {
                if (!op.complete && op.phase == phase) {
                    op.done = true;
                    op.failed = true;
                    maybe_complete(op);
                }
            }
            if (joiner_.active) {
                ++joins_failed_;
                end_join();
            }
            break;
        }
        if (pump() == 0) sched_yield();
    }
}

void Bench::settle() {
    // Quiescent point: no client frame for 5 ms and the strands drained.
    for (int pass = 0; pass < 2; ++pass) {
        std::int64_t idle_since = now_ns();
        const std::int64_t deadline = idle_since + kDrainDeadline;
        while (now_ns() - idle_since < 5 * kMs && now_ns() < deadline) {
            if (pump() > 0) idle_since = now_ns();
            sched_yield();
        }
        mgr_->quiesce();
    }
}

Counters Bench::snapshot() {
    Counters c{};
    for (std::size_t s = 0; s < w_.sessions; ++s) {
        if (server::CoSession* session = mgr_->find_session(session_name(s))) {
            const server::ServerStats st = session->stats();
            c[kMsgs] += st.messages_received + st.messages_sent;
            c[kFanned] += st.frames_fanned_out;
            c[kDenied] += st.locks_denied;
            c[kSyncSteps] += session->registry().counter("cosoft_sync_steps_total").value();
            c[kSyncBuffered] += session->registry().counter("cosoft_sync_buffered_frames_total").value();
            c[kSyncDone] += session->registry().counter("cosoft_sync_completed_total").value();
        }
    }
    obs::Registry& global = obs::Registry::global();
    c[kEncodes] = global.counter("cosoft_protocol_encodes_total").value();
    c[kJAppends] = global.counter("cosoft_journal_appends_total").value();
    c[kJBytes] = global.counter("cosoft_journal_bytes_total").value();
    c[kJFsyncs] = global.counter("cosoft_journal_fsyncs_total").value();
    c[kJCompactions] = global.counter("cosoft_journal_compactions_total").value();
    c[kRouted] = mgr_->registry().counter("cosoft_server_sessions_frames_routed_total").value();
    // Recorder events ever recorded = sum over threads of the highest
    // per-thread sequence number still in the rings.
    std::map<std::uint16_t, std::uint32_t> last_seq;
    for (const obs::RecordedEvent& e : obs::FlightRecorder::instance().snapshot_events()) {
        last_seq[e.tid] = std::max(last_seq[e.tid], e.seq + 1);
    }
    for (const auto& [tid, seq] : last_seq) c[kRecorder] += seq;
    for (const net::Reactor::ShardStats& s : server_reactor_->shard_stats()) {
        c[kSrvWakeups] += s.wakeups;
        c[kFlushes] += s.flush_syscalls;
        c[kFramesFlushed] += s.frames_flushed;
    }
    for (const net::Reactor::ShardStats& s : client_reactor_->shard_stats()) {
        c[kFlushes] += s.flush_syscalls;
        c[kFramesFlushed] += s.frames_flushed;
    }
    c[kCpuDriver] = perfbench::thread_cpu_ns(driver_tid_);
    c[kCpuClient] = perfbench::threads_cpu_ns(client_tids_);
    c[kCpuServer] = perfbench::threads_cpu_ns(server_tids_);
    c[kCpuWorkers] = perfbench::threads_cpu_ns(worker_tids_);
    return c;
}

void Bench::sample_steal(std::int64_t t, bool force) {
    if (!force && t < next_steal_) return;
    steal_.emplace_back(t, perfbench::host_steal_s());
    next_steal_ = t + kStealSample;
}

double Bench::steal_share(std::int64_t t0, std::int64_t t1) const {
    if (steal_.empty() || t1 <= t0) return 0;
    // The reading of the last sample taken at or before t.
    const auto at = [&](std::int64_t t) {
        const auto it = std::upper_bound(steal_.begin(), steal_.end(), t,
                                         [](std::int64_t v, const auto& sample) { return v < sample.first; });
        return it == steal_.begin() ? steal_.front().second : std::prev(it)->second;
    };
    return (at(t1) - at(t0)) / (static_cast<double>(t1 - t0) / 1e9 * perfbench::online_cpus());
}

void Bench::wait_calm() {
    while (calm_wait_ < kCalmBudget) {
        const double s0 = perfbench::host_steal_s();
        std::this_thread::sleep_for(std::chrono::nanoseconds(kCalmCheck));
        const double cpu_s = static_cast<double>(kCalmCheck) / 1e9 * perfbench::online_cpus();
        if ((perfbench::host_steal_s() - s0) / cpu_s <= kMaxSteal) return;
        calm_wait_ += kCalmCheck;
    }
}

std::vector<bool> Bench::usable(const std::vector<std::int64_t>& starts, std::int64_t len) const {
    std::vector<double> share;
    for (const std::int64_t t : starts) share.push_back(steal_share(t, t + len));
    std::vector<bool> clean;
    for (const double s : share) clean.push_back(s <= kMaxSteal);
    const std::size_t third = (share.size() + 2) / 3;
    if (static_cast<std::size_t>(std::count(clean.begin(), clean.end(), true)) < third) {
        // Too few clean windows: the third with the least steal.
        std::vector<double> sorted = share;
        std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(third - 1), sorted.end());
        const double limit = sorted[third - 1];
        for (std::size_t k = 0; k < share.size(); ++k) clean[k] = share[k] <= limit;
    }
    return clean;
}

std::pair<double, double> Bench::host_noise() const {
    double steal = 0;
    double span = 0;
    std::size_t clean = 0;
    const auto add = [&](const std::vector<std::int64_t>& starts, std::int64_t len) {
        for (const std::int64_t t : starts) {
            const double share = steal_share(t, t + len);
            steal += share * static_cast<double>(len);
            span += static_cast<double>(len);
            clean += share <= kMaxSteal ? 1 : 0;
        }
    };
    add(lat_win_start_, lat_window_);
    add(sat_win_start_, sat_window_);
    const std::size_t windows = lat_win_start_.size() + sat_win_start_.size();
    return {span == 0 ? 0 : 100.0 * steal / span, windows == 0 ? 0 : 100.0 * double(clean) / double(windows)};
}

bool Bench::round(int index, std::int64_t phase_a, std::int64_t phase_b, std::string& why) {
    inflight_.assign(w_.sessions, std::vector<std::int64_t>(w_.groups, -1));
    last_op_ = inflight_;
    last_failed_.assign(w_.sessions, std::vector<bool>(w_.groups, false));
    chat_next_.assign(apps_.size(), std::vector<std::uint32_t>(apps_.size(), 0));

    // A traced run traces the warm-up too, so every thread's span ring is
    // allocated before the measured phases (only phase-A spans are used).
    obs::Tracer::instance().set_enabled(args_.trace);
    open_loop(kWarmup, kWarm, false);
    obs::Tracer::instance().set_enabled(false);
    drain(kWarm);
    settle();

    server::CoSession* main_session = mgr_->find_session(session_name(0));
    const auto stage = [&](const char* name) -> obs::Histogram& { return main_session->registry().histogram(name, {}); };
    obs::Histogram& replay = obs::Registry::global().histogram("cosoft_client_replay_us", {});
    for (obs::Histogram* h : {&stage("cosoft_server_stage_lock_us"), &stage("cosoft_server_stage_broadcast_us"),
                              &stage("cosoft_server_stage_ack_us"), &replay}) {
        h->reset();
    }
    const std::uint64_t joins_before = joins_done_;
    const std::uint64_t a_first = next_id_;
    const Counters a0 = snapshot();
    win_first_ = lat_win_.size();
    const std::int64_t lat_windows = std::max<std::int64_t>(1, phase_a / kLatWindow);
    lat_window_ = phase_a / lat_windows;
    lat_win_.resize(win_first_ + static_cast<std::size_t>(lat_windows));
    grant_win_.resize(lat_win_.size());
    a_start_ = now_ns();
    sample_steal(a_start_, true);
    for (std::int64_t k = 0; k < lat_windows; ++k) lat_win_start_.push_back(a_start_ + k * lat_window_);
    open_loop(phase_a, kPhaseA, true);
    a_windows_.emplace_back(a_start_, now_ns());
    sample_steal(now_ns(), true);
    drain(kPhaseA);
    settle();
    const Counters a1 = snapshot();
    accumulate(sum_a_, a0, a1);
    a_ops_ += next_id_ - a_first;
    stage_lock_.push_back(stage("cosoft_server_stage_lock_us").quantile(0.5));
    stage_broadcast_.push_back(stage("cosoft_server_stage_broadcast_us").quantile(0.5));
    stage_ack_.push_back(stage("cosoft_server_stage_ack_us").quantile(0.5));
    replay_p50_.push_back(replay.quantile(0.5));

    const Counters b0 = snapshot();
    if (args_.trace) {
        hot::reset();
        hot::count_all(true);
        hot::arm(true);
    }
    const std::uint64_t b_first = next_id_;
    sat_first_ = sat_count_.size();
    const std::int64_t sat_windows = std::max<std::int64_t>(1, phase_b / kSatWindow);
    sat_window_ = phase_b / sat_windows;
    sat_count_.resize(sat_first_ + static_cast<std::size_t>(sat_windows), 0);
    sat_bytes_.resize(sat_count_.size(), 0);
    b_start_ = now_ns();
    sample_steal(b_start_, true);
    for (std::int64_t k = 0; k < sat_windows; ++k) sat_win_start_.push_back(b_start_ + k * sat_window_);
    closed_loop(phase_b);
    sample_steal(now_ns(), true);
    drain(kPhaseB);
    settle();
    if (args_.trace) {
        hot::arm(false);
        hot::count_all(false);
        allocs_.allocs += hot::totals().allocs;
        allocs_.bytes += hot::totals().bytes;
    }
    const Counters b1 = snapshot();
    accumulate(sum_b_, b0, b1);
    const std::uint64_t b_ops = next_id_ - b_first;
    b_ops_ += b_ops;

    for (const App& app : apps_) {
        for (const auto& ch : {app.ch, app.server_ch.lock()}) {
            if (!ch) continue;
            const net::ChannelStats st = ch->stats();
            backpressure_ += st.backpressure_events;
            queue_peak_ = std::max(queue_peak_, st.send_queue_peak_bytes);
        }
    }
    Counters a{}, b{};
    accumulate(a, a0, a1);
    accumulate(b, b0, b1);
    if (!check(a, b, b_ops, joins_done_ - joins_before, why)) {
        why = "round " + std::to_string(index) + ": " + why;
        return false;
    }
    return true;
}

// --- checks and results ---------------------------------------------------------

bool Bench::check(const Counters& a, const Counters& b, std::uint64_t b_ops, std::uint64_t joins, std::string& why) {
    const auto fail = [&why](const std::string& reason) {
        why += reason + "; ";
        return false;
    };
    bool ok = true;
    // Replicas: every group holds the same value in all member apps and,
    // when the group's last operation succeeded, it is that operation's value.
    for (std::size_t s = 0; s < w_.sessions; ++s) {
        for (std::uint32_t g = 0; g < w_.groups; ++g) {
            const std::size_t first = s * w_.apps_per_session;
            const std::string want = apps_[first].co->ui().find(group_path(g))->text("value");
            const std::int64_t id = last_op_[s][g];
            if (id >= 0 && !last_failed_[s][g] && want != value_of(static_cast<std::uint64_t>(id))) {
                ok = fail("group " + group_path(g) + " holds '" + want + "', not its last value " +
                          value_of(static_cast<std::uint64_t>(id)));
            }
            for (std::size_t p = 1; p < w_.apps_per_session; ++p) {
                const std::string have = apps_[first + p].co->ui().find(group_path(g))->text("value");
                if (have != want) ok = fail("group " + group_path(g) + " diverged: '" + have + "' != '" + want + "'");
            }
        }
    }
    for (std::size_t s = 0; s < w_.sessions; ++s) {
        server::CoSession* session = mgr_->find_session(session_name(s));
        if (session == nullptr) {
            ok = fail("session " + session_name(s) + " missing");
            continue;
        }
        if (session->locks().locked_count() != 0) ok = fail("locks still held at quiescence");
        for (const std::string& v : session->check_invariants()) ok = fail("session invariant: " + v);
    }
    for (const std::string& v : mgr_->check_invariants()) ok = fail("manager invariant: " + v);
    if (w_.kind == Kind::kCoupledEmit && b[kMsgs] != 17 * b_ops) {
        ok = fail("server messages per emit " + std::to_string(double(b[kMsgs]) / double(b_ops)) + " != 4g+1 = 17");
    }
    if (chat_errors_ > 0) ok = fail(std::to_string(chat_errors_) + " chat payloads corrupt or out of order");
    if (stray_callbacks_ > 0) ok = fail(std::to_string(stray_callbacks_) + " widget callbacks with no operation");
    if (w_.journal && a[kSyncDone] != joins) {
        ok = fail("cosoft_sync_completed_total moved by " + std::to_string(a[kSyncDone]) + " for " +
                  std::to_string(joins) + " joins");
    }
    if (joins == 0) ok = fail("no join completed");
    if (b_ops == 0) ok = fail("phase B completed no operation");
    return ok;
}

void Bench::codec_probe(perfbench::Result& r) {
    // The workload's own wire mix: one emit's 4g+1 messages, or chat
    // Command/CommandDeliver/Ack frames at sizes drawn from its distribution.
    std::vector<protocol::Message> mix;
    if (w_.kind == Kind::kChatRooms) {
        std::mt19937_64 rng(args_.seed);
        for (int i = 0; i < 32; ++i) {
            const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
            const auto len = static_cast<std::size_t>(std::exp(std::log(double(kChatMin)) +
                                                               u * std::log(double(kChatMax) / kChatMin)));
            std::vector<std::uint8_t> payload(pool_.begin(), pool_.begin() + static_cast<std::ptrdiff_t>(len));
            mix.emplace_back(protocol::Command{static_cast<protocol::ActionId>(i), "chat", kInvalidInstance, payload});
            mix.emplace_back(protocol::CommandDeliver{1, "chat", std::move(payload)});
            mix.emplace_back(protocol::Ack{static_cast<protocol::ActionId>(i), ErrorCode::kOk, ""});
        }
    } else {
        const std::size_t partners = w_.apps_per_session - 1;
        const std::string path = group_path(7);
        std::vector<ObjectRef> group;
        for (std::size_t p = 0; p <= partners; ++p) group.push_back(ObjectRef{static_cast<InstanceId>(p + 1), path});
        const std::vector<ObjectRef> others(group.begin() + 1, group.end());
        toolkit::Event event;
        event.type = toolkit::EventType::kValueChanged;
        event.path = path;
        event.payload = value_of(123456);
        mix.emplace_back(protocol::LockReq{42, group[0], group});
        for (std::size_t p = 0; p < partners; ++p) mix.emplace_back(protocol::LockNotify{42, true, others});
        mix.emplace_back(protocol::LockGrant{42});
        mix.emplace_back(protocol::EventMsg{42, group[0], "", event});
        for (std::size_t p = 0; p <= partners; ++p) mix.emplace_back(protocol::ExecuteAck{42});
        for (std::size_t p = 0; p < partners; ++p) {
            mix.emplace_back(protocol::ExecuteEvent{42, group[0], others, "", event});
        }
        for (std::size_t p = 0; p <= partners; ++p) mix.emplace_back(protocol::LockNotify{42, false, group});
    }
    std::vector<protocol::Frame> frames;
    for (const protocol::Message& m : mix) frames.push_back(protocol::encode_message(m));
    std::size_t rounds = 0;
    std::int64_t encode_ns = 0;
    std::int64_t decode_ns = 0;
    std::size_t sink = 0;
    const std::int64_t probe_start = now_ns();
    while (encode_ns + decode_ns < 100 * kMs) {
        const std::int64_t t0 = now_ns();
        for (const protocol::Message& m : mix) sink += protocol::encode_message(m).size();
        const std::int64_t t1 = now_ns();
        for (const protocol::Frame& f : frames) sink += protocol::decode_frame(f.bytes()).is_ok() ? 1 : 0;
        const std::int64_t t2 = now_ns();
        encode_ns += t1 - t0;
        decode_ns += t2 - t1;
        ++rounds;
    }
    spans_.set_enabled(true);
    spans_.add("bench.codec", probe_start, now_ns(), sink);
    spans_.set_enabled(false);
    const double messages = static_cast<double>(rounds * mix.size());
    r.set("protocol.encode_ns", static_cast<double>(encode_ns) / messages, "ns");
    r.set("protocol.decode_ns", static_cast<double>(decode_ns) / messages, "ns");
}

/// Median over the usable windows of each window's q-quantile.
double window_median(const std::vector<std::vector<double>>& windows, const std::vector<bool>& use, double q) {
    std::vector<double> per_window;
    for (std::size_t k = 0; k < windows.size(); ++k) {
        if (use[k] && !windows[k].empty()) per_window.push_back(quantile(windows[k], q));
    }
    return quantile(per_window, 0.5);
}

void Bench::report_end_to_end(perfbench::Result& r) {
    const double probe_ms = quantile(probe_ns_, 0.5) / 1e6;
    const double setup = quantile(setup_s_, 0.5);
    const std::vector<bool> use_a = usable(lat_win_start_, lat_window_);
    const double lat50 = window_median(lat_win_, use_a, 0.5);
    const double lat90 = window_median(lat_win_, use_a, 0.9);
    const double grant = window_median(grant_win_, use_a, 0.5);
    const double join = quantile(join_ms_, 0.5);
    // Saturation: medians over the windows of every round's phase B.
    std::vector<double> ops_s;
    std::vector<double> mb_s;
    const std::vector<bool> use_b = usable(sat_win_start_, sat_window_);
    for (std::size_t k = 0; k < sat_count_.size(); ++k) {
        if (!use_b[k]) continue;
        ops_s.push_back(sat_count_[k] * 1e9 / static_cast<double>(sat_window_));
        mb_s.push_back(sat_bytes_[k] * 1e9 / static_cast<double>(sat_window_) / 1e6);
    }
    const double sat = quantile(ops_s, 0.5);
    const double goodput = quantile(mb_s, 0.5);
    std::fprintf(stderr,
                 "perfbench: at this host's speed (probe %.2f ms): lat_p50 %.1f us, lat_p90 %.1f us, grant_p50 %.1f "
                 "us, join_p50 %.3f ms, sat %.0f/s, goodput %.2f MB/s, setup %.4f s\n",
                 probe_ms, lat50, lat90, grant, join, sat, goodput, setup);

    const double slow = probe_ms * 1e6 / kProbeReferenceNs;  // > 1: the host runs slower than the reference
    r.set("setup_s", setup / slow, "s");
    r.set("rss_peak_mb", rss_peak_mb_, "MB");
    r.set("lat_p50_us", lat50 / slow, "us");
    r.set("lat_p90_us", lat90 / slow, "us");
    r.set("grant_p50_us", grant / slow, "us");
    r.set("join_p50_ms", join / slow, "ms");
    r.set("sat_ops_s", sat * slow, "1/s");
    r.set("goodput_mb_s", goodput * slow, "MB/s");
}

void Bench::report_layers(perfbench::Result& r) {
    const double b = static_cast<double>(std::max<std::uint64_t>(b_ops_, 1));
    const double a = static_cast<double>(std::max<std::uint64_t>(a_ops_, 1));
    const double joins = static_cast<double>(std::max<std::uint64_t>(joins_done_, 1));
    const auto per_b = [&](CounterIndex k) { return static_cast<double>(sum_b_[k]) / b; };
    const auto per_a = [&](CounterIndex k) { return static_cast<double>(sum_a_[k]) / a; };

    // client (driver thread)
    const char* call = w_.kind == Kind::kChatRooms ? "bench.send_command" : "bench.emit";
    r.set("client.emit_call_us", quantile(spans_.durations_us(call), 0.5), "us");
    r.set("client.poll_us_per_frame", poll_frames_ == 0 ? 0 : double(poll_ns_) / double(poll_frames_) / 1000.0, "us");
    r.set("client.replay_p50_us", quantile(replay_p50_, 0.5), "us");
    r.set("driver.cpu_us_per_op", per_b(kCpuDriver) / 1000.0, "us");
    // protocol
    r.set("protocol.encodes_per_op", per_b(kEncodes), "count");
    codec_probe(r);
    // net
    r.set("net.server_reactor.cpu_us_per_op", per_b(kCpuServer) / 1000.0, "us");
    r.set("net.client_reactor.cpu_us_per_op", per_b(kCpuClient) / 1000.0, "us");
    r.set("net.server_reactor.wakeups_per_op", per_b(kSrvWakeups), "count");
    r.set("net.frames_per_flush_syscall",
          sum_b_[kFlushes] == 0 ? 0 : double(sum_b_[kFramesFlushed]) / double(sum_b_[kFlushes]), "count");
    r.set("net.flush_syscalls_per_op", per_b(kFlushes), "count");
    r.set("net.backpressure_events", static_cast<double>(backpressure_), "count");
    r.set("net.send_queue_peak_bytes", static_cast<double>(queue_peak_), "bytes");
    // server
    r.set("server.workers.cpu_us_per_op", per_b(kCpuWorkers) / 1000.0, "us");
    r.set("server.stage_lock_p50_us", quantile(stage_lock_, 0.5), "us");
    r.set("server.stage_broadcast_p50_us", quantile(stage_broadcast_, 0.5), "us");
    r.set("server.stage_ack_p50_us", quantile(stage_ack_, 0.5), "us");
    r.set("server.msgs_per_op", per_b(kMsgs), "count");
    r.set("server.frames_routed_per_op", per_b(kRouted), "count");
    r.set("server.frames_fanned_out_per_op", per_b(kFanned), "count");
    r.set("server.locks_denied", static_cast<double>(sum_a_[kDenied] + sum_b_[kDenied]), "count");
    // server.journal: phase A, the phase whose latency it explains
    r.set("journal.appends_per_op", per_a(kJAppends), "count");
    r.set("journal.bytes_per_op", per_a(kJBytes), "bytes");
    r.set("journal.fsyncs_per_op", per_a(kJFsyncs), "count");
    r.set("journal.compactions", static_cast<double>(sum_a_[kJCompactions] + sum_b_[kJCompactions]), "count");
    r.set("sync.steps_per_join", double(sum_a_[kSyncSteps]) / joins, "count");
    r.set("sync.buffered_frames_per_join", double(sum_a_[kSyncBuffered]) / joins, "count");
    r.set("join.connect_us", quantile(join_connect_us_, 0.5), "us");
    r.set("join.register_us", quantile(join_reg_us_, 0.5), "us");
    r.set("join.sync_us", quantile(join_sync_us_, 0.5), "us");
    // obs
    r.set("obs.recorder_events_per_op", per_b(kRecorder), "count");
    const double untraced = quantile(lat_us_[0], 0.5);
    const double traced = quantile(lat_us_[1], 0.5);
    r.set("obs.trace_overhead_pct", untraced == 0 ? 0 : (traced - untraced) / untraced * 100.0, "%");
    // common
    r.set("alloc.per_op", static_cast<double>(allocs_.allocs) / b, "count");
    r.set("alloc.bytes_per_op", static_cast<double>(allocs_.bytes) / b, "bytes");

    // The traced §3.2 cycle of phase A: self times and the transport and
    // queueing gaps between spans.
    std::vector<obs::Span> program;
    for (const obs::Span& s : obs::Tracer::instance().collect()) {
        const auto in_a = [&](const auto& w) {
            return static_cast<std::int64_t>(s.start_ns) >= w.first && static_cast<std::int64_t>(s.start_ns) < w.second;
        };
        if (std::any_of(a_windows_.begin(), a_windows_.end(), in_a)) program.push_back(s);
    }
    std::size_t traces = 0;
    for (const auto& [name, value] : perfbench::cycle_ledger(program, w_.apps_per_session - 1, traces)) {
        r.set(name, value, "us");
    }
    r.set("ledger.traces", static_cast<double>(traces), "count");

    // Generator health and the latency tail with its sample count (reported,
    // not gated).
    r.set("gen.lateness_p99_us", quantile(late_us_, 0.99), "us");
    r.set("gen.lateness_max_us", quantile(late_us_, 1.0), "us");
    r.set("gen.backlog_undrained", backlog_undrained_ || backlog_at_end_ > 0 ? 1 : 0, "count");
    r.set("diag.lat_p99_us", quantile(lat_us_[0], 0.99), "us");
    r.set("diag.lat_p999_us", quantile(lat_us_[0], 0.999), "us");
    r.set("diag.lat_samples", static_cast<double>(lat_us_[0].size()), "count");
    const auto [steal, clean] = host_noise();
    r.set("host.steal_pct", steal, "%");
    r.set("host.clean_windows_pct", clean, "%");
    r.set("host.probe_ms", quantile(probe_ns_, 0.5) / 1e6, "ms");

    const std::string path = args_.work_dir + "/trace-" + w_.name + ".json";
    if (!perfbench::write_trace(path, program, spans_.spans())) {
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
}

int Bench::run() {
    sched_rng_.seed(args_.seed);
    std::mt19937_64 pool_rng(args_.seed ^ 0x9e3779b97f4a7c15ull);
    pool_.resize(kPoolBytes);
    for (std::uint8_t& byte : pool_) byte = static_cast<std::uint8_t>(pool_rng());
    for (std::size_t a = 0; a < w_.sessions * w_.apps_per_session; ++a) payload_rng_.emplace_back(args_.seed * 7919 + a);
    if (args_.trace) obs::Tracer::instance().set_ring_capacity(1u << 17);

    const auto timed_build = [&](int index) {
        const std::int64_t t0 = now_ns();
        if (!build(index)) return false;
        setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        return true;
    };
    const auto measured = static_cast<std::int64_t>(args_.seconds * 1e9);
    const auto phase_a = static_cast<std::int64_t>(static_cast<double>(measured) * kPhaseAShare);
    std::string why;
    int rounds = 0;
    for (int i = 0; i < kRounds + (args_.trace ? 0 : kExtraRounds); ++i) {
        if (i >= kRounds && host_noise().second >= 100.0 * kCleanShare) break;
        ++rounds;
        // Rounds past kRounds take build indices after the set-up-only builds.
        const int index = i < kRounds ? i : kSetupSamples + i - kRounds;
        wait_calm();
        probe_ns_.push_back(perfbench::host_probe_ns());
        perfbench::reset_rss_peak();  // the peak of the rounds, not of the probe or earlier rigs
        if (!timed_build(index)) {
            std::fprintf(stderr, "perfbench: set-up failed\n");
            return 1;
        }
        if (!round(index, phase_a / kRounds, (measured - phase_a) / kRounds, why)) {
            std::fprintf(stderr, "perfbench: correctness check failed: %s\n", why.c_str());
            return 2;
        }
        // Resident memory grows from round to round, so the extra round
        // would move the peak: it counts only the planned rounds.
        if (i < kRounds) rss_peak_mb_ = std::max(rss_peak_mb_, perfbench::rss_peak_mb());
        teardown();
    }
    probe_ns_.push_back(perfbench::host_probe_ns());
    // Set-up alone, after the rounds so that its rigs leave nothing resident
    // in the rounds' memory peak, until kSetupSamples builds are timed.
    if (!args_.trace) wait_calm();
    for (int i = 0; !args_.trace && i < kSetupSamples - kRounds; ++i) {
        if (!timed_build(kRounds + i)) {
            std::fprintf(stderr, "perfbench: set-up failed\n");
            return 1;
        }
        teardown();
    }
    attempted_ += backlog_at_end_;
    const std::uint64_t failed = failed_ + joins_failed_ + backlog_at_end_;

    std::vector<double> lat = lat_us_[0];
    lat.insert(lat.end(), lat_us_[1].begin(), lat_us_[1].end());
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu trace=%d rounds=%d ops A=%llu B=%llu joins=%llu attempted=%llu "
                 "failed=%llu; phase A latency p99 %.1f us, p99.9 %.1f us over %zu samples; generator "
                 "lateness p99 %.1f us, max %.1f us; host steal %.2f%%, %.0f%% of windows clean, speed probe "
                 "%.2f ms, waited %.1f s for a calm host\n",
                 w_.name, static_cast<unsigned long long>(args_.seed), args_.trace ? 1 : 0, rounds,
                 static_cast<unsigned long long>(a_ops_), static_cast<unsigned long long>(b_ops_),
                 static_cast<unsigned long long>(joins_done_), static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed), quantile(lat, 0.99), quantile(lat, 0.999), lat.size(),
                 quantile(late_us_, 0.99), quantile(late_us_, 1.0), host_noise().first, host_noise().second,
                 quantile(probe_ns_, 0.5) / 1e6, static_cast<double>(calm_wait_) / 1e9);

    perfbench::Result result;
    if (args_.trace) {
        report_layers(result);
    } else {
        report_end_to_end(result);
    }
    if (w_.journal) {
        std::error_code ec;
        for (int i = 0; i < kSetupSamples + kExtraRounds; ++i) {
            std::filesystem::remove_all(args_.work_dir + "/journal-" + std::to_string(i), ec);
        }
    }
    std::printf("%s\n", result.json(true, attempted_, failed).c_str());
    return 0;
}

bool parse(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        if (key == "--workload") {
            for (const Workload& w : kWorkloads) {
                if (std::strcmp(w.name, value) == 0) args.workload = &w;
            }
        } else if (key == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (key == "--trace") {
            args.trace = std::strcmp(value, "0") != 0;
        } else if (key == "--work-dir") {
            args.work_dir = value;
        } else {
            return false;
        }
    }
    return args.workload != nullptr && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: cosoft_perfbench --workload coupled_emit|chat_rooms|late_join --seed N "
                     "--seconds S --trace 0|1 [--work-dir DIR]\n");
        return 64;
    }
    Bench bench(std::move(args));
    return bench.run();
}
