// SessionManager: many independent coupling sessions in one server process.
//
// The paper's server mediates a single session (one lock table, one couple
// graph, one registry). This front-end multiplexes any number of them: a
// connection attaches into a lobby, its Register names the session to join
// (created on demand), and from then on every frame it sends is dispatched
// by that session's CoSession. Empty sessions are torn down automatically
// (default_session() pins the default session, so single-session embedders
// keep a stable reference). The manager is the server's only front door:
// a CoSession never installs channel handlers of its own.
//
// Dispatch model — serial per session, concurrent across sessions:
//  - Every connection owns a FIFO inbox of undecoded frames. Arriving frames
//    are appended and a processing token is enqueued on the *strand* the
//    connection currently belongs to (the lobby strand before Register, the
//    session's strand after).
//  - A strand is scheduled on the worker pool at most once at a time, so all
//    of one session's traffic is handled serially — CoSession needs no locks
//    — while different sessions' strands run on different workers in
//    parallel.
//  - A token processed by a strand the connection has moved away from is
//    forwarded, not dispatched, so exactly one strand ever pops a given
//    inbox and per-connection frame order is preserved across the
//    lobby-to-session handoff.
//  - A worker corks its TCP sends for the length of a strand batch
//    (net::SendCork): each connection the batch touched flushes once, with
//    mu_ released, so the batch's frames to one client share one sendmsg.
//
// With `workers == 0` the manager dispatches inline on whatever thread
// delivers the frame (SimNetwork's event loop, a single TCP pump thread, a
// test): same routing, no threads — this is the deterministic mode tests
// and the mc model checker build on.
//
// Thread ownership at steady state (TCP deployment, W workers):
//
//   reactor thread ──▶ TcpChannel receive handlers (reactor delivery)
//        │                  route_frame: append inbox, schedule strand
//        ▼
//   worker pool (W threads) ──▶ one strand at a time: decode + CoSession
//        │                      dispatch, session create/GC, status rows
//        ▼
//   accept thread (embedder) ──▶ attach() only
//
// so the process runs W + 1 threads of transport+dispatch for any number of
// connections and sessions.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cosoft/common/ids.hpp"
#include "cosoft/common/strand_check.hpp"
#include "cosoft/common/thread_annotations.hpp"
#include "cosoft/net/channel.hpp"
#include "cosoft/net/reactor.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/obs/watchdog.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/co_session.hpp"

namespace cosoft::net {
class SendCork;
}  // namespace cosoft::net

namespace cosoft::server {

struct SessionManagerOptions {
    /// Dispatch worker threads. 0 = inline dispatch on the delivering thread
    /// (single-threaded embedders: SimNetwork, tests, the model checker).
    std::size_t workers = 0;
    /// The manager's private transport reactor, when it owns one (TCP
    /// deployments). Channels attached to this manager must be registered on
    /// this reactor; checked builds then verify that the reactor's
    /// registered fd count equals the manager's live connection count.
    std::shared_ptr<net::Reactor> reactor;
    /// Durable session journals: when non-empty, every session appends its
    /// replayable history to `<journal_dir>/<session>.cosj` and the manager
    /// recovers all journaled sessions at construction (boot-dir scan +
    /// replay). Empty = volatile sessions (the historical behaviour).
    std::string journal_dir;
    /// Durability policy for journal appends (see FsyncPolicy).
    FsyncPolicy journal_fsync = FsyncPolicy::kBatch;
    /// Journal size that triggers snapshot + truncate compaction.
    std::size_t journal_compact_bytes = 4u << 20;
    /// Stream the SyncBegin..SyncEnd catch-up handshake to late joiners
    /// instead of the bare RegisterAck (requires v3 clients).
    bool sync_late_joiners = false;
};

/// One row of the connection table GET /status serves: who is attached and
/// what its channel's counters say right now. Sent/received are from the
/// server's point of view (it holds its end of each channel).
struct ConnectionRow {
    InstanceId instance = kInvalidInstance;
    std::string user_name;
    std::string app_name;
    bool registered = false;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t backpressure_events = 0;
    std::uint64_t send_queue_peak_bytes = 0;
    std::uint64_t queued_frames = 0;  ///< outbound frames not yet on the wire
    std::string session;              ///< joined session ("" until registered)
    friend bool operator==(const ConnectionRow&, const ConnectionRow&) = default;
};

/// The whole-process topology: one row per session (by name), one per live
/// connection (by instance id).
struct ServerStatus {
    std::vector<SessionRow> sessions;
    std::vector<ConnectionRow> connections;
};

class SessionManager {
  public:
    explicit SessionManager(SessionManagerOptions options = {});
    ~SessionManager();
    SessionManager(const SessionManager&) = delete;
    SessionManager& operator=(const SessionManager&) = delete;

    /// Adopts a freshly connected client channel into the lobby. Installs
    /// the channel's receive/close handlers; TcpChannels are switched to
    /// reactor delivery so their frames dispatch without a pump thread. The
    /// returned id is the instance identifier the client will receive in
    /// RegisterAck after its Register routes it into a session.
    InstanceId attach(std::shared_ptr<net::Channel> channel);

    /// The pinned default session (creates and pins it on first call). Only
    /// meaningful for single-session embedders. Its mutating surface belongs
    /// to its strand (checked builds report any other caller); with
    /// workers > 0, reads must wait for quiescent points.
    CoSession& default_session();

    /// Looks up a session by name (nullptr if absent). Same threading caveat
    /// as default_session().
    [[nodiscard]] CoSession* find_session(const std::string& name);

    /// Blocks until every queued frame has been dispatched and all workers
    /// are idle (tests; inline mode returns immediately).
    void quiesce();

    // Introspection.
    [[nodiscard]] std::size_t session_count() const;
    [[nodiscard]] std::size_t connection_count() const;  ///< lobby + all sessions
    [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }
    /// Session and connection tables (GET /status). Session rows are the
    /// snapshots refreshed at dispatch boundaries and channel counters are
    /// atomics, so this takes mu_ briefly and never waits on a dispatch
    /// strand; safe to call from any thread.
    [[nodiscard]] ServerStatus status() const;
    /// The manager's own registry (cosoft_server_sessions_* instruments).
    [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
    /// The manager's transport reactor when it owns one (nullptr otherwise).
    [[nodiscard]] const std::shared_ptr<net::Reactor>& reactor() const noexcept {
        return options_.reactor;
    }

    /// Attaches a stall watchdog: the lobby registers a "lobby" progress
    /// source, every session strand a "session:<name>" one (created strands
    /// register on creation, collected strands retire). run_strand feeds the
    /// sources from the dispatch hot path. Wire this up before traffic flows
    /// and do not swap watchdogs mid-run: a running batch caches its
    /// strand's Source pointer, which a swap would leave dangling.
    /// nullptr retires every source.
    void set_watchdog(std::shared_ptr<obs::Watchdog> watchdog);

    /// The last records of each journaled session's file, sorted by session
    /// name, for the /journal monitor route. Safe from any thread: the file
    /// paths are collected under mu_, and the files are read after it is
    /// released, so a scrape never waits on or blocks a dispatch strand.
    [[nodiscard]] std::vector<std::pair<std::string, std::vector<SessionJournal::Record>>>
    journal_tails() const;

    /// The full Prometheus exposition the HTTP plane serves: manager
    /// instruments plus hot-path, reactor-shard, watchdog, flight-recorder
    /// and build-info families. Deliberately does NOT take mu_ — a wedged
    /// dispatch must never take /metrics down with it (every exported
    /// instrument is individually synchronized).
    [[nodiscard]] std::string metrics_exposition() const;

    /// Test-only: invoked (unlocked, on the dispatching thread) with the
    /// session name just before every CoSession::deliver. Lets tests inject
    /// a stalled strand without touching production dispatch. Must be set
    /// while no traffic is flowing; the dispatch path reads it unsynchronized.
    void debug_set_dispatch_hook(std::function<void(const std::string&)> hook);

    /// Manager-level invariants: routing tables consistent, and — when the
    /// manager owns its reactor — reactor-registered fds == live
    /// connections across the lobby and every session. Exact only at
    /// quiescent points (no attach/accept in flight).
    [[nodiscard]] std::vector<std::string> check_invariants() const;

  private:
    struct Strand;

    struct Conn {
        std::shared_ptr<net::Channel> channel;
        Strand* strand = nullptr;  ///< lobby first, then the joined session's strand
        std::deque<protocol::Frame> inbox;
        bool adopted = false;   ///< the owning session has seen adopt()
        bool closed = false;    ///< close routed; depart once the inbox drains
        bool departed = false;  ///< cleanup ran; drop any stale tokens
        std::string user_name;  ///< captured from Register for status rows
        std::string app_name;
    };

    /// Serial execution domain: the lobby, or one session. At most one
    /// worker runs a strand at a time (`scheduled` covers queued + running).
    struct Strand {
        explicit Strand(std::unique_ptr<CoSession> s) : session(std::move(s)) {}
        std::unique_ptr<CoSession> session;  ///< null for the lobby strand
        std::deque<InstanceId> tokens;
        bool scheduled = false;
        /// Connections routed to this strand (counted at routing time, so a
        /// session whose adopt token is still queued cannot be collected).
        std::size_t live_conns = 0;
        bool pinned = false;
        SessionRow status;  ///< snapshot refreshed after dispatch
        /// Watchdog progress source (nullptr when no watchdog is attached).
        /// Owned by the watchdog; this strand only feeds it.
        obs::Watchdog::Source* progress = nullptr;
        /// Steady-clock stamp of the last empty->nonempty token-queue edge:
        /// resets whenever the strand drains, so its age measures how long
        /// the queue has gone continuously unserved (the watchdog's
        /// queue-age signal).
        std::uint64_t queue_oldest_ns = 0;
    };

    void route_frame(InstanceId id, const protocol::Frame& frame);
    void route_close(InstanceId id);
    /// Pushes a token onto `strand`, stamping the queue-age edge and feeding
    /// the strand's watchdog source (all token enqueues funnel through here).
    void push_token(Strand* strand, InstanceId id) CO_REQUIRES(mu_);
    /// Snapshot of the attached watchdog (nullptr when none). Takes only
    /// watchdog_mu_, so it is callable with or without mu_ held.
    [[nodiscard]] std::shared_ptr<obs::Watchdog> watchdog_copy() const;
    /// Appends a token for `id` to its current strand and schedules it
    /// (inline mode: runs it to completion on the calling thread).
    void enqueue_token(MutexLock& lock, InstanceId id) CO_REQUIRES(mu_);
    void schedule(MutexLock& lock, Strand* strand) CO_REQUIRES(mu_);
    /// Runs one strand token batch; called by workers and by inline mode.
    void run_strand(MutexLock& lock, Strand* strand) CO_REQUIRES(mu_);
    /// Processes one token for `id` on `strand` (the strand is held by the
    /// calling worker). Returns with `lock` re-held; channels whose
    /// connection departed are parked in `graveyard` so their (blocking)
    /// destructors run outside mu_. A session dispatch flushes the batch's
    /// `cork` after delivering — fully when `last_in_batch`, else only once
    /// its delay bound is due — while mu_ is still released.
    void process_token(MutexLock& lock, Strand* strand, InstanceId id,
                       std::vector<std::shared_ptr<net::Channel>>& graveyard,
                       net::SendCork& cork, bool last_in_batch) CO_REQUIRES(mu_);
    /// Lobby dispatch of one frame: Register routes, a registry query is
    /// refused, everything else is dropped (unregistered traffic).
    void lobby_dispatch(MutexLock& lock, InstanceId id, protocol::Frame frame) CO_REQUIRES(mu_);
    Strand* find_or_create_session(MutexLock& lock, const std::string& name) CO_REQUIRES(mu_);
    /// Moves a lobby connection into `session_name` (created on demand).
    void route_to_session(MutexLock& lock, InstanceId id, const std::string& session_name)
        CO_REQUIRES(mu_);
    /// Departure: session cleanup, connection erasure, session GC.
    void depart(MutexLock& lock, Strand* strand, InstanceId id,
                std::vector<std::shared_ptr<net::Channel>>& graveyard) CO_REQUIRES(mu_);
    void collect_if_empty(MutexLock& lock, Strand* strand) CO_REQUIRES(mu_);
    /// Checked-build subset of check_invariants() safe while traffic flows
    /// (the reactor comparison is one-sided: accepts may be in flight).
    void check_running_invariants(MutexLock& lock) const CO_REQUIRES(mu_);
    void refresh_status(Strand* strand) CO_REQUIRES(mu_);
    void worker_loop();

    SessionManagerOptions options_;
    mutable co::Mutex mu_{"server.SessionManager.mu"};
    std::condition_variable work_cv_;   ///< workers wait for runnable strands
    std::condition_variable idle_cv_;   ///< quiesce() waits for drain
    bool stop_ CO_GUARDED_BY(mu_) = false;
    bool shutting_down_ CO_GUARDED_BY(mu_) =
        false;  ///< routing becomes a no-op during teardown
    std::size_t busy_workers_ CO_GUARDED_BY(mu_) = 0;

    std::unordered_map<InstanceId, Conn> conns_ CO_GUARDED_BY(mu_);
    InstanceId next_instance_ CO_GUARDED_BY(mu_) = 1;
    Strand lobby_ CO_GUARDED_BY(mu_){nullptr};
    std::unordered_map<std::string, std::unique_ptr<Strand>> sessions_ CO_GUARDED_BY(mu_);
    std::deque<Strand*> run_queue_ CO_GUARDED_BY(mu_);
    std::vector<std::thread> workers_;  ///< written in the ctor, joined in the dtor

    /// Separate (leaf) mutex so metrics_exposition() can read the watchdog
    /// pointer without mu_. Lock order: mu_ before watchdog_mu_.
    mutable co::Mutex watchdog_mu_{"server.SessionManager.watchdog_mu"};
    std::shared_ptr<obs::Watchdog> watchdog_ CO_GUARDED_BY(watchdog_mu_);
    /// Test-only dispatch hook (see debug_set_dispatch_hook): written while
    /// quiescent, read unsynchronized on the dispatch path.
    std::function<void(const std::string&)> dispatch_hook_;

    struct Metrics {
        explicit Metrics(obs::Registry& r)
            : sessions_created(r.counter("cosoft_server_sessions_created_total")),
              sessions_destroyed(r.counter("cosoft_server_sessions_destroyed_total")),
              sessions_active(r.gauge("cosoft_server_sessions_active")),
              connections_active(r.gauge("cosoft_server_sessions_connections_active")),
              frames_routed(r.counter("cosoft_server_sessions_frames_routed_total")),
              lobby_rejects(r.counter("cosoft_server_sessions_lobby_rejects_total")) {}
        obs::Counter& sessions_created;
        obs::Counter& sessions_destroyed;
        obs::Gauge& sessions_active;
        obs::Gauge& connections_active;
        obs::Counter& frames_routed;
        obs::Counter& lobby_rejects;
    };
    // mutable: instruments are observability, not logical state — the const
    // exposition still syncs the hot-path totals into them.
    mutable obs::Registry registry_;
    Metrics metrics_{registry_};
};

}  // namespace cosoft::server
