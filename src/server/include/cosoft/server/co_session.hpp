// One COSOFT coupling session: the per-session core of the central server
// (Fig. 4).
//
// "A central controller (the server) coordinates the communication and
// access control. A centralized database residing on the server consists of
// four categories of data: the access permissions, the registration records,
// the historical UI states, and the lock table." (§2.1)
//
// The paper's server mediates exactly one session; CoSession is that
// mediator, owning one universe of the four databases plus the in-flight
// action/copy tables and its own metrics registry. A SessionManager
// (session_manager.hpp) is the only front door: it accepts every
// connection, routes it to the session its Register names, and serializes
// each session's dispatch on that session's strand while running different
// sessions concurrently — the single-session embedders (LocalSession, the
// mc model checker, the examples) are a manager with its default session.
// Nothing in this class is thread-safe by itself: every mutating call
// (adopt/deliver/detach/enable_journal) runs on the owning strand. In
// COSOFT_THREAD_CHECKED builds that contract is enforced: the session's
// StrandChecker binds to the owning strand at first touch and fails any
// mutating call from a foreign strand or from outside any strand — see
// cosoft/common/strand_check.hpp.
//
// The session is transport-agnostic and never touches channel handlers:
// the manager owns them, hands each connection over through adopt() and
// feeds its decoded traffic in through deliver().
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cosoft/common/arena.hpp"
#include "cosoft/common/error.hpp"
#include "cosoft/common/ids.hpp"
#include "cosoft/common/strand_check.hpp"
#include "cosoft/net/channel.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/obs/trace.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/couple_graph.hpp"
#include "cosoft/server/history_store.hpp"
#include "cosoft/server/lock_table.hpp"
#include "cosoft/server/permission_table.hpp"
#include "cosoft/server/session_journal.hpp"

namespace cosoft::server {

/// Plain point-in-time copy of the server's counters. Built on demand by
/// stats() from the server's obs::Registry — the registry instruments are
/// the single source of truth; this struct only preserves the historical
/// copyable-snapshot API that tests and benches rely on.
struct ServerStats {
    std::uint64_t messages_received = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t malformed_frames = 0;   ///< frames that failed to decode (counted, dropped)
    std::uint64_t events_broadcast = 0;   ///< re-execution orders fanned out (one per locked target)
    std::uint64_t locks_granted = 0;
    std::uint64_t locks_denied = 0;
    std::uint64_t states_applied = 0;     ///< ApplyState messages sent
    std::uint64_t group_updates = 0;
    std::uint64_t commands_routed = 0;
    std::uint64_t events_deferred = 0;    ///< re-executions queued for loose objects
    std::uint64_t events_flushed = 0;     ///< deferred re-executions delivered
    std::uint64_t broadcast_encodes = 0;  ///< encode_message calls made by broadcast paths
    std::uint64_t frames_fanned_out = 0;  ///< connections a shared broadcast frame was enqueued to
    std::uint64_t send_queue_peak_frames = 0;  ///< max per-connection outbound depth seen at send time
    static constexpr auto fields() {
        using S = ServerStats;
        return std::tuple{&S::messages_received, &S::messages_sent,    &S::malformed_frames,
                          &S::events_broadcast,  &S::locks_granted,    &S::locks_denied,
                          &S::states_applied,    &S::group_updates,    &S::commands_routed,
                          &S::events_deferred,   &S::events_flushed,   &S::broadcast_encodes,
                          &S::frames_fanned_out, &S::send_queue_peak_frames};
    }
};

/// One row of the session table GET /status serves: a live coupling session
/// hosted by the server process.
struct SessionRow {
    std::string name;  ///< "" is the default session
    std::uint32_t connections = 0;
    std::uint32_t registered = 0;   ///< connections past the Register handshake
    std::uint64_t locks_held = 0;
    std::uint64_t broadcasts = 0;   ///< events fanned out by this session
    std::uint64_t couples = 0;      ///< live couple edges in the session's graph
    friend bool operator==(const SessionRow&, const SessionRow&) = default;
};

class CoSession {
  public:
    /// `name` is the session's routing key ("" = the default session).
    explicit CoSession(std::string name = {}) : name_(std::move(name)) {}
    CoSession(const CoSession&) = delete;
    CoSession& operator=(const CoSession&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Takes ownership of the connection under the id the SessionManager
    /// assigned (globally unique across sessions). The id is the instance
    /// identifier the client receives in RegisterAck; adopting an id the
    /// session already holds is a checked failure.
    void adopt(InstanceId instance, std::shared_ptr<net::Channel> channel);

    /// Decodes and handles one inbound frame from `from`, then runs the
    /// post-dispatch pump() step.
    void deliver(InstanceId from, const protocol::Frame& frame);

    /// Gracefully detaches (same cleanup as a closed channel).
    void detach(InstanceId instance);

    // Introspection (tests, benches, the classroom moderator UI).
    [[nodiscard]] const CoupleGraph& couples() const noexcept { return graph_; }
    [[nodiscard]] const LockTable& locks() const noexcept { return locks_; }
    [[nodiscard]] const HistoryStore& history() const noexcept { return history_; }
    [[nodiscard]] const PermissionTable& permissions() const noexcept { return permissions_; }
    /// By-value snapshot of the counters (assembled from the registry).
    [[nodiscard]] ServerStats stats() const noexcept;
    /// The server's own metrics registry: every ServerStats counter plus the
    /// per-stage latency histograms, in Prometheus-compatible naming.
    [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
    [[nodiscard]] const obs::Registry& registry() const noexcept { return registry_; }

    // --- durable sessions & late-joiner sync (ROADMAP item 1) ---------------
    //
    // enable_journal() attaches a SessionJournal: every state-affecting
    // inbound frame (and frameless departures) is staged during dispatch and
    // flushed to disk in the post-broadcast pump() step, and any history
    // already on disk is replayed through the real handlers before the call
    // returns — departed connections come back as disconnected "ghosts" whose
    // state a reconnecting client resumes by registering with the same
    // identity. enable_sync() turns on the late-joiner catch-up stream:
    // Register is answered with RegisterAck(sync_follows) + SyncBegin +
    // SyncState, live frames addressed to the joiner are buffered while it
    // synchronizes, and pump() promotes it by flushing the buffer as
    // SyncStep records followed by SyncEnd.

    /// Opens (or recovers) the durable journal and replays its contents into
    /// this session. Call once, before any live traffic.
    [[nodiscard]] Status enable_journal(const SessionJournalOptions& options);
    /// Turns the SyncBegin..SyncEnd late-joiner handshake on or off.
    void enable_sync(bool on) noexcept { sync_enabled_ = on; }
    [[nodiscard]] bool sync_enabled() const noexcept { return sync_enabled_; }
    /// The durable journal, if enable_journal() succeeded (else nullptr).
    [[nodiscard]] SessionJournal* session_journal() noexcept { return persist_.get(); }
    [[nodiscard]] const SessionJournal* session_journal() const noexcept { return persist_.get(); }
    /// Fault injection passthrough (tests): applies to the durable journal.
    void set_journal_faults(const JournalFaults& faults) {
        if (persist_) persist_->set_faults(faults);
    }
    /// Post-broadcast strand step: flushes staged journal records (one sync()
    /// point per dispatch batch), promotes synchronizing joiners, and runs
    /// size-triggered compaction. Runs automatically after every deliver()
    /// and detach(); idempotent and cheap when there is nothing to do.
    void pump();
    /// Test hook: suspends the automatic post-dispatch pump so a test can
    /// hold a joiner in the synchronizing state (frames buffer server-side)
    /// while live traffic flows, then promote explicitly via pump().
    void set_auto_pump(bool on) noexcept { auto_pump_ = on; }
    /// True while `instance` is buffered behind the sync handshake.
    [[nodiscard]] bool is_synchronizing(InstanceId instance) const {
        const auto it = conns_.find(instance);
        return it != conns_.end() && it->second.synchronizing;
    }

    /// Serializes the complete session state as a journal snapshot record:
    /// the connections, the four databases' own snapshots, the in-flight
    /// tables and the counters that drive future behaviour. Each piece is
    /// described once (its fields()) and walked by the protocol field codec,
    /// which writes unordered tables sorted, so equal states give equal bytes.
    void snapshot(ByteWriter& w) const;
    /// Replaces this session's state with a snapshot() image, which must be
    /// consumed exactly. Connections come back as disconnected ghosts and the
    /// derived indexes are rebuilt. False on malformed input, with the
    /// session (counters included) left empty.
    [[nodiscard]] bool restore(ByteReader& r);
    [[nodiscard]] bool is_loose(const ObjectRef& object) const { return loose_objects_.contains(object); }
    [[nodiscard]] std::size_t deferred_count(const ObjectRef& object) const {
        const auto it = deferred_.find(object);
        return it == deferred_.end() ? 0 : it->second.size();
    }
    [[nodiscard]] std::size_t connection_count() const noexcept { return conns_.size(); }
    /// One above the highest instance id this session has ever seen (journal
    /// recovery restores it). A manager allocating process-wide ids must keep
    /// its own counter at or above this, or adopt() would collide with a
    /// recovered ghost.
    [[nodiscard]] InstanceId instance_floor() const noexcept { return next_instance_; }
    [[nodiscard]] std::size_t registered_count() const noexcept {
        std::size_t n = 0;
        for (const auto& [id, conn] : conns_) n += conn.registered ? 1 : 0;
        return n;
    }
    /// One status row summarizing this session (GET /status, cosoft-stat).
    [[nodiscard]] SessionRow session_status() const;
    [[nodiscard]] std::size_t pending_action_count() const noexcept { return pending_actions_.size(); }
    [[nodiscard]] std::vector<protocol::RegistrationRecord> registrations() const;

    /// Canonical serialization of the server state for cosoft-mc's state
    /// pruning: the snapshot's descriptions walked over an order-independent
    /// view. It differs from snapshot() in what identifies a state: each
    /// connection's liveness instead of its fan-out count, the databases'
    /// fingerprints, and only the counters that feed safety properties.
    void fingerprint(ByteWriter& w) const;

    /// Cross-database invariants (§2.1): the lock table, couple graph, and
    /// history store must be internally consistent, every lock holder and
    /// couple endpoint must belong to a registered connection, in-flight
    /// actions must balance their acknowledgement counters, and deferred
    /// queues may exist only for loose objects. Returns human-readable
    /// violations (empty = consistent). COSOFT_CHECKED builds verify this
    /// after every dispatched message; tests call it directly.
    [[nodiscard]] std::vector<std::string> check_invariants() const;

  private:
    // Each piece of persisted state lists its persisted members in fields();
    // snapshot(), restore() and fingerprint() are walks of these lists.

    /// Who registered a connection: what Register carried, and what a
    /// reconnecting client must present to resume a ghost.
    struct Identity {
        UserId user = kInvalidUser;
        std::string user_name;
        std::string host_name;
        std::string app_name;
        static constexpr auto fields() {
            return std::tuple{&Identity::user, &Identity::user_name, &Identity::host_name, &Identity::app_name};
        }
    };

    /// One connection, keyed by its instance id. The channel is live-only: a
    /// restored connection gets a disconnected ghost channel.
    struct Conn {
        std::shared_ptr<net::Channel> channel;
        bool registered = false;
        Identity identity;
        /// How many shared broadcast frames were enqueued to this connection
        /// (feeds the frames_fanned_out cross-counter invariant).
        std::uint64_t broadcast_enqueued = 0;
        /// Mid-handshake late joiner: outbound frames buffer here until
        /// pump() promotes the connection with SyncStep*/SyncEnd.
        bool synchronizing = false;
        std::uint64_t sync_base = 0;
        std::vector<protocol::Frame> sync_buffer;
        static constexpr auto fields() {
            return std::tuple{&Conn::registered, &Conn::identity, &Conn::broadcast_enqueued};
        }
    };

    /// A lock/broadcast cycle in flight, keyed by its action: tracks how
    /// many ExecuteAcks are still outstanding before the group can be
    /// unlocked.
    struct PendingAction {
        bool event_seen = false;  ///< the holder's EventMsg has arrived
        std::size_t awaiting = 0;
        std::unordered_map<InstanceId, std::size_t> per_instance;
        /// Causal context of the newest server-side span of this action;
        /// the unlock span attaches here when the last ack arrives. Not
        /// persisted: a recovered action's unlock starts a new trace.
        obs::TraceContext trace;
        static constexpr auto fields() {
            return std::tuple{&PendingAction::event_seen, &PendingAction::awaiting, &PendingAction::per_instance};
        }
    };

    /// A CopyFrom/RemoteCopy/FetchState waiting for the source's StateReply,
    /// keyed by the server's request id.
    struct PendingCopy {
        InstanceId requester = kInvalidInstance;
        protocol::ActionId requester_request = 0;
        ObjectRef source;
        ObjectRef dest;  ///< where the state will be applied
        protocol::MergeMode mode = protocol::MergeMode::kStrict;
        bool fetch_only = false;  ///< FetchState: route the reply back raw
        static constexpr auto fields() {
            using P = PendingCopy;
            return std::tuple{&P::requester, &P::requester_request, &P::source, &P::dest, &P::mode, &P::fetch_only};
        }
    };

    /// A re-execution queued for a loose object. Persisted as the encoded
    /// ExecuteEvent frame it will be sent as.
    struct DeferredEvent {
        protocol::ExecuteEvent event;
        friend void encode_field(ByteWriter& w, const DeferredEvent& d) {
            w.bytes(protocol::encode_message(protocol::Message{d.event}));
        }
        friend void decode_field(ByteReader& r, DeferredEvent& d) {
            const auto decoded = protocol::decode_message(r.bytes());
            const auto* ev = decoded ? std::get_if<protocol::ExecuteEvent>(&decoded.value()) : nullptr;
            if (ev == nullptr) return r.fail();
            d.event = *ev;
        }
    };

    /// The in-flight tables, in snapshot order. Snapshot, restore and
    /// fingerprint all walk this one list.
    template <typename Self>
    static auto in_flight(Self& s) {
        return std::tie(s.pending_actions_, s.pending_copies_, s.next_server_request_, s.loose_objects_,
                        s.deferred_);
    }
    /// Empties every piece of persisted state, counters included (restore's
    /// starting point and its failure path).
    void reset_state();

    /// The dispatch body: decode, journal-stage, route to a handler. deliver()
    /// wraps it with the pump() step; journal replay calls it bare.
    void dispatch_frame(InstanceId from, const protocol::Frame& frame);
    void handle(InstanceId from, protocol::Register msg);
    void handle(InstanceId from, const protocol::Unregister& msg);
    void handle(InstanceId from, const protocol::RegistryQuery& msg);
    void handle(InstanceId from, const protocol::CoupleReq& msg);
    void handle(InstanceId from, const protocol::DecoupleReq& msg);
    void handle(InstanceId from, const protocol::LockReq& msg);
    void handle(InstanceId from, protocol::EventMsg msg);
    void handle(InstanceId from, const protocol::ExecuteAck& msg);
    void handle(InstanceId from, protocol::CopyTo msg);
    void handle(InstanceId from, const protocol::CopyFrom& msg);
    void handle(InstanceId from, const protocol::RemoteCopy& msg);
    void handle(InstanceId from, const protocol::FetchState& msg);
    void handle(InstanceId from, const protocol::SetCouplingMode& msg);
    void handle(InstanceId from, const protocol::SyncRequest& msg);
    void handle(InstanceId from, protocol::StateReply msg);
    void handle(InstanceId from, protocol::HistorySave msg);
    void handle(InstanceId from, const protocol::UndoReq& msg);
    void handle(InstanceId from, const protocol::RedoReq& msg);
    void handle(InstanceId from, protocol::Command msg);
    void handle(InstanceId from, const protocol::PermissionSet& msg);

    void cleanup(InstanceId instance);
    void send(InstanceId to, const protocol::Message& msg);
    /// Encode-once fan-out: serializes `msg` a single time and enqueues the
    /// same refcounted Frame to every recipient connection.
    void broadcast(const std::vector<InstanceId>& recipients, const protocol::Message& msg);
    /// Enqueues an already-encoded frame (shared, never copied) to one
    /// connection, with send and queue-depth accounting.
    void send_frame(InstanceId to, const protocol::Frame& frame);
    void ack(InstanceId to, protocol::ActionId request, const Status& status);
    /// Broadcasts the group membership to every instance owning a member.
    void broadcast_group(const std::vector<ObjectRef>& group);
    /// Re-broadcasts the (possibly split) components covering `objects`.
    void broadcast_components(const std::vector<ObjectRef>& objects);
    void notify_locks(const std::vector<ObjectRef>& objects, const ObjectRef& source, bool locked,
                      protocol::ActionId action);
    void finish_action(const LockTable::ActionKey& key);
    /// Applies the undo/redo state `state` to `object`'s owner.
    void send_history_apply(const ObjectRef& object, toolkit::UiState state, protocol::HistoryTag tag);

    [[nodiscard]] UserId user_of(InstanceId instance) const;
    [[nodiscard]] bool known_object_instance(const ObjectRef& ref) const;

    /// Maps a transport id onto the ghost connection a reconnecting client
    /// resumed (identity mapping for ids with no alias).
    [[nodiscard]] InstanceId resolve_alias(InstanceId from) const {
        const auto it = alias_.find(from);
        return it == alias_.end() ? from : it->second;
    }
    /// Replay support: materializes a disconnected ghost connection for a
    /// journaled origin that predates the snapshot's connection table.
    void ensure_replay_conn(InstanceId instance);
    /// Flushes each synchronizing connection's buffer as SyncStep records
    /// followed by SyncEnd, switching it to live delivery.
    void promote_synchronizing();

    std::string name_;
    /// Verifies the "all calls serialized" contract on the mutating dispatch
    /// surface. Const introspection is deliberately not instrumented: the
    /// documented usage reads sessions from other threads only at quiescent
    /// points, which the checker cannot distinguish from races.
    StrandChecker strand_checker_{"server.CoSession"};

    // The four §2.1 databases and the in-flight tables are CO_STRAND_CONFINED:
    // unguarded by design, safe because every mutating entry point runs on
    // the session's serial dispatch strand.
    CO_STRAND_CONFINED std::unordered_map<InstanceId, Conn> conns_;
    InstanceId next_instance_ = 1;

    CO_STRAND_CONFINED CoupleGraph graph_;
    CO_STRAND_CONFINED LockTable locks_;
    CO_STRAND_CONFINED HistoryStore history_;
    CO_STRAND_CONFINED PermissionTable permissions_;

    CO_STRAND_CONFINED std::unordered_map<LockTable::ActionKey, PendingAction, LockTable::ActionKeyHash>
        pending_actions_;
    /// pending_actions_ by action id -> holder instance, one entry per
    /// action: an ExecuteAck names only the action id, and this finds its
    /// action without a scan. Ids are minted per client, so one id may name
    /// the actions of several holders. Derived: restore() rebuilds it.
    CO_STRAND_CONFINED std::unordered_multimap<protocol::ActionId, InstanceId> pending_by_action_;
    CO_STRAND_CONFINED std::unordered_map<std::uint64_t, PendingCopy>
        pending_copies_;  // keyed by server req id
    std::uint64_t next_server_request_ = 1;

    /// Flushes everything queued for a loose object to its owner.
    void flush_deferred(const ObjectRef& object);

    std::unordered_set<ObjectRef> loose_objects_;
    std::unordered_map<ObjectRef, std::vector<DeferredEvent>> deferred_;

    /// Stable references into registry_ for the hot-path counters; resolved
    /// once at construction so no dispatch ever takes the registry lock.
    struct Metrics {
        explicit Metrics(obs::Registry& r);
        obs::Counter& messages_received;
        obs::Counter& messages_sent;
        obs::Counter& malformed_frames;
        obs::Counter& events_broadcast;
        obs::Counter& locks_granted;
        obs::Counter& locks_denied;
        obs::Counter& states_applied;
        obs::Counter& group_updates;
        obs::Counter& commands_routed;
        obs::Counter& events_deferred;
        obs::Counter& events_flushed;
        obs::Counter& broadcast_encodes;
        obs::Counter& frames_fanned_out;
        obs::Counter& syncs_started;
        obs::Counter& syncs_completed;
        obs::Counter& sync_steps;
        obs::Counter& sync_buffered;
        obs::Gauge& send_queue_peak_frames;
        obs::Histogram& stage_lock_us;
        obs::Histogram& stage_broadcast_us;
        obs::Histogram& stage_ack_us;
        obs::Histogram& stage_copy_us;
        /// Each ServerStats field beside the counter that holds it (all but
        /// the send-queue gauge): stats() reads through it, restore() writes.
        [[nodiscard]] std::array<std::pair<std::uint64_t ServerStats::*, obs::Counter*>, 13> stat_counters() const;
        /// Sets every ServerStats instrument to a restored value.
        void restore(const ServerStats& s);
    };

    obs::Registry registry_;
    Metrics metrics_{registry_};
    /// Trace context of the message currently being dispatched (or of the
    /// server-side span wrapping its handler); attached to every frame the
    /// dispatch sends. Invalid outside a dispatch and when tracing is off.
    obs::TraceContext current_trace_;
    /// Scratch recipients buffer reused across broadcasts (strand-confined
    /// like the rest of the dispatch state): capacity reaches the largest
    /// fan-out once, then per-broadcast allocations are zero.
    CO_STRAND_CONFINED std::vector<InstanceId> broadcast_live_scratch_;
    /// Per-session payload arena: broadcast/send frames bump-allocate here
    /// and alias the epoch (Frame::from_shared), so a steady-state broadcast
    /// performs *zero* heap allocations — the last dropped frame releases
    /// the epoch block back for reuse. Strand-confined for allocation; the
    /// frames it hands out are free-threaded.
    CO_STRAND_CONFINED Arena arena_;
    /// broadcast_enqueued totals of connections that have since detached.
    std::uint64_t departed_broadcast_enqueued_ = 0;

    // --- durable journal + sync state (all strand-confined) ------------------
    /// A journal record captured during dispatch, flushed to disk by pump().
    /// Staging keeps file writes (and their allocations) off the broadcast
    /// spine: the hot dispatch only takes a reference to the inbound frame.
    struct StagedRecord {
        SessionJournal::RecordType type = SessionJournal::RecordType::kFrame;
        std::uint32_t origin = 0;
        protocol::Frame frame;  ///< kFrame: the inbound frame, shared
    };
    CO_STRAND_CONFINED std::unique_ptr<SessionJournal> persist_;
    CO_STRAND_CONFINED std::vector<StagedRecord> staged_;
    /// Transport-id -> resumed-ghost-id mapping for reconnected clients.
    CO_STRAND_CONFINED std::unordered_map<InstanceId, InstanceId> alias_;
    bool sync_enabled_ = false;
    /// Journal recovery in progress: handlers run against ghost connections,
    /// nothing re-stages, resume matching and the sync handshake stay off.
    bool replaying_ = false;
    /// The frame being dispatched was staged for the journal, so a cleanup it
    /// triggers needs no separate kDetach record (replay repeats the frame).
    bool dispatching_journaled_frame_ = false;
    bool auto_pump_ = true;
    std::size_t synchronizing_count_ = 0;
};

}  // namespace cosoft::server
