#include "cosoft/server/co_session.hpp"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>

#include "cosoft/common/check.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/protocol/field_codec.hpp"

namespace cosoft::server {

using namespace protocol;

namespace {

using StageTimer = obs::ScopedTimer;

std::vector<double> stage_bounds() { return obs::Histogram::exponential_buckets(1.0, 2.0, 20); }

/// Channel standing in for a departed peer during journal replay. Never
/// connected, so send_frame() drops before counting and broadcast() filters
/// it out before encoding — replayed dispatches stay counter-exact without
/// any transport. A reconnecting client resumes the ghost's state by
/// registering with the same identity, at which point the live channel is
/// moved into the ghost connection.
class GhostChannel final : public net::Channel {
  public:
    Status send(protocol::Frame) override { return Status::ok(); }
    void on_receive(ReceiveHandler) override {}
    void on_close(CloseHandler) override {}
    [[nodiscard]] bool connected() const override { return false; }
    void close() override {}
};

constexpr std::uint8_t kSnapshotVersion = 1;

/// Sends the dispatching worker's strand batch has corked so far leave now.
/// A no-op outside a worker batch (inline dispatch, replay, tests).
void flush_corked_sends() {
    if (net::SendCork* cork = net::SendCork::active()) cork->flush();
}

}  // namespace

CoSession::Metrics::Metrics(obs::Registry& r)
    : messages_received(r.counter("cosoft_server_messages_received_total")),
      messages_sent(r.counter("cosoft_server_messages_sent_total")),
      malformed_frames(r.counter("cosoft_server_malformed_frames_total")),
      events_broadcast(r.counter("cosoft_server_events_broadcast_total")),
      locks_granted(r.counter("cosoft_server_locks_granted_total")),
      locks_denied(r.counter("cosoft_server_locks_denied_total")),
      states_applied(r.counter("cosoft_server_states_applied_total")),
      group_updates(r.counter("cosoft_server_group_updates_total")),
      commands_routed(r.counter("cosoft_server_commands_routed_total")),
      events_deferred(r.counter("cosoft_server_events_deferred_total")),
      events_flushed(r.counter("cosoft_server_events_flushed_total")),
      broadcast_encodes(r.counter("cosoft_server_broadcast_encodes_total")),
      frames_fanned_out(r.counter("cosoft_server_frames_fanned_out_total")),
      syncs_started(r.counter("cosoft_sync_started_total")),
      syncs_completed(r.counter("cosoft_sync_completed_total")),
      sync_steps(r.counter("cosoft_sync_steps_total")),
      sync_buffered(r.counter("cosoft_sync_buffered_frames_total")),
      send_queue_peak_frames(r.gauge("cosoft_server_send_queue_peak_frames")),
      stage_lock_us(r.histogram("cosoft_server_stage_lock_us", stage_bounds())),
      stage_broadcast_us(r.histogram("cosoft_server_stage_broadcast_us", stage_bounds())),
      stage_ack_us(r.histogram("cosoft_server_stage_ack_us", stage_bounds())),
      stage_copy_us(r.histogram("cosoft_server_stage_copy_us", stage_bounds())) {}

std::array<std::pair<std::uint64_t ServerStats::*, obs::Counter*>, 13> CoSession::Metrics::stat_counters() const {
    using S = ServerStats;
    return {{{&S::messages_received, &messages_received}, {&S::messages_sent, &messages_sent},
             {&S::malformed_frames, &malformed_frames},   {&S::events_broadcast, &events_broadcast},
             {&S::locks_granted, &locks_granted},         {&S::locks_denied, &locks_denied},
             {&S::states_applied, &states_applied},       {&S::group_updates, &group_updates},
             {&S::commands_routed, &commands_routed},     {&S::events_deferred, &events_deferred},
             {&S::events_flushed, &events_flushed},       {&S::broadcast_encodes, &broadcast_encodes},
             {&S::frames_fanned_out, &frames_fanned_out}}};
}

ServerStats CoSession::stats() const noexcept {
    ServerStats s;
    for (const auto& [field, counter] : metrics_.stat_counters()) s.*field = counter->value();
    s.send_queue_peak_frames = metrics_.send_queue_peak_frames.value();
    return s;
}

void CoSession::Metrics::restore(const ServerStats& s) {
    for (const auto& [field, counter] : stat_counters()) {
        counter->reset();
        counter->inc(s.*field);
    }
    send_queue_peak_frames.set(s.send_queue_peak_frames);
}

void CoSession::adopt(InstanceId instance, std::shared_ptr<net::Channel> channel) {
    strand_checker_.assert_on_strand();
    // Manager-assigned ids are allocated process-wide; keep next_instance_
    // strictly above every adopted id so the id < next_instance_ invariant
    // stays sound.
    next_instance_ = std::max(next_instance_, instance + 1);
    Conn conn;
    conn.channel = std::move(channel);
    [[maybe_unused]] const bool inserted = conns_.emplace(instance, std::move(conn)).second;
    // A colliding id would silently keep the old connection and strand the
    // new one: its Register would register the other channel instead.
    CO_CHECK_MSG(inserted, "adopt() of an instance id the session already holds");
    CO_CHECK_INVARIANTS(*this);
}

void CoSession::detach(InstanceId instance) {
    strand_checker_.assert_on_strand();
    cleanup(resolve_alias(instance));
    CO_CHECK_INVARIANTS(*this);
    if (auto_pump_ && persist_ != nullptr) pump();
}

SessionRow CoSession::session_status() const {
    SessionRow s;
    s.name = name_;
    s.connections = static_cast<std::uint32_t>(conns_.size());
    s.registered = static_cast<std::uint32_t>(registered_count());
    s.locks_held = locks_.locked_count();
    s.broadcasts = metrics_.events_broadcast.value();
    s.couples = graph_.link_count();
    return s;
}

std::vector<RegistrationRecord> CoSession::registrations() const {
    std::vector<RegistrationRecord> out;
    for (const auto& [id, conn] : conns_) {
        if (!conn.registered) continue;
        const Identity& who = conn.identity;
        out.push_back(RegistrationRecord{id, who.user, who.user_name, who.host_name, who.app_name});
    }
    std::sort(out.begin(), out.end(),
              [](const RegistrationRecord& a, const RegistrationRecord& b) { return a.instance < b.instance; });
    return out;
}

CO_HOT_PATH void CoSession::deliver(InstanceId from, const protocol::Frame& frame) {
    dispatch_frame(from, frame);
    if (auto_pump_ && (persist_ != nullptr || synchronizing_count_ > 0)) pump();
}

CO_HOT_PATH void CoSession::dispatch_frame(InstanceId from, const protocol::Frame& frame) {
    CO_HOT_SCOPE("server.dispatch");
    strand_checker_.assert_on_strand();
    from = resolve_alias(from);
    metrics_.messages_received.inc();
    auto decoded = decode_frame(frame);
    if (!decoded) {
        metrics_.malformed_frames.inc();
        return;  // malformed frame: drop (transport is trusted, not journaled)
    }

    Message& msg = decoded.value().message;
    // The received context is the default causal parent for everything this
    // dispatch sends; handlers that open their own span override it.
    current_trace_ = decoded.value().trace;
    const auto conn = conns_.find(from);
    if (conn == conns_.end()) {
        current_trace_ = {};
        return;
    }

    // Everything except Register requires a completed registration.
    if (!conn->second.registered && !std::holds_alternative<Register>(msg)) {
        if (const auto* req = std::get_if<RegistryQuery>(&msg)) {
            ack(from, req->request, Status{ErrorCode::kUnknownInstance, "not registered"});
        }
        current_trace_ = {};
        return;
    }

    // Stage state-affecting frames for the durable journal (flushed off the
    // broadcast spine by pump()). Pure reads replay as no-ops, so they never
    // reach the file.
    const bool stage =
        persist_ != nullptr && !replaying_ && !std::holds_alternative<RegistryQuery>(msg);
    if (stage) staged_.push_back(StagedRecord{SessionJournal::RecordType::kFrame, from, frame});
    const bool was_journaled_dispatch = dispatching_journaled_frame_;
    dispatching_journaled_frame_ = stage || replaying_;

    // The handle() overload set is the dispatch table: a handler declared in
    // the header is reached without editing a type list. By-value handlers
    // take the decoded message by move; server-to-client message types have
    // no handler and are ignored.
    std::visit(
        [&](auto&& m) {
            if constexpr (requires { handle(from, std::move(m)); }) handle(from, std::move(m));
        },
        msg);
    dispatching_journaled_frame_ = was_journaled_dispatch;
    current_trace_ = {};

    // Dispatch boundary: in checked builds every message leaves the four
    // databases (§2.1) in a consistent state or the server aborts loudly.
    CO_CHECK_INVARIANTS(*this);
}

std::vector<std::string> CoSession::check_invariants() const {
    std::vector<std::string> out;
    const auto merge = [&out](std::vector<std::string> violations) {
        out.insert(out.end(), std::make_move_iterator(violations.begin()),
                   std::make_move_iterator(violations.end()));
    };
    merge(locks_.check_invariants());
    merge(graph_.check_invariants());
    merge(history_.check_invariants());
    merge(permissions_.check_invariants());

    const auto is_registered = [this](InstanceId id) {
        const auto it = conns_.find(id);
        return it != conns_.end() && it->second.registered;
    };

    for (const auto& [id, conn] : conns_) {
        if (conn.channel == nullptr) out.push_back("server: connection " + std::to_string(id) + " has no channel");
        if (id >= next_instance_) {
            out.push_back("server: connection " + std::to_string(id) + " not below next_instance_");
        }
    }

    // Lock holders and every locked object must belong to registered clients.
    for (const CoupleLink& link : graph_.links()) {
        for (const ObjectRef& endpoint : {link.source, link.dest}) {
            if (!is_registered(endpoint.instance)) {
                out.push_back("server: couple edge endpoint " + to_string(endpoint) +
                              " belongs to an unregistered instance");
            }
        }
    }
    for (const auto& [key, pending] : pending_actions_) {
        if (!is_registered(key.instance)) {
            out.push_back("server: pending action held by unregistered instance " + std::to_string(key.instance));
        }
        for (const ObjectRef& o : locks_.objects_of(key)) {
            if (!is_registered(o.instance)) {
                out.push_back("server: locked object " + to_string(o) + " belongs to an unregistered instance");
            }
            const auto holder = locks_.holder(o);
            if (!holder || !(*holder == key)) {
                out.push_back("server: locked object " + to_string(o) + " not held by its pending action");
            }
        }
        std::size_t acked_sum = 0;
        for (const auto& [inst, count] : pending.per_instance) {
            acked_sum += count;
            if (conns_.find(inst) == conns_.end()) {
                out.push_back("server: pending action awaits acks from detached instance " + std::to_string(inst));
            }
        }
        if (pending.event_seen && pending.awaiting != acked_sum) {
            out.push_back("server: pending action of instance " + std::to_string(key.instance) +
                          " awaits " + std::to_string(pending.awaiting) + " acks but tracks " +
                          std::to_string(acked_sum));
        }
        if (!pending.event_seen && pending.awaiting != 0) {
            out.push_back("server: pending action of instance " + std::to_string(key.instance) +
                          " awaits acks before its event arrived");
        }
        const auto [first, last] = pending_by_action_.equal_range(key.action);
        if (std::count_if(first, last, [&key](const auto& kv) { return kv.second == key.instance; }) != 1) {
            out.push_back("server: pending action of instance " + std::to_string(key.instance) +
                          " is not indexed exactly once by its action id");
        }
    }
    if (pending_by_action_.size() != pending_actions_.size()) {
        out.push_back("server: action-id index holds " + std::to_string(pending_by_action_.size()) +
                      " entries for " + std::to_string(pending_actions_.size()) + " pending actions");
    }

    // Rules are installed only by an object's owner and dropped on cleanup,
    // so every referenced instance must still be registered.
    for (const InstanceId inst : permissions_.referenced_instances()) {
        if (!is_registered(inst)) {
            out.push_back("server: permission rule references unregistered instance " + std::to_string(inst));
        }
    }

    for (const ObjectRef& o : loose_objects_) {
        if (!is_registered(o.instance)) {
            out.push_back("server: loose object " + to_string(o) + " belongs to an unregistered instance");
        }
    }
    for (const auto& [object, queue] : deferred_) {
        if (!loose_objects_.contains(object)) {
            out.push_back("server: deferred queue for tight object " + to_string(object));
        }
        if (queue.empty()) out.push_back("server: empty deferred queue for " + to_string(object));
    }

    // Cross-counter invariants. All operands are server-side counters
    // mutated only on the dispatch thread, so the reads are exact even when
    // the channels themselves live on TCP I/O threads.
    std::uint64_t fanout_sum = departed_broadcast_enqueued_;
    for (const auto& [id, conn] : conns_) fanout_sum += conn.broadcast_enqueued;
    if (metrics_.frames_fanned_out.value() != fanout_sum) {
        out.push_back("server: frames_fanned_out " + std::to_string(metrics_.frames_fanned_out.value()) +
                      " != sum of per-connection broadcast enqueues " + std::to_string(fanout_sum));
    }
    if (metrics_.broadcast_encodes.value() > metrics_.frames_fanned_out.value()) {
        out.push_back("server: broadcast_encodes " + std::to_string(metrics_.broadcast_encodes.value()) +
                      " exceeds frames_fanned_out " + std::to_string(metrics_.frames_fanned_out.value()) +
                      " (an encoded broadcast reached no connection)");
    }
    if (metrics_.locks_granted.value() + metrics_.locks_denied.value() > metrics_.messages_received.value()) {
        out.push_back("server: lock outcomes (" +
                      std::to_string(metrics_.locks_granted.value() + metrics_.locks_denied.value()) +
                      ") exceed messages received (" + std::to_string(metrics_.messages_received.value()) +
                      ")");
    }
    return out;
}

void CoSession::send(InstanceId to, const Message& msg) {
    if (!conns_.contains(to)) return;
    send_frame(to, encode_message(msg, current_trace_, arena_));
}

CO_HOT_PATH void CoSession::broadcast(const std::vector<InstanceId>& recipients, const Message& msg) {
    CO_HOT_SCOPE("server.broadcast");
    // Filter to live connections *before* encoding: every encode must fan
    // out to at least one queue, so broadcast_encodes <= frames_fanned_out
    // holds exactly (checked by the cross-counter invariants). The filtered
    // list lives in a strand-confined member scratch whose capacity reaches
    // the largest fan-out once, and the payload bump-allocates from the
    // session arena — steady-state broadcasts perform zero heap allocations
    // (hotpath_budget.json holds the broadcast budget at 0).
    std::vector<InstanceId>& live = broadcast_live_scratch_;
    live.clear();
    live.reserve(recipients.size());
    for (const InstanceId to : recipients) {
        const auto it = conns_.find(to);
        if (it != conns_.end() && it->second.channel->connected()) live.push_back(to);
    }
    if (live.empty()) return;
    // Encode exactly once into the session arena; every recipient's queue
    // shares the same epoch-aliased payload.
    const Frame frame = encode_message(msg, current_trace_, arena_);
    metrics_.broadcast_encodes.inc();
    obs::FlightRecorder::instance().record(obs::EventKind::kBroadcast, live.size(), frame.size());
    for (const InstanceId to : live) {
        metrics_.frames_fanned_out.inc();
        ++conns_.at(to).broadcast_enqueued;
        send_frame(to, frame);
    }
}

CO_HOT_PATH void CoSession::send_frame(InstanceId to, const Frame& frame) {
    const auto it = conns_.find(to);
    if (it == conns_.end() || !it->second.channel->connected()) return;
    if (it->second.synchronizing) {
        // Mid-handshake joiner: park the already-encoded frame (shared, not
        // copied) until pump() promotes the connection. Counted as sent when
        // the wrapping SyncStep actually goes out, so the counters stay
        // wire-exact.
        it->second.sync_buffer.push_back(frame);
        metrics_.sync_buffered.inc();
        return;
    }
    metrics_.messages_sent.inc();
    (void)it->second.channel->send(frame);
    metrics_.send_queue_peak_frames.update_max(it->second.channel->outbound_queued_frames());
}

void CoSession::ack(InstanceId to, ActionId request, const Status& status) {
    send(to, Ack{request, status.code(), status.message()});
}

UserId CoSession::user_of(InstanceId instance) const {
    const auto it = conns_.find(instance);
    return it == conns_.end() ? kInvalidUser : it->second.identity.user;
}

bool CoSession::known_object_instance(const ObjectRef& ref) const {
    const auto it = conns_.find(ref.instance);
    return it != conns_.end() && it->second.registered;
}

// --- session -----------------------------------------------------------------

void CoSession::handle(InstanceId from, Register msg) {
    // The version gate applies to live peers only: a recovered journal keeps
    // the Register frames of the revision that wrote it, and the tags of the
    // client frames it holds have not moved since v3. Refusing them on
    // replay would leave every recovered member unregistered.
    if (!replaying_ && msg.version != kProtocolVersion) {
        ack(from, 0,
            Status{ErrorCode::kBadMessage, "protocol version mismatch: client " + std::to_string(msg.version) +
                                               ", server " + std::to_string(kProtocolVersion)});
        return;  // connection stays attached but unregistered (inoperable)
    }

    // Resume matching: a client re-registering with the identity of a
    // disconnected ghost (a departed peer recovered from the journal) takes
    // that connection over — the live channel moves into the ghost, the
    // transport id maps onto the ghost id, and the client gets its old
    // instance (and all its state) back. Suppressed during replay: every
    // replayed connection is a ghost and would false-match.
    if (!replaying_ && persist_ != nullptr) {
        InstanceId ghost = kInvalidInstance;
        for (const auto& [id, conn] : conns_) {
            if (id == from || !conn.registered || conn.channel->connected()) continue;
            const Identity& who = conn.identity;
            if (who.user != msg.user || who.user_name != msg.user_name || who.host_name != msg.host_name ||
                who.app_name != msg.app_name) {
                continue;
            }
            if (ghost == kInvalidInstance || id < ghost) ghost = id;
        }
        if (ghost != kInvalidInstance) {
            auto live = conns_.find(from);
            conns_.at(ghost).channel = std::move(live->second.channel);
            departed_broadcast_enqueued_ += live->second.broadcast_enqueued;
            conns_.erase(live);
            alias_[from] = ghost;
            // The staged journal record must carry the resumed id: replay
            // applies records by origin, and the session's state lives under
            // the ghost, not the transient transport id.
            if (dispatching_journaled_frame_ && !staged_.empty()) staged_.back().origin = ghost;
            from = ghost;
        }
    }

    auto& conn = conns_.at(from);
    conn.identity = {msg.user, std::move(msg.user_name), std::move(msg.host_name), std::move(msg.app_name)};
    conn.registered = true;

    if (sync_enabled_ && !replaying_) {
        // Late-joiner catch-up (v3): announce the stream, send the snapshot
        // of current client-relevant state, then buffer everything until
        // pump() promotes the connection with SyncStep*/SyncEnd. The three
        // handshake frames themselves must bypass the buffer, so
        // `synchronizing` flips on only after they are sent.
        metrics_.syncs_started.inc();
        const std::uint64_t base = persist_ != nullptr ? persist_->last_seq() : 0;
        send(from, RegisterAck{from, /*sync_follows=*/true});
        send(from, SyncBegin{base});

        SyncStateSection section;
        section.registry = registrations();
        std::vector<ObjectRef> linked;
        for (const CoupleLink& link : graph_.links()) {
            linked.push_back(link.source);
            linked.push_back(link.dest);
        }
        std::sort(linked.begin(), linked.end());
        linked.erase(std::unique(linked.begin(), linked.end()), linked.end());
        section.groups = graph_.components_of(linked);
        section.loose.assign(loose_objects_.begin(), loose_objects_.end());
        std::sort(section.loose.begin(), section.loose.end());
        send(from, SyncState{encode_sync_state(section)});

        conn.synchronizing = true;
        conn.sync_base = base;
        ++synchronizing_count_;
        return;
    }
    send(from, RegisterAck{from});
}

void CoSession::handle(InstanceId from, const Unregister&) { cleanup(from); }

void CoSession::handle(InstanceId from, const RegistryQuery& msg) {
    send(from, RegistryReply{msg.request, registrations()});
}

void CoSession::cleanup(InstanceId instance) {
    const auto it = conns_.find(instance);
    if (it == conns_.end()) return;

    // A departure has no inbound frame, so it gets its own journal record —
    // unless the current dispatch IS a journaled frame (Unregister), whose
    // replay repeats this cleanup anyway.
    if (persist_ != nullptr && !replaying_ && !dispatching_journaled_frame_) {
        staged_.push_back(StagedRecord{SessionJournal::RecordType::kDetach, instance, {}});
    }
    if (it->second.synchronizing) {
        it->second.synchronizing = false;
        --synchronizing_count_;
    }
    std::erase_if(alias_, [&](const auto& kv) { return kv.second == instance || kv.first == instance; });

    // Finish any in-flight actions this instance would never ack.
    std::vector<LockTable::ActionKey> to_finish;
    for (auto& [key, pending] : pending_actions_) {
        const auto pi = pending.per_instance.find(instance);
        if (pi != pending.per_instance.end()) {
            pending.awaiting -= std::min(pending.awaiting, pi->second);
            pending.per_instance.erase(pi);
        }
        if (key.instance == instance || (pending.event_seen && pending.awaiting == 0)) to_finish.push_back(key);
    }
    for (const auto& key : to_finish) finish_action(key);

    // Release locks held by the instance's own actions, then drop its own
    // objects from any surviving foreign action: the objects no longer
    // exist, and a stale entry would pin "locked by a ghost" state forever.
    const auto released = locks_.unlock_instance(instance);
    if (!released.empty()) notify_locks(released, ObjectRef{}, false, 0);
    (void)locks_.release_owned_by(instance);

    // "The decoupling algorithm is applied automatically when ... an
    // application instance terminates."
    const auto affected = graph_.remove_instance(instance);

    history_.forget_instance(instance);
    permissions_.forget_instance(instance);
    std::erase_if(loose_objects_, [&](const ObjectRef& o) { return o.instance == instance; });
    std::erase_if(deferred_, [&](const auto& kv) { return kv.first.instance == instance; });

    // Fail pending copies whose source died; drop ones whose requester died.
    std::vector<std::pair<InstanceId, ActionId>> failed_copies;
    std::erase_if(pending_copies_, [&](const auto& kv) {
        const PendingCopy& pc = kv.second;
        if (pc.requester == instance) return true;
        if (pc.source.instance == instance) {
            failed_copies.emplace_back(pc.requester, pc.requester_request);
            return true;
        }
        return false;
    });
    for (const auto& [requester, request] : failed_copies) {
        ack(requester, request, Status{ErrorCode::kUnknownInstance, "copy source instance terminated"});
    }

    // Keep the fan-out invariant exact across departures: the per-connection
    // enqueue count moves into the departed accumulator before the Conn dies.
    departed_broadcast_enqueued_ += it->second.broadcast_enqueued;
    conns_.erase(it);
    broadcast_components(affected);
}

// --- coupling ----------------------------------------------------------------

void CoSession::handle(InstanceId from, const CoupleReq& msg) {
    const UserId user = user_of(from);
    if (!known_object_instance(msg.source) || !known_object_instance(msg.dest)) {
        ack(from, msg.request, Status{ErrorCode::kUnknownInstance, "couple endpoint instance not registered"});
        return;
    }
    if (!permissions_.check(user, msg.source, Right::kCouple) ||
        !permissions_.check(user, msg.dest, Right::kCouple)) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "couple right missing"});
        return;
    }
    if (Status s = graph_.add_link(msg.source, msg.dest, from); !s.is_ok()) {
        ack(from, msg.request, s);
        return;
    }
    broadcast_group(graph_.group_of(msg.source));
    ack(from, msg.request, Status::ok());
}

void CoSession::handle(InstanceId from, const DecoupleReq& msg) {
    if (!msg.dest.valid()) {
        // Object destroyed: remove it from every coupling it participates in.
        const auto affected = graph_.remove_object(msg.source);
        history_.forget_object(msg.source);
        loose_objects_.erase(msg.source);
        deferred_.erase(msg.source);
        broadcast_components(affected);
        // The destroyed object's owner also learns it is now alone.
        send(msg.source.instance, GroupUpdate{{msg.source}});
        ack(from, msg.request, Status::ok());
        return;
    }
    const std::vector<ObjectRef> old_group = graph_.group_of(msg.source);
    if (Status s = graph_.remove_link(msg.source, msg.dest); !s.is_ok()) {
        ack(from, msg.request, s);
        return;
    }
    broadcast_components(old_group);
    ack(from, msg.request, Status::ok());
}

void CoSession::broadcast_group(const std::vector<ObjectRef>& group) {
    // Unique owners in first-appearance order: deterministic fan-out, and the
    // GroupUpdate body is recipient-independent, so one encode serves all.
    std::vector<InstanceId> owners;
    for (const ObjectRef& o : group) {
        if (std::find(owners.begin(), owners.end(), o.instance) == owners.end()) {
            owners.push_back(o.instance);
        }
    }
    metrics_.group_updates.inc(owners.size());
    broadcast(owners, GroupUpdate{group});
}

void CoSession::broadcast_components(const std::vector<ObjectRef>& objects) {
    if (objects.empty()) return;
    for (const auto& component : graph_.components_of(objects)) broadcast_group(component);
}

// --- floor control / sync-by-action (§3.2) ------------------------------------

void CoSession::notify_locks(const std::vector<ObjectRef>& objects, const ObjectRef& source, bool locked,
                            ActionId action) {
    // One LockNotify carries the whole affected set; receivers filter to the
    // objects they own (CoApp already does), so the frame is identical for
    // every owner and is encoded exactly once.
    std::vector<ObjectRef> affected;
    std::vector<InstanceId> owners;
    for (const ObjectRef& o : objects) {
        if (o == source) continue;  // the acting object stays enabled
        affected.push_back(o);
        if (std::find(owners.begin(), owners.end(), o.instance) == owners.end()) {
            owners.push_back(o.instance);
        }
    }
    broadcast(owners, LockNotify{action, locked, std::move(affected)});
}

void CoSession::handle(InstanceId from, const LockReq& msg) {
    const StageTimer timer{metrics_.stage_lock_us};
    // The grant/deny/notify frames this handler sends all descend from the
    // client's dispatch span (carried on the LockReq frame).
    const obs::ScopedSpan span{"server.lock", "server", current_trace_, msg.action};
    current_trace_ = span.context();

    const LockTable::ActionKey key{from, msg.action};
    // The server's couple relation is authoritative: re-derive the group
    // rather than trusting the client's (possibly stale) replica.
    std::vector<ObjectRef> group = graph_.group_of(msg.source);
    // Loose members are time-shifted: they neither serialize with the floor
    // nor get disabled; their re-executions queue up instead (§2.2).
    std::erase_if(group, [&](const ObjectRef& o) { return !(o == msg.source) && loose_objects_.contains(o); });

    const UserId user = user_of(from);
    for (const ObjectRef& o : group) {
        if (!permissions_.check(user, o, Right::kModify)) {
            metrics_.locks_denied.inc();
            obs::FlightRecorder::instance().record(obs::EventKind::kLockDeny, from, msg.action);
            send(from, LockDeny{msg.action, o});
            return;
        }
    }

    ObjectRef conflict;
    if (Status s = locks_.try_lock_all(key, group, &conflict); !s.is_ok()) {
        metrics_.locks_denied.inc();
        obs::FlightRecorder::instance().record(obs::EventKind::kLockDeny, from, msg.action);
        send(from, LockDeny{msg.action, conflict});
        return;
    }
    metrics_.locks_granted.inc();
    obs::FlightRecorder::instance().record(obs::EventKind::kLockGrant, from, msg.action);

    PendingAction pending;
    pending.trace = span.context();
    if (pending_actions_.insert_or_assign(key, std::move(pending)).second) {
        pending_by_action_.emplace(key.action, key.instance);
    }

    notify_locks(group, msg.source, true, msg.action);
    send(from, LockGrant{msg.action});
}

void CoSession::handle(InstanceId from, EventMsg msg) {
    const StageTimer timer{metrics_.stage_broadcast_us};
    const obs::ScopedSpan span{"server.broadcast", "server", current_trace_, msg.action};
    current_trace_ = span.context();

    const LockTable::ActionKey key{from, msg.action};
    const auto it = pending_actions_.find(key);
    if (it == pending_actions_.end()) return;  // stale or never locked

    const std::vector<ObjectRef> locked = locks_.objects_of(key);
    PendingAction& pending = it->second;
    pending.event_seen = true;
    pending.awaiting = 1;  // the source's own completion ack
    pending.per_instance[from] += 1;
    // Broadcast supersedes lock as the newest server-side stage: the unlock
    // span that closes this action should chain from here.
    if (span.context().valid()) pending.trace = span.context();

    // One ExecuteEvent carries the whole locked target set; each owning
    // instance gets the same shared frame once (encoded exactly once by
    // broadcast) and answers with one ExecuteAck, however many of the
    // targets it re-executes.
    std::vector<ObjectRef> targets;
    std::vector<InstanceId> recipients;
    for (const ObjectRef& target : locked) {
        if (target == msg.source) continue;
        metrics_.events_broadcast.inc();  // one re-execution order per target
        targets.push_back(target);
        if (std::find(recipients.begin(), recipients.end(), target.instance) == recipients.end()) {
            recipients.push_back(target.instance);
            ++pending.awaiting;
            ++pending.per_instance[target.instance];
        }
    }
    broadcast(recipients, ExecuteEvent{msg.action, msg.source, std::move(targets), msg.relative_path, msg.event});

    // Loose group members were excluded from the lock set: queue their
    // re-executions for their next synchronization instead (flushed later as
    // single-target orders). With no loose object in the session there is
    // nothing to find, so the group walk is skipped.
    if (loose_objects_.empty()) return;
    for (const ObjectRef& target : graph_.group_of(msg.source)) {
        if (target == msg.source || !loose_objects_.contains(target)) continue;
        metrics_.events_deferred.inc();
        deferred_[target].push_back({ExecuteEvent{msg.action, msg.source, {target}, msg.relative_path, msg.event}});
    }
}

void CoSession::handle(InstanceId from, const ExecuteAck& msg) {
    const StageTimer timer{metrics_.stage_ack_us};
    // The ack may come from any instance that re-executed; of the actions
    // with this id, it belongs to the one still awaiting this instance.
    const auto [first, last] = pending_by_action_.equal_range(msg.action);
    for (auto idx = first; idx != last; ++idx) {
        const auto it = pending_actions_.find(LockTable::ActionKey{idx->second, msg.action});
        if (it == pending_actions_.end()) continue;
        PendingAction& pending = it->second;
        const auto pi = pending.per_instance.find(from);
        if (pi == pending.per_instance.end() || pi->second == 0) continue;
        pi->second -= 1;
        pending.awaiting -= 1;
        if (pending.awaiting == 0) {
            finish_action(it->first);
        }
        return;
    }
}

void CoSession::finish_action(const LockTable::ActionKey& key) {
    // `key` is often a reference into the pending action's own map node
    // (the ExecuteAck handler passes its key); copy it before erase() frees it.
    const LockTable::ActionKey finished = key;
    obs::TraceContext parent;
    if (const auto it = pending_actions_.find(finished); it != pending_actions_.end()) {
        parent = it->second.trace;
    }
    // The unlock closes the causal chain the action opened at lock time.
    const obs::ScopedSpan span{"server.unlock", "server", parent, finished.action};
    const obs::TraceContext restore = current_trace_;
    current_trace_ = span.context().valid() ? span.context() : restore;
    pending_actions_.erase(finished);
    const auto [first, last] = pending_by_action_.equal_range(finished.action);
    for (auto idx = first; idx != last; ++idx) {
        if (idx->second == finished.instance) {
            pending_by_action_.erase(idx);
            break;
        }
    }
    const auto released = locks_.unlock_action(finished);
    if (!released.empty()) notify_locks(released, ObjectRef{}, false, finished.action);
    current_trace_ = restore;
}

// --- sync-by-state (§3.1) -------------------------------------------------------

void CoSession::handle(InstanceId from, CopyTo msg) {
    const StageTimer timer{metrics_.stage_copy_us};
    const UserId user = user_of(from);
    if (!known_object_instance(msg.dest)) {
        ack(from, msg.request, Status{ErrorCode::kUnknownInstance, "copy destination instance not registered"});
        return;
    }
    if (!permissions_.check(user, msg.dest, Right::kModify)) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "modify right missing on destination"});
        return;
    }
    metrics_.states_applied.inc();
    ApplyState apply;
    apply.request = msg.request;
    apply.dest_path = msg.dest.path;
    apply.mode = msg.mode;
    apply.tag = HistoryTag::kNormal;
    apply.state = std::move(msg.state);
    apply.semantic = std::move(msg.semantic);
    apply.origin = ObjectRef{from, std::string{}};
    send(msg.dest.instance, apply);
    ack(from, msg.request, Status::ok());
}

void CoSession::handle(InstanceId from, const CopyFrom& msg) {
    const UserId user = user_of(from);
    if (!known_object_instance(msg.source)) {
        ack(from, msg.request, Status{ErrorCode::kUnknownInstance, "copy source instance not registered"});
        return;
    }
    if (!permissions_.check(user, msg.source, Right::kView)) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "view right missing on source"});
        return;
    }
    const std::uint64_t sreq = next_server_request_++;
    pending_copies_[sreq] = PendingCopy{from, msg.request, msg.source, ObjectRef{from, msg.dest_path}, msg.mode};
    send(msg.source.instance, StateQuery{sreq, msg.source.path});
}

void CoSession::handle(InstanceId from, const RemoteCopy& msg) {
    const UserId user = user_of(from);
    if (!known_object_instance(msg.source) || !known_object_instance(msg.dest)) {
        ack(from, msg.request, Status{ErrorCode::kUnknownInstance, "remote copy endpoint not registered"});
        return;
    }
    if (!permissions_.check(user, msg.source, Right::kView) ||
        !permissions_.check(user, msg.dest, Right::kModify)) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "remote copy rights missing"});
        return;
    }
    const std::uint64_t sreq = next_server_request_++;
    pending_copies_[sreq] = PendingCopy{from, msg.request, msg.source, msg.dest, msg.mode};
    send(msg.source.instance, StateQuery{sreq, msg.source.path});
}

void CoSession::handle(InstanceId from, const FetchState& msg) {
    const UserId user = user_of(from);
    if (!known_object_instance(msg.source)) {
        ack(from, msg.request, Status{ErrorCode::kUnknownInstance, "fetch source instance not registered"});
        return;
    }
    if (!permissions_.check(user, msg.source, Right::kView)) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "view right missing on source"});
        return;
    }
    const std::uint64_t sreq = next_server_request_++;
    PendingCopy pc{from, msg.request, msg.source, ObjectRef{}, MergeMode::kStrict, /*fetch_only=*/true};
    pending_copies_[sreq] = pc;
    send(msg.source.instance, StateQuery{sreq, msg.source.path});
}

void CoSession::handle(InstanceId from, StateReply msg) {
    const StageTimer timer{metrics_.stage_copy_us};
    const auto it = pending_copies_.find(msg.request);
    if (it == pending_copies_.end()) return;
    if (it->second.source.instance != from) return;  // only the queried owner may answer
    const PendingCopy pc = std::move(it->second);
    pending_copies_.erase(it);

    if (pc.fetch_only) {
        // Route the raw reply back to the requester, keyed by its request id.
        msg.request = pc.requester_request;
        msg.path = pc.source.path;
        send(pc.requester, std::move(msg));
        return;
    }

    if (!msg.found) {
        ack(pc.requester, pc.requester_request, Status{ErrorCode::kUnknownObject, to_string(pc.source)});
        return;
    }
    metrics_.states_applied.inc();
    ApplyState apply;
    apply.request = pc.requester_request;
    apply.dest_path = pc.dest.path;
    apply.mode = pc.mode;
    apply.tag = HistoryTag::kNormal;
    apply.state = std::move(msg.state);
    apply.semantic = std::move(msg.semantic);
    apply.origin = pc.source;
    send(pc.dest.instance, apply);
    ack(pc.requester, pc.requester_request, Status::ok());
}

void CoSession::handle(InstanceId from, HistorySave msg) {
    if (msg.object.instance != from) return;  // instances may only back up their own objects
    switch (msg.tag) {
        case HistoryTag::kNormal:
            history_.push_overwritten(msg.object, std::move(msg.state));
            break;
        case HistoryTag::kUndo:
            history_.push_redo(msg.object, std::move(msg.state));
            break;
        case HistoryTag::kRedo:
            history_.push_undo_preserving_redo(msg.object, std::move(msg.state));
            break;
    }
}

void CoSession::send_history_apply(const ObjectRef& object, toolkit::UiState state, HistoryTag tag) {
    metrics_.states_applied.inc();
    ApplyState apply;
    apply.request = 0;
    apply.dest_path = object.path;
    // Historical snapshots are full-scope; destructive apply restores the
    // exact structure that was overwritten.
    apply.mode = MergeMode::kDestructive;
    apply.tag = tag;
    apply.state = std::move(state);
    apply.origin = object;
    send(object.instance, apply);
}

void CoSession::handle(InstanceId from, const UndoReq& msg) {
    const UserId user = user_of(from);
    if (!permissions_.check(user, msg.object, Right::kModify)) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "modify right missing"});
        return;
    }
    auto state = history_.pop_undo(msg.object);
    if (!state) {
        ack(from, msg.request, Status{ErrorCode::kHistoryEmpty, "no undo state for " + to_string(msg.object)});
        return;
    }
    send_history_apply(msg.object, std::move(*state), HistoryTag::kUndo);
    ack(from, msg.request, Status::ok());
}

void CoSession::handle(InstanceId from, const RedoReq& msg) {
    const UserId user = user_of(from);
    if (!permissions_.check(user, msg.object, Right::kModify)) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "modify right missing"});
        return;
    }
    auto state = history_.pop_redo(msg.object);
    if (!state) {
        ack(from, msg.request, Status{ErrorCode::kHistoryEmpty, "no redo state for " + to_string(msg.object)});
        return;
    }
    send_history_apply(msg.object, std::move(*state), HistoryTag::kRedo);
    ack(from, msg.request, Status::ok());
}

// --- protocol extension (§3.4) ---------------------------------------------------

void CoSession::handle(InstanceId from, Command msg) {
    if (msg.target == kInvalidInstance) {
        std::vector<InstanceId> recipients;
        for (const auto& [id, conn] : conns_) {
            if (id == from || !conn.registered) continue;
            recipients.push_back(id);
        }
        std::sort(recipients.begin(), recipients.end());  // deterministic fan-out order
        metrics_.commands_routed.inc(recipients.size());
        broadcast(recipients, CommandDeliver{from, std::move(msg.name), std::move(msg.payload)});
        ack(from, msg.request, Status::ok());
        return;
    }
    const auto it = conns_.find(msg.target);
    if (it == conns_.end() || !it->second.registered) {
        ack(from, msg.request, Status{ErrorCode::kUnknownInstance, "command target not registered"});
        return;
    }
    metrics_.commands_routed.inc();
    send(msg.target, CommandDeliver{from, std::move(msg.name), std::move(msg.payload)});
    ack(from, msg.request, Status::ok());
}

// --- loose coupling (time relaxation, §2.2) ------------------------------------------

void CoSession::flush_deferred(const ObjectRef& object) {
    const auto it = deferred_.find(object);
    if (it == deferred_.end()) return;
    for (DeferredEvent& deferred : it->second) {
        metrics_.events_flushed.inc();
        send(object.instance, std::move(deferred.event));
    }
    deferred_.erase(it);
}

void CoSession::handle(InstanceId from, const SetCouplingMode& msg) {
    if (msg.object.instance != from) {
        ack(from, msg.request,
            Status{ErrorCode::kPermissionDenied, "only the owning instance may change coupling mode"});
        return;
    }
    if (msg.loose) {
        loose_objects_.insert(msg.object);
    } else {
        loose_objects_.erase(msg.object);
        flush_deferred(msg.object);  // returning to tight delivers the backlog
    }
    ack(from, msg.request, Status::ok());
}

void CoSession::handle(InstanceId from, const SyncRequest& msg) {
    if (msg.object.instance != from) {
        ack(from, msg.request, Status{ErrorCode::kPermissionDenied, "only the owner may sync an object"});
        return;
    }
    const std::size_t n = deferred_count(msg.object);
    flush_deferred(msg.object);
    ack(from, msg.request, Status::ok());
    (void)n;
}

// --- permissions -------------------------------------------------------------------

void CoSession::handle(InstanceId from, const PermissionSet& msg) {
    // Only the owner of an object may configure access to it.
    if (msg.object.instance != from) {
        ack(from, msg.request,
            Status{ErrorCode::kPermissionDenied, "only the owning instance may set permissions"});
        return;
    }
    const auto rights = static_cast<protocol::RightsMask>(msg.rights & protocol::kAllRights);
    if (rights == 0) {
        ack(from, msg.request, Status{ErrorCode::kInvalidArgument, "empty rights mask"});
        return;
    }
    permissions_.set(msg.user, msg.object, rights, msg.allow);
    ack(from, msg.request, Status::ok());
}

// --- durable sessions & late-joiner sync (ROADMAP item 1) ---------------------

void CoSession::pump() {
    const bool flushed = !staged_.empty();
    // Frames this dispatch corked leave before the journal I/O does: a
    // write and an fsync must not sit between a broadcast and its partners.
    // (They still see it before it is durable, as ever.)
    if (flushed) flush_corked_sends();
    if (persist_ != nullptr) {
        for (const StagedRecord& rec : staged_) {
            if (rec.type == SessionJournal::RecordType::kFrame) {
                persist_->append_frame(rec.origin, rec.frame);
            } else {
                persist_->append_detach(rec.origin);
            }
        }
        if (flushed) (void)persist_->sync();  // one durability point per batch
    }
    staged_.clear();
    if (synchronizing_count_ > 0) promote_synchronizing();
    if (persist_ != nullptr && persist_->should_compact()) {
        flush_corked_sends();
        ByteWriter image;
        snapshot(image);
        (void)persist_->compact(image.data());
    }
}

void CoSession::promote_synchronizing() {
    // Promote in id order: the streams leave independent of hash-map layout.
    std::vector<InstanceId> joiners;
    for (const auto& [id, conn] : conns_) {
        if (conn.synchronizing) joiners.push_back(id);
    }
    std::sort(joiners.begin(), joiners.end());
    for (const InstanceId id : joiners) {
        const auto it = conns_.find(id);
        if (it == conns_.end() || !it->second.synchronizing) continue;
        Conn& conn = it->second;
        // Live delivery resumes *before* the stream flushes: the SyncStep
        // and SyncEnd frames themselves must not be buffered.
        conn.synchronizing = false;
        --synchronizing_count_;
        std::vector<protocol::Frame> buffered = std::move(conn.sync_buffer);
        conn.sync_buffer.clear();
        std::uint64_t seq = conn.sync_base;
        for (const protocol::Frame& frame : buffered) {
            metrics_.sync_steps.inc();
            const std::span<const std::uint8_t> raw = frame.bytes();
            send(id, SyncStep{++seq, kInvalidInstance, {raw.begin(), raw.end()}});
        }
        send(id, SyncEnd{seq});
        metrics_.syncs_completed.inc();
    }
}

void CoSession::ensure_replay_conn(InstanceId instance) {
    if (conns_.contains(instance)) return;
    Conn conn;
    conn.channel = std::make_shared<GhostChannel>();
    next_instance_ = std::max(next_instance_, instance + 1);
    conns_.emplace(instance, std::move(conn));
}

Status CoSession::enable_journal(const SessionJournalOptions& options) {
    strand_checker_.assert_on_strand();
    if (persist_ != nullptr) return Status{ErrorCode::kInvalidArgument, "journal already enabled"};
    auto journal = std::make_unique<SessionJournal>(name_, options);
    if (Status s = journal->open(); !s.is_ok()) return s;

    const SessionJournal::Recovered& recovered = journal->recovered();
    replaying_ = true;
    if (!recovered.snapshot.empty()) {
        ByteReader r{std::span<const std::uint8_t>{recovered.snapshot}};
        if (!restore(r)) {
            replaying_ = false;
            return Status{ErrorCode::kBadMessage,
                          "journal snapshot for session '" + name_ + "' failed to restore"};
        }
    }
    // Replay the tail through the real handlers: identical inputs, identical
    // state. Sends target ghost channels and vanish before any counter, so
    // the replayed session is bit-compatible with the one that crashed.
    for (const SessionJournal::Record& rec : recovered.tail) {
        if (rec.type == SessionJournal::RecordType::kFrame) {
            ensure_replay_conn(rec.origin);
            dispatch_frame(rec.origin, protocol::Frame::copy_of(rec.body));
        } else if (rec.type == SessionJournal::RecordType::kDetach) {
            cleanup(rec.origin);
        }
    }
    replaying_ = false;
    persist_ = std::move(journal);
    CO_CHECK_INVARIANTS(*this);
    return Status::ok();
}

void CoSession::snapshot(ByteWriter& w) const {
    encode_fields(w, kSnapshotVersion, name_, conns_, next_instance_);
    graph_.snapshot(w);
    locks_.snapshot(w);
    history_.snapshot(w);
    permissions_.snapshot(w);
    // Counters drive future behaviour (invariants, acks, fan-out accounting),
    // so they are state and must survive a restart.
    encode_fields(w, in_flight(*this), departed_broadcast_enqueued_, stats());
}

void CoSession::reset_state() {
    conns_.clear();
    next_instance_ = 1;
    graph_ = CoupleGraph{};
    locks_ = LockTable{};
    history_ = HistoryStore{};
    permissions_ = PermissionTable{};
    pending_actions_.clear();
    pending_by_action_.clear();
    pending_copies_.clear();
    next_server_request_ = 1;
    loose_objects_.clear();
    deferred_.clear();
    departed_broadcast_enqueued_ = 0;
    metrics_.restore(ServerStats{});
}

bool CoSession::restore(ByteReader& r) {
    reset_state();
    std::uint8_t version = 0;
    std::string name;
    ServerStats stats;
    decode_fields(r, version, name);
    if (version != kSnapshotVersion || name != name_) r.fail();
    decode_fields(r, conns_, next_instance_);
    if (graph_.restore(r) && locks_.restore(r) && history_.restore(r) && permissions_.restore(r)) {
        decode_fields(r, in_flight(*this), departed_broadcast_enqueued_, stats);
    }
    if (!r.exhausted()) {
        reset_state();
        return false;
    }
    // The derived parts: ghost channels and the action-id index.
    for (auto& [id, conn] : conns_) conn.channel = std::make_shared<GhostChannel>();
    for (const auto& [key, pending] : pending_actions_) pending_by_action_.emplace(key.action, key.instance);
    metrics_.restore(stats);
    return true;
}

void CoSession::fingerprint(ByteWriter& w) const {
    // A connection as the fingerprint sees it: (registered, connected,
    // identity). Its liveness stands in for its fan-out count, which would
    // make nearly every state unique.
    using PrintedConn = std::tuple<bool, bool, const Identity&>;
    std::unordered_map<InstanceId, PrintedConn> conns;
    for (const auto& [id, conn] : conns_) {
        conns.emplace(id, PrintedConn{conn.registered, conn.channel != nullptr && conn.channel->connected(),
                                      conn.identity});
    }
    encode_fields(w, name_, conns, next_instance_);
    graph_.fingerprint(w);
    locks_.fingerprint(w);
    history_.snapshot(w);
    permissions_.fingerprint(w);
    // Only the counters that feed safety properties: including the raw
    // message totals would make every state unique and defeat pruning.
    encode_fields(w, in_flight(*this), metrics_.events_broadcast.value(), metrics_.events_deferred.value(),
                  metrics_.events_flushed.value());
}

}  // namespace cosoft::server
