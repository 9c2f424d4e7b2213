#include "cosoft/client/co_app.hpp"

#include <algorithm>

#include "cosoft/common/strings.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/toolkit/snapshot.hpp"

namespace cosoft::client {

using namespace protocol;

namespace {

// Client-side stage latencies live in the process-wide registry: a process
// may host many CoApps, and per-stage latency is a property of the client
// runtime, not of one instance.
obs::Histogram& dispatch_histogram() {
    static obs::Histogram& h = obs::Registry::global().histogram(
        "cosoft_client_dispatch_us", obs::Histogram::exponential_buckets(1.0, 2.0, 20));
    return h;
}

obs::Histogram& replay_histogram() {
    static obs::Histogram& h = obs::Registry::global().histogram(
        "cosoft_client_replay_us", obs::Histogram::exponential_buckets(1.0, 2.0, 20));
    return h;
}

}  // namespace

CoApp::CoApp(std::string app_name, std::string user_name, UserId user, std::string host_name)
    : app_name_(std::move(app_name)),
      user_name_(std::move(user_name)),
      host_name_(std::move(host_name)),
      user_(user) {
    tree_.set_destroy_observer([this](const std::string& path) { on_widget_destroyed(path); });
}

CoApp::~CoApp() {
    if (channel_) {
        channel_->close();
        // Release the channel before the rest of this object is torn down.
        // In reactor-delivery mode the on_receive/on_close handlers run on a
        // reactor shard thread and mutate the pending maps and widget tree;
        // when this is the last reference, ~TcpChannel's blocking
        // deregistration guarantees the shard will never invoke them again.
        // Members are destroyed in reverse declaration order — the maps
        // (declared after channel_) would otherwise die while a close
        // callback could still be in flight.
        channel_.reset();
    }
}

void CoApp::connect(std::shared_ptr<net::Channel> channel, std::string session) {
    channel_ = std::move(channel);
    session_ = std::move(session);
    channel_->on_receive([this](const protocol::Frame& frame) { handle_frame(frame); });
    channel_->on_close([this] {
        instance_ = kInvalidInstance;
        // Fail every outstanding request; the server has forgotten us.
        auto requests = std::move(pending_requests_);
        pending_requests_.clear();
        for (auto& [id, done] : requests) {
            if (done) done(Status{ErrorCode::kTransport, "server connection lost"});
        }
        auto emits = std::move(pending_emits_);
        pending_emits_.clear();
        // Unwind newest-first: each undo record captured the state produced
        // by the emits before it, so reverse order restores the base state.
        std::vector<ActionId> ids;
        ids.reserve(emits.size());
        for (const auto& [id, pe] : emits) ids.push_back(id);
        std::sort(ids.begin(), ids.end(), std::greater<>{});
        for (const ActionId id : ids) {
            PendingEmit& pe = emits.at(id);
            if (toolkit::Widget* w = tree_.find(pe.widget_path)) w->undo_feedback(pe.undo);
        }
        for (const ActionId id : ids) {
            PendingEmit& pe = emits.at(id);
            if (pe.done) pe.done(Status{ErrorCode::kTransport, "server connection lost"});
        }
    });
    send(Register{user_, user_name_, host_name_, app_name_, protocol::kProtocolVersion, session_});
}

void CoApp::send(const Message& msg) {
    if (channel_ && channel_->connected()) (void)channel_->send(encode_message(msg, current_trace_));
}

ActionId CoApp::track(Done done) {
    const ActionId id = next_action_++;
    pending_requests_.emplace(id, std::move(done));
    return id;
}

void CoApp::finish(ActionId request, const Status& status) {
    const auto it = pending_requests_.find(request);
    if (it == pending_requests_.end()) return;
    Done done = std::move(it->second);
    pending_requests_.erase(it);
    if (done) done(status);
}

std::vector<ActionId> CoApp::pending_emits_on(const std::string& widget_path, ActionId above) const {
    std::vector<ActionId> ids;
    for (const auto& [id, pe] : pending_emits_) {
        if (id > above && pe.widget_path == widget_path) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

void CoApp::reapply_pending_around(toolkit::Widget& w, ActionId above, const std::function<void()>& apply) {
    const std::vector<ActionId> ids = pending_emits_on(w.path(), above);
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) w.undo_feedback(pending_emits_.at(*it).undo);
    apply();
    for (const ActionId id : ids) {
        PendingEmit& pe = pending_emits_.at(id);
        pe.undo = w.apply_feedback(pe.event);
    }
}

// --- coupling ------------------------------------------------------------------

void CoApp::couple(std::string_view local_path, const ObjectRef& remote, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    if (tree_.find(local_path) == nullptr) {
        if (done) done(Status{ErrorCode::kUnknownObject, std::string{local_path}});
        return;
    }
    send(CoupleReq{track(std::move(done)), ref(local_path), remote});
}

void CoApp::decouple(std::string_view local_path, const ObjectRef& remote, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(DecoupleReq{track(std::move(done)), ref(local_path), remote});
}

void CoApp::decouple_all(std::string_view local_path, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    // An invalid destination tells the server to drop every link touching
    // the source (the same path widget destruction takes).
    send(DecoupleReq{track(std::move(done)), ref(local_path), ObjectRef{}});
    groups_.erase(std::string{local_path});
}

void CoApp::set_loose(std::string_view path, bool loose, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    if (loose) {
        loose_paths_.insert(std::string{path});
    } else {
        loose_paths_.erase(std::string{path});
    }
    send(SetCouplingMode{track(std::move(done)), ref(path), loose});
}

void CoApp::sync_now(std::string_view path, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(SyncRequest{track(std::move(done)), ref(path)});
}

void CoApp::remote_couple(const ObjectRef& a, const ObjectRef& b, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(CoupleReq{track(std::move(done)), a, b});
}

void CoApp::remote_decouple(const ObjectRef& a, const ObjectRef& b, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(DecoupleReq{track(std::move(done)), a, b});
}

std::vector<ObjectRef> CoApp::coupled_with(std::string_view path) const {
    const auto it = groups_.find(std::string{path});
    if (it == groups_.end()) return {};
    std::vector<ObjectRef> out = it->second;
    std::erase(out, ObjectRef{instance_, std::string{path}});
    return out;
}

bool CoApp::is_coupled(std::string_view path) const noexcept {
    return groups_.contains(std::string{path});
}

std::string CoApp::coupled_context(std::string_view path) const {
    std::string_view cur = path;
    while (!cur.empty()) {
        const auto it = groups_.find(std::string{cur});
        if (it != groups_.end()) return std::string{cur};
        cur = path_parent(cur);
    }
    return {};
}

// --- sync-by-state -----------------------------------------------------------------

void CoApp::copy_to(std::string_view local_source, const ObjectRef& dest, MergeMode mode, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    const toolkit::Widget* w = tree_.find(local_source);
    if (w == nullptr) {
        if (done) done(Status{ErrorCode::kUnknownObject, std::string{local_source}});
        return;
    }
    CopyTo msg;
    msg.request = track(std::move(done));
    msg.dest = dest;
    msg.mode = mode;
    msg.state = toolkit::snapshot(*w, toolkit::SnapshotScope::kRelevant);
    const auto hook = semantic_hooks_.find(std::string{local_source});
    if (hook != semantic_hooks_.end() && hook->second.first) msg.semantic = hook->second.first();
    send(msg);
}

void CoApp::copy_from(const ObjectRef& source, std::string_view local_dest, MergeMode mode, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    if (tree_.find(local_dest) == nullptr) {
        if (done) done(Status{ErrorCode::kUnknownObject, std::string{local_dest}});
        return;
    }
    send(CopyFrom{track(std::move(done)), source, std::string{local_dest}, mode});
}

void CoApp::remote_copy(const ObjectRef& source, const ObjectRef& dest, MergeMode mode, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(RemoteCopy{track(std::move(done)), source, dest, mode});
}

void CoApp::fetch_state(const ObjectRef& source, FetchCallback callback) {
    if (!online()) {
        callback(Error{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    // Track twice: the fetch callback receives the state on success; the
    // request entry catches server-side error Acks (permission, unknown).
    const ActionId id = next_action_++;
    pending_fetches_.emplace(id, std::move(callback));
    pending_requests_.emplace(id, [this, id](const Status& st) {
        const auto it = pending_fetches_.find(id);
        if (it == pending_fetches_.end()) return;
        FetchCallback cb = std::move(it->second);
        pending_fetches_.erase(it);
        cb(Error{st.code(), st.message()});
    });
    send(FetchState{id, source});
}

void CoApp::handle(StateReply msg) {
    const auto it = pending_fetches_.find(msg.request);
    if (it == pending_fetches_.end()) return;
    FetchCallback cb = std::move(it->second);
    pending_fetches_.erase(it);
    pending_requests_.erase(msg.request);  // no Ack will follow
    if (!msg.found) {
        cb(Error{ErrorCode::kUnknownObject, msg.path});
        return;
    }
    cb(std::move(msg.state));
}

void CoApp::couple_synced(std::string_view local_path, const ObjectRef& remote, MergeMode mode, Done done) {
    const std::string path{local_path};
    copy_to(path, remote, mode, [this, path, remote, done = std::move(done)](const Status& st) {
        if (!st.is_ok()) {
            if (done) done(st);
            return;
        }
        couple(path, remote, done);
    });
}

// --- sync-by-action (the §3.2 algorithm, asynchronous form) --------------------------

void CoApp::emit(std::string_view path, toolkit::Event event, Done done) {
    toolkit::Widget* w = tree_.find(path);
    if (w == nullptr) {
        if (done) done(Status{ErrorCode::kUnknownObject, std::string{path}});
        return;
    }
    // "Actions on locked objects are disabled."
    if (!w->enabled()) {
        if (done) done(Status{ErrorCode::kLockConflict, "object is disabled (locked by a peer action)"});
        return;
    }
    event.path = w->path();

    const std::string context = online() ? coupled_context(event.path) : std::string{};
    if (context.empty()) {
        // Uncoupled: exactly the single-user toolkit behaviour.
        w->emit(event);
        ++stats_.events_local;
        if (done) done(Status::ok());
        return;
    }

    const ActionId action = next_action_++;
    // Each coupled emission mints a fresh trace: the client dispatch span is
    // the root of the §3.2 causal chain (lock, broadcast, partner replays).
    const obs::ScopedTimer timer{dispatch_histogram()};
    const obs::ScopedSpan span{"client.dispatch", "client", obs::Tracer::instance().start_trace(), action};

    // Built-in syntactic feedback happens immediately; callbacks wait for
    // the floor lock.
    PendingEmit pe;
    pe.widget_path = event.path;
    pe.source_path = context;
    pe.relative = event.path == context ? std::string{} : std::string{event.path.substr(context.size() + 1)};
    pe.undo = w->apply_feedback(event);
    pe.event = event;
    pe.done = std::move(done);
    pe.trace = span.context();

    const auto group_it = groups_.find(context);
    LockReq req;
    req.action = action;
    req.source = ref(context);
    if (group_it != groups_.end()) req.objects = group_it->second;
    pending_emits_.emplace(action, std::move(pe));
    current_trace_ = span.context();
    send(req);
    current_trace_ = {};
}

void CoApp::handle(const LockGrant& msg) {
    const auto it = pending_emits_.find(msg.action);
    if (it == pending_emits_.end()) return;
    PendingEmit pe = std::move(it->second);
    pending_emits_.erase(it);

    // Parent on the grant's server.lock span when it carried one; fall back
    // to the emission's own dispatch span (trace-extension-less server).
    const obs::ScopedSpan span{"client.callbacks", "client",
                               current_trace_.valid() ? current_trace_ : pe.trace, msg.action};
    current_trace_ = span.context();
    if (toolkit::Widget* w = tree_.find(pe.widget_path)) w->fire_callbacks(pe.event);
    ++stats_.events_coupled;
    send(EventMsg{msg.action, ref(pe.source_path), pe.relative, pe.event});
    send(ExecuteAck{msg.action});  // our own processing is complete
    if (pe.done) pe.done(Status::ok());
}

void CoApp::handle(const LockDeny& msg) {
    const auto it = pending_emits_.find(msg.action);
    if (it == pending_emits_.end()) return;
    PendingEmit pe = std::move(it->second);
    pending_emits_.erase(it);

    // "undo syntactic built-in feedback of the event e" — around any newer
    // optimistic feedback on the same widget, so their undo records stay
    // coherent with what actually remains applied.
    if (toolkit::Widget* w = tree_.find(pe.widget_path)) {
        reapply_pending_around(*w, msg.action, [&] { w->undo_feedback(pe.undo); });
    }
    ++stats_.locks_denied;
    if (pe.done) pe.done(Status{ErrorCode::kLockConflict, "floor lock denied at " + to_string(msg.conflicting)});
}

void CoApp::handle(const LockNotify& msg) {
    for (const ObjectRef& o : msg.objects) {
        if (o.instance != instance_) continue;
        if (toolkit::Widget* w = tree_.find(o.path)) w->set_enabled(!msg.locked);
        if (msg.locked) {
            locked_paths_.insert(o.path);
        } else {
            locked_paths_.erase(o.path);
        }
    }
}

void CoApp::handle(const ExecuteEvent& msg) {
    const obs::ScopedTimer timer{replay_histogram()};
    // The partner replay descends from the server's broadcast span carried
    // on the shared ExecuteEvent frame.
    const obs::ScopedSpan span{"client.replay", "client", current_trace_, msg.action};
    current_trace_ = span.context();
    // The shared broadcast frame lists every locked target; re-execute the
    // ones this instance owns and answer with a single ack for the frame.
    for (const ObjectRef& target : msg.targets) {
        if (target.instance != instance_) continue;
        toolkit::Widget* base = tree_.find(target.path);
        if (base == nullptr) continue;
        const std::string local_rel =
            correspondences_.map_remote_path(target.path, msg.source, msg.relative_path);
        toolkit::Widget* w = local_rel.empty() ? base : base->find(local_rel);
        if (w == nullptr) continue;
        toolkit::Event local_event = msg.event;
        local_event.path = w->path();
        // Re-execution bypasses the enabled check: the floor holder's
        // action must land even though this object is locked. The remote
        // action logically precedes our unconfirmed emissions, so it is
        // applied beneath them: otherwise a later LockDeny would undo
        // our feedback back to a value that predates the remote action
        // and the replicas would diverge.
        reapply_pending_around(*w, 0, [&] {
            (void)w->apply_feedback(local_event);
            w->fire_callbacks(local_event);
        });
        ++stats_.events_reexecuted;
    }
    // Always acknowledge (once per frame): the group must not stay locked
    // because a widget disappeared between locking and execution.
    send(ExecuteAck{msg.action});
}

// --- state shipping ------------------------------------------------------------------

void CoApp::handle(const StateQuery& msg) {
    StateReply reply;
    reply.request = msg.request;
    reply.path = msg.path;
    const toolkit::Widget* w = tree_.find(msg.path);
    if (w != nullptr) {
        reply.found = true;
        reply.state = toolkit::snapshot(*w, toolkit::SnapshotScope::kRelevant);
        const auto hook = semantic_hooks_.find(msg.path);
        if (hook != semantic_hooks_.end() && hook->second.first) reply.semantic = hook->second.first();
        ++stats_.state_queries;
    }
    send(reply);
}

void CoApp::handle(ApplyState msg) {
    toolkit::Widget* w = tree_.find(msg.dest_path);
    if (w == nullptr) {
        ++stats_.apply_errors;
        return;
    }

    // Back up what we are about to overwrite; the server files it on the
    // undo/redo stack selected by the tag.
    send(HistorySave{ref(msg.dest_path), msg.tag, toolkit::snapshot(*w, toolkit::SnapshotScope::kAll)});

    Status applied = Status::ok();
    switch (msg.mode) {
        case MergeMode::kStrict:
            // Correspondence-aware strict application: verifies the by-name
            // bijection (including declared heterogeneous class pairs) before
            // mutating, then copies attributes with name/type translation.
            applied = apply_heterogeneous(*w, msg.state, correspondences_);
            break;
        case MergeMode::kDestructive:
            applied = toolkit::apply_destructive(*w, msg.state);
            break;
        case MergeMode::kFlexible:
            applied = toolkit::apply_flexible(*w, msg.state);
            break;
    }
    if (!applied.is_ok()) {
        ++stats_.apply_errors;
        return;
    }
    ++stats_.states_applied;

    if (!msg.semantic.empty()) {
        const auto hook = semantic_hooks_.find(msg.dest_path);
        if (hook != semantic_hooks_.end() && hook->second.second) hook->second.second(msg.semantic);
    }
}

// --- history ----------------------------------------------------------------------

void CoApp::undo(std::string_view path, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(UndoReq{track(std::move(done)), ref(path)});
}

void CoApp::redo(std::string_view path, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(RedoReq{track(std::move(done)), ref(path)});
}

// --- commands ---------------------------------------------------------------------

void CoApp::send_command(std::string name, std::vector<std::uint8_t> payload, InstanceId target, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(Command{track(std::move(done)), std::move(name), target, std::move(payload)});
}

void CoApp::on_command(std::string name, CommandHandler handler) {
    command_handlers_[std::move(name)] = std::move(handler);
}

void CoApp::handle(const CommandDeliver& msg) {
    const auto it = command_handlers_.find(msg.name);
    if (it == command_handlers_.end()) return;
    ++stats_.commands_received;
    it->second(msg.from, msg.payload);
}

// --- misc --------------------------------------------------------------------------

void CoApp::set_semantic_hooks(std::string path, StoreFn store, LoadFn load) {
    semantic_hooks_[std::move(path)] = {std::move(store), std::move(load)};
}

void CoApp::set_permission(UserId user, std::string_view local_path, RightsMask rights, bool allow, Done done) {
    if (!online()) {
        if (done) done(Status{ErrorCode::kTransport, "not registered with the server"});
        return;
    }
    send(PermissionSet{track(std::move(done)), user, ref(local_path), rights, allow});
}

void CoApp::query_registry(RegistryCallback callback) {
    if (!online()) {
        callback({});
        return;
    }
    const ActionId id = next_action_++;
    pending_registry_.emplace(id, std::move(callback));
    send(RegistryQuery{id});
}

void CoApp::handle(RegistryReply msg) {
    const auto it = pending_registry_.find(msg.request);
    if (it == pending_registry_.end()) return;
    RegistryCallback cb = std::move(it->second);
    pending_registry_.erase(it);
    cb(msg.instances);
}

void CoApp::handle(RegisterAck msg) {
    instance_ = msg.instance;
    // A true sync_follows makes this a late joiner: stay offline (and
    // receive-only) until the SyncBegin..SyncEnd catch-up stream promotes us.
    syncing_ = msg.sync_follows;
    if (!msg.sync_follows) sync_buffer_.clear();
}

void CoApp::handle(SyncState msg) {
    // The server's baseline at base_seq: replicate the coupling topology and
    // loose markers exactly as the missed GroupUpdates/SetCouplingModes would
    // have, so awareness observers fire for groups formed before we joined.
    const auto section = decode_sync_state(msg.state);
    if (!section.is_ok()) return;
    for (const std::vector<ObjectRef>& members : section.value().groups) {
        for (const ObjectRef& member : members) {
            if (member.instance != instance_) continue;
            if (members.size() <= 1) {
                groups_.erase(member.path);
            } else {
                groups_[member.path] = members;
            }
            if (group_observer_) group_observer_(member.path, members);
        }
    }
    for (const ObjectRef& obj : section.value().loose) {
        if (obj.instance == instance_) loose_paths_.insert(obj.path);
    }
}

void CoApp::handle(SyncStep msg) {
    // Live traffic raced the catch-up stream; hold it until SyncEnd so it
    // applies against the fully restored baseline, in arrival order.
    sync_buffer_.emplace_back(std::move(msg.frame));
}

void CoApp::handle(const SyncEnd&) {
    // Promote FIRST: the buffered frames are ordinary live traffic and their
    // handlers may respond (ExecuteAck), which requires an online client.
    syncing_ = false;
    std::vector<protocol::Frame> buffered;
    buffered.swap(sync_buffer_);
    for (const protocol::Frame& frame : buffered) {
        ++stats_.sync_steps_applied;
        handle_frame(frame);
    }
}

void CoApp::handle(GroupUpdate msg) {
    ++stats_.group_updates;
    for (const ObjectRef& member : msg.members) {
        if (member.instance != instance_) continue;
        if (msg.members.size() <= 1) {
            groups_.erase(member.path);  // alone again: fully decoupled
        } else {
            groups_[member.path] = msg.members;
        }
        if (group_observer_) group_observer_(member.path, msg.members);
    }
}

std::vector<std::string> CoApp::coupled_paths() const {
    std::vector<std::string> out;
    out.reserve(groups_.size());
    for (const auto& [path, _] : groups_) out.push_back(path);
    std::sort(out.begin(), out.end());
    return out;
}

void CoApp::handle(const Ack& msg) {
    finish(msg.request, msg.code == ErrorCode::kOk ? Status::ok() : Status{msg.code, msg.message});
}

void CoApp::on_widget_destroyed(const std::string& path) {
    locked_paths_.erase(path);
    loose_paths_.erase(path);
    semantic_hooks_.erase(path);
    if (groups_.erase(path) > 0 && online()) {
        // "The decoupling algorithm is applied automatically when a UI
        // object is destroyed."
        send(DecoupleReq{next_action_++, ref(path), ObjectRef{}});
    }
}

void CoApp::handle_frame(const protocol::Frame& frame) {
    auto decoded = decode_frame(frame);
    if (!decoded) return;
    // The frame's trace context (if any) parents everything this dispatch
    // sends; handlers that open their own span narrow it further.
    current_trace_ = decoded.value().trace;
    // The handle() overload set is the dispatch table, as in
    // CoSession::dispatch_frame: by-value handlers take the decoded message
    // by move, and client-to-server types (no handler) are ignored.
    std::visit(
        [&](auto&& m) {
            if constexpr (requires { handle(std::move(m)); }) handle(std::move(m));
        },
        decoded.value().message);
    current_trace_ = {};
}

void CoApp::fingerprint(ByteWriter& w) const {
    w.u32(instance_);
    w.u64(next_action_);
    w.u32(user_);
    w.str(app_name_);
    w.boolean(channel_ != nullptr && channel_->connected());
    w.boolean(syncing_);
    w.u32(static_cast<std::uint32_t>(sync_buffer_.size()));

    toolkit::encode(w, toolkit::snapshot(tree_.root(), toolkit::SnapshotScope::kAll));

    std::vector<const std::pair<const std::string, std::vector<ObjectRef>>*> groups;
    groups.reserve(groups_.size());
    for (const auto& kv : groups_) groups.push_back(&kv);
    std::sort(groups.begin(), groups.end(), [](const auto* a, const auto* b) { return a->first < b->first; });
    w.u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto* kv : groups) {
        w.str(kv->first);
        std::vector<ObjectRef> members = kv->second;
        std::sort(members.begin(), members.end());
        w.u32(static_cast<std::uint32_t>(members.size()));
        for (const ObjectRef& m : members) {
            w.u32(m.instance);
            w.str(m.path);
        }
    }

    const auto write_sorted_paths = [&w](const std::unordered_set<std::string>& paths) {
        std::vector<std::string> sorted(paths.begin(), paths.end());
        std::sort(sorted.begin(), sorted.end());
        w.u32(static_cast<std::uint32_t>(sorted.size()));
        for (const std::string& p : sorted) w.str(p);
    };
    write_sorted_paths(locked_paths_);
    write_sorted_paths(loose_paths_);

    std::vector<ActionId> emit_ids;
    emit_ids.reserve(pending_emits_.size());
    for (const auto& [id, pe] : pending_emits_) emit_ids.push_back(id);
    std::sort(emit_ids.begin(), emit_ids.end());
    w.u32(static_cast<std::uint32_t>(emit_ids.size()));
    for (const ActionId id : emit_ids) {
        const PendingEmit& pe = pending_emits_.at(id);
        w.u64(id);
        w.str(pe.widget_path);
        w.str(pe.source_path);
        w.str(pe.relative);
        toolkit::encode(w, pe.event);
        w.u32(static_cast<std::uint32_t>(pe.undo.entries.size()));
        for (const auto& entry : pe.undo.entries) {
            w.str(entry.attribute);
            toolkit::encode(w, entry.previous);
        }
    }

    const auto write_sorted_ids = [&w](const auto& map) {
        std::vector<ActionId> ids;
        ids.reserve(map.size());
        for (const auto& [id, value] : map) ids.push_back(id);
        std::sort(ids.begin(), ids.end());
        w.u32(static_cast<std::uint32_t>(ids.size()));
        for (const ActionId id : ids) w.u64(id);
    };
    write_sorted_ids(pending_requests_);
    write_sorted_ids(pending_registry_);
    write_sorted_ids(pending_fetches_);

    // The one counter safety properties read (execution accounting).
    w.u64(stats_.events_reexecuted);
}

}  // namespace cosoft::client
