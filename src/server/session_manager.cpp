#include "cosoft/server/session_manager.hpp"

#include <algorithm>
#include <utility>

#include "cosoft/common/check.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/common/strand_check.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/obs/watchdog.hpp"
#include "cosoft/protocol/messages.hpp"

#include <dirent.h>

namespace cosoft::server {

using protocol::Frame;
using protocol::Message;

namespace {

/// Session names recoverable from `dir`: each *.cosj file's header carries
/// the exact name (the filesystem name is mangled). Sorted for deterministic
/// recovery order.
std::vector<std::string> scan_journal_dir(const std::string& dir) {
    std::vector<std::string> names;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return names;
    while (const struct dirent* entry = ::readdir(d)) {
        const std::string file = entry->d_name;
        if (file.size() < 5 || file.substr(file.size() - 5) != ".cosj") continue;
        if (auto name = SessionJournal::read_session_name(dir + "/" + file)) {
            names.push_back(std::move(*name));
        }
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions options) : options_(std::move(options)) {
    if (!options_.journal_dir.empty()) {
        // Boot recovery: every *.cosj in the journal directory names a
        // session (in its header — the filesystem name is mangled) whose
        // state must exist before clients reconnect. find_or_create_session
        // replays each journal; recreated sessions are pinned so the GC does
        // not collect them before their members return.
        MutexLock lock(mu_);
        for (const std::string& name : scan_journal_dir(options_.journal_dir)) {
            auto* strand = find_or_create_session(lock, name);
            strand->pinned = true;
            // Recovered ghosts occupy instance ids allocated by the previous
            // process; keep the process-wide counter above them so adopt()
            // never collides with a ghost inside a recovered session.
            next_instance_ = std::max(next_instance_, strand->session->instance_floor());
        }
    }
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

SessionManager::~SessionManager() {
    {
        const MutexLock lock(mu_);
        shutting_down_ = true;  // route_frame/route_close become no-ops
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    // Retire our progress sources: the watchdog may outlive this manager
    // (the monitor owns it) and must not keep scanning freed strands.
    if (auto wd = watchdog_copy()) {
        if (lobby_.progress != nullptr) wd->retire(lobby_.progress);
        for (auto& [name, strand] : sessions_) {
            if (strand->progress != nullptr) wd->retire(strand->progress);
        }
    }
    // Channels still registered on a reactor may fire handlers until their
    // destructors deregister them; shutting_down_ makes those calls no-ops.
    // Destroying a TcpChannel blocks on its flush/deregistration handshake,
    // which must not happen on a reactor thread — and never does here.
    conns_.clear();
    sessions_.clear();
}

InstanceId SessionManager::attach(std::shared_ptr<net::Channel> channel) {
    InstanceId id = kInvalidInstance;
    {
        const MutexLock lock(mu_);
        id = next_instance_++;
        Conn conn;
        conn.channel = channel;
        conn.strand = &lobby_;
        conns_.emplace(id, std::move(conn));
        ++lobby_.live_conns;
        metrics_.connections_active.set(conns_.size());
    }
    // Handlers are installed outside mu_: reactor-delivery channels invoke
    // them synchronously (buffered-inbox drain) from this very call.
    channel->on_receive([this, id](const Frame& frame) { route_frame(id, frame); });
    channel->on_close([this, id] { route_close(id); });
    if (auto* tcp = dynamic_cast<net::TcpChannel*>(channel.get())) {
        // A dispatch worker must never block inside send() on a peer that
        // keeps its socket open but stops reading: overflow disconnects the
        // stalled peer instead (kDisconnect), so one rude client cannot wedge
        // a worker — and with it every session sharing the pool. Configured
        // before reactor delivery starts and before the server's first send
        // on this channel, per the tcp.hpp handler-installation contract.
        net::SendQueueOptions send_opts;
        send_opts.overflow = net::OverflowPolicy::kDisconnect;
        tcp->configure_send_queue(send_opts);
        tcp->enable_reactor_delivery();
    }
    return id;
}

CoSession& SessionManager::default_session() {
    MutexLock lock(mu_);
    Strand* strand = find_or_create_session(lock, std::string{});
    strand->pinned = true;
    return *strand->session;
}

CoSession* SessionManager::find_session(const std::string& name) {
    const MutexLock lock(mu_);
    const auto it = sessions_.find(name);
    return it == sessions_.end() ? nullptr : it->second->session.get();
}

void SessionManager::quiesce() {
    MutexLock lock(mu_);
    // Explicit wait loop: the thread-safety analysis does not carry the held
    // capability into lambda bodies.
    while (!run_queue_.empty() || busy_workers_ != 0) lock.wait(idle_cv_);
}

std::size_t SessionManager::session_count() const {
    const MutexLock lock(mu_);
    return sessions_.size();
}

std::size_t SessionManager::connection_count() const {
    const MutexLock lock(mu_);
    return conns_.size();
}

std::vector<std::pair<std::string, std::vector<SessionJournal::Record>>>
SessionManager::journal_tails() const {
    // Records per session the route shows: the newest ones, a screenful.
    constexpr std::size_t kShown = 64;
    std::vector<std::pair<std::string, std::string>> files;  // session, journal path
    {
        const MutexLock lock(mu_);
        for (const auto& [name, strand] : sessions_) {
            // The journal is set once at session creation (under mu_) and
            // its path never changes.
            if (const SessionJournal* journal = strand->session->session_journal()) {
                files.emplace_back(name, journal->path());
            }
        }
    }
    std::sort(files.begin(), files.end());
    std::vector<std::pair<std::string, std::vector<SessionJournal::Record>>> out;
    for (const auto& [name, path] : files) {
        out.emplace_back(name, SessionJournal::read_records(path, kShown));
    }
    return out;
}

ServerStatus SessionManager::status() const {
    const MutexLock lock(mu_);
    ServerStatus out;
    out.sessions.reserve(sessions_.size());
    for (const auto& [name, strand] : sessions_) out.sessions.push_back(strand->status);
    std::sort(out.sessions.begin(), out.sessions.end(),
              [](const SessionRow& a, const SessionRow& b) { return a.name < b.name; });
    out.connections.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) {
        // depart() nulls conn.channel (into the graveyard) and drops mu_
        // around session->detach() before erasing the conn, so a departing
        // entry can be observed here with no channel to snapshot.
        if (conn.departed || conn.channel == nullptr) continue;
        // Channel counters are lock-free atomics: safe to snapshot while the
        // connection's session strand runs on another worker.
        const net::ChannelStats st = conn.channel->stats();
        const bool joined = conn.strand != &lobby_;
        out.connections.push_back(ConnectionRow{
            .instance = id,
            .user_name = conn.user_name,
            .app_name = conn.app_name,
            .registered = joined,
            .frames_sent = st.frames_sent,
            .frames_received = st.frames_received,
            .bytes_sent = st.bytes_sent,
            .bytes_received = st.bytes_received,
            .backpressure_events = st.backpressure_events,
            .send_queue_peak_bytes = st.send_queue_peak_bytes,
            .queued_frames = conn.channel->outbound_queued_frames(),
            .session = joined ? conn.strand->session->name() : std::string{},
        });
    }
    std::sort(out.connections.begin(), out.connections.end(),
              [](const ConnectionRow& a, const ConnectionRow& b) { return a.instance < b.instance; });
    return out;
}

std::vector<std::string> SessionManager::check_invariants() const {
    const MutexLock lock(mu_);
    std::vector<std::string> out;

    // Routing tables: every connection's strand must be the lobby or a live
    // session, and the per-strand membership counters must tile conns_.
    std::size_t counted = lobby_.live_conns;
    for (const auto& [name, strand] : sessions_) counted += strand->live_conns;
    if (counted != conns_.size()) {
        out.push_back("manager: strand membership counters sum to " + std::to_string(counted) + " but " +
                      std::to_string(conns_.size()) + " connections are live");
    }
    for (const auto& [id, conn] : conns_) {
        if (conn.strand == &lobby_) continue;
        const bool known =
            std::any_of(sessions_.begin(), sessions_.end(),
                        [&](const auto& kv) { return kv.second.get() == conn.strand; });
        if (!known) {
            out.push_back("manager: connection " + std::to_string(id) + " routed to an unknown strand");
        }
    }

    // Transport invariant: when the manager owns its reactor, every
    // registered fd is one of our connections and vice versa. Exact only at
    // quiescent points — an accept()ed channel is reactor-registered a
    // moment before attach() records it.
    if (options_.reactor && options_.reactor->registered_count() != conns_.size()) {
        out.push_back("manager: reactor has " + std::to_string(options_.reactor->registered_count()) +
                      " registered fds but " + std::to_string(conns_.size()) + " connections are live");
    }
    return out;
}

void SessionManager::check_running_invariants(MutexLock& lock) const {
    if (!checked_build()) return;
    (void)lock;
    std::size_t counted = lobby_.live_conns;
    for (const auto& [name, strand] : sessions_) counted += strand->live_conns;
    (void)counted;
    CO_CHECK_MSG(counted == conns_.size(), "session-manager strand membership counters out of sync");
    // An accepted-but-unattached channel makes the reactor transiently ahead
    // of conns_, so the running check is one-sided; check_invariants()
    // asserts equality at quiescent points.
    CO_CHECK_MSG(!options_.reactor || options_.reactor->registered_count() >= conns_.size(),
                 "session-manager reactor lost track of a live connection's fd");
}

void SessionManager::route_frame(InstanceId id, const Frame& frame) {
    MutexLock lock(mu_);
    if (shutting_down_) return;
    const auto it = conns_.find(id);
    if (it == conns_.end() || it->second.departed) return;
    it->second.inbox.push_back(frame);
    metrics_.frames_routed.inc();
    obs::FlightRecorder::instance().record(obs::EventKind::kFrameIn, id, frame.size());
    enqueue_token(lock, id);
}

void SessionManager::route_close(InstanceId id) {
    MutexLock lock(mu_);
    if (shutting_down_) return;
    const auto it = conns_.find(id);
    if (it == conns_.end() || it->second.departed) return;
    it->second.closed = true;
    enqueue_token(lock, id);
}

void SessionManager::enqueue_token(MutexLock& lock, InstanceId id) {
    Strand* strand = conns_.at(id).strand;
    push_token(strand, id);
    schedule(lock, strand);
}

void SessionManager::push_token(Strand* strand, InstanceId id) {
    if (strand->tokens.empty()) strand->queue_oldest_ns = obs::monotonic_ns();
    strand->tokens.push_back(id);
    if (strand->progress != nullptr) {
        strand->progress->set_queue(strand->tokens.size(), strand->queue_oldest_ns);
        obs::FlightRecorder::instance().record(obs::EventKind::kQueueSample,
                                               strand->progress->ord(), strand->tokens.size());
    }
}

void SessionManager::schedule(MutexLock& lock, Strand* strand) {
    if (strand->scheduled) return;
    strand->scheduled = true;
    if (workers_.empty()) {
        // Inline mode: dispatch to completion on the delivering thread. The
        // recursion through a lobby->session handoff is bounded by the
        // handoff chain (lobby schedules the session strand at most once per
        // routed connection).
        run_strand(lock, strand);
        return;
    }
    run_queue_.push_back(strand);
    work_cv_.notify_one();
}

void SessionManager::worker_loop() {
    // Pre-pay the flight recorder's only allocating path (ring registration)
    // so record() inside hot scopes stays allocation-free.
    obs::FlightRecorder::instance().ensure_thread_registered();
    MutexLock lock(mu_);
    while (true) {
        while (!stop_ && run_queue_.empty()) lock.wait(work_cv_);
        if (stop_) return;
        Strand* strand = run_queue_.front();
        run_queue_.pop_front();
        ++busy_workers_;
        run_strand(lock, strand);
        --busy_workers_;
        if (run_queue_.empty() && busy_workers_ == 0) idle_cv_.notify_all();
    }
}

CO_HOT_PATH void SessionManager::run_strand(MutexLock& lock, Strand* strand) {
    CO_HOT_SCOPE("server.strand");
    // The strand is owned by this thread until `scheduled` is cleared: no
    // other worker may pop its tokens or touch its CoSession. The scope
    // publishes that ownership so the CoSession's StrandChecker can verify
    // it (nested scopes from inline-mode lobby->session handoffs restore
    // correctly).
    const StrandScope strand_scope(strand);
    // Cached for the batch: set_watchdog() is a before-traffic operation, so
    // the source cannot be retired under a running batch.
    obs::Watchdog::Source* progress = strand->progress;
    if (progress != nullptr) progress->begin_work();
    std::size_t processed = 0;
    std::vector<std::shared_ptr<net::Channel>> graveyard;
    // Worker batches cork their TCP sends: a frame the batch sends to an
    // idle connection only enqueues, and each touched connection flushes
    // once — in the unlocked window of the batch's last dispatch, or below —
    // so the batch's frames to one client leave in one gathered sendmsg.
    // Inline mode keeps its synchronous call chain: the cork stays inert.
    net::SendCork cork{!workers_.empty()};
    do {
        // Process the tokens present at entry; frames that arrive during the
        // batch reschedule the strand behind other runnable strands.
        std::size_t budget = strand->tokens.size();
        while (budget-- > 0 && !strand->tokens.empty()) {
            const InstanceId id = strand->tokens.front();
            strand->tokens.pop_front();
            process_token(lock, strand, id, graveyard, cork, /*last_in_batch=*/budget == 0);
            ++processed;
            // One token dispatched = one unit of forward progress; only a
            // batch wedged inside a single dispatch can age past the stall
            // deadline.
            if (progress != nullptr) progress->progress();
        }
    } while (workers_.empty() && !strand->tokens.empty());
    if (!cork.empty()) {
        // The last token sent nothing through an unlocked window (a lobby
        // reply, a departure): flush here, never under mu_.
        lock.unlock();
        cork.flush();
        lock.lock();
    }

    if (strand->tokens.empty()) strand->queue_oldest_ns = 0;
    if (progress != nullptr) {
        progress->set_queue(strand->tokens.size(), strand->queue_oldest_ns);
        progress->end_work();
    }
    obs::FlightRecorder::instance().record(obs::EventKind::kStrandRun,
                                           progress != nullptr ? progress->ord() : 0, processed);

    if (strand->session) refresh_status(strand);
    check_running_invariants(lock);

    if (!strand->tokens.empty()) {
        run_queue_.push_back(strand);  // still scheduled: keep the single-runner guarantee
        work_cv_.notify_one();
    } else {
        strand->scheduled = false;
        collect_if_empty(lock, strand);
    }
    if (!graveyard.empty()) {
        // Channel destructors block on transport teardown (TCP flush +
        // reactor deregistration); never run them under mu_.
        lock.unlock();
        graveyard.clear();
        lock.lock();
    }
}

void SessionManager::process_token(MutexLock& lock, Strand* strand, InstanceId id,
                                   std::vector<std::shared_ptr<net::Channel>>& graveyard,
                                   net::SendCork& cork, bool last_in_batch) {
    const auto it = conns_.find(id);
    if (it == conns_.end() || it->second.departed) return;  // stale token
    Conn& conn = it->second;
    if (conn.strand != strand) {
        // The connection moved (lobby -> session) after this token was
        // queued. Forward instead of dispatching so exactly one strand ever
        // pops the inbox; a connection never moves again after joining a
        // session, so the destination strand is final.
        push_token(conn.strand, id);
        schedule(lock, conn.strand);
        return;
    }

    if (!conn.inbox.empty()) {
        Frame frame = std::move(conn.inbox.front());
        conn.inbox.pop_front();
        if (strand->session == nullptr) {
            lobby_dispatch(lock, id, std::move(frame));
        } else {
            CoSession* session = strand->session.get();
            const bool need_adopt = !conn.adopted;
            conn.adopted = true;
            auto channel = conn.channel;
            lock.unlock();
            // Unlocked: the strand-ownership protocol serializes every
            // access to this CoSession, and `conn` cannot be erased while
            // its owning strand is running it.
            if (need_adopt) session->adopt(id, std::move(channel));
            if (dispatch_hook_) {
                // A hook may stall this strand: what earlier tokens sent
                // must not wait behind it.
                cork.flush();
                dispatch_hook_(session->name());
            }
            session->deliver(id, frame);
            // Token boundary: the cork's bounds are checked here, in the
            // unlocked window the dispatch already pays for.
            if (last_in_batch) {
                cork.flush();
            } else {
                cork.flush_if_due();
            }
            lock.lock();
        }
    }

    // Departure is condition-based, not tied to a designated token: the
    // token that drains the inbox of a closed connection (or the close
    // token itself, if the inbox was already empty) performs it.
    const auto again = conns_.find(id);
    if (again != conns_.end() && again->second.strand == strand && again->second.closed &&
        !again->second.departed && again->second.inbox.empty()) {
        depart(lock, strand, id, graveyard);
    }
}

void SessionManager::lobby_dispatch(MutexLock& lock, InstanceId id, Frame frame) {
    auto decoded = protocol::decode_message(frame);
    if (!decoded) {
        metrics_.lobby_rejects.inc();
        return;
    }
    Message& msg = decoded.value();

    if (auto* reg = std::get_if<protocol::Register>(&msg)) {
        Conn& conn = conns_.at(id);
        conn.user_name = reg->user_name;
        conn.app_name = reg->app_name;
        // Hand the Register itself to the session: put it back at the front
        // of the inbox and queue a token on the session's strand, which will
        // adopt the connection and run the version check / RegisterAck.
        conn.inbox.push_front(std::move(frame));
        route_to_session(lock, id, reg->session);
        return;
    }
    if (const auto* query = std::get_if<protocol::RegistryQuery>(&msg)) {
        // Same reply an unregistered connection historically got from the
        // single-session server's registration gate.
        Frame reply = protocol::encode_message(Message{
            protocol::Ack{query->request, ErrorCode::kUnknownInstance, "not registered"}});
        auto channel = conns_.at(id).channel;
        lock.unlock();
        (void)channel->send(std::move(reply));
        lock.lock();
        return;
    }
    // Anything else before Register is unregistered traffic: drop.
    metrics_.lobby_rejects.inc();
}

SessionManager::Strand* SessionManager::find_or_create_session(MutexLock& lock,
                                                               const std::string& name) {
    (void)lock;
    const auto it = sessions_.find(name);
    if (it != sessions_.end()) return it->second.get();
    auto strand = std::make_unique<Strand>(std::make_unique<CoSession>(name));
    Strand* raw = strand.get();
    if (!options_.journal_dir.empty()) {
        // Recovery replay happens here — under mu_, before any token can
        // queue on this strand — so adopting the strand's identity for the
        // duration binds the session's checker to its real dispatch context.
        const StrandScope replay_scope{raw};
        SessionJournalOptions jopts;
        jopts.dir = options_.journal_dir;
        jopts.fsync = options_.journal_fsync;
        jopts.compact_bytes = options_.journal_compact_bytes;
        if (const Status s = raw->session->enable_journal(jopts); !s.is_ok()) {
            // A session that cannot journal runs volatile rather than not at
            // all; cosoft_journal_errors_total records the failure.
            obs::FlightRecorder::instance().record(obs::EventKind::kMark, /*a=*/0, /*b=*/0);
        }
    }
    raw->session->enable_sync(options_.sync_late_joiners);
    raw->status = raw->session->session_status();
    if (auto wd = watchdog_copy()) {
        raw->progress = wd->register_source(
            obs::Watchdog::SourceKind::kStrand,
            name.empty() ? std::string{"session:(default)"} : "session:" + name);
    }
    sessions_.emplace(name, std::move(strand));
    metrics_.sessions_created.inc();
    metrics_.sessions_active.set(sessions_.size());
    return raw;
}

void SessionManager::route_to_session(MutexLock& lock, InstanceId id,
                                      const std::string& session_name) {
    Strand* target = find_or_create_session(lock, session_name);
    Conn& conn = conns_.at(id);
    CO_CHECK_MSG(conn.strand == &lobby_, "re-routing a connection that already joined a session");
    conn.strand = target;
    --lobby_.live_conns;
    ++target->live_conns;
    push_token(target, id);
    schedule(lock, target);
}

void SessionManager::depart(MutexLock& lock, Strand* strand, InstanceId id,
                            std::vector<std::shared_ptr<net::Channel>>& graveyard) {
    Conn& conn = conns_.at(id);
    conn.departed = true;  // stale tokens for this id become no-ops
    const bool adopted = conn.adopted;
    graveyard.push_back(std::move(conn.channel));
    if (CoSession* session = strand->session.get(); session != nullptr && adopted) {
        lock.unlock();
        session->detach(id);  // same cleanup + broadcasts as a closed channel
        lock.lock();
    }
    conns_.erase(id);
    --strand->live_conns;
    metrics_.connections_active.set(conns_.size());
    // The strand is still marked scheduled by the running batch; GC happens
    // in run_strand once the batch ends and the strand goes idle.
}

void SessionManager::collect_if_empty(MutexLock& lock, Strand* strand) {
    (void)lock;
    if (strand->session == nullptr || strand->pinned) return;
    if (strand->live_conns != 0 || strand->scheduled || !strand->tokens.empty()) return;
    const auto it = sessions_.find(strand->session->name());
    if (it == sessions_.end() || it->second.get() != strand) return;
    if (strand->progress != nullptr) {
        if (auto wd = watchdog_copy()) wd->retire(strand->progress);
        strand->progress = nullptr;
    }
    sessions_.erase(it);
    metrics_.sessions_destroyed.inc();
    metrics_.sessions_active.set(sessions_.size());
}

void SessionManager::set_watchdog(std::shared_ptr<obs::Watchdog> watchdog) {
    MutexLock lock(mu_);
    std::shared_ptr<obs::Watchdog> old;
    {
        const MutexLock wl(watchdog_mu_);
        old = watchdog_;
        watchdog_ = watchdog;
    }
    if (old) {
        if (lobby_.progress != nullptr) old->retire(lobby_.progress);
        for (auto& [name, strand] : sessions_) {
            if (strand->progress != nullptr) old->retire(strand->progress);
        }
    }
    lobby_.progress = nullptr;
    for (auto& [name, strand] : sessions_) strand->progress = nullptr;
    if (watchdog) {
        lobby_.progress = watchdog->register_source(obs::Watchdog::SourceKind::kStrand, "lobby");
        for (auto& [name, strand] : sessions_) {
            strand->progress = watchdog->register_source(
                obs::Watchdog::SourceKind::kStrand,
                name.empty() ? std::string{"session:(default)"} : "session:" + name);
        }
    }
}

std::shared_ptr<obs::Watchdog> SessionManager::watchdog_copy() const {
    const MutexLock lock(watchdog_mu_);
    return watchdog_;
}

std::string SessionManager::metrics_exposition() const {
    // Every exported family synchronizes on its own instrument or a leaf
    // mutex — never mu_ — so this keeps serving while dispatch is wedged
    // (which is exactly when a scrape matters most).
    obs::export_hotpath_metrics(registry_);
    if (options_.reactor) options_.reactor->export_metrics(registry_);
    if (auto wd = watchdog_copy()) wd->export_metrics(registry_);
    obs::FlightRecorder::instance().export_metrics(registry_);
    obs::export_build_info(registry_,
                           options_.reactor ? options_.reactor->backend_name() : "none");
    return registry_.prometheus_text();
}

void SessionManager::debug_set_dispatch_hook(std::function<void(const std::string&)> hook) {
    const MutexLock lock(mu_);
    dispatch_hook_ = std::move(hook);
}

void SessionManager::refresh_status(Strand* strand) {
    // Called only by the thread that owns the strand: reading the CoSession
    // is safe, and the snapshot write is under mu_ for lobby readers.
    strand->status = strand->session->session_status();
}

}  // namespace cosoft::server
