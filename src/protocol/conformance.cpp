#include "cosoft/protocol/conformance.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <variant>

#include "cosoft/common/check.hpp"

namespace cosoft::protocol {

namespace {

/// Every client message except Register needs a completed registration.
template <typename T>
constexpr MessageRule rule_of() {
    const bool c2s = T::kFlow != Flow::kServerToClient;
    return MessageRule{T::kName, c2s, T::kFlow != Flow::kClientToServer, c2s && !std::is_same_v<T, Register>};
}

template <std::size_t... I>
constexpr auto make_rules(std::index_sequence<I...>) {
    return std::array<MessageRule, sizeof...(I)>{rule_of<std::variant_alternative_t<I, Message>>()...};
}

constexpr auto kRules = make_rules(std::make_index_sequence<std::variant_size_v<Message>>{});

}  // namespace

const std::array<MessageRule, std::variant_size_v<Message>>& message_rules() noexcept { return kRules; }

std::string_view to_string(Direction d) noexcept {
    return d == Direction::kClientToServer ? "client->server" : "server->client";
}

ConformanceChecker::ConformanceChecker(std::string label) : label_(std::move(label)) {}

void ConformanceChecker::violation(Direction dir, const Message& msg, const std::string& detail) {
    violations_.push_back(label_ + ": [" + std::string{to_string(dir)} + "] " +
                          std::string{message_name(msg)} + ": " + detail);
}

void ConformanceChecker::observe_frame(Direction dir, std::span<const std::uint8_t> frame) {
    auto decoded = decode_message(frame);
    if (!decoded) {
        ++frames_observed_;
        violations_.push_back(label_ + ": [" + std::string{to_string(dir)} + "] malformed frame of " +
                              std::to_string(frame.size()) + " bytes: " + decoded.status().message());
        return;
    }
    observe(dir, decoded.value());
}

void ConformanceChecker::observe(Direction dir, const Message& msg) {
    ++frames_observed_;
    const MessageRule& rule = message_rules()[msg.index()];
    const bool legal_direction =
        dir == Direction::kClientToServer ? rule.client_to_server : rule.server_to_client;
    if (!legal_direction) {
        violation(dir, msg, "message type never travels this direction");
        return;
    }
    if (dir == Direction::kClientToServer) {
        check_client_to_server(msg);
    } else {
        check_server_to_client(msg);
    }
}

void ConformanceChecker::consume(Direction dir, const Message& msg, ActionId request) {
    const auto it = outstanding_.find(request);
    if (it == outstanding_.end()) {
        violation(dir, msg, "response to unknown or already-answered request " + std::to_string(request));
        return;
    }
    // An error Ack may answer any request; typed replies must match theirs.
    if (!std::holds_alternative<Ack>(msg) && it->second != msg.index()) {
        violation(dir, msg, "response type does not match request " + std::to_string(request));
    }
    outstanding_.erase(it);
}

void ConformanceChecker::check_client_to_server(const Message& msg) {
    constexpr Direction dir = Direction::kClientToServer;
    if (unregister_sent_) {
        violation(dir, msg, "client frame after Unregister");
        return;
    }
    const MessageRule& rule = message_rules()[msg.index()];
    if (const auto* reg = std::get_if<Register>(&msg)) {
        if (registered_) {
            violation(dir, msg, "Register after registration already completed");
            return;
        }
        // Retries before RegisterAck are legal, but a connection belongs to
        // exactly one session: naming a different one mid-handshake would
        // make the server's routing ambiguous.
        if (register_sent_ && reg->session != session_) {
            violation(dir, msg, "Register retry names a different session ('" + session_ +
                                    "' then '" + reg->session + "')");
            return;
        }
        session_ = reg->session;
        register_sent_ = true;
        return;
    }
    if (rule.needs_registration && !registered_) {
        violation(dir, msg, "sent before registration completed");
        return;
    }
    // A synchronizing joiner is receive-only until SyncEnd promotes it: any
    // client frame racing the catch-up stream could observe half-applied
    // state.
    if (sync_phase_ != SyncPhase::kNone && sync_phase_ != SyncPhase::kDone) {
        violation(dir, msg, "client frame during synchronization (before SyncEnd)");
        return;
    }

    // A request that declares a Reply type expects exactly one response.
    std::visit(
        [&](const auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (requires { typename T::Reply; }) {
                if (!outstanding_.emplace(m.request, tag_of<typename T::Reply>()).second) {
                    violation(dir, msg, "reused request id " + std::to_string(m.request));
                }
            }
        },
        msg);

    if (std::holds_alternative<Unregister>(msg)) {
        unregister_sent_ = true;
    } else if (const auto* m = std::get_if<LockReq>(&msg)) {
        if (own_actions_.contains(m->action)) {
            violation(dir, msg, "reused action id " + std::to_string(m->action));
        } else {
            own_actions_.emplace(m->action, LockPhase::kRequested);
        }
    } else if (const auto* m = std::get_if<EventMsg>(&msg)) {
        const auto it = own_actions_.find(m->action);
        if (it == own_actions_.end() || it->second != LockPhase::kGranted) {
            violation(dir, msg, "EventMsg for action " + std::to_string(m->action) + " without a LockGrant");
        } else {
            it->second = LockPhase::kEventSent;
            own_ack_pending_[m->action] = true;
        }
    } else if (const auto* m = std::get_if<ExecuteAck>(&msg)) {
        // Every ack balances either a received ExecuteEvent or the client's
        // own completion after its EventMsg (§3.2).
        const auto exec = exec_pending_.find(m->action);
        if (exec != exec_pending_.end() && exec->second > 0) {
            if (--exec->second == 0) exec_pending_.erase(exec);
        } else if (own_ack_pending_.contains(m->action)) {
            own_ack_pending_.erase(m->action);
            own_actions_[m->action] = LockPhase::kRetired;  // lifecycle complete client-side
        } else {
            violation(dir, msg, "ExecuteAck for action " + std::to_string(m->action) +
                                    " without a matching ExecuteEvent or own EventMsg");
        }
    } else if (const auto* m = std::get_if<StateReply>(&msg)) {
        const auto it = server_queries_.find(m->request);
        if (it == server_queries_.end()) {
            violation(dir, msg, "StateReply without a matching server StateQuery (request " +
                                    std::to_string(m->request) + ")");
        } else {
            server_queries_.erase(it);
        }
    }
    // HistorySave: fire-and-forget push of an overwritten state; no pairing.
}

void ConformanceChecker::check_server_to_client(const Message& msg) {
    constexpr Direction dir = Direction::kServerToClient;
    if (const auto* m = std::get_if<RegisterAck>(&msg)) {
        if (!register_sent_) {
            violation(dir, msg, "RegisterAck before the client sent Register");
        } else if (registered_) {
            violation(dir, msg, "duplicate RegisterAck");
        }
        registered_ = true;
        if (m->sync_follows) sync_phase_ = SyncPhase::kAnnounced;
        return;
    }
    if (const auto* m = std::get_if<Ack>(&msg)) {
        // Request 0 is the server's unsolicited notice slot (e.g. protocol
        // version mismatch before registration).
        if (m->request != 0) consume(dir, msg, m->request);
        return;
    }
    if (!registered_) {
        violation(dir, msg, "server push before registration completed");
        return;
    }
    if (const auto* m = std::get_if<SyncBegin>(&msg)) {
        if (sync_phase_ != SyncPhase::kAnnounced) {
            violation(dir, msg, "SyncBegin without an announcing RegisterAck");
        } else {
            sync_phase_ = SyncPhase::kBegun;
            sync_base_seq_ = m->base_seq;
            sync_prev_seq_ = m->base_seq;
        }
        return;
    }
    if (std::holds_alternative<SyncState>(msg)) {
        if (sync_phase_ != SyncPhase::kBegun) {
            violation(dir, msg, "SyncState outside SyncBegin..SyncStep window");
        } else {
            sync_phase_ = SyncPhase::kStateSent;
        }
        return;
    }
    if (const auto* m = std::get_if<SyncStep>(&msg)) {
        if (applying_sync_step_) {
            violation(dir, msg, "SyncStep nested inside another SyncStep");
            return;
        }
        if (sync_phase_ != SyncPhase::kStateSent) {
            violation(dir, msg, "SyncStep before SyncState or after SyncEnd");
        } else if (m->seq <= sync_prev_seq_) {
            violation(dir, msg, "non-monotone sync sequence " + std::to_string(m->seq) +
                                    " (previous " + std::to_string(sync_prev_seq_) + ")");
        } else {
            sync_prev_seq_ = m->seq;
            // Replay the embedded frame through the normal S2C rules so the
            // checker's pairing state tracks what the joiner will actually
            // apply at promote (e.g. an embedded ExecuteEvent must still be
            // balanced by an ExecuteAck after SyncEnd).
            const Result<Message> inner = decode_message(m->frame);
            if (!inner.is_ok()) {
                violation(dir, msg, "SyncStep carries an undecodable frame: " + inner.error().message);
            } else {
                applying_sync_step_ = true;
                check_server_to_client(inner.value());
                applying_sync_step_ = false;
            }
        }
        return;
    }
    if (const auto* m = std::get_if<SyncEnd>(&msg)) {
        if (sync_phase_ != SyncPhase::kStateSent) {
            violation(dir, msg, "SyncEnd without a completed SyncBegin/SyncState prologue");
        } else if (m->last_seq < sync_prev_seq_) {
            violation(dir, msg, "SyncEnd.last_seq " + std::to_string(m->last_seq) +
                                    " behind last SyncStep " + std::to_string(sync_prev_seq_));
        } else {
            sync_phase_ = SyncPhase::kDone;
            sync_prev_seq_ = m->last_seq;
        }
        return;
    }
    // While the catch-up stream is open the server must not interleave any
    // other push: the joiner would apply a live frame against pre-sync state
    // (this is the "no Execute before SyncEnd" rule, generalized). Frames
    // replayed from inside a SyncStep envelope are the stream itself.
    if (!applying_sync_step_ && sync_phase_ != SyncPhase::kNone && sync_phase_ != SyncPhase::kDone) {
        violation(dir, msg, "server push interleaved with synchronization stream");
        return;
    }
    if (const auto* m = std::get_if<RegistryReply>(&msg)) {
        consume(dir, msg, m->request);
    } else if (const auto* m = std::get_if<StateReply>(&msg)) {
        consume(dir, msg, m->request);
    } else if (const auto* m = std::get_if<StateQuery>(&msg)) {
        if (server_queries_.contains(m->request)) {
            violation(dir, msg, "duplicate server StateQuery request " + std::to_string(m->request));
        } else {
            server_queries_.emplace(m->request, true);
        }
    } else if (const auto* m = std::get_if<LockGrant>(&msg)) {
        const auto it = own_actions_.find(m->action);
        if (it == own_actions_.end() || it->second != LockPhase::kRequested) {
            violation(dir, msg, "LockGrant without a pending LockReq (action " + std::to_string(m->action) + ")");
        } else {
            it->second = LockPhase::kGranted;
        }
    } else if (const auto* m = std::get_if<LockDeny>(&msg)) {
        const auto it = own_actions_.find(m->action);
        if (it == own_actions_.end() || it->second != LockPhase::kRequested) {
            violation(dir, msg, "LockDeny without a pending LockReq (action " + std::to_string(m->action) + ")");
        } else {
            it->second = LockPhase::kRetired;
        }
    } else if (const auto* m = std::get_if<ExecuteEvent>(&msg)) {
        ++exec_pending_[m->action];
    }
    // GroupUpdate / LockNotify / ApplyState / CommandDeliver are server
    // pushes with no per-frame pairing obligations at this endpoint:
    // LockNotify in particular reuses foreign action ids and releases with
    // action 0 on cleanup, so any stricter rule would reject legal traffic.
}

void ConformanceChecker::fingerprint(ByteWriter& w) const {
    w.boolean(register_sent_);
    w.boolean(registered_);
    w.boolean(unregister_sent_);
    w.str(session_);
    w.u8(static_cast<std::uint8_t>(sync_phase_));
    w.u64(sync_base_seq_);
    w.u64(sync_prev_seq_);
    w.u64(violations_.size());

    const auto write_sorted = [&w](const auto& map, const auto& value_of) {
        std::vector<ActionId> ids;
        ids.reserve(map.size());
        for (const auto& [id, value] : map) ids.push_back(id);
        std::sort(ids.begin(), ids.end());
        w.u32(static_cast<std::uint32_t>(ids.size()));
        for (const ActionId id : ids) {
            w.u64(id);
            w.u64(value_of(map.at(id)));
        }
    };
    write_sorted(outstanding_, [](std::uint8_t reply_tag) { return static_cast<std::uint64_t>(reply_tag); });
    write_sorted(own_actions_, [](LockPhase p) { return static_cast<std::uint64_t>(p); });
    write_sorted(own_ack_pending_, [](bool b) { return static_cast<std::uint64_t>(b); });
    write_sorted(exec_pending_, [](std::uint64_t n) { return n; });
    write_sorted(server_queries_, [](bool b) { return static_cast<std::uint64_t>(b); });
}

CheckedChannel::CheckedChannel(std::shared_ptr<net::Channel> inner, std::shared_ptr<ConformanceChecker> checker)
    : inner_(std::move(inner)), checker_(std::move(checker)) {}

Status CheckedChannel::send(Frame frame) {
    [[maybe_unused]] const std::size_t before = checker_->violations().size();
    checker_->observe_frame(Direction::kClientToServer, frame);
    CO_CHECK_MSG(checker_->violations().size() == before, checker_->violations().back());
    frames_sent_.inc();
    bytes_sent_.inc(frame.size());
    return inner_->send(std::move(frame));
}

void CheckedChannel::on_receive(ReceiveHandler handler) {
    // Capture the checker by value, not `this`: the inner channel can
    // outlive this wrapper.
    inner_->on_receive([checker = checker_, handler = std::move(handler)](const Frame& frame) {
        [[maybe_unused]] const std::size_t before = checker->violations().size();
        checker->observe_frame(Direction::kServerToClient, frame);
        CO_CHECK_MSG(checker->violations().size() == before, checker->violations().back());
        if (handler) handler(frame);
    });
}

}  // namespace cosoft::protocol
