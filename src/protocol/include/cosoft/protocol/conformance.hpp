// Runtime wire-protocol conformance checking.
//
// The COSOFT protocol (messages.hpp) implies a per-connection state machine:
// nothing before Register, LockGrant only answers a LockReq, EventMsg only
// after the grant, every ExecuteAck balances an ExecuteEvent (or the
// holder's own completion), responses consume exactly one outstanding
// request, and nothing from the client follows its Unregister. The
// ConformanceChecker encodes those rules declaratively — a per-message-type
// table of direction and registration requirements, generated from each
// message's kName/kFlow, request/reply pairing from each request's Reply
// type, plus hand-written lifecycle state (registration, the §3.2 lock
// cycle, the sync stream, server StateQuery pairing) — and observes one
// connection's frames in both directions, recording human-readable
// violations.
//
// CheckedChannel interposes a checker on any net::Channel, so integration
// suites (and cosoft-mc worlds) validate every frame they move. Under
// COSOFT_CHECKED a violation aborts via CO_CHECK; in ordinary builds the
// violations are only collected for inspection.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/net/channel.hpp"
#include "cosoft/protocol/messages.hpp"

namespace cosoft::protocol {

/// Which way a frame travels across the observed connection.
enum class Direction : std::uint8_t {
    kClientToServer,
    kServerToClient,
};

[[nodiscard]] std::string_view to_string(Direction d) noexcept;

/// Static, declarative description of one message type's conformance rules.
struct MessageRule {
    std::string_view name;
    bool client_to_server = false;  ///< may legally travel C2S
    bool server_to_client = false;  ///< may legally travel S2C
    /// C2S only: must the sender have completed registration first?
    bool needs_registration = true;
};

/// The rule table, indexed by wire tag (= Message variant index), generated
/// from each message's kName and kFlow.
[[nodiscard]] const std::array<MessageRule, std::variant_size_v<Message>>& message_rules() noexcept;

/// Observes one client<->server connection and validates every frame
/// against the protocol state machine. Single-threaded, like the channels
/// it watches.
class ConformanceChecker {
  public:
    explicit ConformanceChecker(std::string label = "conn");

    /// Feeds one raw frame travelling in `dir`; decodes and checks it.
    void observe_frame(Direction dir, std::span<const std::uint8_t> frame);
    /// Same, for an already-decoded message.
    void observe(Direction dir, const Message& msg);

    [[nodiscard]] const std::vector<std::string>& violations() const noexcept { return violations_; }
    [[nodiscard]] std::size_t frames_observed() const noexcept { return frames_observed_; }
    [[nodiscard]] const std::string& label() const noexcept { return label_; }
    /// Session named by the connection's Register ("" before the handshake
    /// or for the default session).
    [[nodiscard]] const std::string& session() const noexcept { return session_; }

    /// Canonical serialization of the checker state (cosoft-mc state hash:
    /// two interleavings only merge when the checker would also behave
    /// identically afterwards).
    void fingerprint(ByteWriter& w) const;

  private:
    /// Lifecycle of one of the client's own floor-control actions.
    /// kRetired keeps the id in the table after deny/completion: client
    /// action counters are monotonic, so any reuse is a conformance bug.
    enum class LockPhase : std::uint8_t { kRequested, kGranted, kEventSent, kRetired };
    /// Late-joiner catch-up stream state machine (v3). RegisterAck with
    /// sync_follows announces the stream; the server must then deliver
    /// SyncBegin → SyncState → SyncStep* (strictly monotone seq) → SyncEnd
    /// with no other server frame interleaved, and the client stays silent
    /// until the promote.
    enum class SyncPhase : std::uint8_t { kNone, kAnnounced, kBegun, kStateSent, kDone };

    void violation(Direction dir, const Message& msg, const std::string& detail);
    void check_client_to_server(const Message& msg);
    void check_server_to_client(const Message& msg);
    /// Consumes the outstanding request `request` answered by `msg`: an Ack
    /// may answer any request, a typed reply only the request whose Reply
    /// type it is.
    void consume(Direction dir, const Message& msg, ActionId request);

    std::string label_;
    std::vector<std::string> violations_;
    std::size_t frames_observed_ = 0;

    bool register_sent_ = false;
    bool registered_ = false;       ///< RegisterAck observed
    bool unregister_sent_ = false;
    std::string session_;           ///< session named by the first Register

    SyncPhase sync_phase_ = SyncPhase::kNone;
    std::uint64_t sync_base_seq_ = 0;  ///< SyncBegin.base_seq
    std::uint64_t sync_prev_seq_ = 0;  ///< last SyncStep seq observed
    /// True while the checker replays the frame carried inside a SyncStep:
    /// the inner frame is validated with the normal S2C rules (so e.g. an
    /// embedded ExecuteEvent registers its pending ack) but is exempt from
    /// the no-interleave rule — it IS the catch-up stream. Transient; never
    /// part of the fingerprint.
    bool applying_sync_step_ = false;

    std::unordered_map<ActionId, std::uint8_t> outstanding_;  ///< client request -> tag of its Reply
    std::unordered_map<ActionId, LockPhase> own_actions_;    ///< client's floor-control actions
    std::unordered_map<ActionId, bool> own_ack_pending_;     ///< EventMsg sent, own ExecuteAck not yet
    std::unordered_map<ActionId, std::uint64_t> exec_pending_;  ///< ExecuteEvents received, not yet acked
    std::unordered_map<ActionId, bool> server_queries_;      ///< S2C StateQuery awaiting C2S StateReply
};

/// Channel decorator that feeds both directions of one endpoint through a
/// ConformanceChecker. Wrap the *client* end: frames sent are C2S, frames
/// received are S2C. Under COSOFT_CHECKED any violation aborts immediately.
class CheckedChannel final : public net::Channel {
  public:
    CheckedChannel(std::shared_ptr<net::Channel> inner, std::shared_ptr<ConformanceChecker> checker);

    Status send(Frame frame) override;
    void on_receive(ReceiveHandler handler) override;
    void on_close(CloseHandler handler) override { inner_->on_close(std::move(handler)); }
    [[nodiscard]] bool connected() const override { return inner_->connected(); }
    void close() override { inner_->close(); }
    [[nodiscard]] std::size_t outbound_queued_frames() const override {
        return inner_->outbound_queued_frames();
    }
    [[nodiscard]] std::size_t outbound_queued_bytes() const override {
        return inner_->outbound_queued_bytes();
    }

    [[nodiscard]] const ConformanceChecker& checker() const noexcept { return *checker_; }

  private:
    std::shared_ptr<net::Channel> inner_;
    std::shared_ptr<ConformanceChecker> checker_;
};

}  // namespace cosoft::protocol
