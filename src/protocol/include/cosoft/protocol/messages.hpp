// The COSOFT wire protocol.
//
// This is the "common, application-independent communication protocol
// situated on the UI level" of §5, plus the programmer-extensible command
// channel of §3.4 (CoSendCommand). Every message is a variant alternative;
// the server (src/server) and client (src/client) are the only
// producers/consumers.
//
// The protocol is written down once, as data. Each message struct states:
//   kName     its name (message_name, logs, journal records, conformance);
//   kFlow     which way it may travel (client->server, server->client, or
//             both — only StateReply);
//   fields()  a tuple of member pointers in wire order. The field codec
//             (field_codec.hpp) walks it to encode and decode, so the wire
//             layout is the declaration order of the listed members.
// Client requests that expect exactly one typed response also declare
// `using Reply = ...`; the conformance checker pairs requests with replies
// from that column. Adding a message is one struct here, one entry at the
// end of the Message variant, and one sample in tests/test_protocol.cpp
// (all_samples() and its pinned WireGolden bytes).
//
// Protocol flows (client C, server S, owner instances O*):
//   register      C->S Register, S->C RegisterAck
//   couple        C->S CoupleReq, S->O* GroupUpdate (replicated coupling info)
//   decouple      C->S DecoupleReq, S->O* GroupUpdate per resulting component
//   emit (§3.2)   C->S LockReq(CO(o)), S->C LockGrant | LockDeny,
//                 S->O* LockNotify(disable), C->S EventMsg,
//                 S->O* ExecuteEvent, O*->S ExecuteAck,
//                 (all acked) S->O* LockNotify(enable)
//   copy-to       C->S CopyTo(state), S->O ApplyState, O->S HistorySave
//   copy-from     C->S CopyFrom, S->O StateQuery, O->S StateReply,
//                 S->C ApplyState
//   remote-copy   C->S RemoteCopy, S->O1 StateQuery, O1->S StateReply,
//                 S->O2 ApplyState
//   undo/redo     C->S UndoReq/RedoReq, S->O ApplyState(tagged), O->S
//                 HistorySave(tagged to the opposite stack)
//   command       C->S Command, S->O* CommandDeliver
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/common/error.hpp"
#include "cosoft/common/ids.hpp"
#include "cosoft/obs/trace.hpp"
#include "cosoft/protocol/frame.hpp"
#include "cosoft/toolkit/events.hpp"
#include "cosoft/toolkit/snapshot.hpp"

namespace cosoft {
class Arena;  // common/arena.hpp — the arena-backed encode overloads below
}  // namespace cosoft

namespace cosoft::protocol {

/// Identifier of one synchronized action (a lock/broadcast cycle) or of one
/// asynchronous request/reply exchange. Unique per client.
using ActionId = std::uint64_t;

/// Which way a message type may legally travel.
enum class Flow : std::uint8_t {
    kClientToServer,
    kServerToClient,
    kBoth,
};

/// How a shipped UiState is merged into the destination (§3.1/§3.3).
enum class MergeMode : std::uint8_t {
    kStrict = 0,      ///< structures must match (s-compatible path)
    kDestructive,     ///< destructive merging: structure is overwritten
    kFlexible,        ///< flexible matching: union, conflicts conserved
};
/// Largest valid MergeMode; the decoder rejects bytes above it.
[[nodiscard]] constexpr MergeMode enum_max(MergeMode) noexcept { return MergeMode::kFlexible; }

/// Which history stack an ApplyState/HistorySave pair belongs to.
enum class HistoryTag : std::uint8_t {
    kNormal = 0,  ///< ordinary copy: backup goes to the undo stack
    kUndo,        ///< server-initiated undo: backup goes to the redo stack
    kRedo,        ///< server-initiated redo: backup goes to the undo stack
};
/// Largest valid HistoryTag; the decoder rejects bytes above it.
[[nodiscard]] constexpr HistoryTag enum_max(HistoryTag) noexcept { return HistoryTag::kRedo; }

/// Access right categories (the third element of the permission tuples).
enum class Right : std::uint8_t {
    kView = 1,    ///< state may be read (CopyFrom/StateQuery)
    kCouple = 2,  ///< object may be coupled to
    kModify = 4,  ///< state may be written (CopyTo/events)
};
using RightsMask = std::uint8_t;
inline constexpr RightsMask kAllRights = 7;

struct RegistrationRecord {
    static constexpr std::string_view kName = "RegistrationRecord";
    InstanceId instance = kInvalidInstance;
    UserId user = kInvalidUser;
    std::string user_name;
    std::string host_name;
    std::string app_name;
    static constexpr auto fields() {
        using T = RegistrationRecord;
        return std::tuple{&T::instance, &T::user, &T::user_name, &T::host_name, &T::app_name};
    }
    friend bool operator==(const RegistrationRecord&, const RegistrationRecord&) = default;
};

// --- session ---------------------------------------------------------------

/// Wire protocol version; the server refuses registrations from clients
/// built against a different revision. v2 added session scoping: Register
/// names the session to join.
/// v3 added durable-session synchronization: RegisterAck announces whether a
/// catch-up stream follows, and the SyncBegin/SyncState/SyncStep/SyncEnd
/// family carries the session snapshot plus the compacted action tail to a
/// late joiner before live delivery starts. v4 removed the wire status
/// messages (the HTTP monitor serves that view), which moved the Sync*
/// tags down by two; tags of journaled client frames are unchanged.
inline constexpr std::uint32_t kProtocolVersion = 4;

struct Ack;

struct Register {
    static constexpr std::string_view kName = "Register";
    static constexpr Flow kFlow = Flow::kClientToServer;
    UserId user = kInvalidUser;
    std::string user_name;
    std::string host_name;
    std::string app_name;
    std::uint32_t version = kProtocolVersion;
    /// Named coupling session to join; the server creates it on first join.
    /// Empty selects the default session — a single-session deployment never
    /// has to mention sessions at all.
    std::string session;
    static constexpr auto fields() {
        using T = Register;
        return std::tuple{&T::user, &T::user_name, &T::host_name, &T::app_name, &T::version, &T::session};
    }
    friend bool operator==(const Register&, const Register&) = default;
};

struct RegisterAck {
    static constexpr std::string_view kName = "RegisterAck";
    static constexpr Flow kFlow = Flow::kServerToClient;
    InstanceId instance = kInvalidInstance;
    /// True when the server will stream a SyncBegin..SyncEnd catch-up
    /// sequence before any live traffic; the client must not report itself
    /// online (nor send session traffic) until SyncEnd arrives.
    bool sync_follows = false;
    static constexpr auto fields() { return std::tuple{&RegisterAck::instance, &RegisterAck::sync_follows}; }
    friend bool operator==(const RegisterAck&, const RegisterAck&) = default;
};

struct Unregister {
    static constexpr std::string_view kName = "Unregister";
    static constexpr Flow kFlow = Flow::kClientToServer;
    static constexpr auto fields() { return std::tuple{}; }
    friend bool operator==(const Unregister&, const Unregister&) = default;
};

struct RegistryReply;

struct RegistryQuery {
    static constexpr std::string_view kName = "RegistryQuery";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = RegistryReply;
    ActionId request = 0;
    static constexpr auto fields() { return std::tuple{&RegistryQuery::request}; }
    friend bool operator==(const RegistryQuery&, const RegistryQuery&) = default;
};

struct RegistryReply {
    static constexpr std::string_view kName = "RegistryReply";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId request = 0;
    std::vector<RegistrationRecord> instances;
    static constexpr auto fields() { return std::tuple{&RegistryReply::request, &RegistryReply::instances}; }
    friend bool operator==(const RegistryReply&, const RegistryReply&) = default;
};

// --- coupling --------------------------------------------------------------

struct CoupleReq {
    static constexpr std::string_view kName = "CoupleReq";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef source;  ///< link direction: source -> dest, labelled creator
    ObjectRef dest;
    static constexpr auto fields() {
        return std::tuple{&CoupleReq::request, &CoupleReq::source, &CoupleReq::dest};
    }
    friend bool operator==(const CoupleReq&, const CoupleReq&) = default;
};

struct DecoupleReq {
    static constexpr std::string_view kName = "DecoupleReq";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef source;
    ObjectRef dest;
    static constexpr auto fields() {
        return std::tuple{&DecoupleReq::request, &DecoupleReq::source, &DecoupleReq::dest};
    }
    friend bool operator==(const DecoupleReq&, const DecoupleReq&) = default;
};

/// Replicates group membership: "the coupling information is replicated for
/// each object (to be completely available locally)" (§3.2). `members` is
/// the complete transitive closure; a singleton group removes the entry.
struct GroupUpdate {
    static constexpr std::string_view kName = "GroupUpdate";
    static constexpr Flow kFlow = Flow::kServerToClient;
    std::vector<ObjectRef> members;
    static constexpr auto fields() { return std::tuple{&GroupUpdate::members}; }
    friend bool operator==(const GroupUpdate&, const GroupUpdate&) = default;
};

// --- floor control / sync-by-action (§3.2) ---------------------------------

struct LockReq {
    static constexpr std::string_view kName = "LockReq";
    static constexpr Flow kFlow = Flow::kClientToServer;
    ActionId action = 0;
    ObjectRef source;                ///< the object the event occurred on
    std::vector<ObjectRef> objects;  ///< client's view of CO(o); the server
                                     ///< re-derives the authoritative closure
    static constexpr auto fields() {
        return std::tuple{&LockReq::action, &LockReq::source, &LockReq::objects};
    }
    friend bool operator==(const LockReq&, const LockReq&) = default;
};

struct LockGrant {
    static constexpr std::string_view kName = "LockGrant";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId action = 0;
    static constexpr auto fields() { return std::tuple{&LockGrant::action}; }
    friend bool operator==(const LockGrant&, const LockGrant&) = default;
};

struct LockDeny {
    static constexpr std::string_view kName = "LockDeny";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId action = 0;
    ObjectRef conflicting;  ///< first object that was already locked
    static constexpr auto fields() { return std::tuple{&LockDeny::action, &LockDeny::conflicting}; }
    friend bool operator==(const LockDeny&, const LockDeny&) = default;
};

/// Disables/enables the named local objects while a peer holds the floor.
struct LockNotify {
    static constexpr std::string_view kName = "LockNotify";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId action = 0;
    bool locked = false;
    std::vector<ObjectRef> objects;
    static constexpr auto fields() {
        return std::tuple{&LockNotify::action, &LockNotify::locked, &LockNotify::objects};
    }
    friend bool operator==(const LockNotify&, const LockNotify&) = default;
};

/// The high-level callback event, sent by the lock holder after LockGrant.
struct EventMsg {
    static constexpr std::string_view kName = "EventMsg";
    static constexpr Flow kFlow = Flow::kClientToServer;
    ActionId action = 0;
    ObjectRef source;           ///< the coupled object the event belongs to
    std::string relative_path;  ///< event widget relative to `source` ("" = itself)
    toolkit::Event event;
    static constexpr auto fields() {
        return std::tuple{&EventMsg::action, &EventMsg::source, &EventMsg::relative_path, &EventMsg::event};
    }
    friend bool operator==(const EventMsg&, const EventMsg&) = default;
};

/// Re-execution order for the whole coupled group. `targets` is the
/// authoritative locked target set (the source excluded) across every
/// instance, so the message is identical for all recipients and the server
/// encodes it exactly once per broadcast. Each receiving instance applies
/// the members it owns and answers with one ExecuteAck; deferred (loose)
/// re-executions are flushed later as single-target orders.
struct ExecuteEvent {
    static constexpr std::string_view kName = "ExecuteEvent";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId action = 0;
    ObjectRef source;
    std::vector<ObjectRef> targets;  ///< all coupled objects to re-execute on
    std::string relative_path;
    toolkit::Event event;
    static constexpr auto fields() {
        using T = ExecuteEvent;
        return std::tuple{&T::action, &T::source, &T::targets, &T::relative_path, &T::event};
    }
    friend bool operator==(const ExecuteEvent&, const ExecuteEvent&) = default;
};

/// Completion signal; the server unlocks once every target (and the source)
/// has acknowledged, implementing "unlocked when the processing of this
/// event is completed".
struct ExecuteAck {
    static constexpr std::string_view kName = "ExecuteAck";
    static constexpr Flow kFlow = Flow::kClientToServer;
    ActionId action = 0;
    static constexpr auto fields() { return std::tuple{&ExecuteAck::action}; }
    friend bool operator==(const ExecuteAck&, const ExecuteAck&) = default;
};

// --- sync-by-state (§3.1) ----------------------------------------------------

struct CopyTo {
    static constexpr std::string_view kName = "CopyTo";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef dest;
    MergeMode mode = MergeMode::kStrict;
    toolkit::UiState state;
    std::vector<std::uint8_t> semantic;  ///< store-hook payload (§3.1)
    static constexpr auto fields() {
        return std::tuple{&CopyTo::request, &CopyTo::dest, &CopyTo::mode, &CopyTo::state, &CopyTo::semantic};
    }
    friend bool operator==(const CopyTo&, const CopyTo&) = default;
};

struct CopyFrom {
    static constexpr std::string_view kName = "CopyFrom";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef source;
    std::string dest_path;  ///< local path in the requesting instance
    MergeMode mode = MergeMode::kStrict;
    static constexpr auto fields() {
        return std::tuple{&CopyFrom::request, &CopyFrom::source, &CopyFrom::dest_path, &CopyFrom::mode};
    }
    friend bool operator==(const CopyFrom&, const CopyFrom&) = default;
};

struct RemoteCopy {
    static constexpr std::string_view kName = "RemoteCopy";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef source;
    ObjectRef dest;
    MergeMode mode = MergeMode::kStrict;
    static constexpr auto fields() {
        return std::tuple{&RemoteCopy::request, &RemoteCopy::source, &RemoteCopy::dest, &RemoteCopy::mode};
    }
    friend bool operator==(const RemoteCopy&, const RemoteCopy&) = default;
};

struct StateQuery {
    static constexpr std::string_view kName = "StateQuery";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId request = 0;
    std::string path;
    static constexpr auto fields() { return std::tuple{&StateQuery::request, &StateQuery::path}; }
    friend bool operator==(const StateQuery&, const StateQuery&) = default;
};

/// Travels both ways: C2S answering a server StateQuery, S2C routing a
/// FetchState result back to the requester.
struct StateReply {
    static constexpr std::string_view kName = "StateReply";
    static constexpr Flow kFlow = Flow::kBoth;
    ActionId request = 0;
    std::string path;
    bool found = false;
    toolkit::UiState state;
    std::vector<std::uint8_t> semantic;
    static constexpr auto fields() {
        using T = StateReply;
        return std::tuple{&T::request, &T::path, &T::found, &T::state, &T::semantic};
    }
    friend bool operator==(const StateReply&, const StateReply&) = default;
};

struct ApplyState {
    static constexpr std::string_view kName = "ApplyState";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId request = 0;
    std::string dest_path;
    MergeMode mode = MergeMode::kStrict;
    HistoryTag tag = HistoryTag::kNormal;
    toolkit::UiState state;
    std::vector<std::uint8_t> semantic;
    ObjectRef origin;  ///< where the state came from (informational)
    static constexpr auto fields() {
        using T = ApplyState;
        return std::tuple{&T::request, &T::dest_path, &T::mode, &T::tag, &T::state, &T::semantic, &T::origin};
    }
    friend bool operator==(const ApplyState&, const ApplyState&) = default;
};

/// The destination backs up the state it is about to overwrite; the server
/// files it on the object's undo or redo stack according to `tag`.
struct HistorySave {
    static constexpr std::string_view kName = "HistorySave";
    static constexpr Flow kFlow = Flow::kClientToServer;
    ObjectRef object;
    HistoryTag tag = HistoryTag::kNormal;
    toolkit::UiState state;
    static constexpr auto fields() {
        return std::tuple{&HistorySave::object, &HistorySave::tag, &HistorySave::state};
    }
    friend bool operator==(const HistorySave&, const HistorySave&) = default;
};

struct UndoReq {
    static constexpr std::string_view kName = "UndoReq";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef object;
    static constexpr auto fields() { return std::tuple{&UndoReq::request, &UndoReq::object}; }
    friend bool operator==(const UndoReq&, const UndoReq&) = default;
};

struct RedoReq {
    static constexpr std::string_view kName = "RedoReq";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef object;
    static constexpr auto fields() { return std::tuple{&RedoReq::request, &RedoReq::object}; }
    friend bool operator==(const RedoReq&, const RedoReq&) = default;
};

// --- protocol extension (§3.4) ----------------------------------------------

struct Command {
    static constexpr std::string_view kName = "Command";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    std::string name;             ///< symbolic function name
    InstanceId target = kInvalidInstance;  ///< kInvalidInstance = broadcast
    std::vector<std::uint8_t> payload;
    static constexpr auto fields() {
        return std::tuple{&Command::request, &Command::name, &Command::target, &Command::payload};
    }
    friend bool operator==(const Command&, const Command&) = default;
};

struct CommandDeliver {
    static constexpr std::string_view kName = "CommandDeliver";
    static constexpr Flow kFlow = Flow::kServerToClient;
    InstanceId from = kInvalidInstance;
    std::string name;
    std::vector<std::uint8_t> payload;
    static constexpr auto fields() {
        return std::tuple{&CommandDeliver::from, &CommandDeliver::name, &CommandDeliver::payload};
    }
    friend bool operator==(const CommandDeliver&, const CommandDeliver&) = default;
};

// --- permissions -------------------------------------------------------------

struct PermissionSet {
    static constexpr std::string_view kName = "PermissionSet";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    UserId user = kInvalidUser;  ///< whose access is being configured
    ObjectRef object;            ///< applies to this object and its subtree
    RightsMask rights = 0;
    bool allow = true;           ///< false = explicit denial
    static constexpr auto fields() {
        using T = PermissionSet;
        return std::tuple{&T::request, &T::user, &T::object, &T::rights, &T::allow};
    }
    friend bool operator==(const PermissionSet&, const PermissionSet&) = default;
};

// --- generic acknowledgement ---------------------------------------------------

struct Ack {
    static constexpr std::string_view kName = "Ack";
    static constexpr Flow kFlow = Flow::kServerToClient;
    ActionId request = 0;
    ErrorCode code = ErrorCode::kOk;
    std::string message;
    static constexpr auto fields() { return std::tuple{&Ack::request, &Ack::code, &Ack::message}; }
    friend bool operator==(const Ack&, const Ack&) = default;
};

/// Read-only retrieval of a remote object's state (no ApplyState follows).
/// Powers the moderator's "simplified graphical representation of the
/// student's environment" (§4) — inspecting before coupling. The server
/// answers with a StateReply routed back to the requester.
struct FetchState {
    static constexpr std::string_view kName = "FetchState";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = StateReply;
    ActionId request = 0;
    ObjectRef source;
    static constexpr auto fields() { return std::tuple{&FetchState::request, &FetchState::source}; }
    friend bool operator==(const FetchState&, const FetchState&) = default;
};

// --- loose coupling (the "time" relaxation of §1/§2.2) -------------------------

/// Switches the sender's object between tight coupling (§3.2, immediate
/// re-execution) and loose coupling: the server queues re-executions for the
/// object instead of delivering them, and the object neither takes part in
/// floor-control locking nor blocks the group. Switching back to tight
/// flushes the queue.
struct SetCouplingMode {
    static constexpr std::string_view kName = "SetCouplingMode";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef object;   ///< must belong to the sender
    bool loose = false;
    static constexpr auto fields() {
        return std::tuple{&SetCouplingMode::request, &SetCouplingMode::object, &SetCouplingMode::loose};
    }
    friend bool operator==(const SetCouplingMode&, const SetCouplingMode&) = default;
};

/// "Periodical updates" (§2.2): asks the server to deliver everything queued
/// for the (loose) object now. Queued ExecuteEvents arrive in order,
/// followed by the Ack.
struct SyncRequest {
    static constexpr std::string_view kName = "SyncRequest";
    static constexpr Flow kFlow = Flow::kClientToServer;
    using Reply = Ack;
    ActionId request = 0;
    ObjectRef object;
    static constexpr auto fields() { return std::tuple{&SyncRequest::request, &SyncRequest::object}; }
    friend bool operator==(const SyncRequest&, const SyncRequest&) = default;
};

// --- late-joiner synchronization (durable sessions) ---------------------------
//
// Infinote-style catch-up: a member joining a session with prior history is
// announced the stream via RegisterAck.sync_follows and then receives, in
// order and before any live frame,
//   SyncBegin(base_seq)            the journal seq the snapshot captures
//   SyncState(registry/groups/...)  client-relevant session state at base_seq
//   SyncStep(seq, origin, frame)*  journal tail since the snapshot, ascending
//   SyncEnd(last_seq)              promotion point: live delivery resumes
// Live frames addressed to the joiner while it is synchronizing are buffered
// server-side and flushed after SyncEnd, so a mid-burst joiner loses nothing
// and observes nothing out of order (enforced by the conformance checker).

struct SyncBegin {
    static constexpr std::string_view kName = "SyncBegin";
    static constexpr Flow kFlow = Flow::kServerToClient;
    std::uint64_t base_seq = 0;  ///< durable seq the snapshot corresponds to
    static constexpr auto fields() { return std::tuple{&SyncBegin::base_seq}; }
    friend bool operator==(const SyncBegin&, const SyncBegin&) = default;
};

/// Client-relevant session state at base_seq: the registry, the replicated
/// coupling groups, and the loose-object set. Encoded as an opaque section
/// (see encode_sync_state/decode_sync_state) so the wire shape can evolve
/// without growing the variant.
struct SyncState {
    static constexpr std::string_view kName = "SyncState";
    static constexpr Flow kFlow = Flow::kServerToClient;
    std::vector<std::uint8_t> state;
    static constexpr auto fields() { return std::tuple{&SyncState::state}; }
    friend bool operator==(const SyncState&, const SyncState&) = default;
};

/// One journal-tail record: the raw inbound frame `origin` applied at `seq`.
struct SyncStep {
    static constexpr std::string_view kName = "SyncStep";
    static constexpr Flow kFlow = Flow::kServerToClient;
    std::uint64_t seq = 0;
    InstanceId origin = kInvalidInstance;
    std::vector<std::uint8_t> frame;
    static constexpr auto fields() { return std::tuple{&SyncStep::seq, &SyncStep::origin, &SyncStep::frame}; }
    friend bool operator==(const SyncStep&, const SyncStep&) = default;
};

struct SyncEnd {
    static constexpr std::string_view kName = "SyncEnd";
    static constexpr Flow kFlow = Flow::kServerToClient;
    std::uint64_t last_seq = 0;  ///< highest seq streamed (base_seq if none)
    static constexpr auto fields() { return std::tuple{&SyncEnd::last_seq}; }
    friend bool operator==(const SyncEnd&, const SyncEnd&) = default;
};

// New alternatives append at the END: the wire tag is the variant index.
using Message = std::variant<Register, RegisterAck, Unregister, RegistryQuery, RegistryReply, CoupleReq,
                             DecoupleReq, GroupUpdate, LockReq, LockGrant, LockDeny, LockNotify, EventMsg,
                             ExecuteEvent, ExecuteAck, CopyTo, CopyFrom, RemoteCopy, StateQuery, StateReply,
                             ApplyState, HistorySave, UndoReq, RedoReq, Command, CommandDeliver, PermissionSet,
                             Ack, FetchState, SetCouplingMode, SyncRequest, SyncBegin, SyncState, SyncStep,
                             SyncEnd>;

/// The wire tag of message type T: its index in the Message variant.
template <typename T>
[[nodiscard]] constexpr std::uint8_t tag_of() noexcept {
    return static_cast<std::uint8_t>(Message(std::in_place_type<T>).index());
}

/// Leading byte of the optional trace-context frame extension. Deliberately
/// far above every variant index (and distinct from 0xFF, the canonical
/// unknown tag): a frame starting with this byte carries
/// [kTraceExtensionTag][trace u64][span u64] before the ordinary message
/// bytes. Decoders without tracing support reject it as unknown; decoders
/// from this revision strip it, so untraced frames are byte-identical to the
/// previous wire format.
inline constexpr std::uint8_t kTraceExtensionTag = 0xE7;

/// Serializes a message into an immutable, refcounted transport frame. The
/// returned Frame is what travels the whole message path: broadcast fan-out
/// enqueues the same Frame to every partner, so each message is encoded
/// exactly once no matter how many recipients it has.
[[nodiscard]] Frame encode_message(const Message& msg);

/// Same, prefixing the trace-context extension when `trace` is valid (the
/// invalid context encodes exactly like the overload above).
[[nodiscard]] Frame encode_message(const Message& msg, const obs::TraceContext& trace);

/// Arena-backed encodes: the payload is bump-allocated from `arena` instead
/// of the heap, and the returned Frame aliases the arena epoch
/// (Frame::from_shared). Steady-state cost is *zero* allocations — the
/// epoch block recycles once every frame from it has been released. The
/// arena is strand-confined (CoSession owns one per session); the frames it
/// produces are free-threaded like any other Frame.
[[nodiscard]] Frame encode_message(const Message& msg, Arena& arena);
[[nodiscard]] Frame encode_message(const Message& msg, const obs::TraceContext& trace,
                                   Arena& arena);

/// Total encode_message() calls since start (or the last reset), backed by
/// the cosoft_protocol_encodes_total counter in obs::Registry::global(). The
/// instrumentation behind the encode-once guarantee: tests and bench_fanout
/// assert that a broadcast costs one encode regardless of partner count.
[[nodiscard]] std::uint64_t encode_count() noexcept;
void reset_encode_count() noexcept;

/// Parses a transport frame, dropping any trace-context extension.
[[nodiscard]] Result<Message> decode_message(std::span<const std::uint8_t> frame);

/// A decoded frame plus the trace context it carried (invalid when the frame
/// had no extension).
struct DecodedFrame {
    Message message;
    obs::TraceContext trace;
};

/// Parses a transport frame, preserving the trace-context extension.
[[nodiscard]] Result<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame);

/// The message's kName.
[[nodiscard]] std::string_view message_name(const Message& msg) noexcept;

/// The decoded form of SyncState.state — everything a (re)joining client
/// needs to resume its replicated view of the session.
struct SyncStateSection {
    static constexpr std::string_view kName = "SyncStateSection";
    std::vector<RegistrationRecord> registry;       ///< registered instances at base_seq
    std::vector<std::vector<ObjectRef>> groups;      ///< coupling components (full closures)
    std::vector<ObjectRef> loose;                    ///< loosely-coupled objects
    static constexpr auto fields() {
        return std::tuple{&SyncStateSection::registry, &SyncStateSection::groups, &SyncStateSection::loose};
    }
    friend bool operator==(const SyncStateSection&, const SyncStateSection&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_sync_state(const SyncStateSection& s);
[[nodiscard]] Result<SyncStateSection> decode_sync_state(std::span<const std::uint8_t> bytes);

}  // namespace cosoft::protocol
