// The COSOFT wire protocol.
//
// This is the "common, application-independent communication protocol
// situated on the UI level" of §5, plus the programmer-extensible command
// channel of §3.4 (CoSendCommand). Every message is a variant alternative
// with a binary codec; the server (src/server) and client (src/client) are
// the only producers/consumers.
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

/// How a shipped UiState is merged into the destination (§3.1/§3.3).
enum class MergeMode : std::uint8_t {
    kStrict = 0,      ///< structures must match (s-compatible path)
    kDestructive,     ///< destructive merging: structure is overwritten
    kFlexible,        ///< flexible matching: union, conflicts conserved
};

/// Which history stack an ApplyState/HistorySave pair belongs to.
enum class HistoryTag : std::uint8_t {
    kNormal = 0,  ///< ordinary copy: backup goes to the undo stack
    kUndo,        ///< server-initiated undo: backup goes to the redo stack
    kRedo,        ///< server-initiated redo: backup goes to the undo stack
};

/// Access right categories (the third element of the permission tuples).
enum class Right : std::uint8_t {
    kView = 1,    ///< state may be read (CopyFrom/StateQuery)
    kCouple = 2,  ///< object may be coupled to
    kModify = 4,  ///< state may be written (CopyTo/events)
};
using RightsMask = std::uint8_t;
inline constexpr RightsMask kAllRights = 7;

struct RegistrationRecord {
    InstanceId instance = kInvalidInstance;
    UserId user = kInvalidUser;
    std::string user_name;
    std::string host_name;
    std::string app_name;
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

struct Register {
    UserId user = kInvalidUser;
    std::string user_name;
    std::string host_name;
    std::string app_name;
    std::uint32_t version = kProtocolVersion;
    /// Named coupling session to join; the server creates it on first join.
    /// Empty selects the default session — a single-session deployment never
    /// has to mention sessions at all.
    std::string session;
    friend bool operator==(const Register&, const Register&) = default;
};

struct RegisterAck {
    InstanceId instance = kInvalidInstance;
    /// True when the server will stream a SyncBegin..SyncEnd catch-up
    /// sequence before any live traffic; the client must not report itself
    /// online (nor send session traffic) until SyncEnd arrives.
    bool sync_follows = false;
    friend bool operator==(const RegisterAck&, const RegisterAck&) = default;
};

struct Unregister {
    friend bool operator==(const Unregister&, const Unregister&) = default;
};

struct RegistryQuery {
    ActionId request = 0;
    friend bool operator==(const RegistryQuery&, const RegistryQuery&) = default;
};

struct RegistryReply {
    ActionId request = 0;
    std::vector<RegistrationRecord> instances;
    friend bool operator==(const RegistryReply&, const RegistryReply&) = default;
};

// --- coupling --------------------------------------------------------------

struct CoupleReq {
    ActionId request = 0;
    ObjectRef source;  ///< link direction: source -> dest, labelled creator
    ObjectRef dest;
    friend bool operator==(const CoupleReq&, const CoupleReq&) = default;
};

struct DecoupleReq {
    ActionId request = 0;
    ObjectRef source;
    ObjectRef dest;
    friend bool operator==(const DecoupleReq&, const DecoupleReq&) = default;
};

/// Replicates group membership: "the coupling information is replicated for
/// each object (to be completely available locally)" (§3.2). `members` is
/// the complete transitive closure; a singleton group removes the entry.
struct GroupUpdate {
    std::vector<ObjectRef> members;
    friend bool operator==(const GroupUpdate&, const GroupUpdate&) = default;
};

// --- floor control / sync-by-action (§3.2) ---------------------------------

struct LockReq {
    ActionId action = 0;
    ObjectRef source;                ///< the object the event occurred on
    std::vector<ObjectRef> objects;  ///< client's view of CO(o); the server
                                     ///< re-derives the authoritative closure
    friend bool operator==(const LockReq&, const LockReq&) = default;
};

struct LockGrant {
    ActionId action = 0;
    friend bool operator==(const LockGrant&, const LockGrant&) = default;
};

struct LockDeny {
    ActionId action = 0;
    ObjectRef conflicting;  ///< first object that was already locked
    friend bool operator==(const LockDeny&, const LockDeny&) = default;
};

/// Disables/enables the named local objects while a peer holds the floor.
struct LockNotify {
    ActionId action = 0;
    bool locked = false;
    std::vector<ObjectRef> objects;
    friend bool operator==(const LockNotify&, const LockNotify&) = default;
};

/// The high-level callback event, sent by the lock holder after LockGrant.
struct EventMsg {
    ActionId action = 0;
    ObjectRef source;           ///< the coupled object the event belongs to
    std::string relative_path;  ///< event widget relative to `source` ("" = itself)
    toolkit::Event event;
    friend bool operator==(const EventMsg&, const EventMsg&) = default;
};

/// Re-execution order for the whole coupled group. `targets` is the
/// authoritative locked target set (the source excluded) across every
/// instance, so the message is identical for all recipients and the server
/// encodes it exactly once per broadcast. Each receiving instance applies
/// the members it owns and answers with one ExecuteAck; deferred (loose)
/// re-executions are flushed later as single-target orders.
struct ExecuteEvent {
    ActionId action = 0;
    ObjectRef source;
    std::vector<ObjectRef> targets;  ///< all coupled objects to re-execute on
    std::string relative_path;
    toolkit::Event event;
    friend bool operator==(const ExecuteEvent&, const ExecuteEvent&) = default;
};

/// Completion signal; the server unlocks once every target (and the source)
/// has acknowledged, implementing "unlocked when the processing of this
/// event is completed".
struct ExecuteAck {
    ActionId action = 0;
    friend bool operator==(const ExecuteAck&, const ExecuteAck&) = default;
};

// --- sync-by-state (§3.1) ----------------------------------------------------

struct CopyTo {
    ActionId request = 0;
    ObjectRef dest;
    MergeMode mode = MergeMode::kStrict;
    toolkit::UiState state;
    std::vector<std::uint8_t> semantic;  ///< store-hook payload (§3.1)
    friend bool operator==(const CopyTo&, const CopyTo&) = default;
};

struct CopyFrom {
    ActionId request = 0;
    ObjectRef source;
    std::string dest_path;  ///< local path in the requesting instance
    MergeMode mode = MergeMode::kStrict;
    friend bool operator==(const CopyFrom&, const CopyFrom&) = default;
};

struct RemoteCopy {
    ActionId request = 0;
    ObjectRef source;
    ObjectRef dest;
    MergeMode mode = MergeMode::kStrict;
    friend bool operator==(const RemoteCopy&, const RemoteCopy&) = default;
};

struct StateQuery {
    ActionId request = 0;
    std::string path;
    friend bool operator==(const StateQuery&, const StateQuery&) = default;
};

struct StateReply {
    ActionId request = 0;
    std::string path;
    bool found = false;
    toolkit::UiState state;
    std::vector<std::uint8_t> semantic;
    friend bool operator==(const StateReply&, const StateReply&) = default;
};

struct ApplyState {
    ActionId request = 0;
    std::string dest_path;
    MergeMode mode = MergeMode::kStrict;
    HistoryTag tag = HistoryTag::kNormal;
    toolkit::UiState state;
    std::vector<std::uint8_t> semantic;
    ObjectRef origin;  ///< where the state came from (informational)
    friend bool operator==(const ApplyState&, const ApplyState&) = default;
};

/// The destination backs up the state it is about to overwrite; the server
/// files it on the object's undo or redo stack according to `tag`.
struct HistorySave {
    ObjectRef object;
    HistoryTag tag = HistoryTag::kNormal;
    toolkit::UiState state;
    friend bool operator==(const HistorySave&, const HistorySave&) = default;
};

struct UndoReq {
    ActionId request = 0;
    ObjectRef object;
    friend bool operator==(const UndoReq&, const UndoReq&) = default;
};

struct RedoReq {
    ActionId request = 0;
    ObjectRef object;
    friend bool operator==(const RedoReq&, const RedoReq&) = default;
};

// --- protocol extension (§3.4) ----------------------------------------------

struct Command {
    ActionId request = 0;
    std::string name;             ///< symbolic function name
    InstanceId target = kInvalidInstance;  ///< kInvalidInstance = broadcast
    std::vector<std::uint8_t> payload;
    friend bool operator==(const Command&, const Command&) = default;
};

struct CommandDeliver {
    InstanceId from = kInvalidInstance;
    std::string name;
    std::vector<std::uint8_t> payload;
    friend bool operator==(const CommandDeliver&, const CommandDeliver&) = default;
};

// --- permissions -------------------------------------------------------------

struct PermissionSet {
    ActionId request = 0;
    UserId user = kInvalidUser;  ///< whose access is being configured
    ObjectRef object;            ///< applies to this object and its subtree
    RightsMask rights = 0;
    bool allow = true;           ///< false = explicit denial
    friend bool operator==(const PermissionSet&, const PermissionSet&) = default;
};

// --- generic acknowledgement ---------------------------------------------------

struct Ack {
    ActionId request = 0;
    ErrorCode code = ErrorCode::kOk;
    std::string message;
    friend bool operator==(const Ack&, const Ack&) = default;
};

/// Read-only retrieval of a remote object's state (no ApplyState follows).
/// Powers the moderator's "simplified graphical representation of the
/// student's environment" (§4) — inspecting before coupling. The server
/// answers with a StateReply routed back to the requester.
struct FetchState {
    ActionId request = 0;
    ObjectRef source;
    friend bool operator==(const FetchState&, const FetchState&) = default;
};

// --- loose coupling (the "time" relaxation of §1/§2.2) -------------------------

/// Switches the sender's object between tight coupling (§3.2, immediate
/// re-execution) and loose coupling: the server queues re-executions for the
/// object instead of delivering them, and the object neither takes part in
/// floor-control locking nor blocks the group. Switching back to tight
/// flushes the queue.
struct SetCouplingMode {
    ActionId request = 0;
    ObjectRef object;   ///< must belong to the sender
    bool loose = false;
    friend bool operator==(const SetCouplingMode&, const SetCouplingMode&) = default;
};

/// "Periodical updates" (§2.2): asks the server to deliver everything queued
/// for the (loose) object now. Queued ExecuteEvents arrive in order,
/// followed by the Ack.
struct SyncRequest {
    ActionId request = 0;
    ObjectRef object;
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
    std::uint64_t base_seq = 0;  ///< durable seq the snapshot corresponds to
    friend bool operator==(const SyncBegin&, const SyncBegin&) = default;
};

/// Client-relevant session state at base_seq: the registry, the replicated
/// coupling groups, and the loose-object set. Encoded as an opaque section
/// (see encode_sync_state/decode_sync_state) so the wire shape can evolve
/// without growing the variant.
struct SyncState {
    std::vector<std::uint8_t> state;
    friend bool operator==(const SyncState&, const SyncState&) = default;
};

/// One journal-tail record: the raw inbound frame `origin` applied at `seq`.
struct SyncStep {
    std::uint64_t seq = 0;
    InstanceId origin = kInvalidInstance;
    std::vector<std::uint8_t> frame;
    friend bool operator==(const SyncStep&, const SyncStep&) = default;
};

struct SyncEnd {
    std::uint64_t last_seq = 0;  ///< highest seq streamed (base_seq if none)
    friend bool operator==(const SyncEnd&, const SyncEnd&) = default;
};

// New alternatives append at the END: the wire tag is the variant index.
using Message = std::variant<Register, RegisterAck, Unregister, RegistryQuery, RegistryReply, CoupleReq,
                             DecoupleReq, GroupUpdate, LockReq, LockGrant, LockDeny, LockNotify, EventMsg,
                             ExecuteEvent, ExecuteAck, CopyTo, CopyFrom, RemoteCopy, StateQuery, StateReply,
                             ApplyState, HistorySave, UndoReq, RedoReq, Command, CommandDeliver, PermissionSet,
                             Ack, FetchState, SetCouplingMode, SyncRequest, SyncBegin, SyncState, SyncStep,
                             SyncEnd>;

/// Leading byte of the optional trace-context frame extension. Deliberately
/// far above every variant index (and distinct from 0xFF, the canonical
///// unknown tag): a frame starting with this byte carries
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

[[nodiscard]] std::string_view message_name(const Message& msg) noexcept;

void encode(ByteWriter& w, const ObjectRef& ref);
[[nodiscard]] ObjectRef decode_object_ref(ByteReader& r);

/// The decoded form of SyncState.state — everything a (re)joining client
/// needs to resume its replicated view of the session.
struct SyncStateSection {
    std::vector<RegistrationRecord> registry;       ///< registered instances at base_seq
    std::vector<std::vector<ObjectRef>> groups;      ///< coupling components (full closures)
    std::vector<ObjectRef> loose;                    ///< loosely-coupled objects
    friend bool operator==(const SyncStateSection&, const SyncStateSection&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_sync_state(const SyncStateSection& s);
[[nodiscard]] Result<SyncStateSection> decode_sync_state(std::span<const std::uint8_t> bytes);

}  // namespace cosoft::protocol
