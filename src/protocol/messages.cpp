#include "cosoft/protocol/messages.hpp"

#include <cstring>

#include "cosoft/common/arena.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/obs/metrics.hpp"

namespace cosoft::protocol {

namespace {

// The wire tag is the variant index; both ends are built from this header so
// the mapping is stable by construction.
template <typename T>
constexpr std::uint8_t tag_of() {
    return static_cast<std::uint8_t>(Message(std::in_place_type<T>).index());
}

void put(ByteWriter& w, const std::vector<std::uint8_t>& bytes) { w.bytes(bytes); }

void put_refs(ByteWriter& w, const std::vector<ObjectRef>& refs) {
    w.u32(static_cast<std::uint32_t>(refs.size()));
    for (const auto& r : refs) encode(w, r);
}

std::vector<ObjectRef> get_refs(ByteReader& r) {
    const std::uint32_t n = r.u32();
    std::vector<ObjectRef> out;
    out.reserve(std::min<std::uint32_t>(n, 4096));
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) out.push_back(decode_object_ref(r));
    return out;
}

void put_record(ByteWriter& w, const RegistrationRecord& rec) {
    w.u32(rec.instance);
    w.u32(rec.user);
    w.str(rec.user_name);
    w.str(rec.host_name);
    w.str(rec.app_name);
}

MergeMode get_mode(ByteReader& r) {
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(MergeMode::kFlexible)) r.fail();
    return static_cast<MergeMode>(v);
}

HistoryTag get_tag(ByteReader& r) {
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(HistoryTag::kRedo)) r.fail();
    return static_cast<HistoryTag>(v);
}

ErrorCode get_code(ByteReader& r) {
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(ErrorCode::kInvalidArgument)) r.fail();
    return static_cast<ErrorCode>(v);
}

RegistrationRecord get_record(ByteReader& r) {
    RegistrationRecord rec;
    rec.instance = r.u32();
    rec.user = r.u32();
    rec.user_name = r.str();
    rec.host_name = r.str();
    rec.app_name = r.str();
    return rec;
}

struct Encoder {
    ByteWriter& w;

    void operator()(const Register& m) {
        w.u32(m.user);
        w.str(m.user_name);
        w.str(m.host_name);
        w.str(m.app_name);
        w.u32(m.version);
        w.str(m.session);
    }
    void operator()(const RegisterAck& m) {
        w.u32(m.instance);
        w.boolean(m.sync_follows);
    }
    void operator()(const Unregister&) {}
    void operator()(const RegistryQuery& m) { w.u64(m.request); }
    void operator()(const RegistryReply& m) {
        w.u64(m.request);
        w.u32(static_cast<std::uint32_t>(m.instances.size()));
        for (const auto& rec : m.instances) put_record(w, rec);
    }
    void operator()(const CoupleReq& m) {
        w.u64(m.request);
        encode(w, m.source);
        encode(w, m.dest);
    }
    void operator()(const DecoupleReq& m) {
        w.u64(m.request);
        encode(w, m.source);
        encode(w, m.dest);
    }
    void operator()(const GroupUpdate& m) { put_refs(w, m.members); }
    void operator()(const LockReq& m) {
        w.u64(m.action);
        encode(w, m.source);
        put_refs(w, m.objects);
    }
    void operator()(const LockGrant& m) { w.u64(m.action); }
    void operator()(const LockDeny& m) {
        w.u64(m.action);
        encode(w, m.conflicting);
    }
    void operator()(const LockNotify& m) {
        w.u64(m.action);
        w.boolean(m.locked);
        put_refs(w, m.objects);
    }
    void operator()(const EventMsg& m) {
        w.u64(m.action);
        encode(w, m.source);
        w.str(m.relative_path);
        encode(w, m.event);
    }
    void operator()(const ExecuteEvent& m) {
        w.u64(m.action);
        encode(w, m.source);
        put_refs(w, m.targets);
        w.str(m.relative_path);
        encode(w, m.event);
    }
    void operator()(const ExecuteAck& m) { w.u64(m.action); }
    void operator()(const CopyTo& m) {
        w.u64(m.request);
        encode(w, m.dest);
        w.u8(static_cast<std::uint8_t>(m.mode));
        encode(w, m.state);
        put(w, m.semantic);
    }
    void operator()(const CopyFrom& m) {
        w.u64(m.request);
        encode(w, m.source);
        w.str(m.dest_path);
        w.u8(static_cast<std::uint8_t>(m.mode));
    }
    void operator()(const RemoteCopy& m) {
        w.u64(m.request);
        encode(w, m.source);
        encode(w, m.dest);
        w.u8(static_cast<std::uint8_t>(m.mode));
    }
    void operator()(const StateQuery& m) {
        w.u64(m.request);
        w.str(m.path);
    }
    void operator()(const StateReply& m) {
        w.u64(m.request);
        w.str(m.path);
        w.boolean(m.found);
        encode(w, m.state);
        put(w, m.semantic);
    }
    void operator()(const ApplyState& m) {
        w.u64(m.request);
        w.str(m.dest_path);
        w.u8(static_cast<std::uint8_t>(m.mode));
        w.u8(static_cast<std::uint8_t>(m.tag));
        encode(w, m.state);
        put(w, m.semantic);
        encode(w, m.origin);
    }
    void operator()(const HistorySave& m) {
        encode(w, m.object);
        w.u8(static_cast<std::uint8_t>(m.tag));
        encode(w, m.state);
    }
    void operator()(const UndoReq& m) {
        w.u64(m.request);
        encode(w, m.object);
    }
    void operator()(const RedoReq& m) {
        w.u64(m.request);
        encode(w, m.object);
    }
    void operator()(const Command& m) {
        w.u64(m.request);
        w.str(m.name);
        w.u32(m.target);
        put(w, m.payload);
    }
    void operator()(const CommandDeliver& m) {
        w.u32(m.from);
        w.str(m.name);
        put(w, m.payload);
    }
    void operator()(const PermissionSet& m) {
        w.u64(m.request);
        w.u32(m.user);
        encode(w, m.object);
        w.u8(m.rights);
        w.boolean(m.allow);
    }
    void operator()(const Ack& m) {
        w.u64(m.request);
        w.u8(static_cast<std::uint8_t>(m.code));
        w.str(m.message);
    }
    void operator()(const FetchState& m) {
        w.u64(m.request);
        encode(w, m.source);
    }
    void operator()(const SetCouplingMode& m) {
        w.u64(m.request);
        encode(w, m.object);
        w.boolean(m.loose);
    }
    void operator()(const SyncRequest& m) {
        w.u64(m.request);
        encode(w, m.object);
    }
    void operator()(const SyncBegin& m) { w.u64(m.base_seq); }
    void operator()(const SyncState& m) { put(w, m.state); }
    void operator()(const SyncStep& m) {
        w.u64(m.seq);
        w.u32(m.origin);
        put(w, m.frame);
    }
    void operator()(const SyncEnd& m) { w.u64(m.last_seq); }
};

}  // namespace

void encode(ByteWriter& w, const ObjectRef& ref) {
    w.u32(ref.instance);
    w.str(ref.path);
}

ObjectRef decode_object_ref(ByteReader& r) {
    ObjectRef ref;
    ref.instance = r.u32();
    ref.path = r.str();
    return ref;
}

namespace {
// The encode-once instrumentation lives in the global metrics registry; the
// function-local reference keeps the hot path at one relaxed increment.
obs::Counter& encode_counter() {
    static obs::Counter& counter = obs::Registry::global().counter("cosoft_protocol_encodes_total");
    return counter;
}
}  // namespace

std::uint64_t encode_count() noexcept { return encode_counter().value(); }
void reset_encode_count() noexcept { encode_counter().reset(); }

namespace {

/// Per-thread scratch encoder, cleared (not freed) between messages: buffer
/// growth amortizes to zero once a thread has seen its largest message, so a
/// steady-state encode performs exactly one allocation — the Frame payload.
/// A giant outlier (snapshot replies can reach MBs) sheds its backing store
/// afterwards instead of pinning it for the thread's lifetime.
constexpr std::size_t kScratchKeepBytes = 1 << 20;

ByteWriter& scratch_writer() {
    thread_local ByteWriter w;
    if (w.capacity() > kScratchKeepBytes) {
        w.shed();
    } else {
        w.clear();
    }
    return w;
}

Frame frame_of(ByteWriter& w) { return Frame::copy_of(w.data()); }

/// Arena variant: the payload lands in the caller's arena epoch instead of a
/// fresh heap block, and the frame aliases that epoch. Zero allocations at
/// steady state (the bump pointer advances; the epoch owner is pooled).
Frame frame_of(ByteWriter& w, Arena& arena) {
    const auto& bytes = w.data();
    if (bytes.empty()) return Frame{};
    Arena::Allocation alloc = arena.allocate(bytes.size());
    std::memcpy(alloc.data, bytes.data(), bytes.size());
    return Frame::from_shared(std::move(alloc.owner), bytes.size());
}

}  // namespace

CO_HOT_PATH Frame encode_message(const Message& msg) {
    CO_HOT_SCOPE("protocol.encode");
    encode_counter().inc();
    ByteWriter& w = scratch_writer();
    w.u8(static_cast<std::uint8_t>(msg.index()));
    std::visit(Encoder{w}, msg);
    return frame_of(w);
}

CO_HOT_PATH Frame encode_message(const Message& msg, const obs::TraceContext& trace) {
    if (!trace.valid()) return encode_message(msg);
    CO_HOT_SCOPE("protocol.encode");
    encode_counter().inc();
    ByteWriter& w = scratch_writer();
    w.u8(kTraceExtensionTag);
    w.u64(trace.trace);
    w.u64(trace.span);
    w.u8(static_cast<std::uint8_t>(msg.index()));
    std::visit(Encoder{w}, msg);
    return frame_of(w);
}

CO_HOT_PATH Frame encode_message(const Message& msg, Arena& arena) {
    CO_HOT_SCOPE("protocol.encode");
    encode_counter().inc();
    ByteWriter& w = scratch_writer();
    w.u8(static_cast<std::uint8_t>(msg.index()));
    std::visit(Encoder{w}, msg);
    return frame_of(w, arena);
}

CO_HOT_PATH Frame encode_message(const Message& msg, const obs::TraceContext& trace,
                                 Arena& arena) {
    if (!trace.valid()) return encode_message(msg, arena);
    CO_HOT_SCOPE("protocol.encode");
    encode_counter().inc();
    ByteWriter& w = scratch_writer();
    w.u8(kTraceExtensionTag);
    w.u64(trace.trace);
    w.u64(trace.span);
    w.u8(static_cast<std::uint8_t>(msg.index()));
    std::visit(Encoder{w}, msg);
    return frame_of(w, arena);
}

namespace {

/// Decodes the message body (tag + payload + exhaustion check) from `r`,
/// which may already have consumed a trace extension prefix.
Result<Message> decode_body(ByteReader& r) {
    const std::uint8_t tag = r.u8();
    Message msg;
    switch (tag) {
        case tag_of<Register>(): {
            Register m;
            m.user = r.u32();
            m.user_name = r.str();
            m.host_name = r.str();
            m.app_name = r.str();
            m.version = r.u32();
            m.session = r.str();
            msg = std::move(m);
            break;
        }
        case tag_of<RegisterAck>(): {
            RegisterAck m;
            m.instance = r.u32();
            m.sync_follows = r.boolean();
            msg = m;
            break;
        }
        case tag_of<Unregister>(): {
            msg = Unregister{};
            break;
        }
        case tag_of<RegistryQuery>(): {
            RegistryQuery m;
            m.request = r.u64();
            msg = m;
            break;
        }
        case tag_of<RegistryReply>(): {
            RegistryReply m;
            m.request = r.u64();
            const std::uint32_t n = r.u32();
            for (std::uint32_t i = 0; i < n && r.ok(); ++i) m.instances.push_back(get_record(r));
            msg = std::move(m);
            break;
        }
        case tag_of<CoupleReq>(): {
            CoupleReq m;
            m.request = r.u64();
            m.source = decode_object_ref(r);
            m.dest = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<DecoupleReq>(): {
            DecoupleReq m;
            m.request = r.u64();
            m.source = decode_object_ref(r);
            m.dest = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<GroupUpdate>(): {
            GroupUpdate m;
            m.members = get_refs(r);
            msg = std::move(m);
            break;
        }
        case tag_of<LockReq>(): {
            LockReq m;
            m.action = r.u64();
            m.source = decode_object_ref(r);
            m.objects = get_refs(r);
            msg = std::move(m);
            break;
        }
        case tag_of<LockGrant>(): {
            LockGrant m;
            m.action = r.u64();
            msg = m;
            break;
        }
        case tag_of<LockDeny>(): {
            LockDeny m;
            m.action = r.u64();
            m.conflicting = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<LockNotify>(): {
            LockNotify m;
            m.action = r.u64();
            m.locked = r.boolean();
            m.objects = get_refs(r);
            msg = std::move(m);
            break;
        }
        case tag_of<EventMsg>(): {
            EventMsg m;
            m.action = r.u64();
            m.source = decode_object_ref(r);
            m.relative_path = r.str();
            m.event = toolkit::decode_event(r);
            msg = std::move(m);
            break;
        }
        case tag_of<ExecuteEvent>(): {
            ExecuteEvent m;
            m.action = r.u64();
            m.source = decode_object_ref(r);
            m.targets = get_refs(r);
            m.relative_path = r.str();
            m.event = toolkit::decode_event(r);
            msg = std::move(m);
            break;
        }
        case tag_of<ExecuteAck>(): {
            ExecuteAck m;
            m.action = r.u64();
            msg = m;
            break;
        }
        case tag_of<CopyTo>(): {
            CopyTo m;
            m.request = r.u64();
            m.dest = decode_object_ref(r);
            m.mode = get_mode(r);
            m.state = toolkit::decode_ui_state(r);
            m.semantic = r.bytes();
            msg = std::move(m);
            break;
        }
        case tag_of<CopyFrom>(): {
            CopyFrom m;
            m.request = r.u64();
            m.source = decode_object_ref(r);
            m.dest_path = r.str();
            m.mode = get_mode(r);
            msg = std::move(m);
            break;
        }
        case tag_of<RemoteCopy>(): {
            RemoteCopy m;
            m.request = r.u64();
            m.source = decode_object_ref(r);
            m.dest = decode_object_ref(r);
            m.mode = get_mode(r);
            msg = std::move(m);
            break;
        }
        case tag_of<StateQuery>(): {
            StateQuery m;
            m.request = r.u64();
            m.path = r.str();
            msg = std::move(m);
            break;
        }
        case tag_of<StateReply>(): {
            StateReply m;
            m.request = r.u64();
            m.path = r.str();
            m.found = r.boolean();
            m.state = toolkit::decode_ui_state(r);
            m.semantic = r.bytes();
            msg = std::move(m);
            break;
        }
        case tag_of<ApplyState>(): {
            ApplyState m;
            m.request = r.u64();
            m.dest_path = r.str();
            m.mode = get_mode(r);
            m.tag = get_tag(r);
            m.state = toolkit::decode_ui_state(r);
            m.semantic = r.bytes();
            m.origin = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<HistorySave>(): {
            HistorySave m;
            m.object = decode_object_ref(r);
            m.tag = get_tag(r);
            m.state = toolkit::decode_ui_state(r);
            msg = std::move(m);
            break;
        }
        case tag_of<UndoReq>(): {
            UndoReq m;
            m.request = r.u64();
            m.object = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<RedoReq>(): {
            RedoReq m;
            m.request = r.u64();
            m.object = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<Command>(): {
            Command m;
            m.request = r.u64();
            m.name = r.str();
            m.target = r.u32();
            m.payload = r.bytes();
            msg = std::move(m);
            break;
        }
        case tag_of<CommandDeliver>(): {
            CommandDeliver m;
            m.from = r.u32();
            m.name = r.str();
            m.payload = r.bytes();
            msg = std::move(m);
            break;
        }
        case tag_of<PermissionSet>(): {
            PermissionSet m;
            m.request = r.u64();
            m.user = r.u32();
            m.object = decode_object_ref(r);
            m.rights = r.u8();
            m.allow = r.boolean();
            msg = std::move(m);
            break;
        }
        case tag_of<Ack>(): {
            Ack m;
            m.request = r.u64();
            m.code = get_code(r);
            m.message = r.str();
            msg = std::move(m);
            break;
        }
        case tag_of<FetchState>(): {
            FetchState m;
            m.request = r.u64();
            m.source = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<SetCouplingMode>(): {
            SetCouplingMode m;
            m.request = r.u64();
            m.object = decode_object_ref(r);
            m.loose = r.boolean();
            msg = std::move(m);
            break;
        }
        case tag_of<SyncRequest>(): {
            SyncRequest m;
            m.request = r.u64();
            m.object = decode_object_ref(r);
            msg = std::move(m);
            break;
        }
        case tag_of<SyncBegin>(): {
            SyncBegin m;
            m.base_seq = r.u64();
            msg = m;
            break;
        }
        case tag_of<SyncState>(): {
            SyncState m;
            m.state = r.bytes();
            msg = std::move(m);
            break;
        }
        case tag_of<SyncStep>(): {
            SyncStep m;
            m.seq = r.u64();
            m.origin = r.u32();
            m.frame = r.bytes();
            msg = std::move(m);
            break;
        }
        case tag_of<SyncEnd>(): {
            SyncEnd m;
            m.last_seq = r.u64();
            msg = m;
            break;
        }
        default:
            return Error{ErrorCode::kBadMessage, "unknown message tag " + std::to_string(tag)};
    }
    if (!r.exhausted()) {
        return Error{ErrorCode::kBadMessage,
                     std::string{"malformed "} + std::string{message_name(msg)} + " frame"};
    }
    return msg;
}

}  // namespace

Result<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame) {
    ByteReader r{frame};
    DecodedFrame out;
    if (!frame.empty() && frame.front() == kTraceExtensionTag) {
        (void)r.u8();
        out.trace.trace = r.u64();
        out.trace.span = r.u64();
        // A zero trace id is the invalid context and never encoded; treating
        // it as an error keeps extension frames canonical (one prefix, valid
        // ids), so nesting the extension is also rejected here.
        if (!r.ok() || !out.trace.valid()) {
            return Error{ErrorCode::kBadMessage, "malformed trace-context extension"};
        }
    }
    auto msg = decode_body(r);
    if (!msg) return msg.error();
    out.message = std::move(msg).value();
    return out;
}

Result<Message> decode_message(std::span<const std::uint8_t> frame) {
    auto decoded = decode_frame(frame);
    if (!decoded) return decoded.error();
    return std::move(decoded).value().message;
}

std::string_view message_name(const Message& msg) noexcept {
    struct Namer {
        std::string_view operator()(const Register&) { return "Register"; }
        std::string_view operator()(const RegisterAck&) { return "RegisterAck"; }
        std::string_view operator()(const Unregister&) { return "Unregister"; }
        std::string_view operator()(const RegistryQuery&) { return "RegistryQuery"; }
        std::string_view operator()(const RegistryReply&) { return "RegistryReply"; }
        std::string_view operator()(const CoupleReq&) { return "CoupleReq"; }
        std::string_view operator()(const DecoupleReq&) { return "DecoupleReq"; }
        std::string_view operator()(const GroupUpdate&) { return "GroupUpdate"; }
        std::string_view operator()(const LockReq&) { return "LockReq"; }
        std::string_view operator()(const LockGrant&) { return "LockGrant"; }
        std::string_view operator()(const LockDeny&) { return "LockDeny"; }
        std::string_view operator()(const LockNotify&) { return "LockNotify"; }
        std::string_view operator()(const EventMsg&) { return "EventMsg"; }
        std::string_view operator()(const ExecuteEvent&) { return "ExecuteEvent"; }
        std::string_view operator()(const ExecuteAck&) { return "ExecuteAck"; }
        std::string_view operator()(const CopyTo&) { return "CopyTo"; }
        std::string_view operator()(const CopyFrom&) { return "CopyFrom"; }
        std::string_view operator()(const RemoteCopy&) { return "RemoteCopy"; }
        std::string_view operator()(const StateQuery&) { return "StateQuery"; }
        std::string_view operator()(const StateReply&) { return "StateReply"; }
        std::string_view operator()(const ApplyState&) { return "ApplyState"; }
        std::string_view operator()(const HistorySave&) { return "HistorySave"; }
        std::string_view operator()(const UndoReq&) { return "UndoReq"; }
        std::string_view operator()(const RedoReq&) { return "RedoReq"; }
        std::string_view operator()(const Command&) { return "Command"; }
        std::string_view operator()(const CommandDeliver&) { return "CommandDeliver"; }
        std::string_view operator()(const PermissionSet&) { return "PermissionSet"; }
        std::string_view operator()(const Ack&) { return "Ack"; }
        std::string_view operator()(const FetchState&) { return "FetchState"; }
        std::string_view operator()(const SetCouplingMode&) { return "SetCouplingMode"; }
        std::string_view operator()(const SyncRequest&) { return "SyncRequest"; }
        std::string_view operator()(const SyncBegin&) { return "SyncBegin"; }
        std::string_view operator()(const SyncState&) { return "SyncState"; }
        std::string_view operator()(const SyncStep&) { return "SyncStep"; }
        std::string_view operator()(const SyncEnd&) { return "SyncEnd"; }
    };
    return std::visit(Namer{}, msg);
}

std::vector<std::uint8_t> encode_sync_state(const SyncStateSection& s) {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(s.registry.size()));
    for (const auto& rec : s.registry) put_record(w, rec);
    w.u32(static_cast<std::uint32_t>(s.groups.size()));
    for (const auto& group : s.groups) put_refs(w, group);
    put_refs(w, s.loose);
    return w.data();
}

Result<SyncStateSection> decode_sync_state(std::span<const std::uint8_t> bytes) {
    ByteReader r{bytes};
    SyncStateSection s;
    const std::uint32_t nr = r.u32();
    s.registry.reserve(std::min<std::uint32_t>(nr, 4096));
    for (std::uint32_t i = 0; i < nr && r.ok(); ++i) s.registry.push_back(get_record(r));
    const std::uint32_t ng = r.u32();
    s.groups.reserve(std::min<std::uint32_t>(ng, 4096));
    for (std::uint32_t i = 0; i < ng && r.ok(); ++i) s.groups.push_back(get_refs(r));
    s.loose = get_refs(r);
    if (!r.ok() || !r.exhausted()) {
        return Error{ErrorCode::kBadMessage, "malformed sync-state section"};
    }
    return s;
}

}  // namespace cosoft::protocol
