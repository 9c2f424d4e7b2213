#include "cosoft/protocol/messages.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "cosoft/common/arena.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/protocol/field_codec.hpp"

namespace cosoft::protocol {

namespace {

/// Decodes alternative `tag` of Message in place. The fold makes one direct
/// call per alternative rather than indexing a table of function pointers:
/// the hot-path gate (scripts/hotpath_analyze) follows only direct calls, so
/// a pointer table would hide every field decoder — and the allocations in
/// them — from the CoSession::dispatch_frame root it audits.
template <std::size_t... I>
bool decode_alternative(std::uint8_t tag, ByteReader& r, Message& msg, std::index_sequence<I...>) {
    return ((tag == I && (decode_field(r, msg.emplace<I>()), true)) || ...);
}

/// Decodes the message body (tag + fields + exhaustion check) from `r`,
/// which may already have consumed a trace extension prefix.
Status decode_body(ByteReader& r, Message& msg) {
    const std::uint8_t tag = r.u8();
    if (!decode_alternative(tag, r, msg, std::make_index_sequence<std::variant_size_v<Message>>{})) {
        return Status{ErrorCode::kBadMessage, "unknown message tag " + std::to_string(tag)};
    }
    if (!r.exhausted()) {
        return Status{ErrorCode::kBadMessage,
                      std::string{"malformed "} + std::string{message_name(msg)} + " frame"};
    }
    return Status::ok();
}

// The encode-once instrumentation lives in the global metrics registry; the
// function-local reference keeps the hot path at one relaxed increment.
obs::Counter& encode_counter() {
    static obs::Counter& counter = obs::Registry::global().counter("cosoft_protocol_encodes_total");
    return counter;
}

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

/// Counts one encode and writes `[trace extension] tag fields` into the
/// scratch writer.
ByteWriter& encode_to_scratch(const Message& msg, const obs::TraceContext& trace) {
    encode_counter().inc();
    ByteWriter& w = scratch_writer();
    if (trace.valid()) {
        w.u8(kTraceExtensionTag);
        w.u64(trace.trace);
        w.u64(trace.span);
    }
    std::visit(
        [&w](const auto& m) {
            w.u8(tag_of<std::decay_t<decltype(m)>>());
            encode_field(w, m);
        },
        msg);
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

std::uint64_t encode_count() noexcept { return encode_counter().value(); }
void reset_encode_count() noexcept { encode_counter().reset(); }

CO_HOT_PATH Frame encode_message(const Message& msg) {
    CO_HOT_SCOPE("protocol.encode");
    return frame_of(encode_to_scratch(msg, obs::TraceContext{}));
}

CO_HOT_PATH Frame encode_message(const Message& msg, const obs::TraceContext& trace) {
    CO_HOT_SCOPE("protocol.encode");
    return frame_of(encode_to_scratch(msg, trace));
}

CO_HOT_PATH Frame encode_message(const Message& msg, Arena& arena) {
    CO_HOT_SCOPE("protocol.encode");
    return frame_of(encode_to_scratch(msg, obs::TraceContext{}), arena);
}

CO_HOT_PATH Frame encode_message(const Message& msg, const obs::TraceContext& trace,
                                 Arena& arena) {
    CO_HOT_SCOPE("protocol.encode");
    return frame_of(encode_to_scratch(msg, trace), arena);
}

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
    if (Status body = decode_body(r, out.message); !body) return body.error();
    return out;
}

Result<Message> decode_message(std::span<const std::uint8_t> frame) {
    auto decoded = decode_frame(frame);
    if (!decoded) return decoded.error();
    return std::move(decoded).value().message;
}

std::string_view message_name(const Message& msg) noexcept {
    return std::visit([](const auto& m) { return std::decay_t<decltype(m)>::kName; }, msg);
}

std::vector<std::uint8_t> encode_sync_state(const SyncStateSection& s) {
    ByteWriter w;
    encode_field(w, s);
    return w.take();
}

Result<SyncStateSection> decode_sync_state(std::span<const std::uint8_t> bytes) {
    ByteReader r{bytes};
    SyncStateSection s;
    decode_field(r, s);
    if (!r.exhausted()) return Error{ErrorCode::kBadMessage, "malformed sync-state section"};
    return s;
}

}  // namespace cosoft::protocol
