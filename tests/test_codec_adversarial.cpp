// Adversarial decoding: the wire codec must turn arbitrary bytes into a
// Status error — never a crash, hang, or out-of-bounds read. Exercises
// truncation at every length, single-byte mutation at every offset, pure
// garbage, deep-nesting bombs, and absurd collection counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/toolkit/snapshot.hpp"

namespace cosoft {
namespace {

using protocol::Message;

/// A corpus covering every field shape: strings, refs, enums, nested
/// UiStates, events, byte blobs, numeric ids.
std::vector<Message> corpus() {
    const ObjectRef a{3, "panel/field"};
    const ObjectRef b{9, "canvas"};
    toolkit::UiState state;
    state.cls = toolkit::WidgetClass::kTextField;
    state.name = "field";
    state.attributes.push_back({"value", toolkit::AttributeValue{std::string{"hello"}}});
    toolkit::UiState child = state;
    child.name = "inner";
    state.children.push_back(child);

    toolkit::Event event;
    event.type = toolkit::EventType::kValueChanged;
    event.payload = toolkit::AttributeValue{std::string{"x"}};

    std::vector<Message> out;
    out.push_back(protocol::Register{1, "alice", "host", "editor", protocol::kProtocolVersion});
    out.push_back(protocol::RegisterAck{7});
    out.push_back(protocol::RegistryReply{4, {{3, 1, "alice", "host", "editor"}}});
    out.push_back(protocol::CoupleReq{5, a, b});
    out.push_back(protocol::GroupUpdate{{a, b}});
    out.push_back(protocol::LockReq{6, a, {a, b}});
    out.push_back(protocol::LockDeny{6, b});
    out.push_back(protocol::LockNotify{6, true, {a}});
    out.push_back(protocol::EventMsg{6, a, "sub/widget", event});
    out.push_back(protocol::ExecuteEvent{6, a, {a, b}, "", event});
    out.push_back(protocol::CopyTo{8, b, protocol::MergeMode::kFlexible, state, {0x01, 0x02}});
    out.push_back(protocol::ApplyState{9, "dest", protocol::MergeMode::kDestructive,
                                       protocol::HistoryTag::kUndo, state, {}, a});
    out.push_back(protocol::StateReply{10, "p", true, state, {0xff}});
    out.push_back(protocol::HistorySave{a, protocol::HistoryTag::kRedo, state});
    out.push_back(protocol::Command{11, "vote", b.instance, {1, 2, 3}});
    out.push_back(protocol::PermissionSet{12, 2, a, protocol::kAllRights, false});
    out.push_back(protocol::Ack{13, ErrorCode::kPermissionDenied, "nope"});
    return out;
}

/// Decoding must terminate and either fail or yield a re-encodable message.
void expect_graceful(std::span<const std::uint8_t> frame) {
    const auto decoded = protocol::decode_message(frame);
    if (decoded) {
        (void)protocol::encode_message(decoded.value());
    } else {
        EXPECT_FALSE(decoded.status().is_ok());
    }
}

TEST(CodecAdversarial, CorpusRoundTrips) {
    for (const Message& m : corpus()) {
        const auto bytes = protocol::encode_message(m);
        const auto decoded = protocol::decode_message(bytes);
        ASSERT_TRUE(decoded.is_ok()) << protocol::message_name(m);
        EXPECT_TRUE(decoded.value() == m) << protocol::message_name(m);
    }
}

TEST(CodecAdversarial, EveryTruncationFailsGracefully) {
    for (const Message& m : corpus()) {
        const auto bytes = protocol::encode_message(m);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
            expect_graceful(std::span<const std::uint8_t>{bytes.data(), len});
        }
    }
}

TEST(CodecAdversarial, EverySingleByteMutationFailsGracefully) {
    for (const Message& m : corpus()) {
        const auto bytes = protocol::encode_message(m).to_vector();
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            for (const std::uint8_t delta : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xff}}) {
                auto mutated = bytes;
                mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ delta);
                expect_graceful(mutated);
            }
        }
    }
}

TEST(CodecAdversarial, GarbageFramesFailGracefully) {
    // Deterministic xorshift garbage; a few hundred frames of assorted sizes.
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<std::uint8_t>(x);
    };
    for (int round = 0; round < 400; ++round) {
        std::vector<std::uint8_t> frame(static_cast<std::size_t>(round % 97));
        for (auto& byte : frame) byte = next();
        expect_graceful(frame);
    }
}

/// One message per enum field on the wire, carrying the given enum values.
std::vector<std::pair<std::string, Message>> enum_field_cases(protocol::MergeMode mode, protocol::HistoryTag tag,
                                                              ErrorCode code) {
    const ObjectRef a{1, "a"};
    return {
        {"CopyTo.mode", protocol::CopyTo{3, a, mode, {}, {}}},
        {"CopyFrom.mode", protocol::CopyFrom{3, a, "b", mode}},
        {"RemoteCopy.mode", protocol::RemoteCopy{3, a, a, mode}},
        {"ApplyState.mode", protocol::ApplyState{3, "d", mode, protocol::HistoryTag::kNormal, {}, {}, a}},
        {"ApplyState.tag", protocol::ApplyState{3, "d", protocol::MergeMode::kStrict, tag, {}, {}, a}},
        {"HistorySave.tag", protocol::HistorySave{a, tag, {}}},
        {"Ack.code", protocol::Ack{3, code, "x"}},
    };
}

template <typename E>
constexpr E one_past_max() {
    return static_cast<E>(static_cast<std::uint8_t>(enum_max(E{})) + 1);
}

TEST(CodecAdversarial, OutOfRangeEnumBytesAreRejected) {
    // The largest valid value of each enum decodes; one above it is refused.
    for (const auto& [field, msg] :
         enum_field_cases(enum_max(protocol::MergeMode{}), enum_max(protocol::HistoryTag{}), enum_max(ErrorCode{}))) {
        const auto decoded = protocol::decode_message(protocol::encode_message(msg));
        ASSERT_TRUE(decoded.is_ok()) << field << ": " << decoded.error().message;
        EXPECT_EQ(decoded.value(), msg) << field;
    }
    const auto cases = enum_field_cases(one_past_max<protocol::MergeMode>(), one_past_max<protocol::HistoryTag>(),
                                        one_past_max<ErrorCode>());
    ASSERT_EQ(cases.size(), 7u);
    for (const auto& [field, msg] : cases) {
        const auto decoded = protocol::decode_message(protocol::encode_message(msg));
        ASSERT_FALSE(decoded.is_ok()) << field << " accepted an out-of-range enum byte";
        EXPECT_EQ(decoded.code(), ErrorCode::kBadMessage) << field;
    }
}

TEST(CodecAdversarial, DeepNestingBombIsRejected) {
    // 300 nested children overflow the decoder's depth budget (128); the
    // decode must fail cleanly instead of recursing without bound.
    toolkit::UiState bomb;
    bomb.cls = toolkit::WidgetClass::kForm;
    bomb.name = "w";
    for (int i = 0; i < 300; ++i) {
        toolkit::UiState parent;
        parent.cls = toolkit::WidgetClass::kForm;
        parent.name = "w";
        parent.children.push_back(std::move(bomb));
        bomb = std::move(parent);
    }
    ByteWriter w;
    toolkit::encode(w, bomb);
    ByteReader r{w.data()};
    (void)toolkit::decode_ui_state(r);
    EXPECT_FALSE(r.ok());

    // A tree inside the budget still round-trips.
    toolkit::UiState shallow;
    shallow.cls = toolkit::WidgetClass::kForm;
    shallow.name = "w";
    for (int i = 0; i < 40; ++i) {
        toolkit::UiState parent;
        parent.cls = toolkit::WidgetClass::kForm;
        parent.name = "w";
        parent.children.push_back(std::move(shallow));
        shallow = std::move(parent);
    }
    ByteWriter w2;
    toolkit::encode(w2, shallow);
    ByteReader r2{w2.data()};
    const toolkit::UiState back = toolkit::decode_ui_state(r2);
    ASSERT_TRUE(r2.ok());
    EXPECT_TRUE(back == shallow);
}

TEST(CodecAdversarial, AbsurdCollectionCountIsRejected) {
    // Hand-craft a GroupUpdate frame claiming ~268M members with no payload:
    // reuse a real frame's tag byte, then splice in a huge varint count.
    const auto valid = protocol::encode_message(protocol::GroupUpdate{{}});
    ASSERT_FALSE(valid.empty());
    std::vector<std::uint8_t> frame{valid.data()[0]};
    for (int i = 0; i < 4; ++i) frame.push_back(0xff);
    frame.push_back(0x0f);
    const auto decoded = protocol::decode_message(frame);
    EXPECT_FALSE(decoded.is_ok());
}

TEST(CodecAdversarial, EventWithInvalidTypeIsRejected) {
    toolkit::Event event;
    event.type = toolkit::EventType::kValueChanged;
    ByteWriter w;
    toolkit::encode(w, event);
    auto bytes = w.take();
    bytes[0] = 0x77;  // event type is the leading byte; 0x77 is out of range
    ByteReader r{bytes};
    (void)toolkit::decode_event(r);
    EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace cosoft
