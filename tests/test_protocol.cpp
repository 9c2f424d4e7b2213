// Wire-protocol tests: every message type round-trips; malformed frames are
// rejected rather than misparsed.
#include <gtest/gtest.h>

#include <string>

#include "cosoft/protocol/field_codec.hpp"
#include "cosoft/protocol/messages.hpp"
#include "helpers.hpp"

namespace cosoft::protocol {
namespace {

using testing::hex;

toolkit::UiState sample_state() {
    toolkit::UiState s;
    s.cls = toolkit::WidgetClass::kForm;
    s.name = "query";
    s.attributes = {{"title", std::string{"Q"}}};
    toolkit::UiState child;
    child.cls = toolkit::WidgetClass::kTextField;
    child.name = "author";
    child.attributes = {{"value", std::string{"Hoppe"}}};
    s.children.push_back(std::move(child));
    return s;
}

toolkit::Event sample_event() {
    toolkit::Event e;
    e.type = toolkit::EventType::kValueChanged;
    e.path = "query/author";
    e.payload = std::string{"Zhao"};
    return e;
}

std::vector<Message> all_samples() {
    return {
        Register{7, "alice", "host1", "tori"},
        RegisterAck{3},
        Unregister{},
        RegistryQuery{11},
        RegistryReply{11, {{1, 7, "alice", "host1", "tori"}, {2, 8, "bob", "host2", "cosoft"}}},
        CoupleReq{5, {1, "a/b"}, {2, "x/y"}},
        DecoupleReq{6, {1, "a/b"}, {2, "x/y"}},
        GroupUpdate{{{1, "a"}, {2, "b"}, {3, "c"}}},
        LockReq{9, {1, "a"}, {{1, "a"}, {2, "b"}}},
        LockGrant{9},
        LockDeny{9, {2, "b"}},
        LockNotify{9, true, {{2, "b"}}},
        EventMsg{9, {1, "a"}, "sub/field", sample_event()},
        ExecuteEvent{9, {1, "a"}, {{2, "b"}, {3, "c"}}, "sub/field", sample_event()},
        ExecuteAck{9},
        CopyTo{12, {2, "dst"}, MergeMode::kFlexible, sample_state(), {1, 2, 3}},
        CopyFrom{13, {2, "src"}, "local/dst", MergeMode::kDestructive},
        RemoteCopy{14, {2, "src"}, {3, "dst"}, MergeMode::kStrict},
        StateQuery{15, "some/path"},
        StateReply{15, "some/path", true, sample_state(), {9}},
        ApplyState{16, "dst/path", MergeMode::kFlexible, HistoryTag::kUndo, sample_state(), {7, 7}, {2, "src"}},
        HistorySave{{1, "obj"}, HistoryTag::kRedo, sample_state()},
        UndoReq{17, {1, "obj"}},
        RedoReq{18, {1, "obj"}},
        Command{19, "open-exercise", 4, {0xde, 0xad}},
        CommandDeliver{4, "open-exercise", {0xbe, 0xef}},
        PermissionSet{20, 7, {1, "board"}, kAllRights, false},
        Ack{21, ErrorCode::kLockConflict, "held elsewhere"},
        FetchState{22, {3, "exercise"}},
        SetCouplingMode{23, {1, "pad"}, true},
        SyncRequest{24, {1, "pad"}},
        SyncBegin{41},
        SyncState{{0x01, 0x02, 0x03}},
        SyncStep{42, 3, {0xca, 0xfe}},
        SyncEnd{43},
    };
}

class MessageRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MessageRoundTrip, EncodeDecodePreservesEverything) {
    const Message original = all_samples()[GetParam()];
    const auto frame = encode_message(original);
    auto decoded = decode_message(frame);
    ASSERT_TRUE(decoded.is_ok()) << message_name(original) << ": " << decoded.error().message;
    EXPECT_EQ(decoded.value(), original) << message_name(original);
    EXPECT_EQ(message_name(decoded.value()), message_name(original));
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MessageRoundTrip,
                         ::testing::Range<std::size_t>(0, std::variant_size_v<Message>),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             return std::string{message_name(all_samples()[info.param])};
                         });

TEST(MessageDecode, SampleSetCoversEveryVariantAlternative) {
    // Guards against someone adding a message type without a round-trip test.
    ASSERT_EQ(all_samples().size(), std::variant_size_v<Message>);
    std::vector<bool> seen(std::variant_size_v<Message>, false);
    for (const Message& m : all_samples()) seen[m.index()] = true;
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_TRUE(seen[i]) << "variant index " << i;
}

TEST(MessageDecode, UnknownTagRejected) {
    const std::vector<std::uint8_t> frame{0xff, 0x00};
    EXPECT_FALSE(decode_message(frame).is_ok());
}

TEST(MessageDecode, EmptyFrameRejected) {
    // An empty frame decodes tag 0 from a failed reader; it must not be
    // accepted as a valid Register.
    EXPECT_FALSE(decode_message(std::span<const std::uint8_t>{}).is_ok());
}

TEST(MessageDecode, TruncatedFramesRejected) {
    for (const Message& m : all_samples()) {
        const auto frame = encode_message(m);
        if (frame.size() <= 1) continue;
        // Chop the frame at several points; none may decode successfully.
        for (const std::size_t cut : {frame.size() / 2, frame.size() - 1}) {
            if (cut == 0) continue;
            const std::span<const std::uint8_t> truncated{frame.data(), cut};
            const auto decoded = decode_message(truncated);
            if (decoded.is_ok()) {
                // Only acceptable if truncation removed nothing semantic —
                // never the case for our length-prefixed encodings.
                FAIL() << message_name(m) << " decoded from a truncated frame of " << cut << "/"
                       << frame.size() << " bytes";
            }
        }
    }
}

TEST(MessageDecode, TrailingGarbageRejected) {
    auto bytes = encode_message(Message{LockGrant{1}}).to_vector();
    bytes.push_back(0x77);
    EXPECT_FALSE(decode_message(bytes).is_ok());
}

std::vector<std::uint8_t> unhex(std::string_view text) {
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(std::stoi(std::string{text.substr(i, 2)}, nullptr, 16)));
    }
    return out;
}

// The wire bytes of every sample, pinned as protocol v4 encodes them. The
// round-trip tests cannot see a layout change once encode and decode are
// generated from the same field list (both sides would move together), so
// these literals are the referee for "the wire format did not change".
// Indexed like all_samples(), which is variant (= wire tag) order.
constexpr const char* kGoldenFrames[] = {
    "000705616c69636505686f73743104746f72690400",  // Register
    "010300",  // RegisterAck
    "02",  // Unregister
    "030b",  // RegistryQuery
    "040b02010705616c69636505686f73743104746f7269020803626f6205686f73743206636f736f6674",  // RegistryReply
    "05050103612f620203782f79",  // CoupleReq
    "06060103612f620203782f79",  // DecoupleReq
    "0703010161020162030163",  // GroupUpdate
    "080901016102010161020162",  // LockReq
    "0909",  // LockGrant
    "0a09020162",  // LockDeny
    "0b090101020162",  // LockNotify
    "0c09010161097375622f6669656c64010c71756572792f617574686f7204045a68616f00",  // EventMsg
    "0d0901016102020162030163097375622f6669656c64010c71756572792f617574686f7204045a68616f00",  // ExecuteEvent
    "0e09",  // ExecuteAck
    "0f0c0203647374020005717565727901057469746c65040151010306617574686f72010576616c75650405486f7070650003010203",  // CopyTo
    "100d0203737263096c6f63616c2f64737401",  // CopyFrom
    "110e0203737263030364737400",  // RemoteCopy
    "120f09736f6d652f70617468",  // StateQuery
    "130f09736f6d652f70617468010005717565727901057469746c65040151010306617574686f72010576616c75650405486f707065000109",  // StateReply
    "1410086473742f7061746802010005717565727901057469746c65040151010306617574686f72010576616c75650405486f707065000207070203737263",  // ApplyState
    "1501036f626a020005717565727901057469746c65040151010306617574686f72010576616c75650405486f70706500",  // HistorySave
    "161101036f626a",  // UndoReq
    "171201036f626a",  // RedoReq
    "18130d6f70656e2d65786572636973650402dead",  // Command
    "19040d6f70656e2d657865726369736502beef",  // CommandDeliver
    "1a14070105626f6172640700",  // PermissionSet
    "1b15040e68656c6420656c73657768657265",  // Ack
    "1c1603086578657263697365",  // FetchState
    "1d17010370616401",  // SetCouplingMode
    "1e180103706164",  // SyncRequest
    "1f29",  // SyncBegin
    "2003010203",  // SyncState
    "212a0302cafe",  // SyncStep
    "222b",  // SyncEnd
};

TEST(WireGolden, EverySampleEncodesToItsPinnedBytes) {
    const auto samples = all_samples();
    ASSERT_EQ(std::size(kGoldenFrames), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(hex(encode_message(samples[i])), kGoldenFrames[i]) << message_name(samples[i]);
    }
}

TEST(WireGolden, EveryPinnedFrameDecodesToItsSample) {
    const auto samples = all_samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto decoded = decode_message(unhex(kGoldenFrames[i]));
        ASSERT_TRUE(decoded.is_ok()) << message_name(samples[i]) << ": " << decoded.error().message;
        EXPECT_EQ(decoded.value(), samples[i]) << message_name(samples[i]);
    }
}

TEST(WireGolden, TraceExtensionFrameIsPinned) {
    const Message msg = LockReq{9, {1, "a"}, {{1, "a"}, {2, "b"}}};
    EXPECT_EQ(hex(encode_message(msg, obs::TraceContext{0x1122334455667788ULL, 0x99})),
              "e788ef99abc5e88c91119901080901016102010161020162");
}

TEST(WireGolden, SyncStateSectionIsPinned) {
    const SyncStateSection section{
        {{1, 7, "alice", "host1", "tori"}, {2, 8, "bob", "host2", "cosoft"}},
        {{{1, "a"}, {2, "b"}}, {{1, "pad"}, {3, "pad"}, {4, "pad"}}},
        {{3, "pad"}},
    };
    EXPECT_EQ(hex(encode_sync_state(section)),
              "02010705616c69636505686f73743104746f7269020803626f6205686f73743206636f736f6674"
              "020201016102016203010370616403037061640403706164010303706164");
}

TEST(ObjectRefCodec, RoundTrip) {
    ByteWriter w;
    encode_field(w, ObjectRef{42, "a/b/c"});
    ByteReader r{w.data()};
    ObjectRef ref;
    decode_field(r, ref);
    EXPECT_EQ(ref, (ObjectRef{42, "a/b/c"}));
    EXPECT_TRUE(r.exhausted());
}

TEST(Rights, MaskSemantics) {
    constexpr auto mask = static_cast<RightsMask>(static_cast<RightsMask>(Right::kView) |
                                                  static_cast<RightsMask>(Right::kModify));
    EXPECT_TRUE(mask & static_cast<RightsMask>(Right::kView));
    EXPECT_FALSE(mask & static_cast<RightsMask>(Right::kCouple));
    EXPECT_EQ(kAllRights, 7);
}

}  // namespace
}  // namespace cosoft::protocol
