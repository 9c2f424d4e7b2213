// Codec robustness properties: random garbage never crashes the decoder;
// random mutations of valid frames either fail cleanly or decode to a
// message that re-encodes consistently; random UiState trees round-trip.
#include <gtest/gtest.h>

#include "cosoft/protocol/messages.hpp"
#include "cosoft/sim/rng.hpp"

namespace cosoft::protocol {
namespace {

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesNeverCrash) {
    sim::Rng rng{GetParam()};
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> frame(rng.below(64));
        for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
        const auto decoded = decode_message(frame);
        if (decoded.is_ok()) {
            // Whatever parsed must re-encode without crashing.
            const auto reencoded = encode_message(decoded.value());
            EXPECT_FALSE(reencoded.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(101, 202, 303, 404));

TEST(CodecFuzz, MutatedValidFramesAreHandled) {
    sim::Rng rng{555};
    const Message original = EventMsg{
        7,
        {1, "tori/query"},
        "author",
        toolkit::Event{toolkit::EventType::kValueChanged, "tori/query/author", std::string{"Hoppe"}, "k"}};
    const auto frame = encode_message(original).to_vector();
    for (int i = 0; i < 3000; ++i) {
        auto mutated = frame;
        const std::size_t pos = rng.below(mutated.size());
        mutated[pos] = static_cast<std::uint8_t>(rng.below(256));
        const auto decoded = decode_message(mutated);
        if (decoded.is_ok()) {
            const auto reencoded = encode_message(decoded.value());
            const auto redecoded = decode_message(reencoded);
            ASSERT_TRUE(redecoded.is_ok());
            EXPECT_EQ(redecoded.value(), decoded.value());
        }
    }
}

toolkit::UiState random_state(sim::Rng& rng, int depth) {
    toolkit::UiState s;
    s.cls = static_cast<toolkit::WidgetClass>(rng.below(toolkit::kWidgetClassCount));
    s.name = "n" + std::to_string(rng.below(1000));
    const std::uint64_t attrs = rng.below(4);
    for (std::uint64_t i = 0; i < attrs; ++i) {
        toolkit::AttributeValue v;
        switch (rng.below(5)) {
            case 0: v = rng.chance(0.5); break;
            case 1: v = static_cast<std::int64_t>(rng.range(-1000, 1000)); break;
            case 2: v = rng.uniform01() * 100; break;
            case 3: v = std::string(rng.below(20), 'x'); break;
            default: v = std::vector<std::string>{"a", std::string(rng.below(8), 'y')}; break;
        }
        s.attributes.emplace_back("attr" + std::to_string(i), std::move(v));
    }
    if (depth > 0) {
        const std::uint64_t kids = rng.below(4);
        for (std::uint64_t i = 0; i < kids; ++i) {
            toolkit::UiState child = random_state(rng, depth - 1);
            child.name = "c" + std::to_string(i);
            s.children.push_back(std::move(child));
        }
    }
    return s;
}

class StateRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateRoundTrip, RandomTreesSurviveTheWire) {
    sim::Rng rng{GetParam()};
    for (int i = 0; i < 100; ++i) {
        const toolkit::UiState s = random_state(rng, 4);
        // Ship it inside the message that actually carries states.
        const Message msg = ApplyState{1, "dest", MergeMode::kFlexible, HistoryTag::kNormal, s, {}, {1, "src"}};
        const auto decoded = decode_message(encode_message(msg));
        ASSERT_TRUE(decoded.is_ok());
        EXPECT_EQ(std::get<ApplyState>(decoded.value()).state, s);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateRoundTrip, ::testing::Values(1, 7, 42, 1994));

// --- every-message round-trip property ---------------------------------------

std::string random_name(sim::Rng& rng) {
    std::string s;
    const std::uint64_t n = rng.below(12);
    for (std::uint64_t i = 0; i < n; ++i) s.push_back(static_cast<char>('a' + rng.below(26)));
    return s;
}

ObjectRef random_ref(sim::Rng& rng) {
    return {static_cast<InstanceId>(1 + rng.below(1000)), random_name(rng) + "/" + random_name(rng)};
}

std::vector<ObjectRef> random_refs(sim::Rng& rng) {
    std::vector<ObjectRef> out(rng.below(5));
    for (auto& r : out) r = random_ref(rng);
    return out;
}

std::vector<std::uint8_t> random_bytes(sim::Rng& rng) {
    std::vector<std::uint8_t> out(rng.below(32));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
    return out;
}

toolkit::Event random_event(sim::Rng& rng) {
    toolkit::Event e;
    e.type = static_cast<toolkit::EventType>(rng.below(toolkit::kEventTypeCount));
    e.path = random_name(rng);
    if (rng.chance(0.7)) e.payload = random_name(rng);
    if (rng.chance(0.3)) e.detail = random_name(rng);
    return e;
}

MergeMode random_mode(sim::Rng& rng) { return static_cast<MergeMode>(rng.below(3)); }
HistoryTag random_tag(sim::Rng& rng) { return static_cast<HistoryTag>(rng.below(3)); }

RegistrationRecord random_record(sim::Rng& rng) {
    return {static_cast<InstanceId>(1 + rng.below(1000)), static_cast<UserId>(1 + rng.below(1000)),
            random_name(rng), random_name(rng), random_name(rng)};
}

/// One randomized instance of the `index`-th Message alternative. The switch
/// is exhaustive over the variant: adding a message type without extending
/// this generator fails the static_assert below.
Message random_message(std::size_t index, sim::Rng& rng) {
    switch (index) {
        case 0: return Register{static_cast<UserId>(rng.below(1000)), random_name(rng), random_name(rng),
                                random_name(rng), static_cast<std::uint32_t>(rng.below(16)),
                                random_name(rng)};
        case 1: return RegisterAck{static_cast<InstanceId>(rng.below(1000))};
        case 2: return Unregister{};
        case 3: return RegistryQuery{rng.next()};
        case 4: {
            RegistryReply reply{rng.next(), {}};
            const std::uint64_t n = rng.below(4);
            for (std::uint64_t i = 0; i < n; ++i) reply.instances.push_back(random_record(rng));
            return reply;
        }
        case 5: return CoupleReq{rng.next(), random_ref(rng), random_ref(rng)};
        case 6: return DecoupleReq{rng.next(), random_ref(rng), random_ref(rng)};
        case 7: return GroupUpdate{random_refs(rng)};
        case 8: return LockReq{rng.next(), random_ref(rng), random_refs(rng)};
        case 9: return LockGrant{rng.next()};
        case 10: return LockDeny{rng.next(), random_ref(rng)};
        case 11: return LockNotify{rng.next(), rng.chance(0.5), random_refs(rng)};
        case 12: return EventMsg{rng.next(), random_ref(rng), random_name(rng), random_event(rng)};
        case 13: return ExecuteEvent{rng.next(), random_ref(rng), random_refs(rng), random_name(rng),
                                     random_event(rng)};
        case 14: return ExecuteAck{rng.next()};
        case 15: return CopyTo{rng.next(), random_ref(rng), random_mode(rng), random_state(rng, 2),
                               random_bytes(rng)};
        case 16: return CopyFrom{rng.next(), random_ref(rng), random_name(rng), random_mode(rng)};
        case 17: return RemoteCopy{rng.next(), random_ref(rng), random_ref(rng), random_mode(rng)};
        case 18: return StateQuery{rng.next(), random_name(rng)};
        case 19: return StateReply{rng.next(), random_name(rng), rng.chance(0.5), random_state(rng, 2),
                                   random_bytes(rng)};
        case 20: return ApplyState{rng.next(), random_name(rng), random_mode(rng), random_tag(rng),
                                   random_state(rng, 2), random_bytes(rng), random_ref(rng)};
        case 21: return HistorySave{random_ref(rng), random_tag(rng), random_state(rng, 2)};
        case 22: return UndoReq{rng.next(), random_ref(rng)};
        case 23: return RedoReq{rng.next(), random_ref(rng)};
        case 24: return Command{rng.next(), random_name(rng), static_cast<InstanceId>(rng.below(1000)),
                                random_bytes(rng)};
        case 25: return CommandDeliver{static_cast<InstanceId>(rng.below(1000)), random_name(rng),
                                       random_bytes(rng)};
        case 26: return PermissionSet{rng.next(), static_cast<UserId>(rng.below(1000)), random_ref(rng),
                                      static_cast<RightsMask>(rng.below(8)), rng.chance(0.5)};
        case 27: return Ack{rng.next(), static_cast<ErrorCode>(rng.below(13)), random_name(rng)};
        case 28: return FetchState{rng.next(), random_ref(rng)};
        case 29: return SetCouplingMode{rng.next(), random_ref(rng), rng.chance(0.5)};
        case 30: return SyncRequest{rng.next(), random_ref(rng)};
        case 31: return SyncBegin{rng.next()};
        case 32: return SyncState{random_bytes(rng)};
        case 33: return SyncStep{rng.next(), static_cast<InstanceId>(rng.below(1000)), random_bytes(rng)};
        case 34: return SyncEnd{rng.next()};
        default: return Unregister{};
    }
}

static_assert(std::variant_size_v<Message> == 35,
              "a Message alternative was added or removed: extend random_message() to cover it");

class EveryMessageRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EveryMessageRoundTrip, RandomPayloadsReencodeByteExact) {
    sim::Rng rng{GetParam()};
    for (int repeat = 0; repeat < 40; ++repeat) {
        for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
            const Message original = random_message(index, rng);
            const auto frame = encode_message(original);
            auto decoded = decode_message(frame);
            ASSERT_TRUE(decoded.is_ok())
                << message_name(original) << ": " << decoded.error().message;
            EXPECT_EQ(decoded.value(), original) << message_name(original);
            // Byte-exact re-encode: the codec must be canonical, not merely
            // value-preserving, or journal replay ordering could diverge.
            EXPECT_EQ(encode_message(decoded.value()), frame) << message_name(original);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EveryMessageRoundTrip, ::testing::Values(11, 97, 1994, 31337));

TEST(CodecFuzz, RandomEventsRoundTripThroughEventMsg) {
    sim::Rng rng{31337};
    for (int i = 0; i < 500; ++i) {
        toolkit::Event e;
        e.type = static_cast<toolkit::EventType>(rng.below(toolkit::kEventTypeCount));
        e.path = "p" + std::to_string(rng.below(100));
        if (rng.chance(0.5)) e.payload = std::string(rng.below(40), 'z');
        if (rng.chance(0.3)) e.detail = "d";
        const Message msg = EventMsg{rng.next(), {1, "root"}, "rel", e};
        const auto decoded = decode_message(encode_message(msg));
        ASSERT_TRUE(decoded.is_ok());
        EXPECT_EQ(std::get<EventMsg>(decoded.value()).event, e);
    }
}

}  // namespace
}  // namespace cosoft::protocol
